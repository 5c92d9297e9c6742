"""Per-op cost of the benchmark's rwkv7-bound ops, in one process.

The five workload ops are perfbench's own units: each tree imports this
checkout's perfbench/workloads.py against its own lindrive and sets up
Drive and Stream as a run does (setup(), then round 0's inputs):

    drive   Drive.plan, one planning frame, float64: FusionSession.step,
            assemble_bev, derive_agent_queries, decode (2 layers x 2 steps
            over 16 anchors), select_best and score_trajectory
    stream  Stream's op, one fused frame, float32: FusionSession.step
    resume  Stream.resume of a session that has streamed the round's 64
            frames: save, restore into a fresh FusionSession, step
    drive_history   Drive.history, float64: fuse_parallel over a 16-frame
            (512-token) window
    stream_history  Stream.history, float32: fuse_parallel over a 64-frame
            (2,048-token) window
    kernel/<dtype>/d<d>h<heads>/T<T>  24 ops, each one rwkv7.chunk_readouts
            call, in float32 or float64, at (width, heads) (64, 1), (64, 4)
            or (16, 4) and T = 8, 17, 32 or 512 tokens, on the elements a
            seeded block projects after a 64-token prefix. The inputs are
            built once, with this tree's rwkv7, so an --against tree only
            has to accept the call.

For each op it counts the Python-level and the C-level calls of one op
after a warm-up episode (sys.setprofile "call" and "c_call" events). The
op is the same frame or window of the same seeded inputs every time, so the
counts repeat exactly for a given numpy and Python.

It then times episodes of ops (16 frames of drive, each episode from a
fresh session, and 64 of stream; 16 resumes of the one streamed session;
8 windows of drive_history, alternating, and 4 of stream_history, each
shifted by one frame; 16 calls of a kernel op). For each op it reports the
median over passes of each pass's median wall ms per op (ms_per_op) and
the fastest pass's (ms_min), the median system-time ms per op
(sys_ms_per_op), and the median, min and max of the minor page faults
(ru_minflt) per op: minflt_per_op, minflt_min and minflt_max. A minor
fault is a page the kernel maps in when the process first touches it;
here mostly memory that glibc handed back to the OS after one op and the
next op asks for again, so each is wasted system time. The count repeats
closely where wall time does not, but glibc sets its trim and mmap
thresholds from the largest blocks freed so far, so it depends on what
else ran in the process: compare counts only between trees run the same
way. Last, fuse_peak_bytes holds the tracemalloc peak of one fuse_parallel
call above its input and its output, after a warm-up call, in float32 and
float64 at 512, 2,048 and 8,192 tokens: the working memory of the history
rebuild.

With --against PATH it also loads the lindrive package of the checkout at
PATH into this process, under another module name, reports all of the
above for both trees and alternates them pass by pass, swapping which runs
first: a slow spell of the machine then falls on both. Each op also gets
the median over passes of the pair ratio (this tree's median op over the
other's) and the passes this tree won. Every BLAS is pinned to one thread.
The output is one JSON object.

    python tools/opbench.py                          # this tree, 40 passes
    python tools/opbench.py --against ../parent      # A/B against another checkout
    python tools/opbench.py --quick                  # 2 short passes, for a smoke run
"""

from __future__ import annotations

import os

# must precede the first numpy import, which sizes the BLAS thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
COUNTED_FRAME = 3  # the frame whose op is counted
KERNEL_PREFIX = 64  # tokens the block runs before a kernel op's inputs
PASSES = 40
PEAK_TOKENS = (512, 2048, 8192)
SEED = 1  # perfbench/run.py's default --seed


def load_tree(checkout: Path, name: str):
    """The lindrive package of `checkout`, imported as module `name`."""
    pkg = checkout.resolve() / "src" / "lindrive"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(pkg):
    """This checkout's perfbench/workloads.py, imported with `pkg` as its
    lindrive; sys.modules["lindrive"], this tree's, is put back afterwards."""
    saved = sys.modules["lindrive"]
    sys.modules["lindrive"] = pkg
    sys.path.insert(0, str(PERFBENCH))  # for its `import oracle`
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{pkg.__name__}", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules["lindrive"] = saved
    return module


def workload_ops(wl, workdir: Path) -> dict:
    """op name -> (new session, op(session, i)) of the Drive and Stream units
    of workloads module `wl`, set up as a run sets them up."""
    drive, stream = wl.Drive(SEED, workdir), wl.Stream(SEED, workdir)
    drive.setup()
    stream.setup()
    ep, frames = drive.first, stream.first
    streamed = wl.fusion.FusionSession(stream.params)  # as a round leaves it for its resumes
    for frame in frames[:stream.FRAMES]:
        streamed.step(frame)

    def drive_history(_, i):
        k = i % drive.HISTORIES
        drive.history(ep["frames"][k:k + drive.FRAMES])

    return {
        "drive": (lambda: wl.fusion.FusionSession(drive.params), lambda session, i: drive.plan(session, ep, i)),
        "stream": (lambda: wl.fusion.FusionSession(stream.params), lambda session, i: session.step(frames[i])),
        "resume": (lambda: streamed,
                   lambda session, i: stream.resume(session, frames[stream.FRAMES + i % wl.RESUMES])),
        "drive_history": (lambda: None, drive_history),
        "stream_history": (lambda: None, lambda _, i: stream.history(frames[i:i + stream.FRAMES])),
    }


def kernel_op(dtype, d: int, heads: int, T: int, seed: int):
    """Builder of (no session, op(_, i)): one chunk_readouts call on
    (S_in, h, r_heads) as _block_tile hands them to it. The inputs are built
    once, by the first tree built, which in run is this tree."""
    inputs = []

    def build(pkg):
        rwkv7 = pkg.rwkv7
        if not inputs:
            params = rwkv7.random_block_params(d, heads, seed=seed, dtype=dtype)
            state = rwkv7.RecurrentState.zeros(d, heads, dtype=dtype)
            rng = np.random.default_rng(seed + 1)
            rwkv7.block_forward(rng.standard_normal((KERNEL_PREFIX, d)).astype(dtype), params, state, "chunked")
            x = rwkv7.layer_norm(rng.standard_normal((T, d)).astype(dtype), params.ln1_w, params.ln1_b)
            h = rwkv7.project_elements_seq(x, params, state).heads(heads)
            inputs.extend((state.S[0].copy(), h, h.r))
        kernel = rwkv7.chunk_readouts
        return lambda: None, lambda _, i: kernel(*inputs)

    return build


KERNEL_OPS = {
    f"kernel/{np.dtype(dtype).name}/d{d}h{heads}/T{T}": kernel_op(dtype, d, heads, T, seed)
    for seed, (dtype, (d, heads), T) in enumerate(itertools.product(
        (np.float32, np.float64), ((64, 1), (64, 4), (16, 4)), (8, 17, 32, 512)))
}
# op -> frames, windows or calls per episode; drive and stream as
# perfbench's Drive and Stream
FRAMES = {"drive": 16, "stream": 64, "resume": 16, "drive_history": 8, "stream_history": 4,
          **dict.fromkeys(KERNEL_OPS, 16)}


def episode(case, frames: int) -> tuple[list[float], float, float]:
    """ms of each op of one episode from a fresh session, and the minor
    page faults and system-time ms the process took per op."""
    new_session, op = case
    session = new_session()
    times = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for i in range(frames):
        t0 = perf_counter()
        op(session, i)
        times.append((perf_counter() - t0) * 1e3)
    after = resource.getrusage(resource.RUSAGE_SELF)
    faults = (after.ru_minflt - before.ru_minflt) / frames
    return times, faults, (after.ru_stime - before.ru_stime) * 1e3 / frames


def count_calls(case) -> dict:
    """Python-level and C-level calls of op COUNTED_FRAME of an episode."""
    new_session, op = case
    session = new_session()
    for i in range(COUNTED_FRAME):
        op(session, i)
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        op(session, COUNTED_FRAME)
    finally:
        sys.setprofile(None)
    return {"python": counts["call"], "c": counts["c_call"]}


def fuse_peak_bytes(wl, dtype, tokens: int) -> int:
    """tracemalloc peak of one fuse_parallel call over `tokens` tokens at the
    sizes of workloads module `wl`, above its input and its output, after a
    warm-up call."""
    fusion = wl.fusion
    params = fusion.random_fusion_params(wl.D, 2, 1, wl.TOKENS, seed=SEED + 1, dtype=dtype)
    inputs = wl.harness.gen_synthetic_frames(
        tokens // wl.TOKENS, SEED + 7, l_camera=wl.L_CAM, l_lidar=wl.L_LID, d=wl.D, dtype=dtype
    )
    seq = fusion.build_frame_sequence(inputs, params.pos_emb)
    fusion.fuse_parallel(seq, params)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fusion.fuse_parallel(seq, params)
        return tracemalloc.get_traced_memory()[1] - base - out.nbytes
    finally:
        tracemalloc.stop()


def run(trees: dict, passes: int, frames: dict, workdir: Path) -> dict:
    workloads = {tree: load_workloads(pkg) for tree, pkg in trees.items()}
    cases = {}
    for tree, pkg in trees.items():
        (workdir / tree).mkdir()
        ops = {**workload_ops(workloads[tree], workdir / tree),
               **{name: build(pkg) for name, build in KERNEL_OPS.items()}}
        cases.update({(tree, name): case for name, case in ops.items()})
    for key, case in cases.items():  # warm-up: caches, lazy set-up
        episode(case, frames[key[1]])
    calls = {key: count_calls(case) for key, case in cases.items()}
    # per pass: the median ms, the faults and the system ms per op
    medians, faults, sys_ms = ({key: [] for key in cases} for _ in range(3))
    names = list(trees)
    for p in range(passes):
        for name in FRAMES:
            for tree in names[p % 2:] + names[:p % 2]:
                key = (tree, name)
                times, per_op, sys_per_op = episode(cases[key], frames[name])
                medians[key].append(statistics.median(times))
                faults[key].append(per_op)
                sys_ms[key].append(sys_per_op)
    ops = {}
    for name in FRAMES:
        entry = {tree: {"calls": calls[(tree, name)],
                        "ms_per_op": round(statistics.median(medians[(tree, name)]), 4),
                        "ms_min": round(min(medians[(tree, name)]), 4),
                        "sys_ms_per_op": round(statistics.median(sys_ms[(tree, name)]), 4),
                        "minflt_per_op": round(statistics.median(faults[(tree, name)]), 1),
                        "minflt_min": round(min(faults[(tree, name)]), 1),
                        "minflt_max": round(max(faults[(tree, name)]), 1)}
                 for tree in names}
        if "against" in trees:
            ratios = [a / b for a, b in zip(medians[("this", name)], medians[("against", name)])]
            entry["pair_ratio"] = round(statistics.median(ratios), 4)
            entry["wins"] = sum(r < 1.0 for r in ratios)
        ops[name] = entry
    peaks = {tree: {np.dtype(dtype).name: {str(t): fuse_peak_bytes(wl, dtype, t) for t in PEAK_TOKENS}
                    for dtype in (np.float32, np.float64)}
             for tree, wl in workloads.items()}
    return {"ops": ops, "fuse_peak_bytes": peaks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="checkout whose lindrive to compare with")
    parser.add_argument("--passes", type=int, default=PASSES, help="alternating timed passes")
    parser.add_argument("--quick", action="store_true", help="2 passes of 5 frames, for a smoke run")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    trees = {"this": load_tree(ROOT, "lindrive")}
    if args.against is not None:
        if not (args.against / "src" / "lindrive" / "__init__.py").is_file():
            parser.error(f"{args.against} holds no src/lindrive package")
        trees["against"] = load_tree(args.against, "lindrive_against")
    passes, frames = (2, dict.fromkeys(FRAMES, COUNTED_FRAME + 2)) if args.quick else (args.passes, FRAMES)
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
        "passes": passes,
        "frames": frames,
        "against": None if args.against is None else str(args.against.resolve()),
    }
    with tempfile.TemporaryDirectory(prefix="opbench-") as workdir:
        print(json.dumps({"env": env, **run(trees, passes, frames, Path(workdir))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
