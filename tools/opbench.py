"""Per-op cost of the benchmark's rwkv7-bound ops, in one process.

Builds the ops of the benchmark workloads with the same calls as
perfbench/workloads.py, at its sizes (d=64, 32 tokens per frame, a 2-layer
fusion stack):

    drive   one planning frame, float64: FusionSession.step, assemble_bev,
            derive_agent_queries, decode (2 layers x 2 steps over 16
            anchors), select_best and score_trajectory
    stream  one fused frame, float32: FusionSession.step
    resume  stream's resume unit: FusionSession.save to a snapshot in a
            temporary directory, restore into a fresh FusionSession, step;
            the episode goes on from the restored state
    drive_history   drive's history unit, float64: fuse_parallel over a
            16-frame (512-token) window
    stream_history  stream's history unit, float32: fuse_parallel over a
            64-frame (2,048-token) window

For each op it counts the Python-level and the C-level calls of one op
after a warm-up episode (sys.setprofile "call" and "c_call" events). The
op is the same frame or window of the same seeded inputs every time, so the
counts repeat exactly for a given numpy and Python.

It then times episodes of ops (16 frames of drive and resume, 64 of
stream, each from a fresh session; 8 windows of drive_history and 4 of
stream_history, each shifted by one frame). With --against PATH it also
loads the lindrive package of the checkout at PATH into this process, under
another module name, and alternates the two trees pass by pass, swapping
which runs first: a slow spell of the machine then falls on both. It
reports each tree's median ms per op and median minor page faults
(ru_minflt) per op, the median over passes of the pair ratio (this tree's
median op over the other's, per op kind) and the passes this tree won.
Every BLAS is pinned to one thread. The output is one JSON object.

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
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
D = 64
L_CAM = L_LID = 16
TOKENS = L_CAM + L_LID
K = 16  # anchors, and so modes per frame
# op -> frames or windows per episode; drive and stream as perfbench's
# Drive and Stream
FRAMES = {"drive": 16, "stream": 64, "resume": 16, "drive_history": 8, "stream_history": 4}
COUNTED_FRAME = 3  # the frame whose op is counted
PASSES = 40
SEED = 14


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


def drive_op(pkg, frames: int, seed: int):
    """(new session, op(session, i)) of perfbench's Drive, float64."""
    fusion, decoder, harness, pdms = pkg.fusion, pkg.decoder, pkg.harness, pkg.pdms
    params = fusion.random_fusion_params(D, 2, 1, TOKENS, seed=seed + 1)
    bev = fusion.random_bev_params(D, (4, 4), seed=seed + 2)
    dec = decoder.random_decoder_params(D, n_layers=2, n_agent_queries=8, seed=seed + 3)
    anchors = decoder.cluster_anchors(harness.gen_trajectory_dataset(4 * K, seed + 4), K, seed + 5)
    rng = np.random.default_rng(seed + 6)
    commands = list(fusion.Command)
    inputs = harness.gen_synthetic_frames(frames, seed + 7, l_camera=L_CAM, l_lidar=L_LID, d=D)
    egos = [
        fusion.EgoStatus(
            velocity=rng.uniform(0.0, 15.0),
            acceleration=rng.uniform(-2.0, 2.0),
            command=commands[rng.integers(len(commands))],
        )
        for _ in range(frames)
    ]
    scenes = [harness.gen_synthetic_scene(int(x))[0] for x in rng.integers(2**31, size=frames)]
    decode_seeds = [int(x) for x in rng.integers(2**31, size=frames)]

    def op(session, i):
        fused = session.step(inputs[i])
        bundle = fusion.assemble_bev(fused[L_CAM:], egos[i], bev)
        agent_q = decoder.derive_agent_queries(bundle, dec)
        out = decoder.decode(anchors, bundle, agent_q, dec, steps=2, seed=decode_seeds[i])
        best, _ = decoder.select_best(out)
        pdms.score_trajectory(best, scenes[i])

    return lambda: fusion.FusionSession(params), op


def stream_op(pkg, frames: int, seed: int):
    """(new session, op(session, i)) of perfbench's Stream, float32."""
    fusion, harness = pkg.fusion, pkg.harness
    params = fusion.random_fusion_params(D, 2, 1, TOKENS, seed=seed + 1, dtype=np.float32)
    inputs = harness.gen_synthetic_frames(
        frames, seed + 7, l_camera=L_CAM, l_lidar=L_LID, d=D, dtype=np.float32
    )
    return lambda: fusion.FusionSession(params), lambda session, i: session.step(inputs[i])


def resume_op(pkg, frames: int, seed: int):
    """(new session, op(session, i)) of perfbench's Stream resume unit. Every
    op overwrites one snapshot file, as the unit does; the directory holding
    it is removed with the op."""
    new_session, step = stream_op(pkg, frames, seed)
    workdir = tempfile.TemporaryDirectory(prefix="opbench-")
    snapshot = Path(workdir.name) / "stream-state.npz"

    def op(session, i, _workdir=workdir):  # the directory lives as long as the op
        session.save(snapshot)
        restored = new_session()
        restored.restore(snapshot)
        step(restored, i)
        session.state = restored.state

    return new_session, op


def history_op(dtype, window: int):
    """Builder of (no session, op(_, i)) for a history unit: fuse_parallel
    over the `window` frames from frame i, in `dtype`."""

    def build(pkg, frames: int, seed: int):
        fusion, harness = pkg.fusion, pkg.harness
        params = fusion.random_fusion_params(D, 2, 1, TOKENS, seed=seed + 1, dtype=dtype)
        inputs = harness.gen_synthetic_frames(
            window + frames - 1, seed + 7, l_camera=L_CAM, l_lidar=L_LID, d=D, dtype=dtype
        )

        def op(_, i):
            fusion.fuse_parallel(fusion.build_frame_sequence(inputs[i:i + window], params.pos_emb), params)

        return lambda: None, op

    return build


OPS = {"drive": drive_op, "stream": stream_op, "resume": resume_op,
       "drive_history": history_op(np.float64, 16), "stream_history": history_op(np.float32, 64)}


def episode(case, frames: int) -> tuple[list[float], float]:
    """ms of each op of one episode from a fresh session, and the minor
    page faults the process took per op."""
    new_session, op = case
    session = new_session()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(frames):
        t0 = perf_counter()
        op(session, i)
        times.append((perf_counter() - t0) * 1e3)
    return times, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / frames


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


def run(trees: dict, passes: int, frames: dict) -> dict:
    cases = {(tree, name): OPS[name](pkg, frames[name], SEED)
             for tree, pkg in trees.items() for name in OPS}
    for key, case in cases.items():  # warm-up: caches, lazy set-up
        episode(case, frames[key[1]])
    calls = {key: count_calls(case) for key, case in cases.items()}
    medians = {key: [] for key in cases}
    faults = {key: [] for key in cases}
    names = list(trees)
    for p in range(passes):
        for name in OPS:
            for tree in names[p % 2:] + names[:p % 2]:
                times, per_op = episode(cases[(tree, name)], frames[name])
                medians[(tree, name)].append(statistics.median(times))
                faults[(tree, name)].append(per_op)
    report = {}
    for name in OPS:
        entry = {tree: {"calls": calls[(tree, name)],
                        "ms_per_op": round(statistics.median(medians[(tree, name)]), 4),
                        "minflt_per_op": round(statistics.median(faults[(tree, name)]), 1)}
                 for tree in names}
        if "against" in trees:
            ratios = [a / b for a, b in zip(medians[("this", name)], medians[("against", name)])]
            entry["pair_ratio"] = round(statistics.median(ratios), 4)
            entry["wins"] = sum(r < 1.0 for r in ratios)
        report[name] = entry
    return report


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
    passes, frames = (2, {name: COUNTED_FRAME + 2 for name in OPS}) if args.quick else (args.passes, FRAMES)
    print(json.dumps({
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
            "passes": passes,
            "frames": frames,
            "against": None if args.against is None else str(args.against.resolve()),
        },
        "ops": run(trees, passes, frames),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
