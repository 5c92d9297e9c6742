"""Allocation cost of the batch history rebuild, fusion.fuse_parallel.

Runs fuse_parallel on the two history shapes of the benchmark workloads:

    drive-history   float64, 16 frames of 32 tokens (512 tokens), d=64
    stream-history  float32, 64 frames of 32 tokens (2,048 tokens), d=64

both through a 2-layer, 1-head fusion stack. After warm-up calls, calls are
interleaved across the shapes, one of each per round, and the shape that
runs first alternates from round to round. For each shape it reports, per
call, the minor page faults (median, min and max) and the median
system-time ms that getrusage charges to the process (null where the
platform has no getrusage) and the median wall ms.

It also reports, per dtype, the tracemalloc peak of one fuse_parallel call
above its input and its output, through the same stack at 512, 2,048 and
8,192 tokens: the working memory of the history rebuild, which forward_stack
keeps constant in the history length by running the sequence tile by tile
through every layer.

A minor fault is a page the kernel maps in when the process first touches
it: here, mostly memory the allocator had handed back to the OS after one
call and asked for again in the next. The allocator's thresholds are set
per process by the largest blocks it has freed so far, so the count of one
shape depends on what else ran in the process; that is why the order
alternates. The medians repeat from run to run, where wall time does not.
Every BLAS is pinned to one thread. The output is one JSON object.

    python tools/allocbench.py           # 41 rounds
    python tools/allocbench.py --quick   # 3 rounds, for a smoke run
"""

from __future__ import annotations

import os

# must precede the first numpy import, which sizes the BLAS thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

try:
    import resource
except ImportError:  # no getrusage on this platform
    resource = None

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lindrive import fusion, harness  # noqa: E402

# name -> (dtype, frames); both as the benchmark's drive and stream history
SHAPES = {"drive-history": (np.float64, 16), "stream-history": (np.float32, 64)}
D = 64
TOKENS = 32  # per frame: 16 camera + 16 lidar
PEAK_TOKENS = (512, 2048, 8192)
ROUNDS = 41
WARMUP = 3


def make_case(dtype, frames: int, seed: int):
    params = fusion.random_fusion_params(D, 2, 1, TOKENS, seed=seed, dtype=dtype)
    seq = fusion.build_frame_sequence(
        harness.gen_synthetic_frames(frames, seed + 1, d=D, dtype=dtype), params.pos_emb
    )
    return seq, params


def usage():
    """(minor faults, system seconds) of this process so far, or None."""
    if resource is None:
        return None
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_stime


def fuse_peak_bytes(dtype, tokens: int) -> int:
    """tracemalloc peak of one fuse_parallel call over `tokens` tokens, above
    its input and its output, after a warm-up call."""
    seq, params = make_case(dtype, tokens // TOKENS, seed=31)
    fusion.fuse_parallel(seq, params)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fusion.fuse_parallel(seq, params)
        return tracemalloc.get_traced_memory()[1] - base - out.nbytes
    finally:
        tracemalloc.stop()


def run(rounds: int) -> dict:
    cases = {name: make_case(dtype, frames, seed=11 + i)
             for i, (name, (dtype, frames)) in enumerate(SHAPES.items())}
    for _ in range(WARMUP):
        for seq, params in cases.values():
            fusion.fuse_parallel(seq, params)
    samples = {name: {"faults": [], "sys_ms": [], "wall_ms": []} for name in cases}
    names = list(cases)
    for r in range(rounds):
        for name in names[r % 2:] + names[:r % 2]:
            seq, params = cases[name]
            before, start = usage(), perf_counter()
            fusion.fuse_parallel(seq, params)
            wall, after = perf_counter() - start, usage()
            samples[name]["wall_ms"].append(wall * 1e3)
            if before is not None:
                samples[name]["faults"].append(after[0] - before[0])
                samples[name]["sys_ms"].append((after[1] - before[1]) * 1e3)
    report = {}
    for name, (seq, params) in cases.items():
        s = samples[name]
        report[name] = {
            "tokens": seq.shape[0],
            "dtype": seq.dtype.name,
            "faults_per_call": statistics.median(s["faults"]) if s["faults"] else None,
            "faults_min": min(s["faults"], default=None),
            "faults_max": max(s["faults"], default=None),
            "sys_ms_per_call": round(statistics.median(s["sys_ms"]), 3) if s["sys_ms"] else None,
            "wall_ms_per_call": round(statistics.median(s["wall_ms"]), 3),
        }
    return {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
            "rounds": rounds,
        },
        "shapes": report,
        "fuse_peak_bytes": {
            np.dtype(dtype).name: {str(t): fuse_peak_bytes(dtype, t) for t in PEAK_TOKENS}
            for dtype in (np.float32, np.float64)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="3 rounds, for a smoke run")
    args = parser.parse_args(argv)
    print(json.dumps(run(3 if args.quick else ROUNDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
