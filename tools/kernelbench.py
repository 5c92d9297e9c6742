"""Per-call timing of the chunk kernel, rwkv7.chunk_readouts.

Times one call of chunk_readouts, the recurrence every fused token runs
through, over float32 and float64, (width, heads) in {(64, 1), (64, 4),
(16, 4)} and T in {8, 17, 32, 512} tokens. Inputs are the elements a seeded
random block projects from normal tokens, against a state the block left
after a 64-token prefix. Repetitions are interleaved across cases, so a
slow spell of the machine spreads over all of them; each case reports the
median and the minimum microseconds per call. Every BLAS is pinned to one
thread. The output is one JSON object.

    python tools/kernelbench.py           # 41 rounds per case
    python tools/kernelbench.py --quick   # 3 rounds, for a smoke run
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
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lindrive.rwkv7 import (  # noqa: E402
    RecurrentState,
    block_forward,
    chunk_readouts,
    layer_norm,
    project_elements_seq,
    random_block_params,
)

DTYPES = (np.float32, np.float64)
BLOCKS = ((64, 1), (64, 4), (16, 4))
LENGTHS = (8, 17, 32, 512)
PREFIX = 64
ROUNDS = 41
# each timed sample repeats the call until it lasts about this long
SAMPLE_S = 2e-3


def case_name(dtype, d: int, heads: int, T: int) -> str:
    return f"{np.dtype(dtype).name}/d{d}h{heads}/T{T}"


def make_case(dtype, d: int, heads: int, T: int, seed: int):
    """(S_in, h, r_heads) as _block_tile hands them to chunk_readouts."""
    params = random_block_params(d, heads, seed=seed, dtype=dtype)
    state = RecurrentState.zeros(d, heads, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    block_forward(rng.standard_normal((PREFIX, d)).astype(dtype), params, state, "chunked")
    tokens = rng.standard_normal((T, d)).astype(dtype)
    e = project_elements_seq(layer_norm(tokens, params.ln1_w, params.ln1_b), params, state)
    h = e.heads(heads)
    return state.S[0].copy(), h, h.r


def run(rounds: int) -> dict:
    cases = {}
    for dtype in DTYPES:
        for d, heads in BLOCKS:
            for T in LENGTHS:
                args = make_case(dtype, d, heads, T, seed=len(cases))
                chunk_readouts(*args)  # warm-up
                start = perf_counter()
                chunk_readouts(*args)
                once = perf_counter() - start
                calls = max(1, int(SAMPLE_S / max(once, 1e-7)))
                cases[case_name(dtype, d, heads, T)] = (args, calls, [])
    for _ in range(rounds):
        for args, calls, samples in cases.values():
            start = perf_counter()
            for _ in range(calls):
                chunk_readouts(*args)
            samples.append((perf_counter() - start) / calls * 1e6)
    return {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
            "rounds": rounds,
        },
        "cases": {
            name: {"median_us": round(statistics.median(s), 2), "min_us": round(min(s), 2),
                   "calls_per_sample": calls}
            for name, (_, calls, s) in cases.items()
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
