"""Per-call timing of the chunk kernel, rwkv7.chunk_readouts.

Times one call of chunk_readouts, the recurrence every fused token runs
through, over float32 and float64, (width, heads) in {(64, 1), (64, 4),
(16, 4)} and T in {8, 17, 32, 512} tokens. Inputs are the elements a seeded
random block projects from normal tokens, against a state the block left
after a 64-token prefix. Repetitions are interleaved across cases, so a
slow spell of the machine spreads over all of them; each case reports the
median and the minimum microseconds per call.

With --against PATH it also loads the lindrive package of the checkout at
PATH into this process, as tools/opbench.py does, and times its
chunk_readouts on the same inputs, the two trees alternating round by round
and swapping which runs first. Each case then also reports the other tree's
median and minimum, the median over rounds of the pair ratio (this tree's
time over the other's) and the rounds this tree won. Every BLAS is pinned to
one thread. The output is one JSON object.

    python tools/kernelbench.py                       # 41 rounds per case
    python tools/kernelbench.py --against ../parent   # A/B against another checkout
    python tools/kernelbench.py --quick               # 3 rounds, for a smoke run
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

# before numpy: importing opbench pins every BLAS to one thread
from opbench import trees_and_env  # isort: skip

import numpy as np

DTYPES = (np.float32, np.float64)
BLOCKS = ((64, 1), (64, 4), (16, 4))
LENGTHS = (8, 17, 32, 512)
PREFIX = 64
ROUNDS = 41
# each timed sample repeats the call until it lasts about this long
SAMPLE_S = 2e-3


def case_name(dtype, d: int, heads: int, T: int) -> str:
    return f"{np.dtype(dtype).name}/d{d}h{heads}/T{T}"


def make_case(rwkv7, dtype, d: int, heads: int, T: int, seed: int):
    """(S_in, h, r_heads) as _block_tile hands them to chunk_readouts."""
    params = rwkv7.random_block_params(d, heads, seed=seed, dtype=dtype)
    state = rwkv7.RecurrentState.zeros(d, heads, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    rwkv7.block_forward(rng.standard_normal((PREFIX, d)).astype(dtype), params, state, "chunked")
    tokens = rng.standard_normal((T, d)).astype(dtype)
    e = rwkv7.project_elements_seq(rwkv7.layer_norm(tokens, params.ln1_w, params.ln1_b), params, state)
    h = e.heads(heads)
    return state.S[0].copy(), h, h.r


def sample_us(kernel, args, calls: int) -> float:
    """Microseconds per call over `calls` back-to-back calls."""
    start = perf_counter()
    for _ in range(calls):
        kernel(*args)
    return (perf_counter() - start) / calls * 1e6


def run(trees: dict, rounds: int) -> dict:
    """Samples of every tree's chunk_readouts on every case; the inputs are
    built once, by the first tree, and each tree times the same calls."""
    names = list(trees)
    kernels = {tree: pkg.rwkv7.chunk_readouts for tree, pkg in trees.items()}
    cases = {}
    for dtype in DTYPES:
        for d, heads in BLOCKS:
            for T in LENGTHS:
                args = make_case(trees[names[0]].rwkv7, dtype, d, heads, T, seed=len(cases))
                for kernel in kernels.values():
                    kernel(*args)  # warm-up
                once = sample_us(kernels[names[0]], args, 1) * 1e-6
                calls = max(1, int(SAMPLE_S / max(once, 1e-7)))
                cases[case_name(dtype, d, heads, T)] = (args, calls, {tree: [] for tree in names})
    for r in range(rounds):
        for args, calls, samples in cases.values():
            for tree in names[r % 2:] + names[:r % 2]:
                samples[tree].append(sample_us(kernels[tree], args, calls))
    report = {}
    for name, (_, calls, samples) in cases.items():
        entry = {"median_us": round(statistics.median(samples["this"]), 2),
                 "min_us": round(min(samples["this"]), 2), "calls_per_sample": calls}
        if "against" in samples:
            other = samples["against"]
            ratios = [a / b for a, b in zip(samples["this"], other)]
            entry["against"] = {"median_us": round(statistics.median(other), 2),
                                "min_us": round(min(other), 2)}
            entry["pair_ratio"] = round(statistics.median(ratios), 4)
            entry["wins"] = sum(q < 1.0 for q in ratios)
        report[name] = entry
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="checkout whose lindrive to compare with")
    parser.add_argument("--quick", action="store_true", help="3 rounds, for a smoke run")
    args = parser.parse_args(argv)
    trees, env = trees_and_env(parser, args.against)
    rounds = 3 if args.quick else ROUNDS
    print(json.dumps({"env": {**env, "rounds": rounds}, "cases": run(trees, rounds)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
