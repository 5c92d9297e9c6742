#!/usr/bin/env python3
"""lindrive benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload drive --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

One workload runs in one process with every BLAS pinned to one thread. For
--seconds the run makes pass after pass over a few rounds of seeded inputs,
sets the workload up eleven times spread over the run, and checks every
output. Each timed unit keeps the fastest time it took over the passes;
set-up time is the median of the set-ups. With --trace 0 it
reports the end-to-end metrics named in BENCHMARK.json; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics,
writing every span to .perfbench/. `--workload all` runs drive, stream and
eval one after another, each in its own process. The last line of standard
output is one JSON object; the exit code is 1 when an output check failed
and 2 when the package is missing or the arguments are bad.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# must precede the first numpy import, which sizes the BLAS thread pool
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("drive", "stream", "eval")
SETUPS = 11
ROUND_KINDS = ("op", "history", "resume")
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile), or the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def crossover(grid, costs, target):
    """Smallest history length at which the baseline costs `target`, by
    linear interpolation on the fixed grid (extrapolated past its end)."""
    for i in range(len(grid)):
        if costs[i] >= target:
            if i == 0:
                return float(grid[0])
            lo, hi = i - 1, i
            break
    else:
        lo, hi = len(grid) - 2, len(grid) - 1
    slope = (grid[hi] - grid[lo]) / (costs[hi] - costs[lo])
    return grid[lo] + (target - costs[lo]) * slope


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas_id = "unknown"
    return {
        "blas": blas_id,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def ms(seconds: float) -> float:
    return 1e3 * seconds


def end_to_end(rec) -> dict:
    ops = rec.times("op")
    op_tail, percentile = tail(ops)
    rec.notes.update({"op_ms.tail.percentile": percentile, "op.samples": len(ops)})
    return {
        "setup_s": statistics.median(rec.single[("setup", False)]),
        "op_ms.p50": ms(statistics.median(ops)),
        "op_ms.tail": ms(op_tail),
        "ops_per_s": len(ops) / sum(ops),
        "history_ms.p50": ms(statistics.median(rec.times("history"))),
        "resume_ms.p50": ms(statistics.median(rec.times("resume"))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rec, tracer, workload) -> dict:
    """Layer metrics from the traced rounds. Counts and times are per op,
    amortised over every unit a round runs and every traced pass; an idle
    layer reads 0."""
    n_ops = rec.units[("op", True)]
    spans = tracer.summary(ROUND_KINDS)

    def per_op(value):
        return value / n_ops

    def calls(name):
        return per_op(spans[name]["calls"])

    def self_ms(name):
        return per_op(ms(spans[name]["self_s"]))

    def incl_ms(name):
        return per_op(ms(spans[name]["total_s"]))

    def count(name):
        return per_op(tracer.total(name, ROUND_KINDS))

    feature_tokens = tracer.total("cross_attn.feature_tokens", ROUND_KINDS)
    block_tokens = tracer.total("rwkv7.block_apply.tokens", ROUND_KINDS)
    kmeans = tracer.summary(ROUND_KINDS + ("setup",))["decoder.cluster_anchors"]
    untraced_p50 = statistics.median(rec.times("op"))
    metrics = {
        "rwkv7.block_apply.calls": calls("rwkv7.block_apply"),
        "rwkv7.block_apply.tokens": count("rwkv7.block_apply.tokens"),
        "rwkv7.block_apply.self_ms": self_ms("rwkv7.block_apply"),
        "rwkv7.us_per_token": 1e6 * spans["rwkv7.block_apply"]["self_s"] / block_tokens if block_tokens else 0.0,
        "rwkv7.state_bytes": rec.props.get("rwkv7.state_bytes", 0),
        "fusion.fuse_step.self_ms": self_ms("fusion.fuse_step"),
        "fusion.fuse_parallel.self_ms": self_ms("fusion.fuse_parallel"),
        "fusion.assemble_bev.ms": incl_ms("fusion.assemble_bev"),
        "cross_attn.encode_query.calls": calls("cross_attn.encode_query"),
        "cross_attn.encode_query.self_ms": self_ms("cross_attn.encode_query"),
        "cross_attn.cross_attend.calls": calls("cross_attn.cross_attend"),
        "cross_attn.cross_attend.self_ms": self_ms("cross_attn.cross_attend"),
        "cross_attn.tokens": count("cross_attn.tokens"),
        "cross_attn.repeated_feature_share": (
            tracer.total("cross_attn.repeated_feature_tokens", ROUND_KINDS) / feature_tokens
            if feature_tokens else 0.0
        ),
        "decoder.decode.self_ms": self_ms("decoder.decode"),
        "decoder.decoder_layer.calls": calls("decoder.decoder_layer"),
        "decoder.decoder_layer.self_ms": self_ms("decoder.decoder_layer"),
        "decoder.derive_agent_queries.ms": incl_ms("decoder.derive_agent_queries"),
        "decoder.modes_refined": count("decoder.modes_refined"),
        "decoder.cluster_anchors.ms": ms(kmeans["total_s"] / kmeans["calls"]) if kmeans["calls"] else 0.0,
        "pdms.score_trajectory.calls": calls("pdms.score_trajectory"),
        "pdms.score_trajectory.ms": incl_ms("pdms.score_trajectory"),
        "pdms.first_overlap_time.self_ms": self_ms("pdms.first_overlap_time"),
        "pdms.obb_overlap.calls": calls("pdms.obb_overlap"),
        "pdms.obb_overlap.box_tests": count("pdms.obb_overlap.box_tests"),
        "pdms.arc_progress.self_ms": self_ms("pdms.arc_progress"),
        "pdms.point_in_polygon.self_ms": self_ms("pdms.point_in_polygon"),
        "pdms.comfort_ok.self_ms": self_ms("pdms.comfort_ok"),
        "pdms.collision_share": rec.props.get("pdms.collision_share", 0.0),
        "snapshots.save_state.ms": incl_ms("snapshots.save_state"),
        "snapshots.load_state.ms": incl_ms("snapshots.load_state"),
        "snapshots.file_bytes": rec.props.get("snapshots.file_bytes", 0),
        "trace.overhead_share": statistics.median(rec.times("op", True)) / untraced_p50 - 1.0,
        "input.tokens_per_frame": rec.props.get("input.tokens_per_frame", 0),
        "input.modes": rec.props.get("input.modes", 0),
        "input.agents_per_scene": rec.props.get("input.agents_per_scene", 0.0),
    }
    grid = getattr(workload, "SOFTMAX_GRID", ())
    costs = workload.softmax_ms() if grid else {}
    for T in (16, 32, 64, 128):
        metrics[f"harness.softmax_ms.T{T}"] = costs.get(T, 0.0)
    metrics["harness.crossover_frames"] = (
        crossover(grid, [costs[T] for T in grid], ms(untraced_p50)) if grid else 0.0
    )
    return metrics


def measure(name: str, seed: int, seconds: int, trace: bool, workdir: Path):
    import lindrive
    from tracer import Tracer
    from workloads import WORKLOADS, Recorder

    tracer = Tracer(lindrive) if trace else None
    rec = Recorder(tracer)

    def set_up():
        workload = WORKLOADS[name](seed, workdir)
        rec.traced = trace
        if tracer:
            tracer.install()
        try:
            with rec.unit("setup"):
                workload.setup()
        finally:
            if tracer:
                tracer.uninstall()
        return workload

    # set-ups are spread over the run, so that one slow spell of the machine
    # cannot cover all of them; a set-up of one seed always builds the same
    # workload, so the rounds after it see the same inputs
    workload = set_up()
    setups = 1
    rounds = workload.ROUNDS
    inputs = [workload.first] + [workload.inputs(r) for r in range(1, rounds)]
    # a traced run alternates untraced and traced passes over the rounds, so
    # both see the same machine state; the difference is the tracing overhead
    min_runs = rounds * (2 if trace else 1)
    start = perf_counter()
    k = 0  # rounds run
    crashed = False
    while k < min_runs or (perf_counter() - start) * (k + 1) / k <= seconds:
        r = k % rounds
        try:
            if setups < SETUPS and perf_counter() - start >= setups * seconds / SETUPS:
                workload = set_up()
                setups += 1
            rec.traced = trace and (k // rounds) % 2 == 1
            if rec.traced:
                tracer.install()
            rec.run_round(r, lambda: workload.run_round(r, inputs[r], rec))
        except Exception:  # a raising op is a failed op; stop and report
            rec.failures.append(f"{name} round {r} raised:\n{traceback.format_exc()}")
            crashed = True
            break
        finally:
            if rec.traced:
                tracer.uninstall()
        k += 1
    rec.notes["passes"] = k / rounds
    while setups < SETUPS and not crashed:  # a run too short to spread them
        set_up()
        setups += 1

    if crashed:
        return rec, {}, tracer
    if trace:
        return rec, per_layer(rec, tracer, workload), tracer
    return rec, end_to_end(rec), tracer


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import lindrive

    if Path(lindrive.__file__).resolve().parent != SRC / "lindrive":
        print(f"error: imported lindrive from {lindrive.__file__}, not {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        rec, values, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(OUT / f"spans-{tag}.json")

    ops = rec.units[("op", False)] + rec.units[("op", True)]
    if rec.failures and not ops:  # the run raised before its first op
        ops = 1
    if values and set(values) != set(units):
        rec.failures.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    env = environment(np)
    result = {
        "correct": not rec.failures,
        "attempted": ops,
        "failed": min(len(rec.failures), ops),
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "env": env, "inputs": rec.props, "notes": rec.notes,
         "failures": rec.failures, **result},
        indent=1,
    ))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    print("inputs " + json.dumps(rec.props))
    print("notes " + json.dumps(rec.notes))
    for message in rec.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    for key, m in metrics.items():
        line = f"  {key:<36s} {m['value']:>14.6g} {m['unit']}"
        if key == "op_ms.tail":
            line += f"  (p{rec.notes['op_ms.tail.percentile']:.1f} of {rec.notes['op.samples']} ops)"
        print(line)
    print(f"  ops attempted {result['attempted']}  failed {result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if not (SRC / "lindrive" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a lindrive checkout; {SRC / 'lindrive'} not found", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
