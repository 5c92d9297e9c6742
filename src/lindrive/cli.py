"""Command-line front end.

Subcommands:
  equiv    run the oracle-equivalence suites and print a pass/fail table
  bench    scaling benchmark over a frame-count grid, CSV output
  demo     synthetic frames -> fusion -> decode -> best trajectory (JSON)
  score    PDMS report for a trajectory file against a scene file
  cluster  k-means anchors from a trajectory dataset

Exit codes: 0 success, 2 usage error, 3 missing file, 4 invalid data or
configuration, 5 equivalence failure. LADY_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import cross_attn, decoder, fusion, harness, pdms, rwkv7
from .errors import ConfigError, LindriveError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_DATA = 4
EXIT_EQUIV_FAILED = 5


def _cmd_equiv(args) -> int:
    if args.cases < 1:
        raise ConfigError(f"cases must be at least 1, got {args.cases}")
    seed = harness.resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    rows = []

    def check(name, ok, detail=""):
        rows.append((name, bool(ok), detail))

    # sequential vs chunk-parallel recurrence over a config sweep; the
    # configs share the cases, the first `extra` of them one more each
    configs = [(d, n_heads, B) for d, n_heads in ((8, 1), (16, 4), (64, 4))
               for B in (1, 4, 16, 64)]
    per_config, extra = divmod(args.cases, len(configs))
    worst = 0.0
    for i, (d, n_heads, B) in enumerate(configs):
        for _ in range(per_config + (i < extra)):
            p = rwkv7.random_block_params(d, n_heads, seed=int(rng.integers(2**31)))
            tokens = rng.standard_normal((B, d))
            s1 = rwkv7.RecurrentState.zeros(d, n_heads)
            s2 = rwkv7.RecurrentState.zeros(d, n_heads)
            out_s, _ = rwkv7.block_forward(tokens, p, s1, "sequential")
            out_c, _ = rwkv7.block_forward(tokens, p, s2, "chunked")
            worst = max(
                worst,
                float(np.max(np.abs(out_s - out_c))),
                float(np.max(np.abs(s1.S - s2.S))),
            )
    check(f"sequential vs chunked ({args.cases} cases)", worst < 1e-10, f"max|diff|={worst:.2e}")

    # streaming fusion vs parallel fusion on last-frame outputs
    params = fusion.random_fusion_params(32, 2, 1, 16, seed=seed)
    frames = harness.gen_synthetic_frames(10, seed, l_camera=8, l_lidar=8, d=32)
    seq = fusion.build_frame_sequence(frames, params.pos_emb)
    par = fusion.fuse_parallel(seq, params)
    session = fusion.FusionSession(params)
    last = None
    for f in frames:
        last = session.step(f)
    diff = float(np.max(np.abs(par[-16:] - last)))
    check("parallel vs streaming fusion", diff < 1e-10, f"max|diff|={diff:.2e}")

    # snapshot resume is bit-exact
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "mid.npz"
        s_a = fusion.FusionSession(params)
        for f in frames[:5]:
            s_a.step(f)
        s_a.save(snap)
        s_b = fusion.FusionSession(params)
        s_b.restore(snap)
        out_a = out_b = None
        for f in frames[5:]:
            out_a = s_a.step(f)
            out_b = s_b.step(f)
        check("snapshot resume bit-exact", np.array_equal(out_a, out_b))

    # cross-attention output cardinality
    xp = cross_attn.random_cross_attn_params(16, seed=seed)
    q = cross_attn.QuerySet(rng.standard_normal((4, 16)))
    ok = all(
        cross_attn.attend(rng.standard_normal((L, 16)), q, xp).m == 4
        for L in (0, 1, 8, 64)
    )
    check("cross-attention returns M tokens", ok)

    width = max(len(r[0]) for r in rows) + 2
    failed = False
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}} {status}  {detail}")
        failed |= not ok
    return EXIT_EQUIV_FAILED if failed else EXIT_OK


def _cmd_bench(args) -> int:
    # a grid with no items is reported as the whole string
    items = [x.strip() for x in args.frames.split(",") if x.strip()] or [args.frames]
    for x in items:
        if not x.isdecimal() or int(x) < 1:
            raise ConfigError(f"--frames takes integers >= 1, got {x!r}")
    modes = ("linear", "softmax") if args.mode == "both" else (args.mode,)
    cfg = harness.BenchConfig(seed=harness.resolve_seed(args.seed))
    records = harness.run_scaling_bench([int(x) for x in items], args.trials, cfg, modes)
    harness.write_bench_csv(args.out, records)
    for r in records:
        print(
            f"frames={r.frames:<4d} mode={r.mode:<8s} "
            f"latency={r.latency_ms:8.3f} ms/frame  state={r.state_bytes} B"
        )
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_demo(args) -> int:
    seed = harness.resolve_seed(args.seed)
    d, l_cam, l_lid = 64, 16, 16
    frames = harness.gen_synthetic_frames(args.frames, seed, d=d)
    session = fusion.FusionSession(fusion.random_fusion_params(d, 2, 1, l_cam + l_lid, seed=seed))
    for f in frames[:-1]:
        session.step(f)
    bev_params = fusion.random_bev_params(d, (4, 4), seed=seed + 1)
    ego = fusion.EgoStatus(velocity=8.0, acceleration=0.2, command="follow")
    dec_params = decoder.random_decoder_params(d, seed=seed + 2)
    dataset = harness.gen_trajectory_dataset(max(4 * args.k, args.k + 8), seed + 3)
    anchors = decoder.cluster_anchors(dataset, args.k, seed + 4)
    out, best, idx = decoder.plan_frame(
        session, bev_params, dec_params, anchors, frames[-1], ego, seed + 5
    )

    Path(args.out).write_text(json.dumps(best.to_json()))
    scene, _ = harness.gen_synthetic_scene(seed + 6)
    pdms.save_scene(args.scene_out, scene)
    print(
        f"streamed {len(frames)} frames, decoded {out.n_modes} modes, "
        f"best mode {idx} (confidence {out.confidence[idx]:.3f})"
    )
    print(f"wrote {args.out} and {args.scene_out}")
    return EXIT_OK


def _cmd_score(args) -> int:
    traj = decoder.Trajectory.from_json(json.loads(Path(args.traj).read_text()))
    scene = pdms.load_scene(args.scene)
    subs, score = pdms.score_trajectory(traj, scene)
    pdms.write_report(
        args.out,
        [
            {
                "scene": Path(args.scene).name,
                "trajectory": Path(args.traj).name,
                "nc": subs.nc,
                "dac": subs.dac,
                "ttc": subs.ttc,
                "comfort": subs.comfort,
                "ep": f"{subs.ep:.4f}",
                "pdms": f"{score:.5f}",
            }
        ],
    )
    print(
        f"nc={subs.nc} dac={subs.dac} ttc={subs.ttc} comfort={subs.comfort} "
        f"ep={subs.ep:.3f} pdms={score:.4f}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_cluster(args) -> int:
    trajs = decoder.trajectories_from_json(json.loads(Path(args.data).read_text()))
    anchors = decoder.cluster_anchors(trajs, args.k, harness.resolve_seed(args.seed))
    decoder.save_anchors(args.out, anchors)
    print(f"clustered {len(trajs)} trajectories into {anchors.k} anchors -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindrive",
        description="linear-attention driving stack utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equiv", help="run oracle-equivalence suites")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cases", type=int, default=24, help="recurrence sweep cases")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("bench", help="scaling benchmark")
    p.add_argument("--frames", default="1,2,4,8,16,32,64,128")
    p.add_argument("--mode", choices=["linear", "softmax", "both"], default="both")
    p.add_argument("--out", default="bench.csv")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("demo", help="synthetic end-to-end pipeline")
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="traj.json")
    p.add_argument("--scene-out", default="scene.json")
    p.add_argument("--k", type=int, default=16, help="anchor count")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("score", help="PDMS report for trajectory + scene")
    p.add_argument("--traj", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", default="report.csv")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("cluster", help="k-means trajectory anchors")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="anchors.json")
    p.set_defaults(func=_cmd_cluster)
    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except (LindriveError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
