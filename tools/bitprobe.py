"""Bit-identity probe: one SHA-256 digest over the outputs of lindrive's
numeric paths, in float64 and float32.

Run it on two checkouts of the repository; equal digests mean both compute
bit for bit the same on these seeded inputs. The digest covers

- fusion: fuse_parallel over a multi-frame sequence, then the same frames
  streamed through a FusionSession, every step's output and the final state;
- the blocks: block_forward in sequential and chunked mode, and block_branch
  against a fresh zero state and against the state block_forward left;
- cross-attention: feature_state, encode_query and cross_attend;
- the decoder: derive_agent_queries and decode, deterministic and
  stochastic, over the frames of a demo-style stream.

It calls only public functions with long-standing signatures and no
optional paths newer than them, so a copy runs unchanged in an older
checkout to compare against.

    python tools/bitprobe.py          # full sizes: d=64/1 head and d=16/4 heads,
                                      # 1 to 600 tokens, 10 demo frames
    python tools/bitprobe.py --tiny   # small sizes, for a quick smoke run
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lindrive import decoder, fusion, harness  # noqa: E402
from lindrive.cross_attn import (  # noqa: E402
    QuerySet,
    cross_attend,
    encode_query,
    feature_state,
)
from lindrive.rwkv7 import (  # noqa: E402
    RecurrentState,
    block_branch,
    block_forward,
    random_block_params,
)

DTYPES = (np.float64, np.float32)
# (width, heads) of every probed block; token counts; fusion frames of
# tokens_per_frame tokens; demo frames through the decoder with its width,
# modes and agent queries
FULL = {"blocks": ((64, 1), (16, 4)), "lengths": (1, 8, 17, 40, 600),
        "fusion_frames": 20, "tokens_per_frame": 32,
        "demo_frames": 10, "demo_d": 64, "k": 16, "agent_queries": 8}
TINY = {"blocks": ((8, 1), (8, 2)), "lengths": (1, 5),
        "fusion_frames": 3, "tokens_per_frame": 4,
        "demo_frames": 2, "demo_d": 8, "k": 4, "agent_queries": 3}
# rows run as branches or queries after each state
BRANCH_ROWS = 5


class Digest:
    """SHA-256 over a sequence of arrays, each with its dtype and shape."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *arrays) -> None:
        for a in arrays:
            a = np.asarray(a)
            self.h.update(f"{a.dtype.str}{a.shape}".encode())
            self.h.update(np.ascontiguousarray(a).tobytes())

    def add_state(self, state: RecurrentState) -> None:
        self.add(state.S, state.shift_tm, state.shift_cm, state.tokens_seen)


def probe_fusion(dig: Digest, cfg: dict, dtype) -> None:
    tpf = cfg["tokens_per_frame"]
    for i, (d, heads) in enumerate(cfg["blocks"]):
        params = fusion.random_fusion_params(d, 2, heads, tpf, seed=100 + i, dtype=dtype)
        frames = harness.gen_synthetic_frames(
            cfg["fusion_frames"], 200 + i, l_camera=tpf // 2, l_lidar=tpf - tpf // 2,
            d=d, dtype=dtype,
        )
        dig.add(fusion.fuse_parallel(fusion.build_frame_sequence(frames, params.pos_emb), params))
        session = fusion.FusionSession(params)
        for frame in frames:
            dig.add(session.step(frame))
        dig.add_state(session.state)


def probe_blocks(dig: Digest, cfg: dict, dtype) -> None:
    for i, (d, heads) in enumerate(cfg["blocks"]):
        p = random_block_params(d, heads, seed=300 + i, dtype=dtype)
        rows = np.random.default_rng(400 + i).standard_normal((BRANCH_ROWS, d)).astype(dtype)
        for L in cfg["lengths"]:
            tokens = np.random.default_rng(500 + L).standard_normal((L, d)).astype(dtype)
            for mode in ("sequential", "chunked"):
                state = RecurrentState.zeros(d, heads, dtype=dtype)
                out, _ = block_forward(tokens, p, state, mode)
                dig.add(out)
                dig.add_state(state)
            dig.add(block_branch(rows, p, RecurrentState.zeros(d, heads, dtype=dtype)))
            dig.add(block_branch(rows, p, state))


def probe_cross_attn(dig: Digest, cfg: dict, dtype) -> None:
    for i, (d, heads) in enumerate(cfg["blocks"]):
        enc = random_block_params(d, heads, seed=600 + i, dtype=dtype)
        mixer = random_block_params(d, heads, seed=700 + i, dtype=dtype)
        queries = QuerySet(
            np.random.default_rng(800 + i).standard_normal((BRANCH_ROWS, d)).astype(dtype)
        )
        q_enc = encode_query(queries, enc)
        dig.add(q_enc.tokens)
        for L in cfg["lengths"]:
            features = np.random.default_rng(900 + L).standard_normal((L, d)).astype(dtype)
            dig.add_state(feature_state(features, mixer))
            dig.add(cross_attend(features, q_enc, mixer).tokens)


def probe_decoder(dig: Digest, cfg: dict, dtype) -> None:
    """The demo pipeline: stream frames, then plan on every frame."""
    d, tpf = cfg["demo_d"], 32
    params = fusion.random_fusion_params(d, 2, 1, tpf, seed=1000, dtype=dtype)
    bev_params = fusion.random_bev_params(d, (4, 4), seed=1001, dtype=dtype)
    dec = decoder.random_decoder_params(
        d, n_agent_queries=cfg["agent_queries"], seed=1002, dtype=dtype
    )
    dataset = harness.gen_trajectory_dataset(4 * cfg["k"], 1003)
    anchors = decoder.cluster_anchors(dataset, cfg["k"], 1004)
    ego = fusion.EgoStatus(velocity=8.0, acceleration=0.2, command="follow")
    session = fusion.FusionSession(params)
    frames = harness.gen_synthetic_frames(cfg["demo_frames"], 1005, d=d, dtype=dtype)
    for t, frame in enumerate(frames):
        bundle = fusion.assemble_bev(session.step(frame)[tpf // 2:], ego, bev_params)
        agent_q = decoder.derive_agent_queries(bundle, dec)
        dig.add(agent_q.tokens)
        for stochastic in (False, True):
            out = decoder.decode(anchors, bundle, agent_q, dec, steps=2, seed=t,
                                 stochastic=stochastic)
            dig.add(*(traj.waypoints for traj in out.trajectories))
            dig.add(out.confidence, out.on_road, out.on_route, out.agent_futures)


def digest(cfg: dict) -> str:
    dig = Digest()
    for dtype in DTYPES:
        for probe in (probe_fusion, probe_blocks, probe_cross_attn, probe_decoder):
            probe(dig, cfg, dtype)
    return dig.h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tiny", action="store_true", help="small sizes, for a quick smoke run")
    args = ap.parse_args(argv)
    print(digest(TINY if args.tiny else FULL))
    return 0


if __name__ == "__main__":
    sys.exit(main())
