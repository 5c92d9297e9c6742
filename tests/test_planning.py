"""One planning frame end to end (decoder.plan_frame): the pipeline it runs,
work and memory that stay flat as the stream grows, and float32 planning
that tracks float64 over a long stream."""

import sys
import tracemalloc

import numpy as np
import pytest

from lindrive.decoder import (
    cluster_anchors,
    decode,
    derive_agent_queries,
    plan_frame,
    random_decoder_params,
    select_best,
)
from lindrive.errors import ConfigError
from lindrive.fusion import (
    EgoStatus,
    FusionSession,
    assemble_bev,
    random_bev_params,
    random_fusion_params,
)
from lindrive.harness import gen_synthetic_frames, gen_trajectory_dataset

EGO = EgoStatus(velocity=8.0, acceleration=0.2, command="follow")


def planner(dtype, d, l_tok, grid, k, seed=60):
    """(session, BEV params, decoder params, anchors) of `dtype` for frames
    of l_tok camera and l_tok lidar tokens of width d."""
    session = FusionSession(random_fusion_params(d, 2, 1, 2 * l_tok, seed=seed, dtype=dtype))
    bev = random_bev_params(d, grid, seed=seed + 1, dtype=dtype)
    dec = random_decoder_params(d, seed=seed + 2, dtype=dtype)
    anchors = cluster_anchors(gen_trajectory_dataset(4 * k, seed + 3), k, seed + 4)
    return session, bev, dec, anchors


def counted_plan(session, bev, dec, anchors, frame):
    """Python-level calls, C-level calls (sys.setprofile "call" and "c_call"
    events, as tools/opbench.py counts them) and the tracemalloc peak in
    bytes of one plan_frame call."""
    counts = {"call": 0, "c_call": 0}

    def profile(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sys.setprofile(profile)
        try:
            plan_frame(session, bev, dec, anchors, frame, EGO, 7)
        finally:
            sys.setprofile(None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return counts["call"], counts["c_call"], peak


def test_runs_the_hand_wired_pipeline():
    args = (np.float64, 16, 4, (2, 2), 8)
    frames = gen_synthetic_frames(3, 61, l_camera=4, l_lidar=4, d=16)
    session, bev, dec, anchors = planner(*args)
    for f in frames[:-1]:
        session.step(f)
    out, best, idx = plan_frame(session, bev, dec, anchors, frames[-1], EGO, 9)

    session, bev, dec, anchors = planner(*args)
    for f in frames[:-1]:
        session.step(f)
    bundle = assemble_bev(session.step(frames[-1])[4:], EGO, bev)
    want = decode(anchors, bundle, derive_agent_queries(bundle, dec), dec, steps=2, seed=9)
    want_best, want_idx = select_best(want)
    assert idx == want_idx
    assert best.waypoints.tobytes() == want_best.waypoints.tobytes()
    np.testing.assert_array_equal(out.confidence, want.confidence)
    np.testing.assert_array_equal(out.agent_futures, want.agent_futures)


@pytest.mark.parametrize("seed", [-1, 2.5, "3"])
def test_bad_seed_rejected(seed):
    session, bev, dec, anchors = planner(np.float64, 16, 4, (2, 2), 8)
    frame = gen_synthetic_frames(1, 62, l_camera=4, l_lidar=4, d=16)[0]
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        plan_frame(session, bev, dec, anchors, frame, EGO, seed)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_work_and_memory_flat_over_2000_frames(dtype):
    # the paper's claim without a timer: a planning frame of a 2,000-frame
    # stream makes the calls and needs the memory of one of an 11-frame stream
    session, bev, dec, anchors = planner(dtype, 16, 4, (2, 2), 8)
    frames = gen_synthetic_frames(2001, 63, l_camera=4, l_lidar=4, d=16, dtype=dtype)
    for f in frames[:10]:
        session.step(f)
    # warm-up: the first call fills the agent-query cache, and the first
    # profiled and traced call of a process allocates for that once
    counted_plan(session, bev, dec, anchors, frames[10])
    early = counted_plan(session, bev, dec, anchors, frames[11])
    for f in frames[12:2000]:
        session.step(f)
    late = counted_plan(session, bev, dec, anchors, frames[2000])
    assert session.frames_seen == 2001
    assert early[:2] == late[:2], f"calls at frame 11 {early[:2]}, at frame 2,000 {late[:2]}"
    assert early[2] > 0
    assert abs(late[2] - early[2]) <= 0.05 * early[2], f"peaks {early[2]} and {late[2]} B"


def test_float32_tracks_float64_over_500_frames():
    # drive's shapes: d=64, 16 + 16 tokens per frame, a 4x4 grid, 16 anchors
    runs = {}
    for dtype in (np.float64, np.float32):
        session, bev, dec, anchors = planner(dtype, 64, 16, (4, 4), 16)
        *history, frame = gen_synthetic_frames(500, 64, d=64, dtype=dtype)
        for f in history:
            fused = session.step(f)
        _, best, idx = plan_frame(session, bev, dec, anchors, frame, EGO, 11)
        runs[dtype] = fused, session.state.S, idx, best.waypoints
    (fused64, s64, idx64, wp64), (fused32, s32, idx32, wp32) = runs.values()
    assert fused32.dtype == s32.dtype == np.float32
    np.testing.assert_allclose(fused32, fused64, rtol=0, atol=1e-4)
    np.testing.assert_allclose(s32, s64, rtol=0, atol=1e-4)
    assert idx32 == idx64
    np.testing.assert_allclose(wp32, wp64, rtol=0, atol=1e-4)
