"""Benchmark harness: a quadratic softmax-attention baseline, synthetic data
generators, and the scaling benchmark that contrasts constant-cost streaming
fusion with full-history attention.

Benchmarks run single precision on one thread with fixed per-frame token
counts, so the comparison isolates the attention mechanism. Trials run
strictly sequentially, one round over every frame count at a time; the
median over trials after one warm-up is reported together with min and
max. Workloads are seeded and deterministic: timings vary, computed outputs
do not.
"""

from __future__ import annotations

import csv
import os
import time
import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

from .decoder import DEFAULT_HORIZON, DT, check_seed
from .errors import ConfigError, ShapeError
from .fusion import FrameTokens, FusionSession, random_fusion_params
from .pdms import AgentState, SceneEval

DEFAULT_SEED = 42


def resolve_seed(seed: int | None = None) -> int:
    """Explicit seed, else the LADY_SEED environment override, else 42;
    ConfigError unless it is an integer >= 0."""
    where = "seed"
    if seed is None:
        where, seed = "LADY_SEED", os.environ.get("LADY_SEED", str(DEFAULT_SEED))
        try:
            seed = int(seed)
        except ValueError:
            pass  # rejected below, as the string it is
    return check_seed(seed, where)


# --- quadratic baseline ---------------------------------------------------


@dataclass
class SoftmaxAttnParams:
    W_q: np.ndarray
    W_k: np.ndarray
    W_v: np.ndarray


def random_softmax_params(d: int, *, seed: int, dtype=np.float32) -> SoftmaxAttnParams:
    rng = np.random.default_rng(seed)
    s = 1.0 / np.sqrt(d)
    return SoftmaxAttnParams(
        W_q=(rng.standard_normal((d, d)) * s).astype(dtype),
        W_k=(rng.standard_normal((d, d)) * s).astype(dtype),
        W_v=(rng.standard_normal((d, d)) * s).astype(dtype),
    )


def softmax_cross_attention(q, kv, params: SoftmaxAttnParams):
    """Scaled dot-product attention with learned projections.

    Cost is |q| * |kv| score entries, the quadratic baseline against which
    the recurrent path is compared.
    """
    q = np.asarray(q)
    kv = np.asarray(kv)
    if q.ndim != 2 or kv.ndim != 2 or q.shape[1] != kv.shape[1]:
        raise ShapeError(f"token widths differ: {q.shape} vs {kv.shape}")
    if q.shape[1] != params.W_q.shape[0]:
        raise ShapeError("tokens do not match the projection width")
    qp = q @ params.W_q
    kp = kv @ params.W_k
    vp = kv @ params.W_v
    scores = qp @ kp.T / np.sqrt(q.shape[1])
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ vp


# --- synthetic data ---------------------------------------------------------


def gen_synthetic_frames(
    T: int,
    seed: int,
    drift: float = 0.05,
    l_camera: int = 16,
    l_lidar: int = 16,
    d: int = 64,
    dtype=np.float64,
) -> list[FrameTokens]:
    """Seeded noise tokens with an additive per-frame drift, so consecutive
    frames carry a temporal signal that fusion can pick up."""
    if T < 1:
        raise ConfigError("need at least one frame")
    rng = np.random.default_rng(seed)
    frames = []
    for t in range(T):
        shift = drift * t
        frames.append(
            FrameTokens(
                camera=(rng.standard_normal((l_camera, d)) + shift).astype(dtype),
                lidar=(rng.standard_normal((l_lidar, d)) + shift).astype(dtype),
                t=t,
            )
        )
    return frames


def gen_trajectory_dataset(n: int, seed: int) -> np.ndarray:
    """(n, DEFAULT_HORIZON, 3) smooth random trajectories on the DT grid:
    constant speed, then gentle yaw rate, drawn per trajectory in that order.
    Headings and positions are cumulative sums over all trajectories at once."""
    rng = np.random.default_rng(seed)
    speed, yaw_rate = rng.uniform([2.0, -0.25], [12.0, 0.25], size=(n, 2)).T
    heading = np.cumsum(np.repeat(yaw_rate[:, None] * DT, DEFAULT_HORIZON, axis=1), axis=1)
    step = (speed * DT)[:, None, None] * np.stack([np.cos(heading), np.sin(heading)], axis=2)
    return np.concatenate([np.cumsum(step, axis=1), heading[..., None]], axis=2)


def gen_synthetic_scene(seed: int, n_agents: int = 3) -> tuple[SceneEval, "np.ndarray"]:
    """A random scene plus one smooth candidate trajectory through it.

    Agents are slow, generously sized boxes so that any box overlap lasts
    much longer than the collision grid; that keeps grid classification
    well-posed against a fine-stepping oracle.
    """
    rng = np.random.default_rng(seed)
    traj = gen_trajectory_dataset(1, rng.integers(2**31))[0]
    agents = []
    for _ in range(n_agents):
        agents.append(
            AgentState(
                pose=np.array(
                    [rng.uniform(-5.0, 40.0), rng.uniform(-12.0, 12.0), rng.uniform(-np.pi, np.pi)]
                ),
                velocity=rng.uniform(-4.0, 4.0, size=2),
                half_extents=np.array([rng.uniform(1.5, 2.6), rng.uniform(0.8, 1.2)]),
            )
        )
    half = 60.0
    drivable = np.array([[-half, -half], [half, -half], [half, half], [-half, half]])
    centerline = np.stack(
        [np.linspace(0.0, 50.0, 26), np.zeros(26)], axis=1
    )
    reference = 0.8 * float(np.hypot(*np.diff(traj[:, :2], axis=0).T).sum() + 1.0)
    scene = SceneEval(
        agents=agents,
        drivable=drivable,
        centerline=centerline,
        reference_progress=reference,
    )
    return scene, traj


# --- scaling benchmark ------------------------------------------------------


@dataclass
class BenchConfig:
    d: int = 64
    l_camera: int = 16
    l_lidar: int = 16
    n_layers: int = 2
    n_heads: int = 1
    trials: int = 5
    drift: float = 0.05
    seed: int = DEFAULT_SEED
    dtype: type = np.float32


@dataclass
class BenchRecord:
    """One (frame count, mode) measurement."""

    frames: int
    mode: str  # "linear" or "softmax"
    latency_ms: float  # median per-frame latency
    state_bytes: int  # persistent bytes carried between frames
    wall_ms: float  # median total wall time for the stream
    latency_min_ms: float = 0.0
    latency_max_ms: float = 0.0


BENCH_HEADER = [f.name for f in fields(BenchRecord)]

# below ~50 timer ticks per frame the per-frame median is noise
_MIN_RELIABLE_S = 50 * 1e-7


def _linear_stream(T: int, cfg: BenchConfig):
    """Stream T frames through fusion; returns (per-frame seconds, bytes, out)."""
    params = random_fusion_params(
        cfg.d, cfg.n_layers, cfg.n_heads,
        cfg.l_camera + cfg.l_lidar, seed=cfg.seed, dtype=cfg.dtype,
    )
    frames = gen_synthetic_frames(
        T, cfg.seed, cfg.drift, cfg.l_camera, cfg.l_lidar, cfg.d, cfg.dtype
    )
    session = FusionSession(params)
    per_frame = []
    fused = None
    for frame in frames:
        t0 = time.perf_counter()
        fused = session.step(frame)
        per_frame.append(time.perf_counter() - t0)
    return per_frame, session.persistent_bytes, fused


def _softmax_stream(T: int, cfg: BenchConfig):
    """Each frame cross-attends over the full token history: the kv cache
    grows linearly, per-frame cost grows with it, total cost quadratically."""
    params = random_softmax_params(cfg.d, seed=cfg.seed, dtype=cfg.dtype)
    frames = gen_synthetic_frames(
        T, cfg.seed, cfg.drift, cfg.l_camera, cfg.l_lidar, cfg.d, cfg.dtype
    )
    history = np.zeros((0, cfg.d), dtype=cfg.dtype)
    per_frame = []
    out = None
    for frame in frames:
        toks = np.vstack([frame.camera, frame.lidar])
        t0 = time.perf_counter()
        history = np.vstack([history, toks])
        out = softmax_cross_attention(toks, history, params)
        per_frame.append(time.perf_counter() - t0)
    return per_frame, history.nbytes, out


_STREAMS = {"linear": _linear_stream, "softmax": _softmax_stream}


def run_scaling_bench(
    frames_grid: list[int],
    trials: int | None = None,
    cfg: BenchConfig | None = None,
    modes: tuple[str, ...] = ("linear", "softmax"),
) -> list[BenchRecord]:
    """Median per-frame latency and persistent state bytes per (T, mode).

    Every point is warmed up once, outside the statistics; then each round
    runs one trial of every point in turn, so a slow spell of the machine
    spreads over all frame counts instead of landing on one. When a point's
    frames finish faster than the timer can resolve, its trial count is
    doubled and a measurement warning is emitted.
    """
    cfg = cfg or BenchConfig()
    trials = cfg.trials if trials is None else trials
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    if not set(modes) <= _STREAMS.keys():
        raise ConfigError(f"unknown bench mode in {modes!r}; known: {sorted(_STREAMS)}")
    points = [(mode, T) for mode in modes for T in frames_grid]
    for mode, T in points:
        _STREAMS[mode](T, cfg)  # warm-up, excluded
    n_trials = [trials] * len(points)
    samples = [[] for _ in points]
    for rnd in range(2 * trials):
        for i, (mode, T) in enumerate(points):
            if rnd >= n_trials[i]:
                continue
            per_frame, nbytes, _ = _STREAMS[mode](T, cfg)
            if rnd == 0 and per_frame and np.median(per_frame) < _MIN_RELIABLE_S:
                warnings.warn(
                    f"per-frame time below timer resolution at T={T}; doubling trials",
                    stacklevel=2,
                )
                n_trials[i] = 2 * trials
            skip = 1 if len(per_frame) > 1 else 0  # first frame warms caches
            samples[i].append(
                (float(np.median(per_frame[skip:])), float(np.sum(per_frame)), nbytes)
            )
    records = []
    for (mode, T), runs in zip(points, samples):
        medians, walls, nbytes = zip(*runs)
        records.append(BenchRecord(
            frames=T, mode=mode, latency_ms=1e3 * float(np.median(medians)),
            state_bytes=nbytes[-1], wall_ms=1e3 * float(np.median(walls)),
            latency_min_ms=1e3 * min(medians), latency_max_ms=1e3 * max(medians),
        ))
    return records


def write_bench_csv(path, records: list[BenchRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_HEADER)
        for r in records:
            writer.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in astuple(r)])
