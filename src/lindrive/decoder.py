"""Truncated-diffusion trajectory decoder.

Clustered anchor trajectories are corrupted only up to an early step of the
noise schedule and then refined in a small number of denoising iterations.
Each decoder layer embeds the trajectories as tokens, cross-attends them
against the BEV bundle and against agent queries through linear
cross-attention, applies a feed-forward update and projects back to waypoint
deltas. Confidence, mapping and prediction heads read the final features.
The BEV and agent tokens are read into each layer's feature states once per
decode call; every mode then reads those states on its own, so the modes
are treated symmetrically and refine as one batch.

Head training is out of scope here: heads run with seeded random weights,
so everything downstream asserts shapes, ranges and determinism rather than
planning quality. The denoising update is deterministic by default; pass
stochastic=True to re-noise between steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cross_attn import (
    CrossAttnParams,
    QuerySet,
    attend,
    attend_state,
    feature_state,
    random_cross_attn_params,
)
from .errors import ConfigError, ContractError, DataError, ShapeError
from .fusion import BevBundle
from .rwkv7 import RecurrentState, sigmoid

DT = 0.5  # 2 Hz waypoint grid
DEFAULT_HORIZON = 8  # waypoints, 4 seconds


def wrap_angle(theta):
    """Wrap headings into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta), 2.0 * np.pi)


@dataclass
class Trajectory:
    """N waypoints (x, y, heading) in the ego frame at a fixed timestep."""

    waypoints: np.ndarray  # (N, 3)
    dt: float = DT

    def __post_init__(self):
        self.waypoints = np.atleast_2d(np.asarray(self.waypoints, dtype=np.float64))
        if self.waypoints.ndim != 2 or self.waypoints.shape[1] != 3:
            raise ShapeError("waypoints must be (N, 3) of x, y, heading")
        if self.waypoints.shape[0] < 1:
            raise ShapeError("a trajectory needs at least one waypoint")
        if not np.isfinite(self.waypoints).all():
            raise DataError("waypoints must be finite")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise DataError(f"trajectory dt must be finite and positive, got {self.dt}")
        self.waypoints[:, 2] = wrap_angle(self.waypoints[:, 2])

    @property
    def n(self) -> int:
        return self.waypoints.shape[0]

    @property
    def xy(self) -> np.ndarray:
        return self.waypoints[:, :2]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, self.n + 1)

    def to_json(self) -> dict:
        return {"dt": self.dt, "waypoints": self.waypoints.tolist()}

    @classmethod
    def from_json(cls, rec: dict) -> "Trajectory":
        return cls(waypoints=np.asarray(rec["waypoints"]), dt=float(rec["dt"]))


@dataclass
class AnchorSet:
    """K prototype trajectories used as diffusion initialization."""

    anchors: list[Trajectory]

    def __post_init__(self):
        if len(self.anchors) < 1:
            raise ShapeError("an AnchorSet needs at least one anchor")
        flat = self.stacked().reshape(len(self.anchors), -1)
        if len(np.unique(flat, axis=0)) != len(self.anchors):
            raise DataError("anchors must be pairwise distinct")

    @property
    def k(self) -> int:
        return len(self.anchors)

    @property
    def n(self) -> int:
        return self.anchors[0].n

    @property
    def dt(self) -> float:
        return self.anchors[0].dt

    def stacked(self) -> np.ndarray:
        return np.stack([a.waypoints for a in self.anchors])

    def to_json(self) -> list:
        return [a.to_json() for a in self.anchors]

    @classmethod
    def from_json(cls, payload: list) -> "AnchorSet":
        return cls([Trajectory.from_json(rec) for rec in payload])


def save_anchors(path, anchors: AnchorSet) -> None:
    Path(path).write_text(json.dumps(anchors.to_json()))


def load_anchors(path) -> AnchorSet:
    return AnchorSet.from_json(json.loads(Path(path).read_text()))


@dataclass
class NoiseSchedule:
    """Forward-diffusion schedule, truncated for anchor corruption.

    betas has total_steps entries; alpha_bars has total_steps + 1 with
    alpha_bars[0] = 1 so that step 0 is the identity corruption.
    """

    betas: np.ndarray
    truncate_at: int = 50

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=np.float64)
        if np.any(self.betas <= 0.0) or np.any(self.betas >= 1.0):
            raise ConfigError("beta values must lie in (0, 1)")
        if np.any(np.diff(self.betas) < 0.0):
            raise ConfigError("beta schedule must be non-decreasing")
        if not 1 <= self.truncate_at <= self.total_steps:
            raise ConfigError("truncate_at must lie within the schedule")
        self.alpha_bars = np.concatenate([[1.0], np.cumprod(1.0 - self.betas)])

    @property
    def total_steps(self) -> int:
        return self.betas.shape[0]

    @classmethod
    def linear(
        cls,
        beta_min: float = 1e-4,
        beta_max: float = 2e-2,
        total_steps: int = 1000,
        truncate_at: int = 50,
    ) -> "NoiseSchedule":
        return cls(
            betas=np.linspace(beta_min, beta_max, total_steps),
            truncate_at=truncate_at,
        )


# --- anchor construction ------------------------------------------------------


def cluster_anchors(dataset, k: int, seed: int) -> AnchorSet:
    """K-means over flattened waypoint vectors (Lloyd with k-means++ init) of
    `dataset`, a list of Trajectory or an (N, n, 3) waypoint array.

    Runs at most 100 iterations or until assignments stop changing; the
    centroids come back reshaped as trajectories.
    """
    if isinstance(dataset, (list, tuple)) and dataset and isinstance(dataset[0], Trajectory):
        data = np.stack([t.waypoints for t in dataset])
        dt = dataset[0].dt
    else:
        data = np.asarray(dataset, dtype=np.float64)
        dt = DT
    if data.ndim != 3 or data.shape[2] != 3:
        raise ShapeError("dataset must stack (N, 3) waypoint arrays")
    n_traj, n_wp, _ = data.shape
    if n_traj < k:
        raise DataError(f"{n_traj} trajectories cannot seed {k} clusters")
    flat = data.reshape(n_traj, -1)
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = np.empty((k, flat.shape[1]))
    centroids[0] = flat[rng.integers(n_traj)]
    d2 = np.sum((flat - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide; spread over distinct rows
            centroids[i] = flat[rng.integers(n_traj)]
            continue
        centroids[i] = flat[rng.choice(n_traj, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((flat - centroids[i]) ** 2, axis=1))

    assign = None
    for _ in range(100):
        dists = ((flat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for i in range(k):
            members = flat[assign == i]
            if len(members):
                centroids[i] = members.mean(axis=0)
            else:
                # re-seed an empty cluster at the point farthest from its centroid
                centroids[i] = flat[dists.min(axis=1).argmax()]

    return AnchorSet(
        [Trajectory(c.reshape(n_wp, 3), dt=dt) for c in centroids]
    )


def corrupt_anchors(
    anchors: AnchorSet, sched: NoiseSchedule, step: int, seed: int
) -> np.ndarray:
    """Forward-diffusion corruption at `step`:
    sqrt(abar) * x0 + sqrt(1 - abar) * noise, seeded.

    Returns raw (K, N, 3) arrays; headings are wrapped only once decoding
    finishes. Steps above the truncation point are a contract violation.
    """
    if not 0 <= step <= sched.truncate_at:
        raise ContractError(
            f"step {step} outside the truncated schedule [0, {sched.truncate_at}]"
        )
    x0 = anchors.stacked()
    if step == 0:
        return x0.copy()
    abar = sched.alpha_bars[step]
    noise = np.random.default_rng(seed).standard_normal(x0.shape)
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * noise


# --- decoder parameters -------------------------------------------------------


@dataclass
class DecoderLayerParams:
    """One refinement layer: embed, two cross-attention passes, FFN, delta."""

    W_embed: np.ndarray  # (3N, d)
    b_embed: np.ndarray  # (d,)
    bev_attn: CrossAttnParams
    agent_attn: CrossAttnParams
    W_ff1: np.ndarray  # (d, h)
    W_ff2: np.ndarray  # (h, d)
    W_delta: np.ndarray  # (d, 3N)
    b_delta: np.ndarray  # (3N,)


@dataclass
class DecoderParams:
    d: int
    n_waypoints: int
    layers: list[DecoderLayerParams]
    sched: NoiseSchedule
    # heads
    W_conf: np.ndarray  # (d,)
    b_conf: float
    W_map: np.ndarray  # (d, 2) -> sigmoid(on_road, on_route)
    b_map: np.ndarray  # (2,)
    W_pred: np.ndarray  # (d, 2N) agent future (x, y) per waypoint
    b_pred: np.ndarray  # (2N,)
    # learnable agent queries, refined over the BEV bundle before decoding
    agent_queries: np.ndarray  # (M, d)
    agent_query_attn: CrossAttnParams


def random_decoder_params(
    d: int = 64,
    n_waypoints: int = DEFAULT_HORIZON,
    n_layers: int = 2,
    n_agent_queries: int = 8,
    n_heads: int = 1,
    *,
    seed: int,
    sched: NoiseSchedule | None = None,
    dtype=np.float64,
) -> DecoderParams:
    rng = np.random.default_rng(seed)
    w3 = 3 * n_waypoints

    def xattn(offset):
        return random_cross_attn_params(d, n_heads, seed=seed * 37 + offset, dtype=dtype)

    def layer(i):
        h = 2 * d
        return DecoderLayerParams(
            W_embed=(rng.standard_normal((w3, d)) / np.sqrt(w3)).astype(dtype),
            b_embed=np.zeros(d, dtype=dtype),
            bev_attn=xattn(2 * i),
            agent_attn=xattn(2 * i + 1),
            W_ff1=(rng.standard_normal((d, h)) / np.sqrt(d)).astype(dtype),
            W_ff2=(rng.standard_normal((h, d)) / np.sqrt(h)).astype(dtype),
            # small delta scale keeps refinements near the anchors
            W_delta=(rng.standard_normal((d, w3)) * 0.02).astype(dtype),
            b_delta=np.zeros(w3, dtype=dtype),
        )

    return DecoderParams(
        d=d,
        n_waypoints=n_waypoints,
        layers=[layer(i) for i in range(n_layers)],
        sched=sched or NoiseSchedule.linear(),
        W_conf=(rng.standard_normal(d) / np.sqrt(d)).astype(dtype),
        b_conf=0.0,
        W_map=(rng.standard_normal((d, 2)) / np.sqrt(d)).astype(dtype),
        b_map=np.zeros(2, dtype=dtype),
        W_pred=(rng.standard_normal((d, 2 * n_waypoints)) / np.sqrt(d)).astype(dtype),
        b_pred=np.zeros(2 * n_waypoints, dtype=dtype),
        agent_queries=(rng.standard_normal((n_agent_queries, d)) * 0.5).astype(dtype),
        agent_query_attn=xattn(997),
    )


@dataclass
class DecoderOutput:
    trajectories: list[Trajectory]
    confidence: np.ndarray  # (K_m,)
    on_road: np.ndarray  # (K_m,) in [0, 1]
    on_route: np.ndarray  # (K_m,) in [0, 1]
    agent_futures: np.ndarray  # (n_agents, N, 2)

    @property
    def n_modes(self) -> int:
        return len(self.trajectories)


# --- decoding -----------------------------------------------------------------


def derive_agent_queries(bev: BevBundle, params: DecoderParams) -> QuerySet:
    """One cross-attention pass of the learnable queries over the bundle."""
    return attend(bev.tokens(), QuerySet(params.agent_queries), params.agent_query_attn)


def decoder_layer(
    noisy: np.ndarray,
    bev_state: RecurrentState,
    agent_state: RecurrentState,
    lp: DecoderLayerParams,
):
    """Refine (K, N, 3) trajectories once; returns (refined, mode features).

    `bev_state` and `agent_state` are the feature states of the BEV tokens
    and of the agent queries under the layer's two mixing blocks
    (cross_attn.feature_state). Every mode reads them on its own, so the
    layer treats the modes symmetrically: permuting the modes permutes the
    outputs.
    """
    noisy = np.asarray(noisy)
    k_m = noisy.shape[0]
    flat = noisy.reshape(k_m, -1)
    x = flat @ lp.W_embed + lp.b_embed
    x = attend_state(bev_state, QuerySet(x), lp.bev_attn).tokens
    x = attend_state(agent_state, QuerySet(x), lp.agent_attn).tokens
    x = x + np.maximum(x @ lp.W_ff1, 0.0) @ lp.W_ff2
    delta = x @ lp.W_delta + lp.b_delta
    return (flat + delta).reshape(noisy.shape), x


def decode(
    anchors: AnchorSet,
    bev: BevBundle,
    agent_q: QuerySet,
    params: DecoderParams,
    steps: int = 2,
    *,
    seed: int = 0,
    k_modes: int | None = None,
    stochastic: bool = False,
) -> DecoderOutput:
    """Corrupt the anchors at the truncation point, then denoise in `steps`
    passes through the cascaded layers and apply the output heads.

    Deterministic under the seed; k_modes subsamples the anchors first.
    """
    if steps < 1:
        raise ConfigError("need at least one denoising step")
    if anchors.n != params.n_waypoints:
        raise ShapeError(
            f"anchors have {anchors.n} waypoints, decoder expects {params.n_waypoints}"
        )
    rng = np.random.default_rng(seed)
    if k_modes is not None:
        if not 1 <= k_modes <= anchors.k:
            raise ConfigError(f"k_modes must lie in [1, {anchors.k}]")
        idx = rng.choice(anchors.k, size=k_modes, replace=False)
        anchors = AnchorSet([anchors.anchors[i] for i in idx])

    sched = params.sched
    # decode in the params' dtype: the alpha-bar factors are Python floats
    dtype = params.agent_queries.dtype
    x = corrupt_anchors(anchors, sched, sched.truncate_at, seed).astype(dtype)
    # e.g. 2 steps from truncation 50: evaluate at 50 and 25, land on 0
    t_grid = np.linspace(sched.truncate_at, 0, steps + 1).round().astype(int)
    # the features are the same at every step: read them once per layer
    states = [
        (
            feature_state(bev.tokens(), lp.bev_attn.mixer),
            feature_state(agent_q.tokens, lp.agent_attn.mixer),
        )
        for lp in params.layers
    ]
    feats = None
    for i in range(steps):
        t_now, t_next = int(t_grid[i]), int(t_grid[i + 1])
        x0_hat = x
        for lp, (bev_state, agent_state) in zip(params.layers, states):
            x0_hat, feats = decoder_layer(x0_hat, bev_state, agent_state, lp)
        if t_next == 0:
            x = x0_hat
        else:
            ab_now = float(sched.alpha_bars[t_now])
            ab_next = float(sched.alpha_bars[t_next])
            if stochastic:
                eps = rng.standard_normal(x.shape).astype(dtype)
            else:
                # deterministic update: reuse the noise implied by x and x0_hat
                eps = (x - math.sqrt(ab_now) * x0_hat) / math.sqrt(1.0 - ab_now)
            x = math.sqrt(ab_next) * x0_hat + math.sqrt(1.0 - ab_next) * eps

    confidence = feats @ params.W_conf + params.b_conf
    mapping = sigmoid(feats @ params.W_map + params.b_map)
    agent_feats = agent_q.tokens
    futures = (agent_feats @ params.W_pred + params.b_pred).reshape(
        agent_feats.shape[0], params.n_waypoints, 2
    )
    trajectories = [Trajectory(wp, dt=anchors.dt) for wp in x]
    return DecoderOutput(
        trajectories=trajectories,
        confidence=confidence,
        on_road=mapping[:, 0],
        on_route=mapping[:, 1],
        agent_futures=futures,
    )


def select_best(out: DecoderOutput) -> tuple[Trajectory, int]:
    """Highest-confidence trajectory; ties break toward the lowest index."""
    if out.n_modes < 1:
        raise ContractError("empty decoder output")
    idx = int(np.argmax(out.confidence))
    return out.trajectories[idx], idx
