"""Multi-frame camera/LiDAR token fusion.

Training-style parallel fusion runs stacked RWKV-7 blocks over the whole
multi-frame token sequence at once; streaming inference consumes one frame
at a time against a persistent temporal hidden state, so per-frame cost and
state size are independent of how many frames came before. The fused LiDAR
tokens are then assembled into a BEV bundle together with an embedded ego
status token.

One streaming session owns one RecurrentState; fuse_parallel is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, ContractError, DataError, ShapeError
from .rwkv7 import (
    RecurrentState,
    RwkvBlockParams,
    forward_stack,
    random_block_params,
)
from . import snapshots


class Command(Enum):
    TURN_LEFT = "turn-left"
    TURN_RIGHT = "turn-right"
    LANE_CHANGE = "lane-change"
    FOLLOW = "follow"


@dataclass
class FrameTokens:
    """One sensor frame on the 2 Hz grid."""

    camera: np.ndarray  # (L_c, d)
    lidar: np.ndarray  # (L_l, d)
    t: int

    def __post_init__(self):
        self.camera = np.atleast_2d(np.asarray(self.camera))
        self.lidar = np.atleast_2d(np.asarray(self.lidar))
        if self.camera.shape[1] != self.lidar.shape[1]:
            raise ShapeError("camera and lidar token widths differ")

    @property
    def d(self) -> int:
        return self.camera.shape[1]


@dataclass
class EgoStatus:
    velocity: float  # m/s
    acceleration: float  # m/s^2
    command: Command = Command.FOLLOW

    def __post_init__(self):
        try:
            self.command = Command(self.command)
        except ValueError:
            raise DataError(f"command {self.command!r} is none of {[c.value for c in Command]}") from None
        try:
            finite = bool(np.isfinite(self.velocity) and np.isfinite(self.acceleration))
        except TypeError:
            finite = False
        if not finite:
            raise DataError("ego velocity and acceleration must be finite numbers")

    def features(self) -> np.ndarray:
        """[v, a, one-hot command], the input of the ego embedding."""
        onehot = np.zeros(len(Command))
        onehot[list(Command).index(self.command)] = 1.0
        return np.concatenate([[self.velocity, self.acceleration], onehot])


@dataclass
class BevBundle:
    """BEV tokens plus the ego token, positional embeddings already added.

    `pos_emb` records the table that was added (exactly once, at assembly).
    """

    bev_tokens: np.ndarray  # (L_b, d)
    ego_token: np.ndarray  # (d,)
    pos_emb: np.ndarray  # (L_b + 1, d)

    def __post_init__(self):
        if self.pos_emb.shape != (
            self.bev_tokens.shape[0] + 1,
            self.bev_tokens.shape[1],
        ):
            raise ShapeError("pos_emb must cover the BEV tokens plus ego token")

    def tokens(self) -> np.ndarray:
        """(L_b + 1, d): BEV tokens with the ego token appended."""
        return np.vstack([self.bev_tokens, self.ego_token[None, :]])

    @property
    def d(self) -> int:
        return self.bev_tokens.shape[1]


@dataclass
class FusionParams:
    """Stacked fusion blocks plus the shared spatial positional table.

    The same table covers one frame's camera+lidar tokens and is added to
    every frame.
    """

    blocks: list[RwkvBlockParams]
    pos_emb: np.ndarray  # (L_c + L_l, d)

    @property
    def d(self) -> int:
        return self.blocks[0].d

    @property
    def dtype(self) -> np.dtype:
        return self.pos_emb.dtype

    def fresh_state(self) -> RecurrentState:
        return RecurrentState.zeros(self.d, self.blocks[0].n_heads, len(self.blocks), self.dtype)


def random_fusion_params(
    d: int = 64,
    n_layers: int = 2,
    n_heads: int = 1,
    tokens_per_frame: int = 32,
    *,
    seed: int,
    dtype=np.float64,
) -> FusionParams:
    rng = np.random.default_rng(seed)
    blocks = [
        random_block_params(d, n_heads, seed=seed * 101 + i, dtype=dtype)
        for i in range(n_layers)
    ]
    pos = (rng.standard_normal((tokens_per_frame, d)) * 0.1).astype(dtype)
    return FusionParams(blocks=blocks, pos_emb=pos)


def build_frame_sequence(frames: list[FrameTokens], pos_emb: np.ndarray) -> np.ndarray:
    """Frame-major concatenation [cam_1 || lid_1, ..., cam_T || lid_T] with
    the shared spatial positional table added to every frame's tokens."""
    if len(frames) < 1:
        raise ShapeError("need at least one frame")
    ts = [f.t for f in frames]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ContractError(f"frame indices must be strictly increasing, got {ts}")
    rows = []
    for f in frames:
        # concatenating or adding pos_emb would promote a frame silently
        if f.camera.dtype != pos_emb.dtype or f.lidar.dtype != pos_emb.dtype:
            raise DataError(f"frame {f.t} dtype is not the positional table's {pos_emb.dtype}")
        toks = np.concatenate([f.camera, f.lidar])
        if toks.shape != pos_emb.shape:
            raise ShapeError(
                f"frame {f.t}: {toks.shape} tokens do not match the "
                f"{pos_emb.shape} positional table"
            )
        rows.append(toks + pos_emb)
    return np.concatenate(rows)


def fuse_parallel(
    seq: np.ndarray,
    params: FusionParams,
) -> np.ndarray:
    """Fuse a whole multi-frame sequence in chunk-parallel mode, fresh state."""
    return forward_stack(seq, params.blocks, params.fresh_state(), "chunked")


def fuse_step(
    frame: FrameTokens,
    params: FusionParams,
    state: RecurrentState,
) -> tuple[np.ndarray, RecurrentState]:
    """Consume one frame against the temporal hidden state.

    Only the current frame's tokens are touched: per-frame cost and the
    state's byte size do not depend on how many frames were consumed before.
    """
    if frame.d != params.d:
        raise ConfigError(f"frame width {frame.d} != fusion width {params.d}")
    seq = build_frame_sequence([frame], params.pos_emb)
    fused = forward_stack(seq, params.blocks, state, "chunked")
    return fused, state


@dataclass
class BevProjParams:
    """Local spatial mixing over the lidar grid plus the ego embedding."""

    kernel: np.ndarray  # (3, 3) shared across channels
    W: np.ndarray  # (d, d) pointwise projection
    b: np.ndarray  # (d,)
    ego_W: np.ndarray  # (n_ego_features, d)
    ego_b: np.ndarray  # (d,)
    pos_emb: np.ndarray  # (L_b + 1, d)
    grid: tuple[int, int]  # lidar token grid (rows, cols)


def random_bev_params(
    d: int = 64, grid: tuple[int, int] = (4, 4), *, seed: int, dtype=np.float64
) -> BevProjParams:
    rng = np.random.default_rng(seed)
    n_ego = 2 + len(Command)
    lb = grid[0] * grid[1]
    return BevProjParams(
        kernel=(rng.standard_normal((3, 3)) * 0.2).astype(dtype),
        W=(rng.standard_normal((d, d)) / np.sqrt(d)).astype(dtype),
        b=np.zeros(d, dtype=dtype),
        ego_W=(rng.standard_normal((n_ego, d)) * 0.5).astype(dtype),
        ego_b=(rng.standard_normal(d) * 0.1).astype(dtype),
        pos_emb=(rng.standard_normal((lb + 1, d)) * 0.1).astype(dtype),
        grid=grid,
    )


def assemble_bev(
    fused_lidar: np.ndarray, ego: EgoStatus, proj: BevProjParams
) -> BevBundle:
    """3x3 local aggregation over the lidar grid, ego embedding, positions.

    The positional table is added here and only here. Lidar tokens that do
    not fill the grid at the projection's width raise ShapeError; tokens in
    another dtype than the projection raise DataError.
    """
    gh, gw = proj.grid
    fused_lidar = np.asarray(fused_lidar)
    d = proj.W.shape[0]
    if fused_lidar.shape != (gh * gw, d):
        raise ShapeError(f"lidar tokens {fused_lidar.shape} do not fill a {gh}x{gw}x{d} grid")
    if fused_lidar.dtype != proj.W.dtype:
        raise DataError(f"lidar tokens are {fused_lidar.dtype}, the projection {proj.W.dtype}")
    grid = fused_lidar.reshape(gh, gw, d)
    padded = np.zeros((gh + 2, gw + 2, d), dtype=fused_lidar.dtype)
    padded[1:-1, 1:-1] = grid
    mixed = np.zeros_like(grid)
    for di in range(3):
        for dj in range(3):
            mixed += proj.kernel[di, dj] * padded[di:di + gh, dj:dj + gw]
    bev = mixed.reshape(gh * gw, d) @ proj.W + proj.b
    ego_token = ego.features().astype(bev.dtype) @ proj.ego_W + proj.ego_b
    return BevBundle(
        bev_tokens=bev + proj.pos_emb[:-1],
        ego_token=ego_token + proj.pos_emb[-1],
        pos_emb=proj.pos_emb,
    )


def feature_state_dropout(
    bundle: BevBundle, p_bev: float, p_ego: float, rng_seed: int
) -> BevBundle:
    """Training-time robustness dropout with differentiated probabilities.

    Each BEV token is zeroed independently with probability p_bev, the ego
    token with probability p_ego. Deterministic under the seed; the identity
    when both probabilities are zero.
    """
    if not (0.0 <= p_bev <= 1.0 and 0.0 <= p_ego <= 1.0):
        raise ConfigError("dropout probabilities must lie in [0, 1]")
    if p_bev == 0.0 and p_ego == 0.0:
        return bundle
    rng = np.random.default_rng(rng_seed)
    keep = (rng.random(bundle.bev_tokens.shape[0]) >= p_bev).astype(
        bundle.bev_tokens.dtype
    )
    bev = bundle.bev_tokens * keep[:, None]
    ego = bundle.ego_token * (0.0 if rng.random() < p_ego else 1.0)
    return BevBundle(bev_tokens=bev, ego_token=ego, pos_emb=bundle.pos_emb)


class FusionSession:
    """A streaming inference session: params + state. The state's token
    counter is the only counter; frames are counted from it."""

    def __init__(self, params: FusionParams):
        self.params = params
        self.state = params.fresh_state()

    def step(self, frame: FrameTokens) -> np.ndarray:
        return fuse_step(frame, self.params, self.state)[0]

    @property
    def frames_seen(self) -> int:
        return self.state.tokens_seen // self.params.pos_emb.shape[0]

    @property
    def persistent_bytes(self) -> int:
        return self.state.nbytes

    def save(self, path) -> None:
        snapshots.save_state(path, self.state)

    def restore(self, path) -> None:
        """Resume from a snapshot of a session with the same layers, width,
        heads and dtype, taken after a whole number of frames; on a mismatch
        the current state is kept."""
        state = snapshots.load_state(path)
        S, ours = state.S, self.state.S
        if S.shape != ours.shape:
            raise ShapeError(f"snapshot S {S.shape} is not the session's {ours.shape}")
        if S.dtype != ours.dtype:
            raise DataError(f"snapshot dtype {S.dtype} is not the session's {ours.dtype}")
        per_frame = self.params.pos_emb.shape[0]
        if state.tokens_seen % per_frame:
            raise DataError(f"snapshot holds {state.tokens_seen} tokens, not whole {per_frame}-token frames")
        self.state = state
