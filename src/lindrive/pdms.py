"""Predictive Driver Model Score over synthetic scenes.

Sub-scores: no-collision (NC) and drivable-area compliance (DAC) are hard
penalties; ego progress (EP), time-to-collision margin (TTC) and comfort are
averaged with fixed weights. The final score is

    pdms = (nc * dac) * (w_ep*ep + w_ttc*ttc + w_c*comfort) / (w_ep + w_ttc + w_c)

Collision checks run on a fine, linearly interpolated time grid (default
5 ms) so that classifications match an exhaustive 1 ms stepping oracle;
agents move at constant velocity, the ego follows its waypoints. These
sub-score internals are simplified desk-scale stand-ins for the benchmark
originals, and score reports are labeled accordingly.

Everything here is pure and reentrant; scoring many (trajectory, scene)
pairs concurrently is safe.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decoder import Trajectory, stack_trajectories
from .errors import ConfigError, DataError, ShapeError

EGO_HALF_LENGTH = 2.3  # 4.6 m rectangle oriented by waypoint heading
EGO_HALF_WIDTH = 0.9  # 1.8 m


@dataclass
class AgentState:
    """Constant-velocity rectangular agent."""

    pose: np.ndarray  # (x, y, heading) at t = 0
    velocity: np.ndarray  # (vx, vy)
    half_extents: np.ndarray  # (half_length, half_width)

    def __post_init__(self):
        self.pose = np.asarray(self.pose, dtype=np.float64)
        self.velocity = np.asarray(self.velocity, dtype=np.float64)
        self.half_extents = np.asarray(self.half_extents, dtype=np.float64)
        if self.pose.shape != (3,) or self.velocity.shape != (2,):
            raise ShapeError("agent pose must be (3,) and velocity (2,)")
        if self.half_extents.shape != (2,):
            raise ShapeError("agent half_extents must be (2,)")
        if not all(np.isfinite(v).all() for v in (self.pose, self.velocity, self.half_extents)):
            raise DataError("agent pose, velocity and half_extents must be finite")
        if not (self.half_extents > 0.0).all():
            raise DataError("agent half_extents must be positive")

    def poses_at(self, times: np.ndarray) -> np.ndarray:
        out = np.empty((times.shape[0], 3))
        out[:, 0] = self.pose[0] + self.velocity[0] * times
        out[:, 1] = self.pose[1] + self.velocity[1] * times
        out[:, 2] = self.pose[2]
        return out


@dataclass
class SceneEval:
    """Everything needed to score one trajectory."""

    agents: list[AgentState]
    drivable: np.ndarray  # (P, 2) simple closed polygon, CCW or CW
    centerline: np.ndarray  # (C, 2) route centerline polyline
    reference_progress: float  # m

    def __post_init__(self):
        self.drivable = np.asarray(self.drivable, dtype=np.float64)
        self.centerline = np.asarray(self.centerline, dtype=np.float64)
        for name in ("drivable", "centerline"):
            shape = getattr(self, name).shape
            if len(shape) != 2 or shape[1] != 2:
                raise ShapeError(f"{name} must be (N, 2) points, got {shape}")
        if not (
            np.isfinite(self.drivable).all()
            and np.isfinite(self.centerline).all()
            and math.isfinite(self.reference_progress)
        ):
            raise DataError("drivable, centerline and reference progress must be finite")
        if self.drivable.shape[0] < 3:
            raise DataError("drivable area needs at least 3 polygon vertices")
        if self.centerline.shape[0] < 2:
            raise DataError("route centerline needs at least 2 points")
        seg = np.diff(self.centerline, axis=0)
        if np.hypot(seg[:, 0], seg[:, 1]).sum() <= 0.0:
            raise DataError("route centerline has zero length")
        if self.reference_progress <= 0.0:
            raise DataError("reference progress must be positive")


@dataclass
class ScoreConfig:
    """Thresholds and the ego footprint."""

    ttc_min: float = 1.0  # s
    a_max: float = 2.4  # m/s^2
    j_max: float = 8.0  # m/s^3
    ego_half_extents: tuple[float, float] = (EGO_HALF_LENGTH, EGO_HALF_WIDTH)
    grid_dt: float = 0.005  # s, collision evaluation grid

    def __post_init__(self):
        # `not x > 0` also rejects NaN
        if not (math.isfinite(self.grid_dt) and self.grid_dt > 0.0):
            raise ConfigError(f"grid_dt must be finite and positive, got {self.grid_dt}")
        if not self.ttc_min >= 0.0:
            raise ConfigError(f"ttc_min must be non-negative, got {self.ttc_min}")
        if not (self.a_max > 0.0 and self.j_max > 0.0):
            raise ConfigError(f"a_max and j_max must be positive, got {self.a_max}, {self.j_max}")
        ext = np.asarray(self.ego_half_extents, dtype=np.float64)
        if ext.shape != (2,) or not (np.isfinite(ext) & (ext > 0.0)).all():
            raise ConfigError(f"ego half extents must be two finite positive values, got {ext}")


@dataclass
class PdmsWeights:
    ep: float = 5.0
    ttc: float = 5.0
    comfort: float = 2.0

    def __post_init__(self):
        w = (self.ep, self.ttc, self.comfort)
        if not (all(math.isfinite(x) and x >= 0.0 for x in w) and sum(w) > 0.0):
            raise ConfigError(f"PDMS weights must be finite and >= 0 with a positive sum, got {w}")


@dataclass
class SubScores:
    nc: int
    dac: int
    ttc: int
    comfort: int
    ep: float

    def __post_init__(self):
        for name in ("nc", "dac", "ttc", "comfort"):
            if getattr(self, name) not in (0, 1):
                raise DataError(f"{name} must be 0 or 1")
        if not 0.0 <= self.ep <= 1.0:
            raise DataError("ep must lie in [0, 1]")


# --- geometry -----------------------------------------------------------------


def obb_overlap(poses_a, ext_a, poses_b, ext_b) -> np.ndarray:
    """Separating-axis overlap test for oriented boxes.

    poses are (..., 3) arrays of (x, y, heading) and extents (..., 2) arrays
    of (half_length, half_width); all four broadcast against each other.
    Touching counts as overlap. Returns the broadcast boolean mask.
    """
    pa = np.asarray(poses_a, dtype=np.float64)
    pb = np.asarray(poses_b, dtype=np.float64)
    la, wa = np.moveaxis(np.asarray(ext_a, dtype=np.float64), -1, 0)
    lb, wb = np.moveaxis(np.asarray(ext_b, dtype=np.float64), -1, 0)
    ca, sa = np.cos(pa[..., 2]), np.sin(pa[..., 2])
    cb, sb = np.cos(pb[..., 2]), np.sin(pb[..., 2])
    dx = pb[..., 0] - pa[..., 0]
    dy = pb[..., 1] - pa[..., 1]
    # |cos| and |sin| of the relative heading couple one box's extents onto
    # the other's axes
    cos_ab = np.abs(ca * cb + sa * sb)
    sin_ab = np.abs(sa * cb - ca * sb)
    return (
        (np.abs(dx * ca + dy * sa) <= la + lb * cos_ab + wb * sin_ab)
        & (np.abs(dy * ca - dx * sa) <= wa + lb * sin_ab + wb * cos_ab)
        & (np.abs(dx * cb + dy * sb) <= lb + la * cos_ab + wa * sin_ab)
        & (np.abs(dy * cb - dx * sb) <= wb + la * sin_ab + wa * cos_ab)
    )


def point_in_polygon(points, polygon) -> np.ndarray:
    """Ray-casting containment for a batch of (M, 2) points; (M,) boolean mask."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    poly = np.asarray(polygon, dtype=np.float64)
    x, y = pts[:, :1], pts[:, 1:]  # (M, 1) against (P,) edges
    x1, y1 = poly.T
    x2, y2 = np.roll(poly, -1, axis=0).T
    crosses = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
    return np.logical_xor.reduce(crosses & (x < np.where(crosses, x_at, np.inf)), axis=1)


def ego_poses_on_grid(wps: np.ndarray, dt: float, grid_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Ego poses linearly interpolated from (0,0,0) through waypoints dt apart.

    Returns (T,) times covering [0, N*dt] and (K, T, 3) poses; headings
    interpolate on each trajectory's unwrapped angle sequence. The knots are
    shared, so this is np.interp evaluated for all K trajectories at once.
    """
    k, n, _ = wps.shape
    n_steps = int(round(n * dt / grid_dt))
    times = np.arange(n_steps + 1) * grid_dt
    knot_t = dt * np.arange(n + 1)
    knots = np.concatenate([np.zeros((k, 1, 3)), wps], axis=1)
    knots[:, :, 2] = np.unwrap(knots[:, :, 2], axis=1)
    # a zero slope past the last knot holds the final pose, as np.interp does
    slopes = np.zeros_like(knots)
    slopes[:, :-1] = np.diff(knots, axis=1) / np.diff(knot_t)[:, None]
    seg = np.minimum(np.searchsorted(knot_t, times, side="right") - 1, n)
    poses = slopes[:, seg] * (times - knot_t[seg])[:, None] + knots[:, seg]
    return times, poses


def first_overlap_time(
    wps: np.ndarray,
    dt: float,
    agents: list[AgentState],
    ego_half_extents=(EGO_HALF_LENGTH, EGO_HALF_WIDTH),
    grid_dt: float = 0.005,
) -> np.ndarray:
    """(K,) earliest grid time at which each ego box overlaps any agent box,
    inf where none does.

    All (trajectory, agent, grid step) triples are screened at once by
    center distance against the sum of the two circumradii, a necessary
    condition for overlap; one obb_overlap call then tests the survivors.
    """
    times, ego = ego_poses_on_grid(wps, dt, grid_dt)
    if not agents:
        return np.full(ego.shape[0], math.inf)
    agent_poses = np.stack([a.poses_at(times) for a in agents])  # (A, T, 3)
    agent_ext = np.stack([a.half_extents for a in agents])  # (A, 2)
    reach = np.hypot(*ego_half_extents) + np.hypot(agent_ext[:, 0], agent_ext[:, 1])
    dx = agent_poses[:, :, 0] - ego[:, None, :, 0]  # (K, A, T)
    dy = agent_poses[:, :, 1] - ego[:, None, :, 1]
    # the relative margin keeps rounding from screening out a touching pair
    k, a, t = np.nonzero(dx * dx + dy * dy <= (1.0 + 1e-9) * reach[:, None] ** 2)
    hit = obb_overlap(ego[k, t], ego_half_extents, agent_poses[a, t], agent_ext[a])
    hits = np.zeros(ego.shape[:2], dtype=bool)
    hits[k[hit], t[hit]] = True
    return np.where(hits.any(axis=1), times[hits.argmax(axis=1)], math.inf)


# --- sub-scores ---------------------------------------------------------------


def comfort_ok(wps: np.ndarray, dt: float, a_max: float, j_max: float) -> np.ndarray:
    """(K,) comfort flags from finite differences of the waypoints only,
    so the check is invariant to translating a trajectory."""
    vel = np.diff(wps[:, :, :2], axis=1) / dt
    acc = np.diff(vel, axis=1) / dt
    jerk = np.diff(acc, axis=1) / dt
    # initial=0 lets a trajectory too short to difference pass
    a_peak = np.hypot(acc[..., 0], acc[..., 1]).max(axis=1, initial=0.0)
    j_peak = np.hypot(jerk[..., 0], jerk[..., 1]).max(axis=1, initial=0.0)
    return (a_peak <= a_max) & (j_peak <= j_max)


def arc_progress(wps: np.ndarray, centerline: np.ndarray) -> np.ndarray:
    """(K,) arc-length progress along the centerline from the start pose to
    each final waypoint, via nearest-point projection onto the segments."""
    seg = np.diff(centerline, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    keep = seg_len > 0.0  # zero-length segments project nowhere
    start, seg, seg_len, cum = centerline[:-1][keep], seg[keep], seg_len[keep], cum[:-1][keep]
    # the origin first, then every end point, against every segment
    points = np.concatenate([np.zeros((1, 2)), wps[:, -1, :2]])[:, None]  # (K+1, 1, 2)
    rel = points - start
    t = np.clip((rel[..., 0] * seg[:, 0] + rel[..., 1] * seg[:, 1]) / seg_len**2, 0.0, 1.0)
    off = points - (start + t[..., None] * seg)
    best = np.argmin(off[..., 0] ** 2 + off[..., 1] ** 2, axis=1)
    rows = np.arange(best.shape[0])
    station = cum[best] + t[rows, best] * seg_len[best]
    return station[1:] - station[0]


def pdms(s: SubScores, weights: PdmsWeights | None = None) -> float:
    """Hard penalties times the weighted average of EP, TTC and comfort."""
    w = weights or PdmsWeights()
    weighted = (w.ep * s.ep + w.ttc * s.ttc + w.comfort * s.comfort) / (
        w.ep + w.ttc + w.comfort
    )
    return float(s.nc * s.dac * weighted)


def score_batch(
    trajs, scene: SceneEval, cfg: ScoreConfig | None = None
) -> list[tuple[SubScores, float]]:
    """Sub-scores and PDMS of K trajectories in one scene, one array pass
    per sub-score. The trajectories are one batch under stack_trajectories
    (decoder modes and anchor sets are); otherwise ShapeError."""
    cfg = cfg or ScoreConfig()
    wps, dt = stack_trajectories(trajs)
    first_hit = first_overlap_time(wps, dt, scene.agents, cfg.ego_half_extents, cfg.grid_dt)
    inside = point_in_polygon(wps[..., :2].reshape(-1, 2), scene.drivable).reshape(len(wps), -1)
    comfort = comfort_ok(wps, dt, cfg.a_max, cfg.j_max)
    ep = np.clip(arc_progress(wps, scene.centerline) / scene.reference_progress, 0.0, 1.0)
    out = []
    for k in range(len(wps)):
        subs = SubScores(
            nc=int(math.isinf(first_hit[k])),
            dac=int(inside[k].all()),
            ttc=int(first_hit[k] >= cfg.ttc_min),
            comfort=int(comfort[k]),
            ep=float(ep[k]),
        )
        out.append((subs, pdms(subs)))
    return out


def score_trajectory(
    traj: Trajectory, scene: SceneEval, cfg: ScoreConfig | None = None
) -> tuple[SubScores, float]:
    return score_batch([traj], scene, cfg)[0]


def eval_subscores(
    traj: Trajectory, scene: SceneEval, cfg: ScoreConfig | None = None
) -> SubScores:
    """All five sub-scores for one trajectory in one scene."""
    return score_trajectory(traj, scene, cfg)[0]


# --- file formats -------------------------------------------------------------


def scene_to_json(scene: SceneEval) -> dict:
    return {
        "agents": [
            {
                "pose": a.pose.tolist(),
                "velocity": a.velocity.tolist(),
                "half_extents": a.half_extents.tolist(),
            }
            for a in scene.agents
        ],
        "drivable": scene.drivable.tolist(),
        "centerline": scene.centerline.tolist(),
        "reference_progress": scene.reference_progress,
    }


def scene_from_json(rec: dict) -> SceneEval:
    """The scene of a scene_to_json record; DataError unless `rec` has that
    structure, with numbers where scene_to_json writes them."""
    try:
        agents = [
            {k: np.asarray(a[k], dtype=np.float64) for k in ("pose", "velocity", "half_extents")}
            for a in rec["agents"]
        ]
        drivable = np.asarray(rec["drivable"], dtype=np.float64)
        centerline = np.asarray(rec["centerline"], dtype=np.float64)
        reference_progress = float(rec["reference_progress"])
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"not a scene record ({type(err).__name__}: {err})") from None
    return SceneEval(
        agents=[AgentState(**a) for a in agents],
        drivable=drivable,
        centerline=centerline,
        reference_progress=reference_progress,
    )


def save_scene(path, scene: SceneEval) -> None:
    Path(path).write_text(json.dumps(scene_to_json(scene)))


def load_scene(path) -> SceneEval:
    return scene_from_json(json.loads(Path(path).read_text()))


REPORT_HEADER = ["scene", "trajectory", "nc", "dac", "ttc", "comfort", "ep", "pdms"]


def write_report(path, rows: list[dict]) -> None:
    """CSV score report, one row per (scene, trajectory) pair.

    A leading comment line flags that the sub-scores are simplified
    desk-scale stand-ins, not the full benchmark implementations.
    """
    with open(path, "w", newline="") as fh:
        fh.write("# sub-scores are simplified desk-scale stand-ins\n")
        writer = csv.DictWriter(fh, fieldnames=REPORT_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
