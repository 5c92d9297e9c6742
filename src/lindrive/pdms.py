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

from .decoder import Trajectory
from .errors import DataError, ShapeError

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
        if self.drivable.ndim != 2 or self.drivable.shape[0] < 3:
            raise DataError("drivable area needs at least 3 polygon vertices")
        if self.centerline.ndim != 2 or self.centerline.shape[0] < 2:
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


@dataclass
class PdmsWeights:
    ep: float = 5.0
    ttc: float = 5.0
    comfort: float = 2.0


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


def _box_axes(headings: np.ndarray) -> np.ndarray:
    """(T,) headings -> (T, 2, 2) unit axes (long axis, lateral axis)."""
    c, s = np.cos(headings), np.sin(headings)
    axes = np.empty((headings.shape[0], 2, 2))
    axes[:, 0, 0] = c
    axes[:, 0, 1] = s
    axes[:, 1, 0] = -s
    axes[:, 1, 1] = c
    return axes


def obb_overlap(poses_a, ext_a, poses_b, ext_b) -> np.ndarray:
    """Separating-axis overlap test for two oriented boxes over a time batch.

    poses are (T, 3) arrays of (x, y, heading); touching counts as overlap.
    Returns a (T,) boolean mask.
    """
    poses_a = np.asarray(poses_a, dtype=np.float64)
    poses_b = np.asarray(poses_b, dtype=np.float64)
    axes_a = _box_axes(poses_a[:, 2])
    axes_b = _box_axes(poses_b[:, 2])
    centers = poses_b[:, :2] - poses_a[:, :2]  # (T, 2)
    axes = np.concatenate([axes_a, axes_b], axis=1)  # (T, 4, 2)
    # projected center distance on each candidate axis
    dist = np.abs(np.einsum("tk,tak->ta", centers, axes))
    # projected half extents of both boxes on each axis
    ra = np.abs(np.einsum("tik,tak->tai", axes_a, axes)) @ np.asarray(ext_a)
    rb = np.abs(np.einsum("tik,tak->tai", axes_b, axes)) @ np.asarray(ext_b)
    return np.all(dist <= ra + rb, axis=1)


def point_in_polygon(points, polygon) -> np.ndarray:
    """Ray-casting containment for a batch of points; (T,) boolean mask."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    poly = np.asarray(polygon, dtype=np.float64)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(pts.shape[0], dtype=bool)
    n = poly.shape[0]
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
        inside ^= crosses & (x < np.where(crosses, x_at, np.inf))
    return inside


def ego_poses_on_grid(traj: Trajectory, grid_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Ego poses linearly interpolated from (0,0,0) through the waypoints.

    Returns (times, poses) covering [0, N*dt]; headings interpolate on the
    unwrapped angle sequence.
    """
    horizon = traj.n * traj.dt
    n_steps = int(round(horizon / grid_dt))
    times = np.arange(n_steps + 1) * grid_dt
    knot_t = np.concatenate([[0.0], traj.times])
    knot_xy = np.vstack([[0.0, 0.0], traj.xy])
    knot_th = np.unwrap(np.concatenate([[0.0], traj.waypoints[:, 2]]))
    poses = np.empty((times.shape[0], 3))
    poses[:, 0] = np.interp(times, knot_t, knot_xy[:, 0])
    poses[:, 1] = np.interp(times, knot_t, knot_xy[:, 1])
    poses[:, 2] = np.interp(times, knot_t, knot_th)
    return times, poses


def first_overlap_time(
    traj: Trajectory,
    agents: list[AgentState],
    ego_half_extents=(EGO_HALF_LENGTH, EGO_HALF_WIDTH),
    grid_dt: float = 0.005,
) -> float:
    """Earliest grid time at which the ego box overlaps any agent box, else inf."""
    if not agents:
        return math.inf
    times, ego = ego_poses_on_grid(traj, grid_dt)
    best = math.inf
    for agent in agents:
        hits = obb_overlap(ego, ego_half_extents, agent.poses_at(times), agent.half_extents)
        idx = np.flatnonzero(hits)
        if idx.size:
            best = min(best, float(times[idx[0]]))
    return best


# --- sub-scores ---------------------------------------------------------------


def comfort_ok(traj: Trajectory, a_max: float, j_max: float) -> bool:
    """Acceleration and jerk from finite differences of the waypoints only,
    so the check is invariant to translating the trajectory."""
    vel = np.diff(traj.xy, axis=0) / traj.dt
    acc = np.diff(vel, axis=0) / traj.dt
    jerk = np.diff(acc, axis=0) / traj.dt
    a_ok = acc.size == 0 or np.hypot(acc[:, 0], acc[:, 1]).max() <= a_max
    j_ok = jerk.size == 0 or np.hypot(jerk[:, 0], jerk[:, 1]).max() <= j_max
    return bool(a_ok and j_ok)


def arc_progress(traj: Trajectory, centerline: np.ndarray) -> float:
    """Arc-length progress along the centerline from the start pose to the
    final waypoint, via nearest-point projection."""
    seg = np.diff(centerline, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])

    def station(point):
        best_d2, best_s = math.inf, 0.0
        for i in range(seg.shape[0]):
            if seg_len[i] == 0.0:
                continue
            rel = point - centerline[i]
            t = np.clip((rel @ seg[i]) / (seg_len[i] ** 2), 0.0, 1.0)
            proj = centerline[i] + t * seg[i]
            d2 = float(np.sum((point - proj) ** 2))
            if d2 < best_d2:
                best_d2, best_s = d2, cum[i] + t * seg_len[i]
        return best_s

    return station(traj.xy[-1]) - station(np.zeros(2))


def eval_subscores(
    traj: Trajectory, scene: SceneEval, cfg: ScoreConfig | None = None
) -> SubScores:
    """All five sub-scores for one trajectory in one scene."""
    cfg = cfg or ScoreConfig()
    first_hit = first_overlap_time(
        traj, scene.agents, cfg.ego_half_extents, cfg.grid_dt
    )
    nc = int(math.isinf(first_hit))
    ttc = int(first_hit >= cfg.ttc_min)
    dac = int(bool(point_in_polygon(traj.xy, scene.drivable).all()))
    comfort = int(comfort_ok(traj, cfg.a_max, cfg.j_max))
    progress = arc_progress(traj, scene.centerline)
    ep = float(np.clip(progress / scene.reference_progress, 0.0, 1.0))
    return SubScores(nc=nc, dac=dac, ttc=ttc, comfort=comfort, ep=ep)


def pdms(s: SubScores, weights: PdmsWeights | None = None) -> float:
    """Hard penalties times the weighted average of EP, TTC and comfort."""
    w = weights or PdmsWeights()
    weighted = (w.ep * s.ep + w.ttc * s.ttc + w.comfort * s.comfort) / (
        w.ep + w.ttc + w.comfort
    )
    return float(s.nc * s.dac * weighted)


def score_trajectory(
    traj: Trajectory,
    scene: SceneEval,
    cfg: ScoreConfig | None = None,
    weights: PdmsWeights | None = None,
) -> tuple[SubScores, float]:
    subs = eval_subscores(traj, scene, cfg)
    return subs, pdms(subs, weights)


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
    return SceneEval(
        agents=[
            AgentState(
                pose=np.asarray(a["pose"]),
                velocity=np.asarray(a["velocity"]),
                half_extents=np.asarray(a["half_extents"]),
            )
            for a in rec["agents"]
        ],
        drivable=np.asarray(rec["drivable"]),
        centerline=np.asarray(rec["centerline"]),
        reference_progress=float(rec["reference_progress"]),
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
