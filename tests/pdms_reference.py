"""Loop reference for the broadcast PDMS scorer.

The per-trajectory scorer that `lindrive.pdms` replaced: one `np.interp`
per pose channel, an `einsum` separating-axis test per agent, a Python loop
over centerline segments and one over polygon edges. The arithmetic of each
sub-score is the same as in the package, so NC, TTC, DAC and comfort must
match exactly and EP up to summation order.
"""

import math

import numpy as np

from lindrive.pdms import ScoreConfig, SubScores


def _box_axes(headings):
    """(T,) headings -> (T, 2, 2) unit axes (long axis, lateral axis)."""
    c, s = np.cos(headings), np.sin(headings)
    axes = np.empty((headings.shape[0], 2, 2))
    axes[:, 0, 0] = c
    axes[:, 0, 1] = s
    axes[:, 1, 0] = -s
    axes[:, 1, 1] = c
    return axes


def obb_overlap(poses_a, ext_a, poses_b, ext_b):
    """Separating-axis overlap of two (T, 3) pose batches; (T,) mask."""
    axes_a = _box_axes(poses_a[:, 2])
    axes_b = _box_axes(poses_b[:, 2])
    centers = poses_b[:, :2] - poses_a[:, :2]
    axes = np.concatenate([axes_a, axes_b], axis=1)  # (T, 4, 2)
    dist = np.abs(np.einsum("tk,tak->ta", centers, axes))
    ra = np.abs(np.einsum("tik,tak->tai", axes_a, axes)) @ np.asarray(ext_a)
    rb = np.abs(np.einsum("tik,tak->tai", axes_b, axes)) @ np.asarray(ext_b)
    return np.all(dist <= ra + rb, axis=1)


def ego_poses_on_grid(traj, grid_dt):
    horizon = traj.n * traj.dt
    times = np.arange(int(round(horizon / grid_dt)) + 1) * grid_dt
    knot_t = np.concatenate([[0.0], traj.times])
    knot_xy = np.vstack([[0.0, 0.0], traj.xy])
    knot_th = np.unwrap(np.concatenate([[0.0], traj.waypoints[:, 2]]))
    poses = np.stack(
        [
            np.interp(times, knot_t, knot_xy[:, 0]),
            np.interp(times, knot_t, knot_xy[:, 1]),
            np.interp(times, knot_t, knot_th),
        ],
        axis=1,
    )
    return times, poses


def first_overlap_time(traj, agents, ego_half_extents, grid_dt):
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


def point_in_polygon(points, polygon):
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(points.shape[0], dtype=bool)
    n = polygon.shape[0]
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
        inside ^= crosses & (x < np.where(crosses, x_at, np.inf))
    return inside


def comfort_ok(traj, a_max, j_max):
    vel = np.diff(traj.xy, axis=0) / traj.dt
    acc = np.diff(vel, axis=0) / traj.dt
    jerk = np.diff(acc, axis=0) / traj.dt
    a_ok = acc.size == 0 or np.hypot(acc[:, 0], acc[:, 1]).max() <= a_max
    j_ok = jerk.size == 0 or np.hypot(jerk[:, 0], jerk[:, 1]).max() <= j_max
    return bool(a_ok and j_ok)


def arc_progress(traj, centerline):
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


def eval_subscores(traj, scene, cfg=None):
    cfg = cfg or ScoreConfig()
    first_hit = first_overlap_time(traj, scene.agents, cfg.ego_half_extents, cfg.grid_dt)
    progress = arc_progress(traj, scene.centerline)
    return SubScores(
        nc=int(math.isinf(first_hit)),
        dac=int(bool(point_in_polygon(traj.xy, scene.drivable).all())),
        ttc=int(first_hit >= cfg.ttc_min),
        comfort=int(comfort_ok(traj, cfg.a_max, cfg.j_max)),
        ep=float(np.clip(progress / scene.reference_progress, 0.0, 1.0)),
    )
