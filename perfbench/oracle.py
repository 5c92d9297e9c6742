"""Brute-force collision oracle for the eval workload's output check.

Steps the ego and every agent on a 1 ms grid and tests box overlap by
projecting all four corners of both boxes onto the four candidate
separating axes (the method of acceptance criterion 06). This derivation
is independent of the package's centre-distance SAT test, so agreement
between the two is evidence, not a tautology.
"""

from __future__ import annotations

import math

import numpy as np

STEP_S = 0.001


def _corners(poses, half_extents):
    x, y, th = poses[:, 0], poses[:, 1], poses[:, 2]
    c, s = np.cos(th), np.sin(th)
    hl, hw = half_extents
    offs = np.array([(1, 1), (1, -1), (-1, -1), (-1, 1)], dtype=float)
    cx = x[:, None] + c[:, None] * offs[:, 0] * hl - s[:, None] * offs[:, 1] * hw
    cy = y[:, None] + s[:, None] * offs[:, 0] * hl + c[:, None] * offs[:, 1] * hw
    return np.stack([cx, cy], axis=2)  # (T, 4, 2)


def _runs(mask):
    """Lengths, in samples, of the maximal runs of True in a boolean series."""
    edges = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
    return np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)


def overlap_profile(waypoints, dt, agents, ego_half_extents):
    """First overlap time and shortest overlap run on the 1 ms grid.

    `waypoints` is the (N, 3) plan; the ego starts at the origin with zero
    heading and moves linearly between waypoints, heading interpolated on
    the unwrapped angles. Agents are ``(pose, velocity, half_extents)``
    triples moving at constant velocity. Returns ``(first_s, shortest_s)``:
    the earliest grid time at which the ego box overlaps any agent box and
    the duration of the briefest contiguous overlap, both +inf when the
    boxes never overlap within the horizon.
    """
    n_wp = waypoints.shape[0]
    knot_t = dt * np.arange(n_wp + 1)
    knot_xy = np.vstack([[0.0, 0.0], waypoints[:, :2]])
    knot_th = np.unwrap(np.concatenate([[0.0], waypoints[:, 2]]))
    t = np.arange(int(round(n_wp * dt / STEP_S)) + 1) * STEP_S
    ego = np.stack(
        [
            np.interp(t, knot_t, knot_xy[:, 0]),
            np.interp(t, knot_t, knot_xy[:, 1]),
            np.interp(t, knot_t, knot_th),
        ],
        axis=1,
    )
    ego_c = _corners(ego, ego_half_extents)
    first, shortest = math.inf, math.inf
    for pose, velocity, half_extents in agents:
        poses = np.empty((t.shape[0], 3))
        poses[:, 0] = pose[0] + velocity[0] * t
        poses[:, 1] = pose[1] + velocity[1] * t
        poses[:, 2] = pose[2]
        agent_c = _corners(poses, half_extents)
        separated = np.zeros(t.shape[0], dtype=bool)
        for heading in (ego[:, 2], poses[:, 2]):
            for rot90 in (False, True):
                axis = np.stack([np.cos(heading), np.sin(heading)], axis=1)
                if rot90:
                    axis = np.stack([-axis[:, 1], axis[:, 0]], axis=1)
                pe = np.einsum("tck,tk->tc", ego_c, axis)
                pa = np.einsum("tck,tk->tc", agent_c, axis)
                separated |= (pe.max(1) < pa.min(1)) | (pa.max(1) < pe.min(1))
        hits = ~separated
        if hits.any():
            first = min(first, float(t[np.argmax(hits)]))
            shortest = min(shortest, float(_runs(hits).min()) * STEP_S)
    return first, shortest
