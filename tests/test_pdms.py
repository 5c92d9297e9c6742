"""PDMS scoring: geometry primitives, sub-scores against a brute-force
1 ms stepping oracle, and the aggregation formula."""

import json
import math

import numpy as np
import pytest

import pdms_reference as ref
from lindrive.decoder import Trajectory
from lindrive.errors import ConfigError, DataError, ShapeError
from lindrive.harness import gen_synthetic_scene, gen_trajectory_dataset
from lindrive.pdms import (
    AgentState,
    PdmsWeights,
    SceneEval,
    ScoreConfig,
    SubScores,
    arc_progress,
    comfort_ok,
    eval_subscores,
    first_overlap_time,
    load_scene,
    obb_overlap,
    pdms,
    point_in_polygon,
    save_scene,
    scene_from_json,
    scene_to_json,
    score_batch,
    score_trajectory,
    write_report,
)

# ---------------------------------------------------------------------------
# independent oracle: 1 ms stepping with corner-interval overlap tests
# ---------------------------------------------------------------------------


def box_corners(pose, half_extents):
    x, y, th = pose
    hl, hw = half_extents
    c, s = math.cos(th), math.sin(th)
    return np.array(
        [
            [x + c * dx * hl - s * dy * hw, y + s * dx * hl + c * dy * hw]
            for dx, dy in ((1, 1), (1, -1), (-1, -1), (-1, 1))
        ]
    )


def boxes_overlap_corners(pose_a, ext_a, pose_b, ext_b):
    """SAT via projected corner intervals, non-strict."""
    ca = box_corners(pose_a, ext_a)
    cb = box_corners(pose_b, ext_b)
    for th, corners in ((pose_a[2], ca), (pose_b[2], cb)):
        for axis in (
            (math.cos(th), math.sin(th)),
            (-math.sin(th), math.cos(th)),
        ):
            pa = ca @ axis
            pb = cb @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def oracle_first_overlap(traj, agents, ego_ext, step=0.001):
    """Exhaustive 1 ms stepping along the interpolated ego path."""
    horizon = traj.n * traj.dt
    knot_t = np.concatenate([[0.0], traj.times])
    knot_xy = np.vstack([[0.0, 0.0], traj.xy])
    knot_th = np.unwrap(np.concatenate([[0.0], traj.waypoints[:, 2]]))
    n = int(round(horizon / step))
    for i in range(n + 1):
        t = i * step
        ego = (
            np.interp(t, knot_t, knot_xy[:, 0]),
            np.interp(t, knot_t, knot_xy[:, 1]),
            np.interp(t, knot_t, knot_th),
        )
        for agent in agents:
            pose = (
                agent.pose[0] + agent.velocity[0] * t,
                agent.pose[1] + agent.velocity[1] * t,
                agent.pose[2],
            )
            if boxes_overlap_corners(ego, ego_ext, pose, agent.half_extents):
                return t
    return math.inf


def straight_trajectory(speed=5.0, n=8, dt=0.5, heading=0.0):
    xs = speed * dt * np.arange(1, n + 1)
    wps = np.stack([xs * math.cos(heading), xs * math.sin(heading), np.full(n, heading)], axis=1)
    return Trajectory(wps, dt=dt)


def empty_scene(reference=20.0):
    return SceneEval(
        agents=[],
        drivable=np.array([[-50.0, -50.0], [50.0, -50.0], [50.0, 50.0], [-50.0, 50.0]]),
        centerline=np.stack([np.linspace(0, 50, 11), np.zeros(11)], axis=1),
        reference_progress=reference,
    )


class TestGeometry:
    def test_obb_overlap_basic(self):
        a = np.array([[0.0, 0.0, 0.0]])
        assert obb_overlap(a, (1.0, 1.0), np.array([[1.5, 0.0, 0.0]]), (1.0, 1.0))[0]
        assert not obb_overlap(a, (1.0, 1.0), np.array([[2.5, 0.0, 0.0]]), (1.0, 1.0))[0]

    def test_obb_touching_counts(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[2.0, 0.0, 0.0]])
        assert obb_overlap(a, (1.0, 1.0), b, (1.0, 1.0))[0]

    def test_obb_rotation_matters(self):
        # a slim box rotated 90 degrees stops reaching its neighbor
        a = np.array([[0.0, 0.0, 0.0]])
        b_pose = np.array([[3.0, 0.0, 0.0]])
        assert obb_overlap(a, (2.0, 0.5), b_pose, (2.0, 0.5))[0]
        b_rot = np.array([[3.0, 0.0, np.pi / 2]])
        assert not obb_overlap(a, (2.0, 0.5), b_rot, (2.0, 0.5))[0]

    def test_obb_agrees_with_corner_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            pa = rng.uniform(-3, 3, 3)
            pb = rng.uniform(-3, 3, 3)
            ea = rng.uniform(0.2, 2.0, 2)
            eb = rng.uniform(0.2, 2.0, 2)
            got = bool(obb_overlap(pa[None], ea, pb[None], eb)[0])
            want = boxes_overlap_corners(pa, ea, pb, eb)
            assert got == want

    def test_point_in_polygon(self):
        poly = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
        inside = point_in_polygon(np.array([[2.0, 2.0], [5.0, 2.0], [-1.0, 1.0]]), poly)
        np.testing.assert_array_equal(inside, [True, False, False])

    def test_point_in_concave_polygon(self):
        poly = np.array(
            [[0.0, 0.0], [6.0, 0.0], [6.0, 6.0], [3.0, 2.0], [0.0, 6.0]]
        )
        inside = point_in_polygon(np.array([[3.0, 1.0], [3.0, 4.0]]), poly)
        np.testing.assert_array_equal(inside, [True, False])


class TestTtc:
    def test_no_agents_infinite(self):
        assert first_overlap_time([straight_trajectory()], [])[0] == math.inf

    def test_head_on_closed_form(self):
        # closing at 10 m/s from 20 m -> first overlap at 2.0 s; near-point
        # footprints keep the closed form exact up to the grid resolution
        ego = Trajectory(np.zeros((8, 3)))
        agent = AgentState(
            pose=np.array([20.0, 0.0, 0.0]),
            velocity=np.array([-10.0, 0.0]),
            half_extents=np.array([0.05, 0.05]),
        )
        got = first_overlap_time(
            [ego], [agent], ego_half_extents=(0.0, 0.0), grid_dt=0.005
        )[0]
        assert abs(got - 2.0) <= 0.01

    def test_already_overlapping_zero(self):
        ego = straight_trajectory()
        agent = AgentState(
            pose=np.array([0.0, 0.0, 0.0]),
            velocity=np.array([0.0, 0.0]),
            half_extents=np.array([1.0, 1.0]),
        )
        assert first_overlap_time([ego], [agent])[0] == 0.0


class TestSubScores:
    def test_perfect_unobstructed_drive(self):
        traj = straight_trajectory(speed=5.0)  # 20 m along the centerline
        subs = eval_subscores(traj, empty_scene(reference=20.0))
        assert (subs.nc, subs.dac, subs.ttc, subs.comfort) == (1, 1, 1, 1)
        assert abs(subs.ep - 1.0) < 1e-9

    def test_waypoint_outside_polygon_fails_dac(self):
        traj = straight_trajectory(speed=5.0)
        scene = empty_scene()
        scene.drivable = np.array([[-1.0, -1.0], [5.0, -1.0], [5.0, 1.0], [-1.0, 1.0]])
        assert eval_subscores(traj, scene).dac == 0

    def test_collision_at_waypoint_time(self):
        # stationary agent sitting on the path at t = 1.0 s; classification
        # cross-checked against the exhaustive stepping oracle
        traj = straight_trajectory(speed=5.0)
        scene = empty_scene()
        scene.agents = [
            AgentState(
                pose=np.array([5.0, 0.0, 0.0]),
                velocity=np.array([0.0, 0.0]),
                half_extents=np.array([1.0, 1.0]),
            )
        ]
        cfg = ScoreConfig()
        subs = eval_subscores(traj, scene, cfg)
        assert subs.nc == 0
        want = oracle_first_overlap(traj, scene.agents, cfg.ego_half_extents)
        assert math.isfinite(want)
        got = first_overlap_time([traj], scene.agents, cfg.ego_half_extents, cfg.grid_dt)[0]
        assert abs(got - want) <= cfg.grid_dt

    def test_comfort_thresholds(self):
        smooth = straight_trajectory(speed=5.0)
        assert comfort_ok([smooth], a_max=2.4, j_max=8.0)[0]
        jerky = smooth.waypoints.copy()
        jerky[4, 0] += 3.0
        assert not comfort_ok([Trajectory(jerky)], a_max=2.4, j_max=8.0)[0]

    def test_comfort_translation_invariant(self):
        rng = np.random.default_rng(1)
        wps = np.cumsum(rng.uniform(0.5, 2.0, (8, 3)), axis=0)
        base = Trajectory(wps)
        shifted = Trajectory(wps + np.array([100.0, -40.0, 0.0]))
        assert comfort_ok([base], 2.4, 8.0)[0] == comfort_ok([shifted], 2.4, 8.0)[0]

    def test_degenerate_centerline_rejected(self):
        with pytest.raises(DataError):
            SceneEval(
                agents=[],
                drivable=np.array([[0, 0], [1, 0], [1, 1]]),
                centerline=np.array([[2.0, 2.0], [2.0, 2.0]]),
                reference_progress=10.0,
            )

    def test_progress_measured_along_centerline(self):
        scene = empty_scene()
        traj = straight_trajectory(speed=2.0)  # 8 m
        assert abs(arc_progress([traj], scene.centerline)[0] - 8.0) < 1e-9


class TestPdmsFormula:
    def test_hard_penalty_zeroes_everything(self):
        subs = SubScores(nc=0, dac=1, ttc=1, comfort=1, ep=1.0)
        assert pdms(subs) == 0.0
        subs = SubScores(nc=1, dac=0, ttc=1, comfort=1, ep=1.0)
        assert pdms(subs) == 0.0

    def test_all_ones(self):
        assert pdms(SubScores(nc=1, dac=1, ttc=1, comfort=1, ep=1.0)) == 1.0

    def test_human_row_value(self):
        # sub-scores (1, 1, 1, 1, 0.875) with weights (5, 5, 2) -> 94.8
        subs = SubScores(nc=1, dac=1, ttc=1, comfort=1, ep=0.875)
        score = pdms(subs, PdmsWeights(ep=5.0, ttc=5.0, comfort=2.0))
        assert abs(100.0 * score - 94.8) < 0.05

    def test_monotone_in_each_subscore(self):
        base = SubScores(nc=1, dac=1, ttc=0, comfort=0, ep=0.3)
        s0 = pdms(base)
        assert pdms(SubScores(1, 1, 1, 0, 0.3)) >= s0
        assert pdms(SubScores(1, 1, 0, 1, 0.3)) >= s0
        assert pdms(SubScores(1, 1, 0, 0, 0.7)) >= s0
        assert 0.0 <= s0 <= 1.0

    def test_range_over_random_subscores(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            subs = SubScores(
                nc=int(rng.integers(2)), dac=int(rng.integers(2)),
                ttc=int(rng.integers(2)), comfort=int(rng.integers(2)),
                ep=float(rng.random()),
            )
            score = pdms(subs)
            assert 0.0 <= score <= 1.0
            if subs.nc * subs.dac == 0:
                assert score == 0.0


class TestOracleAgreement:
    def test_nc_and_ttc_match_bruteforce_on_random_scenes(self):
        # smaller sweep here; the acceptance suite runs the full 200
        cfg = ScoreConfig()
        for seed in range(30):
            scene, wps = gen_synthetic_scene(seed)
            traj = Trajectory(wps)
            subs = eval_subscores(traj, scene, cfg)
            t_oracle = oracle_first_overlap(traj, scene.agents, cfg.ego_half_extents)
            assert subs.nc == int(math.isinf(t_oracle)), f"seed {seed}"
            assert subs.ttc == int(t_oracle >= cfg.ttc_min), f"seed {seed}"


class TestSceneFiles:
    def test_scene_round_trip(self, tmp_path):
        scene, _ = gen_synthetic_scene(3)
        save_scene(tmp_path / "scene.json", scene)
        back = load_scene(tmp_path / "scene.json")
        assert len(back.agents) == len(scene.agents)
        np.testing.assert_allclose(back.drivable, scene.drivable)
        np.testing.assert_allclose(back.centerline, scene.centerline)
        assert back.reference_progress == scene.reference_progress

    def test_report_format(self, tmp_path):
        scene, wps = gen_synthetic_scene(4)
        subs, score = score_trajectory(Trajectory(wps), scene)
        path = tmp_path / "report.csv"
        write_report(
            path,
            [{"scene": "s", "trajectory": "t", "nc": subs.nc, "dac": subs.dac,
              "ttc": subs.ttc, "comfort": subs.comfort, "ep": subs.ep,
              "pdms": score}],
        )
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "scene,trajectory,nc,dac,ttc,comfort,ep,pdms"
        assert 0.0 <= score <= 1.0


# ---------------------------------------------------------------------------
# the broadcast scorer against the per-trajectory loop reference
# ---------------------------------------------------------------------------


def rotated(wps, angle):
    """Waypoints turned about the start pose; headings wrap in Trajectory."""
    c, s = math.cos(angle), math.sin(angle)
    out = wps.copy()
    out[:, 0] = c * wps[:, 0] - s * wps[:, 1]
    out[:, 1] = s * wps[:, 0] + c * wps[:, 1]
    out[:, 2] = wps[:, 2] + angle
    return out


def reference_case(seed, n_agents):
    """16 anchors and one scene whose agents sit on or near their paths.

    Half the anchors point backwards, so their headings cross +-pi; a few
    carry a kink that fails comfort. The centerline repeats a point (a
    zero-length segment) and the drivable area is small enough that some
    anchors leave it.
    """
    rng = np.random.default_rng(seed)
    wps = gen_trajectory_dataset(16, int(rng.integers(2**31)))
    for i in range(8, 16):
        wps[i] = rotated(wps[i], math.pi + rng.uniform(-0.6, 0.6))
    for i in rng.choice(16, size=3, replace=False):
        wps[i, 4, :2] += rng.normal(0.0, 1.5, 2)
    trajs = [Trajectory(w) for w in wps]
    agents = []
    for _ in range(n_agents):
        path = wps[rng.integers(16)]
        x, y = path[rng.integers(path.shape[0]), :2] + rng.normal(0.0, 3.0, 2)
        agents.append(
            AgentState(
                pose=np.array([x, y, rng.uniform(-math.pi, math.pi)]),
                velocity=rng.uniform(-3.0, 3.0, 2),
                half_extents=rng.uniform([1.0, 0.5], [2.6, 1.2]),
            )
        )
    half = rng.uniform(15.0, 45.0)
    knots = np.cumsum(rng.uniform(2.0, 8.0, (12, 2)) * rng.choice([-1.0, 1.0], 2), axis=0)
    centerline = np.concatenate([[[-10.0, 0.0]], knots[:5], knots[4:]])
    scene = SceneEval(
        agents=agents,
        drivable=np.array([[-half, -half], [half, -half], [half, half], [-half, half]]),
        centerline=centerline,
        reference_progress=float(rng.uniform(10.0, 40.0)),
    )
    return trajs, scene


class TestBroadcastScorer:
    def test_matches_loop_reference(self):
        cfg = ScoreConfig()
        pairs = 0
        seen = set()
        for seed in range(64):
            trajs, scene = reference_case(seed, n_agents=seed % 9)
            assert np.any(np.linalg.norm(np.diff(scene.centerline, axis=0), axis=1) == 0.0)
            got = [s for s, _ in score_batch(trajs, scene, cfg)]
            got.append(score_batch(trajs[seed % 16 : seed % 16 + 1], scene, cfg)[0][0])
            for subs, traj in zip(got, trajs + [trajs[seed % 16]]):
                want = ref.eval_subscores(traj, scene, cfg)
                key = (subs.nc, subs.ttc, subs.dac, subs.comfort)
                assert key == (want.nc, want.ttc, want.dac, want.comfort), f"seed {seed}"
                assert abs(subs.ep - want.ep) <= 1e-12, f"seed {seed}"
                seen.add(key)
                pairs += 1
        assert pairs >= 1000
        # every sub-score takes both values somewhere in the sweep
        for i in range(4):
            assert {k[i] for k in seen} == {0, 1}

    def test_first_overlap_and_progress_match_reference(self):
        cfg = ScoreConfig()
        for seed in range(4):
            trajs, scene = reference_case(100 + seed, n_agents=8)
            hits = first_overlap_time(trajs, scene.agents, cfg.ego_half_extents, cfg.grid_dt)
            want = [
                ref.first_overlap_time(t, scene.agents, cfg.ego_half_extents, cfg.grid_dt)
                for t in trajs
            ]
            np.testing.assert_array_equal(hits, want)
            progress = arc_progress(trajs, scene.centerline)
            want = [ref.arc_progress(t, scene.centerline) for t in trajs]
            np.testing.assert_allclose(progress, want, rtol=0.0, atol=1e-12)

    def test_batch_equals_single_calls(self):
        for seed in range(6):
            trajs, scene = reference_case(200 + seed, n_agents=2 * seed)
            assert score_batch(trajs, scene) == [score_trajectory(t, scene) for t in trajs]

    def test_mixed_batch_rejected(self):
        _, scene = reference_case(300, n_agents=2)
        short = straight_trajectory(n=6)
        with pytest.raises(ShapeError):
            score_batch([straight_trajectory(), short], scene)
        with pytest.raises(ShapeError):
            score_batch([straight_trajectory(), straight_trajectory(dt=0.25)], scene)

    @pytest.mark.parametrize("dt", [0.0, -0.5, math.nan])
    def test_bad_timestep_rejected(self, dt):
        # an empty or one-point time grid would score a colliding plan NC=1
        _, scene = reference_case(301, n_agents=2)
        with pytest.raises(DataError):
            score_batch([straight_trajectory(dt=dt)], scene)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_dt": -0.005},
            {"grid_dt": 0.0},
            {"grid_dt": math.nan},
            {"grid_dt": math.inf},
            {"ttc_min": -0.5},
            {"a_max": 0.0},
            {"j_max": -8.0},
            {"ego_half_extents": (0.0, 0.9)},
            {"ego_half_extents": (2.3, -0.9)},
        ],
    )
    def test_bad_score_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ScoreConfig(**kwargs)

    @staticmethod
    def scene_with_agent(**agent):
        rec = scene_to_json(empty_scene())
        rec["agents"] = [
            {"pose": [5.0, 0.0, 0.0], "velocity": [0.0, 0.0], "half_extents": [1.0, 1.0], **agent}
        ]
        return scene_from_json(rec)

    def test_good_agent_collides(self):
        scene = self.scene_with_agent()
        assert eval_subscores(straight_trajectory(), scene).nc == 0

    def test_agent_extents_wrong_shape(self):
        with pytest.raises(ShapeError):
            self.scene_with_agent(half_extents=[2.0])

    def test_agent_negative_extents(self):
        with pytest.raises(DataError):
            self.scene_with_agent(half_extents=[-1.0, 1.0])

    def test_agent_non_finite_pose(self):
        with pytest.raises(DataError):
            self.scene_with_agent(pose=[math.nan, 0.0, 0.0])

    @staticmethod
    def edited_scene(edit):
        rec = json.loads(json.dumps(scene_to_json(empty_scene())))
        edit(rec)
        return scene_from_json(rec)

    def test_good_scene_scores(self):
        scene = self.edited_scene(lambda rec: None)
        subs = eval_subscores(straight_trajectory(), scene)
        assert (subs.dac, subs.ep) == (1, 1.0)

    @pytest.mark.parametrize("key", ["drivable", "centerline"])
    def test_scene_points_wrong_shape(self, key):
        def add_z(rec):
            rec[key] = [p + [0.0] for p in rec[key]]

        with pytest.raises(ShapeError):
            self.edited_scene(add_z)

    @pytest.mark.parametrize("key", ["drivable", "centerline"])
    def test_scene_points_non_finite(self, key):
        def nan_point(rec):
            rec[key][1][0] = math.nan

        with pytest.raises(DataError):
            self.edited_scene(nan_point)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_reference_progress_non_finite(self, value):
        with pytest.raises(DataError):
            self.edited_scene(lambda rec: rec.update(reference_progress=value))
