"""Softmax baseline, synthetic generators, and the scaling benchmark."""

import csv
import math

import numpy as np
import pytest

from lindrive import harness
from lindrive.errors import ConfigError, ShapeError
from lindrive.harness import (
    BENCH_HEADER,
    BenchConfig,
    gen_synthetic_frames,
    gen_trajectory_dataset,
    gen_synthetic_scene,
    random_softmax_params,
    resolve_seed,
    run_scaling_bench,
    softmax_cross_attention,
    write_bench_csv,
)


def trajectory_dataset_loop(n, seed):
    """gen_trajectory_dataset one trajectory and one waypoint at a time, the
    reference its cumulative sums must match bit for bit."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, harness.DEFAULT_HORIZON, 3))
    for i in range(n):
        speed = rng.uniform(2.0, 12.0)
        yaw_rate = rng.uniform(-0.25, 0.25)
        heading = 0.0
        pos = np.zeros(2)
        for k in range(harness.DEFAULT_HORIZON):
            heading += yaw_rate * harness.DT
            pos = pos + speed * harness.DT * np.array([np.cos(heading), np.sin(heading)])
            out[i, k] = (pos[0], pos[1], heading)
    return out


class TestSoftmaxBaseline:
    def test_singleton_kv_returns_value_projection(self):
        params = random_softmax_params(4, seed=1, dtype=np.float64)
        rng = np.random.default_rng(2)
        q = rng.standard_normal((3, 4))
        kv = rng.standard_normal((1, 4))
        out = softmax_cross_attention(q, kv, params)
        want = np.tile(kv @ params.W_v, (3, 1))
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_identical_rows_make_kv_count_irrelevant(self):
        params = random_softmax_params(4, seed=3, dtype=np.float64)
        rng = np.random.default_rng(4)
        q = rng.standard_normal((2, 4))
        row = rng.standard_normal((1, 4))
        out_small = softmax_cross_attention(q, np.tile(row, (2, 1)), params)
        out_large = softmax_cross_attention(q, np.tile(row, (50, 1)), params)
        np.testing.assert_allclose(out_small, out_large, rtol=1e-12)

    def test_d2_scalar_oracle(self):
        params = random_softmax_params(2, seed=5, dtype=np.float64)
        q = np.array([[1.0, -0.5]])
        kv = np.array([[0.25, 0.75], [-1.0, 0.5]])
        qp = q @ params.W_q
        kp = kv @ params.W_k
        vp = kv @ params.W_v
        s0 = float(qp[0] @ kp[0]) / math.sqrt(2)
        s1 = float(qp[0] @ kp[1]) / math.sqrt(2)
        z = math.exp(s0) + math.exp(s1)
        want = (math.exp(s0) * vp[0] + math.exp(s1) * vp[1]) / z
        out = softmax_cross_attention(q, kv, params)
        np.testing.assert_allclose(out[0], want, rtol=1e-12)

    def test_dim_mismatch(self):
        params = random_softmax_params(4, seed=6)
        with pytest.raises(ShapeError):
            softmax_cross_attention(np.zeros((2, 4)), np.zeros((2, 3)), params)


class TestGenerators:
    def test_frames_deterministic(self):
        a = gen_synthetic_frames(5, seed=7)
        b = gen_synthetic_frames(5, seed=7)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.camera, fb.camera)
            np.testing.assert_array_equal(fa.lidar, fb.lidar)

    def test_zero_drift_keeps_means_level(self):
        frames = gen_synthetic_frames(20, seed=8, drift=0.0)
        means = [float(np.vstack([f.camera, f.lidar]).mean()) for f in frames]
        # token means are N(0, 1/sqrt(32*64)) averages; 5 sigma ~ 0.11
        assert max(abs(m) for m in means) < 0.11

    def test_drift_shifts_means(self):
        T, drift = 30, 0.2
        frames = gen_synthetic_frames(T, seed=9, drift=drift)
        first = float(np.vstack([frames[0].camera, frames[0].lidar]).mean())
        last = float(np.vstack([frames[-1].camera, frames[-1].lidar]).mean())
        want = drift * (T - 1)
        sigma = math.sqrt(2.0 / (32 * 64))  # difference of two token means
        assert abs((last - first) - want) < 3 * sigma

    def test_trajectory_dataset_shape(self):
        data = gen_trajectory_dataset(6, seed=10)
        assert data.shape == (6, 8, 3)
        assert np.isfinite(data).all()

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_trajectory_dataset_matches_loop(self, n):
        for seed in range(40):
            np.testing.assert_array_equal(
                gen_trajectory_dataset(n, seed), trajectory_dataset_loop(n, seed)
            )

    def test_scene_generator_valid(self):
        scene, wps = gen_synthetic_scene(11)
        assert len(scene.agents) == 3
        assert wps.shape == (8, 3)

    def test_bad_frame_count(self):
        with pytest.raises(ConfigError):
            gen_synthetic_frames(0, seed=12)


class TestScalingBench:
    def test_records_and_csv(self, tmp_path):
        cfg = BenchConfig(d=16, l_camera=4, l_lidar=4, n_layers=1, trials=2)
        records = run_scaling_bench([1, 2], trials=2, cfg=cfg)
        assert {(r.frames, r.mode) for r in records} == {
            (1, "linear"), (2, "linear"), (1, "softmax"), (2, "softmax"),
        }
        path = tmp_path / "bench.csv"
        write_bench_csv(path, records)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == BENCH_HEADER
        assert len(rows) == 5
        for row in rows[1:]:
            assert float(row[2]) > 0 and int(row[3]) > 0
            # the spread is kept: min <= median <= max per-frame latency
            assert float(row[5]) <= float(row[2]) <= float(row[6])

    def fake_stream(self, monkeypatch, per_frame_s):
        calls = []

        def stream(T, cfg):
            calls.append(T)
            return [per_frame_s(T)] * T, 8 * T, None

        monkeypatch.setitem(harness._STREAMS, "linear", stream)
        return calls

    def test_trials_interleave_frame_counts(self, monkeypatch):
        # each T is warmed up once, then every round runs one trial of every
        # T, so one slow spell of the machine cannot land on one T only
        calls = self.fake_stream(monkeypatch, lambda T: 1e-3)
        records = run_scaling_bench([8, 64], trials=3, modes=("linear",))
        assert calls == [8, 64] * 4
        assert [(r.frames, r.latency_ms, r.state_bytes) for r in records] == [
            (8, 1.0, 64), (64, 1.0, 512),
        ]

    def test_unresolved_point_doubles_its_trials(self, monkeypatch):
        calls = self.fake_stream(monkeypatch, lambda T: 1e-9 if T == 8 else 1e-3)
        with pytest.warns(UserWarning, match="T=8"):
            run_scaling_bench([8, 64], trials=2, modes=("linear",))
        assert calls == [8, 64, 8, 64, 8, 64, 8, 8]

    def test_linear_state_bytes_constant_in_t(self):
        cfg = BenchConfig(d=16, l_camera=4, l_lidar=4, n_layers=1, trials=1)
        records = run_scaling_bench([1, 8, 32], trials=1, cfg=cfg, modes=("linear",))
        sizes = {r.state_bytes for r in records}
        assert len(sizes) == 1

    def test_softmax_history_grows(self):
        cfg = BenchConfig(d=16, l_camera=4, l_lidar=4, trials=1)
        records = run_scaling_bench([2, 8], trials=1, cfg=cfg, modes=("softmax",))
        by_t = {r.frames: r.state_bytes for r in records}
        assert by_t[8] == 4 * by_t[2]

    def test_workload_outputs_deterministic(self):
        cfg = BenchConfig(d=16, l_camera=4, l_lidar=4, n_layers=1)
        for mode in ("linear", "softmax"):
            _, _, a = harness._STREAMS[mode](6, cfg)
            _, _, b = harness._STREAMS[mode](6, cfg)
            np.testing.assert_array_equal(a, b)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            run_scaling_bench([1], trials=1, modes=("quadratic",))

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial(self, monkeypatch, trials):
        # rejected before any stream runs, from the argument or the config
        calls = self.fake_stream(monkeypatch, lambda T: 1e-3)
        with pytest.raises(ConfigError, match="at least 1"):
            run_scaling_bench([8], trials=trials, modes=("linear",))
        with pytest.raises(ConfigError, match="at least 1"):
            run_scaling_bench([8], cfg=BenchConfig(trials=trials), modes=("linear",))
        assert calls == []


class TestSeedResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("LADY_SEED", "7")
        assert resolve_seed(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("LADY_SEED", "123")
        assert resolve_seed(None) == 123

    def test_default(self, monkeypatch):
        monkeypatch.delenv("LADY_SEED", raising=False)
        assert resolve_seed(None) == 42

    @pytest.mark.parametrize("seed", [-1, 2.5, "7"])
    def test_bad_argument_rejected(self, monkeypatch, seed):
        monkeypatch.setenv("LADY_SEED", "7")
        with pytest.raises(ConfigError, match=r"^seed must be an integer >= 0"):
            resolve_seed(seed)

    @pytest.mark.parametrize("value", ["abc", "-5", "", "4.0"])
    def test_bad_environment_rejected(self, monkeypatch, value):
        monkeypatch.setenv("LADY_SEED", value)
        with pytest.raises(ConfigError, match=r"^LADY_SEED must be an integer >= 0"):
            resolve_seed(None)

    def test_numpy_integer_accepted(self):
        assert resolve_seed(np.int64(9)) == 9
