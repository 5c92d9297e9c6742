"""Trajectory decoder: anchors, truncated corruption, layer refinement,
decoding contracts, and best-mode selection."""

import dataclasses
import json

import numpy as np
import pytest

from lindrive import decoder as decoder_module
from lindrive.cross_attn import QuerySet, attend, feature_state
from lindrive.decoder import (
    AnchorSet,
    NoiseSchedule,
    Trajectory,
    cluster_anchors,
    corrupt_anchors,
    decode,
    decoder_layer,
    derive_agent_queries,
    load_anchors,
    random_decoder_params,
    save_anchors,
    select_best,
    wrap_angle,
    DecoderOutput,
)
from lindrive.errors import ConfigError, ContractError, DataError, ShapeError
from lindrive.fusion import BevBundle
from lindrive.harness import gen_trajectory_dataset


def make_bundle(d=8, n=4, seed=0):
    rng = np.random.default_rng(seed)
    return BevBundle(
        bev_tokens=rng.standard_normal((n, d)),
        ego_token=rng.standard_normal(d),
        pos_emb=rng.standard_normal((n + 1, d)),
    )


class TestTrajectory:
    def test_heading_wraps_on_construction(self):
        t = Trajectory(np.array([[0.0, 0.0, 4.0], [1.0, 0.0, -4.0]]))
        assert np.all(t.waypoints[:, 2] > -np.pi)
        assert np.all(t.waypoints[:, 2] <= np.pi)

    def test_wrap_angle_range(self):
        th = np.linspace(-10, 10, 2001)
        w = wrap_angle(th)
        assert np.all((w > -np.pi) & (w <= np.pi))
        np.testing.assert_allclose(np.cos(w), np.cos(th), atol=1e-12)
        np.testing.assert_allclose(np.sin(w), np.sin(th), atol=1e-12)
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            Trajectory(np.array([[0.0, np.nan, 0.0]]))

    @pytest.mark.parametrize("dt", [0.0, -0.5, np.nan])
    def test_bad_timestep_rejected(self, dt):
        wps = np.array([[1.0, 2.0, 0.5], [2.0, 3.0, 0.25]])
        with pytest.raises(DataError):
            Trajectory(wps, dt=dt)
        rec = json.loads(json.dumps({"dt": dt, "waypoints": wps.tolist()}))
        with pytest.raises(DataError):
            Trajectory.from_json(rec)

    def test_json_round_trip(self):
        t = Trajectory(np.array([[1.0, 2.0, 0.5], [2.0, 3.0, 0.25]]))
        back = Trajectory.from_json(json.loads(json.dumps(t.to_json())))
        np.testing.assert_allclose(back.waypoints, t.waypoints)
        assert back.dt == t.dt


class TestNoiseSchedule:
    def test_default_invariants(self):
        s = NoiseSchedule.linear()
        assert s.total_steps == 1000 and s.truncate_at == 50
        assert np.all((s.betas > 0) & (s.betas < 1))
        assert np.all(np.diff(s.betas) >= 0)
        assert s.alpha_bars[0] == 1.0
        assert np.all(np.diff(s.alpha_bars) < 0)
        assert np.all((s.alpha_bars > 0) & (s.alpha_bars <= 1))

    def test_bad_schedules_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSchedule(betas=np.array([0.2, 0.1]))
        with pytest.raises(ConfigError):
            NoiseSchedule(betas=np.array([0.0, 0.1]))
        with pytest.raises(ConfigError):
            NoiseSchedule(betas=np.array([0.1, 0.2]), truncate_at=5)


class TestClusterAnchors:
    def test_dataset_equals_k(self):
        data = gen_trajectory_dataset(5, seed=1)
        anchors = cluster_anchors(data, 5, seed=2)
        got = sorted(anchors.stacked().reshape(5, -1).sum(axis=1))
        want = sorted(data.reshape(5, -1).sum(axis=1))
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_single_centroid_is_mean(self):
        data = gen_trajectory_dataset(20, seed=3)
        anchors = cluster_anchors(data, 1, seed=4)
        np.testing.assert_allclose(
            anchors.stacked()[0], data.mean(axis=0), rtol=1e-9
        )

    def test_two_bundles_recover_means(self):
        # offsets only on x, y; headings stay inside (-pi, pi] so the
        # Trajectory wrap leaves the centroids untouched
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 8, 3)) * 0.01
        b = rng.standard_normal((40, 8, 3)) * 0.01
        a[:, :, :2] += 10.0
        b[:, :, :2] -= 10.0
        data = np.concatenate([a, b])
        anchors = cluster_anchors(data, 2, seed=6).stacked()
        means = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0, 0])
        got = sorted(list(anchors), key=lambda m: m[0, 0])
        np.testing.assert_allclose(got[0], means[0], atol=1e-6)
        np.testing.assert_allclose(got[1], means[1], atol=1e-6)

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            cluster_anchors(gen_trajectory_dataset(3, seed=7), 5, seed=8)

    def test_anchor_file_round_trip(self, tmp_path):
        anchors = cluster_anchors(gen_trajectory_dataset(10, seed=9), 4, seed=10)
        save_anchors(tmp_path / "anchors.json", anchors)
        back = load_anchors(tmp_path / "anchors.json")
        np.testing.assert_allclose(back.stacked(), anchors.stacked())


class TestCorruptAnchors:
    def make_anchors(self, k=4, seed=11):
        return cluster_anchors(gen_trajectory_dataset(3 * k, seed=seed), k, seed=seed)

    def test_step_zero_identity(self):
        anchors = self.make_anchors()
        out = corrupt_anchors(anchors, NoiseSchedule.linear(), 0, seed=12)
        np.testing.assert_array_equal(out, anchors.stacked())

    def test_truncation_boundary(self):
        anchors = self.make_anchors()
        sched = NoiseSchedule.linear()
        corrupt_anchors(anchors, sched, 50, seed=13)  # accepted
        with pytest.raises(ContractError):
            corrupt_anchors(anchors, sched, 51, seed=13)

    def test_noise_variance_matches_schedule(self):
        # var(x_step - sqrt(abar) x0) ~ 1 - abar over many seeds, within 5%
        anchors = AnchorSet([
            Trajectory(np.zeros((2, 3))),
            Trajectory(np.ones((2, 3))),
        ])
        sched = NoiseSchedule.linear()
        step = 50
        abar = sched.alpha_bars[step]
        x0 = anchors.stacked()
        resids = []
        for seed in range(10_000):
            x = corrupt_anchors(anchors, sched, step, seed=seed)
            resids.append(x - np.sqrt(abar) * x0)
        var = float(np.var(np.stack(resids)))
        assert abs(var - (1.0 - abar)) < 0.05 * (1.0 - abar)

    def test_deterministic_per_seed(self):
        anchors = self.make_anchors()
        sched = NoiseSchedule.linear()
        a = corrupt_anchors(anchors, sched, 25, seed=14)
        b = corrupt_anchors(anchors, sched, 25, seed=14)
        np.testing.assert_array_equal(a, b)


def layer_states(bundle, agent_q, lp):
    """The layer's BEV and agent feature states, as decode builds them."""
    return (
        feature_state(bundle.tokens(), lp.bev_attn.mixer),
        feature_state(agent_q.tokens, lp.agent_attn.mixer),
    )


class TestDecoderLayer:
    def test_zero_delta_projection_identity(self):
        params = random_decoder_params(8, n_layers=1, seed=15)
        lp = params.layers[0]
        lp.W_delta[...] = 0.0
        lp.b_delta[...] = 0.0
        noisy = np.random.default_rng(16).standard_normal((3, 8, 3))
        agent_q = QuerySet(np.random.default_rng(17).standard_normal((2, 8)))
        refined, feats = decoder_layer(noisy, *layer_states(make_bundle(), agent_q, lp), lp)
        np.testing.assert_array_equal(refined, noisy)
        assert feats.shape == (3, 8)

    def test_mode_count_preserved(self):
        params = random_decoder_params(8, n_layers=1, seed=18)
        noisy = np.random.default_rng(19).standard_normal((5, 8, 3))
        agent_q = QuerySet(np.random.default_rng(20).standard_normal((2, 8)))
        lp = params.layers[0]
        refined, feats = decoder_layer(noisy, *layer_states(make_bundle(seed=1), agent_q, lp), lp)
        assert refined.shape == (5, 8, 3)
        assert feats.shape == (5, 8)

    def test_compositional_oracle(self):
        # re-compose the layer from its pieces: embed, two cross-attention
        # passes, feed-forward, delta projection
        params = random_decoder_params(8, n_layers=1, seed=21)
        lp = params.layers[0]
        bundle = make_bundle(seed=2)
        noisy = np.random.default_rng(22).standard_normal((2, 8, 3))
        agent_q = QuerySet(np.random.default_rng(23).standard_normal((2, 8)))

        flat = noisy.reshape(2, -1)
        x = flat @ lp.W_embed + lp.b_embed
        x = attend(bundle.tokens(), QuerySet(x), lp.bev_attn).tokens
        x = attend(agent_q.tokens, QuerySet(x), lp.agent_attn).tokens
        x = x + np.maximum(x @ lp.W_ff1, 0.0) @ lp.W_ff2
        want = (flat + x @ lp.W_delta + lp.b_delta).reshape(2, 8, 3)

        refined, feats = decoder_layer(noisy, *layer_states(bundle, agent_q, lp), lp)
        np.testing.assert_allclose(refined, want, rtol=1e-12)
        np.testing.assert_allclose(feats, x, rtol=1e-12)

    def test_modes_permute(self):
        # reversing the modes reverses the layer's outputs: every mode reads
        # the feature states on its own
        params = random_decoder_params(16, n_layers=1, seed=40)
        lp = params.layers[0]
        noisy = np.random.default_rng(41).standard_normal((8, 8, 3))
        agent_q = QuerySet(np.random.default_rng(42).standard_normal((4, 16)))
        states = layer_states(make_bundle(d=16, seed=5), agent_q, lp)
        refined, feats = decoder_layer(noisy, *states, lp)
        refined_rev, feats_rev = decoder_layer(noisy[::-1], *states, lp)
        np.testing.assert_allclose(refined_rev, refined[::-1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(feats_rev, feats[::-1], rtol=0, atol=1e-12)


class TestDecode:
    def setup_method(self):
        self.params = random_decoder_params(8, n_layers=2, seed=24)
        self.bundle = make_bundle(seed=3)
        self.agent_q = derive_agent_queries(self.bundle, self.params)
        data = gen_trajectory_dataset(30, seed=25)
        self.anchors = cluster_anchors(data, 6, seed=26)

    def test_output_contracts(self):
        out = decode(self.anchors, self.bundle, self.agent_q, self.params, seed=27)
        assert out.n_modes == 6
        for traj in out.trajectories:
            assert traj.n == 8
            assert np.all((traj.waypoints[:, 2] > -np.pi) & (traj.waypoints[:, 2] <= np.pi))
        assert np.all((out.on_road >= 0) & (out.on_road <= 1))
        assert np.all((out.on_route >= 0) & (out.on_route <= 1))
        assert np.isfinite(out.confidence).all()
        assert out.agent_futures.shape == (8, 8, 2)

    def test_deterministic_under_seed(self):
        a = decode(self.anchors, self.bundle, self.agent_q, self.params, seed=28)
        b = decode(self.anchors, self.bundle, self.agent_q, self.params, seed=28)
        for ta, tb in zip(a.trajectories, b.trajectories):
            np.testing.assert_array_equal(ta.waypoints, tb.waypoints)
        np.testing.assert_array_equal(a.confidence, b.confidence)

    def test_mode_subsampling(self):
        out = decode(
            self.anchors, self.bundle, self.agent_q, self.params, seed=29, k_modes=3
        )
        assert out.n_modes == 3

    def test_bad_steps_rejected(self):
        with pytest.raises(ConfigError):
            decode(self.anchors, self.bundle, self.agent_q, self.params, steps=0)

    def test_stochastic_flag_changes_path(self):
        det = decode(self.anchors, self.bundle, self.agent_q, self.params, seed=30)
        sto = decode(
            self.anchors, self.bundle, self.agent_q, self.params, seed=30,
            stochastic=True,
        )
        assert not np.array_equal(
            det.trajectories[0].waypoints, sto.trajectories[0].waypoints
        )

    def test_agent_queries_shape(self):
        assert self.agent_q.m == 8
        assert self.agent_q.d == 8

    @pytest.mark.parametrize("n_layers,steps,k", [(1, 1, 3), (2, 2, 6), (3, 4, 5)])
    def test_features_read_once_per_layer(self, monkeypatch, n_layers, steps, k):
        # one BEV and one agent feature state per layer, whatever the steps
        # and modes
        params = random_decoder_params(8, n_layers=n_layers, seed=34)
        agent_q = derive_agent_queries(self.bundle, params)
        reads = []

        def spy(features, mixer):
            reads.append(mixer)
            return feature_state(features, mixer)

        monkeypatch.setattr(decoder_module, "feature_state", spy)
        decode(self.anchors, self.bundle, agent_q, params, steps=steps, k_modes=k)
        assert len(reads) == 2 * n_layers
        want = [m for lp in params.layers for m in (lp.bev_attn.mixer, lp.agent_attn.mixer)]
        assert all(a is b for a, b in zip(reads, want))


class TestAgentQueries:
    """derive_agent_queries encodes the constant agent queries once per
    params and re-encodes them only when they are reassigned."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_attend(self, dtype):
        params = random_decoder_params(16, n_heads=4, seed=60, dtype=dtype)
        for seed in (61, 62):
            b = make_bundle(d=16, seed=seed)
            bundle = BevBundle(*(a.astype(dtype) for a in (b.bev_tokens, b.ego_token, b.pos_emb)))
            want = attend(bundle.tokens(), QuerySet(params.agent_queries), params.agent_query_attn)
            got = derive_agent_queries(bundle, params)
            assert got.tokens.dtype == dtype
            np.testing.assert_array_equal(got.tokens, want.tokens)

    def test_encoded_once_until_reassigned(self, monkeypatch):
        params = random_decoder_params(8, seed=63)
        encodes = []
        encode = decoder_module.encode_query

        def spy(q, enc_params):
            encodes.append(enc_params)
            return encode(q, enc_params)

        monkeypatch.setattr(decoder_module, "encode_query", spy)
        bundles = [make_bundle(seed=s) for s in range(4)]
        for b in bundles:
            derive_agent_queries(b, params)
        assert len(encodes) == 1

        def check_fresh():
            b = bundles[0]
            want = attend(b.tokens(), QuerySet(params.agent_queries), params.agent_query_attn)
            np.testing.assert_array_equal(derive_agent_queries(b, params).tokens, want.tokens)

        params.agent_queries = params.agent_queries * 0.5
        check_fresh()
        assert len(encodes) == 2
        params.agent_query_attn = random_decoder_params(8, seed=64).agent_query_attn
        check_fresh()
        assert len(encodes) == 3
        params.agent_query_attn.encoder = random_decoder_params(8, seed=65).agent_query_attn.encoder
        check_fresh()
        assert len(encodes) == 4
        derive_agent_queries(bundles[1], params)
        assert len(encodes) == 4


class TestDecoderParams:
    def test_float32_params_are_float32(self):
        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, list):
                for item in obj:
                    yield from arrays(item)
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    yield from arrays(getattr(obj, f.name))

        params = random_decoder_params(8, n_layers=1, seed=31, dtype=np.float32)
        # the noise schedule is float64 for every decoder; all learned
        # tensors follow the requested dtype
        params.sched = None
        dtypes = [a.dtype for a in arrays(params)]
        assert len(dtypes) > 200
        assert set(dtypes) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("stochastic", [False, True])
    def test_float32_decoding_stays_float32(self, monkeypatch, stochastic):
        params = random_decoder_params(8, n_layers=2, seed=32, dtype=np.float32)
        b = make_bundle(seed=4)
        bundle = BevBundle(
            b.bev_tokens.astype(np.float32),
            b.ego_token.astype(np.float32),
            b.pos_emb.astype(np.float32),
        )
        agent_q = derive_agent_queries(bundle, params)
        anchors = cluster_anchors(gen_trajectory_dataset(30, seed=25), 6, seed=26)
        seen = []

        def spy(noisy, *args):
            seen.append(np.asarray(noisy).dtype)
            return decoder_layer(noisy, *args)

        monkeypatch.setattr(decoder_module, "decoder_layer", spy)
        out = decode(anchors, bundle, agent_q, params, seed=33, stochastic=stochastic)
        assert len(seen) == 4  # 2 steps x 2 layers
        assert set(seen) == {np.dtype(np.float32)}
        for heads in (out.confidence, out.on_road, out.on_route):
            assert heads.dtype == np.float32


class TestSelectBest:
    def make_output(self, confidence):
        n = len(confidence)
        trajs = [Trajectory(np.full((2, 3), float(i))) for i in range(n)]
        return DecoderOutput(
            trajectories=trajs,
            confidence=np.asarray(confidence, dtype=np.float64),
            on_road=np.zeros(n),
            on_route=np.zeros(n),
            agent_futures=np.zeros((1, 2, 2)),
        )

    def test_argmax(self):
        _, idx = select_best(self.make_output([0.2, 0.9, 0.5]))
        assert idx == 1

    def test_tie_breaks_low(self):
        _, idx = select_best(self.make_output([0.5, 0.5]))
        assert idx == 0

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            conf = rng.standard_normal(rng.integers(1, 12))
            _, idx = select_best(self.make_output(conf))
            for transform in (np.tanh, lambda c: 3.0 * c + 7.0, np.exp):
                _, idx2 = select_best(self.make_output(transform(conf)))
                assert idx2 == idx

    def test_empty_rejected(self):
        out = self.make_output([0.5])
        out.trajectories = []
        with pytest.raises(ContractError):
            select_best(out)
