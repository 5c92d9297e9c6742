"""Multi-frame fusion: sequence building, train/infer equivalence,
constant-memory streaming, BEV assembly, and feature state dropout."""

import copy
import tracemalloc

import numpy as np
import pytest

from lindrive.errors import ConfigError, ContractError, DataError, ShapeError
from lindrive.fusion import (
    BevBundle,
    Command,
    EgoStatus,
    FrameTokens,
    FusionSession,
    assemble_bev,
    build_frame_sequence,
    feature_state_dropout,
    fuse_parallel,
    fuse_step,
    random_bev_params,
    random_fusion_params,
)
from lindrive.harness import gen_synthetic_frames
from lindrive.rwkv7 import RecurrentState
from lindrive.snapshots import save_state


def frames_fixture(T, l_cam=4, l_lid=4, d=8, seed=0):
    return gen_synthetic_frames(T, seed, 0.1, l_cam, l_lid, d)


class TestFrameSequence:
    def test_single_frame_length(self):
        frames = frames_fixture(1)
        seq = build_frame_sequence(frames, np.zeros((8, 8)))
        assert seq.shape == (8, 8)

    def test_layout_offsets(self):
        frames = frames_fixture(10)
        pos = np.zeros((8, 8))
        seq = build_frame_sequence(frames, pos)
        assert seq.shape == (80, 8)
        for k, f in enumerate(frames):
            np.testing.assert_array_equal(
                seq[8 * k:8 * k + 8], np.vstack([f.camera, f.lidar])
            )

    def test_zero_pos_table_is_pure_concat(self):
        frames = frames_fixture(3)
        seq = build_frame_sequence(frames, np.zeros((8, 8)))
        manual = np.vstack([np.vstack([f.camera, f.lidar]) for f in frames])
        np.testing.assert_array_equal(seq, manual)

    def test_pos_table_added_every_frame(self):
        frames = frames_fixture(2)
        pos = np.random.default_rng(1).standard_normal((8, 8))
        seq = build_frame_sequence(frames, pos)
        np.testing.assert_allclose(
            seq[:8] - np.vstack([frames[0].camera, frames[0].lidar]), pos
        )
        np.testing.assert_allclose(
            seq[8:] - np.vstack([frames[1].camera, frames[1].lidar]), pos
        )

    def test_non_monotone_frames_rejected(self):
        frames = frames_fixture(3)
        frames[2].t = frames[1].t
        with pytest.raises(ContractError):
            build_frame_sequence(frames, np.zeros((8, 8)))


class TestFusionModes:
    def test_parallel_equals_stepwise_last_frame(self):
        params = random_fusion_params(8, 2, 2, 8, seed=3)
        frames = frames_fixture(10, seed=4)
        seq = build_frame_sequence(frames, params.pos_emb)
        fused = fuse_parallel(seq, params)
        state = params.fresh_state()
        last = None
        for f in frames:
            last, state = fuse_step(f, params, state)
        np.testing.assert_allclose(last, fused[-8:], atol=1e-10)

    def test_single_frame_step_equals_parallel(self):
        params = random_fusion_params(8, 2, 1, 8, seed=5)
        frames = frames_fixture(1, seed=6)
        seq = build_frame_sequence(frames, params.pos_emb)
        fused = fuse_parallel(seq, params)
        out, _ = fuse_step(frames[0], params, params.fresh_state())
        np.testing.assert_allclose(out, fused, atol=1e-12)

    def test_length_preserved(self):
        params = random_fusion_params(8, 1, 1, 8, seed=7)
        frames = frames_fixture(4, seed=8)
        seq = build_frame_sequence(frames, params.pos_emb)
        assert fuse_parallel(seq, params).shape == seq.shape

    def test_state_bytes_constant_over_stream(self):
        params = random_fusion_params(8, 2, 1, 8, seed=9)
        session = FusionSession(params)
        frames = frames_fixture(100, seed=10)
        session.step(frames[0])
        size_1 = session.persistent_bytes
        for f in frames[1:]:
            session.step(f)
        assert session.persistent_bytes == size_1
        assert session.frames_seen == 100

    def test_per_frame_latency_constant(self):
        # frame 100 within 15% of frame 2. Both run the same code on a state
        # of the same size, so the steps alternate from copies of the states
        # after frames 1 and 99: machine drift then hits both medians alike
        import time

        params = random_fusion_params(64, 2, 1, 32, seed=90, dtype=np.float32)
        frames = gen_synthetic_frames(101, 91, d=64, dtype=np.float32)
        session = FusionSession(params)
        session.step(frames[0])
        after_1 = copy.deepcopy(session.state)
        for f in frames[1:99]:
            session.step(f)
        after_99 = session.state

        def step_seconds(state, frame):
            state = copy.deepcopy(state)
            t0 = time.perf_counter()
            fuse_step(frame, params, state)
            return time.perf_counter() - t0

        t2, t100 = [], []
        for _ in range(41):
            t2.append(step_seconds(after_1, frames[1]))
            t100.append(step_seconds(after_99, frames[99]))
        ratio = float(np.median(t100)) / float(np.median(t2))
        assert ratio <= 1.15, f"frame-100/frame-2 latency ratio {ratio:.3f}"

    def test_dim_mismatch_rejected(self):
        params = random_fusion_params(8, 1, 1, 8, seed=11)
        bad = FrameTokens(camera=np.zeros((4, 6)), lidar=np.zeros((4, 6)), t=0)
        with pytest.raises(ConfigError):
            fuse_step(bad, params, params.fresh_state())

    def test_step_rejects_other_dtype(self):
        # a float64 frame must not run a float32 stream in float64
        params = random_fusion_params(8, 2, 1, 8, seed=12, dtype=np.float32)
        session = FusionSession(params)
        before = copy.deepcopy(session.state)
        with pytest.raises(DataError):
            session.step(frames_fixture(1, seed=13)[0])
        np.testing.assert_array_equal(session.state.S, before.S)
        np.testing.assert_array_equal(session.state.shift_tm, before.shift_tm)
        np.testing.assert_array_equal(session.state.shift_cm, before.shift_cm)
        assert session.state.tokens_seen == 0 and session.frames_seen == 0

    def test_parallel_rejects_other_dtype(self):
        params = random_fusion_params(8, 2, 1, 8, seed=14, dtype=np.float32)
        seq = build_frame_sequence(frames_fixture(2, seed=15), params.pos_emb.astype(np.float64))
        with pytest.raises(DataError):
            fuse_parallel(seq, params)

    @pytest.mark.parametrize(
        "camera, lidar, table",
        [(np.float64, np.float64, np.float32), (np.float32, np.float32, np.float64),
         (np.float32, np.float64, np.float64)],
    )
    def test_sequence_rejects_other_dtype(self, camera, lidar, table):
        # concatenation or the table would promote the frame silently
        f = frames_fixture(1, seed=15)[0]
        frame = FrameTokens(f.camera.astype(camera), f.lidar.astype(lidar), f.t)
        with pytest.raises(DataError, match="dtype"):
            build_frame_sequence([frame], np.zeros((8, 8), dtype=table))


def fuse_peak_bytes(seq, params) -> int:
    """tracemalloc peak of one fuse_parallel call above its input and its
    output."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fuse_parallel(seq, params)
        return tracemalloc.get_traced_memory()[1] - base - out.nbytes
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_in_history_length(self, dtype):
        # the history rebuild runs tile by tile through every layer, so 8,192
        # tokens need the working memory of 512: the paper's constant cost
        params = random_fusion_params(64, 2, 1, 32, seed=41, dtype=dtype)
        peaks = {}
        for frames in (16, 256):  # 512 and 8,192 tokens of 32 per frame
            seq = build_frame_sequence(
                gen_synthetic_frames(frames, 42, d=64, dtype=dtype), params.pos_emb
            )
            fuse_parallel(seq[:32], params)  # warm-up: cached masks
            peaks[seq.shape[0]] = fuse_peak_bytes(seq, params)
        assert peaks[512] > 0
        assert abs(peaks[8192] - peaks[512]) <= 0.05 * peaks[512], f"peaks {peaks}"


class TestBevAssembly:
    def test_identity_passthrough(self):
        # centre-tap kernel, identity projection, zero embeddings
        proj = random_bev_params(8, (2, 2), seed=11)
        proj.kernel = np.zeros((3, 3))
        proj.kernel[1, 1] = 1.0
        proj.W, proj.b = np.eye(8), np.zeros(8)
        proj.ego_W = np.zeros_like(proj.ego_W)
        proj.ego_b = np.zeros(8)
        proj.pos_emb = np.zeros_like(proj.pos_emb)
        lidar = np.random.default_rng(12).standard_normal((4, 8))
        ego = EgoStatus(velocity=0.0, acceleration=0.0)
        bundle = assemble_bev(lidar, ego, proj)
        np.testing.assert_array_equal(bundle.bev_tokens, lidar)
        np.testing.assert_array_equal(bundle.ego_token, proj.ego_b)

    def test_output_layout(self):
        proj = random_bev_params(8, (2, 2), seed=13)
        lidar = np.random.default_rng(14).standard_normal((4, 8))
        bundle = assemble_bev(lidar, EgoStatus(5.0, 0.1), proj)
        assert bundle.tokens().shape == (5, 8)

    def test_local_aggregation_oracle(self):
        # 2x2 grid: hand-evaluate the 3x3 neighborhood sums per cell
        proj = random_bev_params(8, (2, 2), seed=15)
        proj.W = np.eye(8)
        proj.b = np.zeros(8)
        proj.pos_emb = np.zeros_like(proj.pos_emb)
        lidar = np.random.default_rng(16).standard_normal((4, 8))
        g = lidar.reshape(2, 2, 8)
        k = proj.kernel
        # cell (0,0): neighbors (0,0),(0,1),(1,0),(1,1) land on kernel
        # offsets (1,1),(1,2),(2,1),(2,2); outside cells are zero padding
        want00 = k[1, 1] * g[0, 0] + k[1, 2] * g[0, 1] + k[2, 1] * g[1, 0] + k[2, 2] * g[1, 1]
        want11 = k[1, 1] * g[1, 1] + k[1, 0] * g[1, 0] + k[0, 1] * g[0, 1] + k[0, 0] * g[0, 0]
        bundle = assemble_bev(lidar, EgoStatus(0.0, 0.0), proj)
        np.testing.assert_allclose(bundle.bev_tokens[0], want00, rtol=1e-12)
        np.testing.assert_allclose(bundle.bev_tokens[3], want11, rtol=1e-12)

    def test_grid_mismatch_rejected(self):
        proj = random_bev_params(8, (2, 2), seed=17)
        with pytest.raises(ShapeError):
            assemble_bev(np.zeros((5, 8)), EgoStatus(0.0, 0.0), proj)

    @pytest.mark.parametrize(
        "lidar, error",
        [
            (np.zeros(4), ShapeError),
            (np.zeros((4, 6)), ShapeError),
            (np.zeros((4, 8), dtype=np.float32), DataError),
        ],
        ids=["one-dimensional", "width", "float32"],
    )
    def test_bad_lidar_rejected(self, lidar, error):
        # a float64 projection: float32 tokens must not come back promoted
        proj = random_bev_params(8, (2, 2), seed=17)
        with pytest.raises(error, match="lidar tokens"):
            assemble_bev(lidar, EgoStatus(0.0, 0.0), proj)

    @pytest.mark.parametrize(
        "args, match",
        [((1.0, 0.0, "bogus"), "turn-left"), (("fast", 0.0), "finite"), ((1.0, np.inf), "finite")],
    )
    def test_bad_ego_status_rejected(self, args, match):
        with pytest.raises(DataError, match=match):
            EgoStatus(*args)

    def test_ego_command_onehot(self):
        ego = EgoStatus(1.0, 2.0, Command.TURN_LEFT)
        feats = ego.features()
        assert feats.shape == (6,)
        assert feats[2] == 1.0 and feats[3:].sum() == 0.0


class TestFeatureStateDropout:
    def make_bundle(self, n=100, d=8, seed=18):
        rng = np.random.default_rng(seed)
        return BevBundle(
            bev_tokens=rng.standard_normal((n, d)) + 1.0,
            ego_token=rng.standard_normal(d) + 1.0,
            pos_emb=rng.standard_normal((n + 1, d)),
        )

    def test_zero_probability_identity(self):
        bundle = self.make_bundle()
        out = feature_state_dropout(bundle, 0.0, 0.0, rng_seed=1)
        np.testing.assert_array_equal(out.bev_tokens, bundle.bev_tokens)
        np.testing.assert_array_equal(out.ego_token, bundle.ego_token)

    def test_full_bev_dropout(self):
        out = feature_state_dropout(self.make_bundle(), 1.0, 0.0, rng_seed=2)
        assert not out.bev_tokens.any()

    def test_binomial_count_in_confidence_interval(self):
        # Binomial(100, 0.5): 99% interval is roughly [37, 63]
        bundle = self.make_bundle()
        out = feature_state_dropout(bundle, 0.5, 0.5, rng_seed=7)
        dropped = int((~out.bev_tokens.any(axis=1)).sum())
        assert 37 <= dropped <= 63

    def test_deterministic_under_seed(self):
        bundle = self.make_bundle()
        a = feature_state_dropout(bundle, 0.3, 0.5, rng_seed=9)
        b = feature_state_dropout(bundle, 0.3, 0.5, rng_seed=9)
        np.testing.assert_array_equal(a.bev_tokens, b.bev_tokens)
        np.testing.assert_array_equal(a.ego_token, b.ego_token)

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            feature_state_dropout(self.make_bundle(), 1.5, 0.0, rng_seed=0)


class TestSessionAndFiles:
    def test_snapshot_resume_bit_exact(self, tmp_path):
        params = random_fusion_params(8, 2, 1, 8, seed=19)
        frames = frames_fixture(8, seed=20)
        a = FusionSession(params)
        for f in frames[:4]:
            a.step(f)
        a.save(tmp_path / "session.npz")
        b = FusionSession(params)
        b.restore(tmp_path / "session.npz")
        assert b.frames_seen == 4
        for f in frames[4:]:
            out_a = a.step(f)
            out_b = b.step(f)
            np.testing.assert_array_equal(out_a, out_b)

    @pytest.mark.parametrize("name", ["session.json", "session"])
    def test_save_rejects_non_npz_suffix(self, tmp_path, name):
        session = FusionSession(random_fusion_params(8, 1, 1, 8, seed=19))
        with pytest.raises(ConfigError, match="npz"):
            session.save(tmp_path / name)
        assert not list(tmp_path.iterdir())

    def test_frames_counted_from_token_counter(self):
        # the state's token counter is the session's only counter
        params = random_fusion_params(8, 1, 1, 8, seed=19)
        session = FusionSession(params)
        for f in frames_fixture(3, seed=20):
            session.step(f)
        assert session.frames_seen == 3 and session.state.tokens_seen == 24
        session.state.tokens_seen = 40
        assert session.frames_seen == 5

    def test_older_snapshot_with_frame_entry_resumes_bit_exact(self, tmp_path):
        # the layout save_state wrote while sessions kept their own frame
        # counter: the state fields, then an int64 frames_seen entry
        params = random_fusion_params(8, 2, 1, 8, seed=19)
        frames = frames_fixture(6, seed=20)
        a = FusionSession(params)
        for f in frames[:4]:
            a.step(f)
        path = tmp_path / "older.npz"
        np.savez(
            path, S=a.state.S, shift_tm=a.state.shift_tm, shift_cm=a.state.shift_cm,
            tokens_seen=np.asarray(a.state.tokens_seen, dtype=np.int64),
            frames_seen=np.asarray(4, dtype=np.int64),
        )
        b = FusionSession(params)
        b.restore(path)
        assert b.frames_seen == 4 and b.state.tokens_seen == a.state.tokens_seen
        for field in ("S", "shift_tm", "shift_cm"):
            np.testing.assert_array_equal(getattr(b.state, field), getattr(a.state, field))
        for f in frames[4:]:
            np.testing.assert_array_equal(b.step(f), a.step(f))

    def streamed_session(self, dtype=np.float64):
        params = random_fusion_params(16, 2, 2, 8, seed=22, dtype=dtype)
        session = FusionSession(params)
        f = frames_fixture(1, d=16, seed=23)[0]
        session.step(FrameTokens(f.camera.astype(dtype), f.lidar.astype(dtype), f.t))
        return session

    def assert_restore_rejected(self, session, path, error):
        before = copy.deepcopy(session.state)
        with pytest.raises(error):
            session.restore(path)
        assert session.frames_seen == 1
        assert session.state.S.dtype == before.S.dtype
        np.testing.assert_array_equal(session.state.S, before.S)
        np.testing.assert_array_equal(session.state.shift_tm, before.shift_tm)
        np.testing.assert_array_equal(session.state.shift_cm, before.shift_cm)

    def test_restore_rejects_other_dtype(self, tmp_path):
        # a float64 snapshot must not switch a float32 stream to float64
        session = self.streamed_session(np.float32)
        save_state(tmp_path / "f64.npz", RecurrentState.zeros(16, 2, 2, np.float64))
        self.assert_restore_rejected(session, tmp_path / "f64.npz", DataError)

    def test_restore_rejects_other_width(self, tmp_path):
        session = self.streamed_session()
        save_state(tmp_path / "d32.npz", RecurrentState.zeros(32, 2, 2))
        self.assert_restore_rejected(session, tmp_path / "d32.npz", ShapeError)

    def test_restore_rejects_mixed_dtype(self, tmp_path):
        session = self.streamed_session(np.float32)
        bad = copy.deepcopy(session.state)
        bad.shift_cm = bad.shift_cm.astype(np.float64)
        save_state(tmp_path / "mixed.npz", bad)
        self.assert_restore_rejected(session, tmp_path / "mixed.npz", DataError)

    def test_restore_rejects_part_of_a_frame(self, tmp_path):
        # 5 tokens into 8-token frames: frames_seen would read 0
        session = self.streamed_session()
        bad = copy.deepcopy(session.state)
        bad.tokens_seen = 5
        save_state(tmp_path / "part.npz", bad)
        self.assert_restore_rejected(session, tmp_path / "part.npz", DataError)

    def test_restore_rejects_non_finite(self, tmp_path):
        session = self.streamed_session()
        bad = copy.deepcopy(session.state)
        bad.S[1, 0, 2, 3] = np.nan
        save_state(tmp_path / "nan.npz", bad)
        self.assert_restore_rejected(session, tmp_path / "nan.npz", DataError)
