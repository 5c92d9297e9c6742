"""Linear cross-attention contracts: output cardinality, query
independence, dtype boundaries, and agreement with a per-query block
oracle."""

import copy
import time

import numpy as np
import pytest

from lindrive.cross_attn import (
    QuerySet,
    attend,
    cross_attend,
    encode_query,
    feature_state,
    random_cross_attn_params,
    read_state,
)
from lindrive.errors import DataError, NumericError, ShapeError
from lindrive.rwkv7 import RecurrentState, block_branch, block_forward, random_block_params

# per-query oracle bounds, by dtype
ORACLE_TOL = {np.float64: 1e-10, np.float32: 1e-5}


def make_queries(m, d, seed=0, dtype=np.float64):
    return QuerySet(np.random.default_rng(seed).standard_normal((m, d)).astype(dtype))


def per_query_oracle(features, queries, p):
    """Row i: the chunked block's last output over [features; query i]."""
    return np.stack([
        block_forward(
            np.vstack([features, q[None, :]]),
            p,
            RecurrentState.zeros(p.d, p.n_heads, dtype=p.dtype),
            "chunked",
        )[0][-1]
        for q in queries
    ])


class TestEncodeQuery:
    def test_single_token_equals_block(self):
        p = random_block_params(8, seed=1)
        q = make_queries(1, 8, seed=2)
        enc = encode_query(q, p)
        state = RecurrentState.zeros(8, 1)
        want, _ = block_forward(q.tokens, p, state, mode="chunked")
        np.testing.assert_array_equal(enc.tokens, want)

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_length_preserved(self, m):
        p = random_block_params(8, seed=3)
        assert encode_query(make_queries(m, 8, seed=m), p).m == m

    def test_matches_block_oracle(self):
        # every query is encoded on its own: row i is the block run over
        # query i alone, from a zero state
        for dtype, tol in ORACLE_TOL.items():
            p = random_block_params(8, n_heads=2, seed=4, dtype=dtype)
            q = make_queries(4, 8, seed=5, dtype=dtype)
            enc = encode_query(q, p)
            want = per_query_oracle(np.zeros((0, 8), dtype=dtype), q.tokens, p)
            assert enc.tokens.dtype == dtype
            np.testing.assert_allclose(enc.tokens, want, rtol=0, atol=tol)

    def test_other_dtype_raises(self):
        p = random_block_params(8, seed=4, dtype=np.float32)
        with pytest.raises(DataError):
            encode_query(make_queries(3, 8, seed=5), p)

    def test_no_state_leak_between_calls(self):
        p = random_block_params(8, seed=6)
        q = make_queries(4, 8, seed=7)
        first = encode_query(q, p).tokens
        encode_query(make_queries(4, 8, seed=8), p)
        np.testing.assert_array_equal(encode_query(q, p).tokens, first)

    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_branch_from_explicit_zero_state(self, dtype, n_heads):
        # the fresh-state encode reads no state; it must still equal the
        # branch step against an all-zero one, bit for bit
        p = random_block_params(16, n_heads=n_heads, seed=50, dtype=dtype)
        q = make_queries(7, 16, seed=51, dtype=dtype)
        zeros = RecurrentState.zeros(16, n_heads, dtype=dtype)
        want = block_branch(q.tokens, p, zeros)
        got = encode_query(q, p).tokens
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    def test_fresh_state_checks_tokens(self):
        p = random_block_params(8, seed=52, dtype=np.float32)
        with pytest.raises(ShapeError):
            block_branch(np.zeros((3, 6), dtype=np.float32), p)
        with pytest.raises(DataError):
            block_branch(np.zeros((3, 8)), p)


class TestFeatureState:
    """feature_state computes only the state, which must equal the one the
    mixer's full chunked block_forward leaves."""

    @pytest.mark.parametrize("L", [1, 17, 600])
    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_full_block_forward(self, dtype, n_heads, L):
        # 600 tokens cross the 512-token tile
        p = random_block_params(16, n_heads=n_heads, seed=L, dtype=dtype)
        features = np.random.default_rng(L + 1).standard_normal((L, 16)).astype(dtype)
        want = RecurrentState.zeros(16, n_heads, dtype=dtype)
        block_forward(features, p, want, "chunked")
        got = feature_state(features, p)
        for field in ("S", "shift_tm", "shift_cm"):
            assert getattr(got, field).dtype == dtype
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert got.tokens_seen == want.tokens_seen == L

    def test_non_finite_names_layer_tile_and_token(self):
        p = random_block_params(8, seed=53)
        features = np.random.default_rng(54).standard_normal((600, 8))
        features[550, 3] = np.nan
        with pytest.raises(
            NumericError, match=r"^layer 0, tokens 512\.\.599: non-finite element in token 550$"
        ):
            feature_state(features, p)


class TestCrossAttend:
    def test_empty_features_reduce_to_block(self):
        # with no features, query i is the block run over query i alone
        for dtype, tol in ORACLE_TOL.items():
            p = random_block_params(8, seed=9, dtype=dtype)
            q_enc = make_queries(3, 8, seed=10, dtype=dtype)
            empty = np.zeros((0, 8), dtype=dtype)
            out = cross_attend(empty, q_enc, p)
            want = per_query_oracle(empty, q_enc.tokens, p)
            np.testing.assert_allclose(out.tokens, want, rtol=0, atol=tol)

    @pytest.mark.parametrize("L", [1, 5, 40])
    def test_matches_per_query_oracle(self, L):
        for dtype, tol in ORACLE_TOL.items():
            p = random_block_params(8, n_heads=2, seed=L, dtype=dtype)
            features = np.random.default_rng(L).standard_normal((L, 8)).astype(dtype)
            q_enc = make_queries(6, 8, seed=L + 1, dtype=dtype)
            out = cross_attend(features, q_enc, p)
            want = per_query_oracle(features, q_enc.tokens, p)
            assert out.tokens.dtype == dtype
            np.testing.assert_allclose(out.tokens, want, rtol=0, atol=tol)

    def test_feature_state_serves_many_reads(self):
        p = random_block_params(8, seed=30)
        features = np.random.default_rng(31).standard_normal((9, 8))
        state = feature_state(features, p)
        before = copy.deepcopy(state)
        for seed in (32, 33):
            q_enc = make_queries(4, 8, seed=seed)
            np.testing.assert_array_equal(
                read_state(state, q_enc, p).tokens,
                cross_attend(features, q_enc, p).tokens,
            )
        for field in ("S", "shift_tm", "shift_cm"):
            np.testing.assert_array_equal(getattr(state, field), getattr(before, field))

    @pytest.mark.parametrize("L,m", [(0, 1), (1, 1), (5, 3), (64, 8), (129, 2)])
    def test_output_cardinality(self, L, m):
        p = random_block_params(8, seed=11)
        rng = np.random.default_rng(L * 13 + m)
        out = cross_attend(rng.standard_normal((L, 8)), make_queries(m, 8, seed=m), p)
        assert out.m == m

    def test_feature_perturbation_reaches_queries(self):
        # single-component bump: a whole-row constant would be cancelled by
        # the pre-norm's shift invariance
        p = random_block_params(8, seed=12)
        rng = np.random.default_rng(13)
        features = rng.standard_normal((6, 8))
        q_enc = make_queries(4, 8, seed=14)
        base = cross_attend(features, q_enc, p).tokens
        bumped = features.copy()
        bumped[3, 2] += 0.5
        moved = cross_attend(bumped, q_enc, p).tokens
        assert np.max(np.abs(moved - base)) > 1e-8

    def test_query_causality(self):
        # perturbing query j leaves query outputs at positions i < j unchanged
        p = random_block_params(8, seed=15)
        rng = np.random.default_rng(16)
        features = rng.standard_normal((5, 8))
        q_enc = make_queries(6, 8, seed=17)
        base = cross_attend(features, q_enc, p).tokens
        for j in range(1, 6):
            bumped = QuerySet(q_enc.tokens.copy())
            bumped.tokens[j] += 1.0
            out = cross_attend(features, bumped, p).tokens
            np.testing.assert_array_equal(out[:j], base[:j])
            assert np.max(np.abs(out[j:] - base[j:])) > 1e-10

    def test_dim_mismatch(self):
        p = random_block_params(8, seed=18)
        with pytest.raises(ShapeError):
            cross_attend(np.zeros((3, 4)), make_queries(2, 8), p)
        with pytest.raises(ShapeError):
            cross_attend(np.zeros((3, 4)), make_queries(2, 4), p)

    def test_queries_independent(self):
        # bumping query j moves output j and leaves every other row
        # bit-identical, before and after j
        p = random_block_params(8, seed=34)
        features = np.random.default_rng(35).standard_normal((5, 8))
        q_enc = make_queries(6, 8, seed=36)
        base = cross_attend(features, q_enc, p).tokens
        for j in range(6):
            bumped = QuerySet(q_enc.tokens.copy())
            bumped.tokens[j, j] += 1.0
            out = cross_attend(features, bumped, p).tokens
            others = np.arange(6) != j
            np.testing.assert_array_equal(out[others], base[others])
            assert np.max(np.abs(out[j] - base[j])) > 1e-10

    def test_other_dtype_raises(self):
        p = random_block_params(8, seed=37, dtype=np.float32)
        features = np.zeros((4, 8), dtype=np.float32)
        q_enc = make_queries(2, 8, seed=38, dtype=np.float32)
        with pytest.raises(DataError):
            cross_attend(features.astype(np.float64), q_enc, p)
        with pytest.raises(DataError):
            cross_attend(features, QuerySet(q_enc.tokens.astype(np.float64)), p)

    def test_feature_state_of_other_dtype_raises(self):
        # a float64 feature state would turn a float32 read into float64
        p = random_block_params(8, seed=37, dtype=np.float32)
        q_enc = make_queries(2, 8, seed=38, dtype=np.float32)
        state = RecurrentState.zeros(8, 1)
        with pytest.raises(DataError):
            read_state(state, q_enc, p)

    def test_non_finite_names_layer_and_position(self):
        p = random_block_params(8, seed=39)
        features = np.random.default_rng(40).standard_normal((6, 8))
        q_enc = make_queries(5, 8, seed=41)
        bad_features = features.copy()
        bad_features[4, 1] = np.nan
        with pytest.raises(
            NumericError, match=r"^layer 0, tokens 0\.\.5: non-finite element in token 4$"
        ):
            cross_attend(bad_features, q_enc, p)
        bad_q = QuerySet(q_enc.tokens.copy())
        bad_q.tokens[3, 0] = np.nan
        with pytest.raises(NumericError, match=r"^layer 0, query branch: .* in row 3$"):
            cross_attend(features, bad_q, p)

    def test_composite_attend(self):
        params = random_cross_attn_params(8, seed=19)
        rng = np.random.default_rng(20)
        features = rng.standard_normal((7, 8))
        q = make_queries(3, 8, seed=21)
        out = attend(features, q, params)
        manual = cross_attend(features, encode_query(q, params.encoder), params.mixer)
        np.testing.assert_array_equal(out.tokens, manual.tokens)


class TestLinearScaling:
    def test_runtime_roughly_linear_in_length(self):
        # quick slope check; the acceptance suite runs the full stated grid
        p = random_block_params(16, seed=22)
        q_enc = make_queries(8, 16, seed=23)
        rng = np.random.default_rng(24)
        lengths = [128, 256, 512]
        times = []
        for L in lengths:
            features = rng.standard_normal((L, 16))
            cross_attend(features, q_enc, p)  # warm-up
            reps = []
            for _ in range(3):
                t0 = time.perf_counter()
                cross_attend(features, q_enc, p)
                reps.append(time.perf_counter() - t0)
            times.append(min(reps))
        # doubling L from 128 to 512 must stay well under quadratic growth
        assert times[2] < 8.0 * times[0]
