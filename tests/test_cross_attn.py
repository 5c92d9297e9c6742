"""Linear cross-attention contracts: output cardinality, causality, and
agreement with direct block execution."""

import time

import numpy as np
import pytest

from lindrive.cross_attn import (
    QuerySet,
    attend,
    cross_attend,
    encode_query,
    random_cross_attn_params,
)
from lindrive.errors import ShapeError
from lindrive.rwkv7 import RecurrentState, block_forward, random_block_params


def make_queries(m, d, seed=0):
    return QuerySet(np.random.default_rng(seed).standard_normal((m, d)))


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
        # bit-exact against the chunked block it runs, and within 1e-10 of
        # the sequential reference block
        p = random_block_params(8, n_heads=2, seed=4)
        q = make_queries(4, 8, seed=5)
        enc = encode_query(q, p)
        want = {}
        for mode in ("chunked", "sequential"):
            want[mode], _ = block_forward(q.tokens, p, RecurrentState.zeros(8, 2), mode)
        np.testing.assert_array_equal(enc.tokens, want["chunked"])
        np.testing.assert_allclose(enc.tokens, want["sequential"], atol=1e-10)

    def test_no_state_leak_between_calls(self):
        p = random_block_params(8, seed=6)
        q = make_queries(4, 8, seed=7)
        first = encode_query(q, p).tokens
        encode_query(make_queries(4, 8, seed=8), p)
        np.testing.assert_array_equal(encode_query(q, p).tokens, first)


class TestCrossAttend:
    def test_empty_features_reduce_to_block(self):
        p = random_block_params(8, seed=9)
        q_enc = make_queries(3, 8, seed=10)
        out = cross_attend(np.zeros((0, 8)), q_enc, p)
        state = RecurrentState.zeros(8, 1)
        want, _ = block_forward(q_enc.tokens, p, state, mode="chunked")
        np.testing.assert_array_equal(out.tokens, want)

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
