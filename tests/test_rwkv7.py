"""Core block tests: element equations against a scalar oracle, the
delta-rule recurrence, and sequential <-> chunk-parallel equivalence."""

import copy
import math

import numpy as np
import pytest

from lindrive import rwkv7
from lindrive.errors import ConfigError, ContractError, DataError, NumericError, ShapeError
from lindrive.rwkv7 import (
    ElementSet,
    RecurrentState,
    block_absorb,
    block_apply,
    block_branch,
    block_forward,
    channel_mix,
    chunk_readouts,
    forward_stack,
    layer_norm,
    lerp,
    project_elements_seq,
    random_block_params,
    branch_readouts,
    sequential_readouts,
    state_step,
    time_mix_output,
)

from chunk_states import chunk_states

# ---------------------------------------------------------------------------
# scalar oracle: plain-Python re-evaluation of every element equation, used
# to cross-check the vectorized implementation at tiny sizes
# ---------------------------------------------------------------------------


def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def _scalar_lerp(a, b, m):
    return [ai + (bi - ai) * mi for ai, bi, mi in zip(a, b, m)]


def _scalar_matvec(x, W):
    rows, cols = len(W), len(W[0])
    return [sum(x[i] * W[i][j] for i in range(rows)) for j in range(cols)]


def _scalar_loramlp(f, x, A, B, lam, bias):
    h = [f(z) for z in _scalar_matvec(x, A)]
    out = _scalar_matvec(h, B)
    if bias:
        out = [o + l for o, l in zip(out, lam)]
    return out


def scalar_elements(x, x_prev, p, layer=0, v0=None):
    """Element equations evaluated with Python floats only."""
    d = p.d
    xs = {
        name: _scalar_lerp(x, x_prev, getattr(p, "mu_" + name).tolist())
        for name in ("r", "w", "k", "v", "a", "g")
    }
    r = _scalar_matvec(xs["r"], p.W_r.tolist())
    w_pre = _scalar_loramlp(
        math.tanh, xs["w"], p.lora_w.A.tolist(), p.lora_w.B.tolist(),
        p.lora_w.bias.tolist(), True,
    )
    w = [math.exp(-math.exp(-0.5) * _sig(z)) for z in w_pre]
    k = _scalar_matvec(xs["k"], p.W_k.tolist())
    k_removal = [k[i] * p.k_k[i] for i in range(d)]
    a = [
        _sig(z)
        for z in _scalar_loramlp(
            lambda z: z, xs["a"], p.lora_a.A.tolist(), p.lora_a.B.tolist(),
            p.lora_a.bias.tolist(), True,
        )
    ]
    k_replace = [k[i] * (1.0 + (a[i] - 1.0) * p.k_a[i]) for i in range(d)]
    nu = [
        _sig(z)
        for z in _scalar_loramlp(
            lambda z: z, xs["v"], p.lora_v.A.tolist(), p.lora_v.B.tolist(),
            p.lora_v.bias.tolist(), True,
        )
    ]
    v_layer = _scalar_matvec(xs["v"], p.W_v.tolist())
    if layer == 0:
        v = v_layer
    else:
        v = [v0[i] + (v_layer[i] - v0[i]) * nu[i] for i in range(d)]
    g_h = [_sig(z) for z in _scalar_matvec(xs["g"], p.lora_g.A.tolist())]
    g = _scalar_matvec(g_h, p.lora_g.B.tolist())
    return {
        "r": r, "w": w, "k_removal": k_removal,
        "k_replace": k_replace, "v": v, "a": a, "g": g,
    }


def scalar_state_step(S, w, a, khat, v, k_rep):
    """Delta rule for one head as explicit loops."""
    n = len(w)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        readout_i = sum(S[i][m] * khat[m] for m in range(n))
        for j in range(n):
            out[i][j] = S[i][j] * w[j] - readout_i * a[j] * khat[j] + v[i] * k_rep[j]
    return out


def sequential_states(S_in, e, n_heads):
    """Ground-truth chunk semantics: repeated state_step."""
    states = []
    S = S_in
    for t in range(e.w.shape[0]):
        step = ElementSet(
            **{f: getattr(e, f)[t] for f in e.__dataclass_fields__}
        )
        S = state_step(S, step)
        states.append(S)
    return np.stack(states), S


def project_one(x, p, state, layer=0, v0=None):
    """Elements of one token through the batched projection, as (d,) rows."""
    v0_seq = None if v0 is None else np.asarray(v0)[None, :]
    e = project_elements_seq(np.asarray(x)[None, :], p, state, layer, v0_seq)
    return ElementSet(**{f: getattr(e, f)[0] for f in e.__dataclass_fields__})


def make_elements(T, d, n_heads=1, seed=0, dtype=np.float64):
    """Random but well-scaled element batch, bypassing the projections."""
    rng = np.random.default_rng(seed)

    def arr(scale=1.0):
        return (rng.standard_normal((T, d)) * scale).astype(dtype)

    w = np.exp(-np.exp(-0.5) * 1.0 / (1.0 + np.exp(-arr()))).astype(dtype)
    a = (1.0 / (1.0 + np.exp(-arr()))).astype(dtype)
    return ElementSet(
        r=arr(), w=w, k_removal=arr(), k_replace=arr(),
        v=arr(), a=a, g=arr(), v0=arr(),
    )


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class TestOperators:
    def test_lerp_midpoint(self):
        np.testing.assert_allclose(
            lerp(np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([0.5, 0.5])),
            [2.0, 3.0],
        )

    def test_lerp_endpoints(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        np.testing.assert_array_equal(lerp(a, b, np.zeros(8)), a)
        np.testing.assert_allclose(lerp(a, b, np.ones(8)), b, rtol=1e-12)

    def test_lerp_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lerp(np.zeros(3), np.zeros(4), np.zeros(3))


# ---------------------------------------------------------------------------
# element projections
# ---------------------------------------------------------------------------


class TestProjectElements:
    def test_zero_weights_leave_decay_bias(self):
        p = random_block_params(4, seed=0)
        for W in (p.W_r, p.W_k, p.W_v, p.W_o, p.lora_w.A, p.lora_w.B):
            W[...] = 0.0
        state = RecurrentState.zeros(4, 1)
        e = project_one(np.array([3.0, -1.0, 0.5, 2.0]), p, state)
        expected = np.exp(-math.exp(-0.5) / (1.0 + np.exp(-p.lora_w.bias)))
        np.testing.assert_allclose(e.w, expected, rtol=1e-12)

    def test_layer0_value_is_v0(self):
        p = random_block_params(4, seed=1)
        state = RecurrentState.zeros(4, 1)
        e = project_one(np.arange(4.0), p, state, layer=0)
        np.testing.assert_array_equal(e.v, e.v0)

    def test_matches_scalar_oracle_seed42(self):
        p = random_block_params(4, seed=42)
        state = RecurrentState.zeros(4, 1)
        rng = np.random.default_rng(7)
        x_prev = rng.standard_normal(4)
        x = rng.standard_normal(4)
        state.shift_tm[0] = x_prev
        e = project_one(x, p, state)
        want = scalar_elements(x.tolist(), x_prev.tolist(), p)
        for name, vals in want.items():
            np.testing.assert_allclose(
                getattr(e, name), vals, rtol=1e-12, err_msg=name
            )
        # shift cache advanced to the current token
        np.testing.assert_array_equal(state.shift_tm[0], x)

    def test_deep_layer_value_residual_scalar_oracle(self):
        p = random_block_params(4, seed=43)
        state = RecurrentState.zeros(4, 1, n_layers=3)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4)
        v0 = rng.standard_normal(4)
        e = project_one(x, p, state, layer=2, v0=v0)
        want = scalar_elements(x.tolist(), [0.0] * 4, p, layer=2, v0=v0.tolist())
        np.testing.assert_allclose(e.v, want["v"], rtol=1e-12)
        np.testing.assert_array_equal(e.v0, v0)

    def test_deep_layer_requires_v0(self):
        p = random_block_params(4, seed=2)
        state = RecurrentState.zeros(4, 1)
        with pytest.raises(ContractError):
            project_one(np.zeros(4), p, state, layer=1)

    def test_w_range_bounds_wild_inputs(self):
        # the decay path is tanh-bounded, so even huge inputs stay in range
        p = random_block_params(8, seed=3)
        state = RecurrentState.zeros(8, 1)
        rng = np.random.default_rng(4)
        for scale in (1.0, 10.0, 1e4):
            e = project_one(rng.standard_normal(8) * scale, p, state)
            assert np.all(e.w > rwkv7.W_LOWER_BOUND)
            assert np.all(e.w < 1.0)

    def test_rate_bounds_standard_inputs(self):
        p = random_block_params(8, seed=3)
        state = RecurrentState.zeros(8, 1)
        deep_state = RecurrentState.zeros(8, 1, n_layers=2)
        rng = np.random.default_rng(4)
        rng_v0 = np.random.default_rng(5)
        for _ in range(50):
            x, v0 = rng.standard_normal(8), rng_v0.standard_normal(8)
            e = project_one(x, p, state)
            assert np.all((e.a > 0) & (e.a < 1))
            # a deeper layer's value lerps from v0 towards this block's own
            # value (layer 0's v) by nu, so nu in (0, 1) puts it in between
            deep = project_one(x, p, deep_state, layer=1, v0=v0)
            nu = (deep.v - v0) / (e.v - v0)
            assert np.all((nu > 0) & (nu < 1))


def reference_elements(x, x_prev, p, layer, v0):
    """The element equations as six separate token-shift lerps and the
    low-rank MLP f(x @ A) @ B (+ bias) written out for each use."""

    def lora(f, x, q, bias=True):
        out = f(x @ q.A) @ q.B
        return out + q.bias if bias else out

    def identity(z):
        return z

    xs = {n: lerp(x, x_prev, getattr(p, "mu_" + n)) for n in ("r", "w", "k", "v", "a", "g")}
    k = xs["k"] @ p.W_k
    a = rwkv7.sigmoid(lora(identity, xs["a"], p.lora_a))
    v_layer = xs["v"] @ p.W_v
    if layer == 0:
        v = v0 = v_layer
    else:
        v = lerp(v0, v_layer, rwkv7.sigmoid(lora(identity, xs["v"], p.lora_v)))
    return {
        "r": xs["r"] @ p.W_r,
        "w": np.exp(-rwkv7.DECAY_GAIN * rwkv7.sigmoid(lora(np.tanh, xs["w"], p.lora_w))),
        "k_removal": k * p.k_k,
        "k_replace": k * lerp(np.ones_like(a), a, p.k_a),
        "v": v,
        "a": a,
        "g": lora(rwkv7.sigmoid, xs["g"], p.lora_g, bias=False),
        "v0": v0,
    }


def assert_elements_equal(e, want):
    for name, value in want.items():
        got = getattr(e, name)
        assert got.dtype == value.dtype, name
        np.testing.assert_array_equal(got, value, err_msg=name)


DTYPES = [np.float32, np.float64]


class TestBitExact:
    """The block body's lean forms equal the plain formulas bit for bit."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("d", [2, 8, 64, 67])
    def test_layer_norm_matches_mean_var(self, d, dtype):
        rng = np.random.default_rng(d)
        x = (rng.standard_normal((9, d)) * 3.0 + 1.5).astype(dtype)
        w, b = rng.standard_normal((2, d)).astype(dtype)
        mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        want = (x - mean) / np.sqrt(var + rwkv7.NORM_EPS) * w + b
        got = layer_norm(x, w, b)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_time_mix_head_norm_matches_mean_var(self, dtype):
        p = random_block_params(64, n_heads=4, seed=90, dtype=dtype)
        e = make_elements(11, 64, 4, seed=91, dtype=dtype)
        y = (np.random.default_rng(92).standard_normal((11, 4, 16)) * 2.0).astype(dtype)
        yn = (y - y.mean(axis=-1, keepdims=True)) / np.sqrt(
            y.var(axis=-1, keepdims=True) + rwkv7.NORM_EPS
        )
        r, k_rep, v = (x.reshape(11, 4, 16) for x in (e.r, e.k_replace, e.v))
        bonus = np.sum(r * (p.r_k.reshape(4, 16) * k_rep), axis=-1, keepdims=True) * v
        ph = yn.reshape(11, 64) * p.ln_out_w + p.ln_out_b + bonus.reshape(11, 64)
        np.testing.assert_array_equal(time_mix_output(e, y, p), (e.g * ph) @ p.W_o)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layer", [0, 1])
    def test_project_elements_seq(self, layer, dtype):
        # per-row x_prev: the shift cache, then the chunk's own tokens
        p = random_block_params(64, n_heads=4, seed=93 + layer, dtype=dtype)
        rng = np.random.default_rng(95)
        X, v0, shift = (rng.standard_normal((3, 13, 64)).astype(dtype))
        state = RecurrentState.zeros(64, 4, n_layers=2, dtype=dtype)
        state.shift_tm[layer] = shift[0]
        e = project_elements_seq(X, p, state, layer, v0 if layer else None)
        x_prev = np.vstack([shift[:1], X[:-1]])
        assert_elements_equal(e, reference_elements(X, x_prev, p, layer, v0))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layer", [0, 1])
    def test_shared_row_elements(self, layer, dtype):
        # one (d,) x_prev row shared by every token, as block_branch passes
        p = random_block_params(64, n_heads=4, seed=96 + layer, dtype=dtype)
        rng = np.random.default_rng(98)
        X, v0 = rng.standard_normal((2, 8, 64)).astype(dtype)
        x_prev = rng.standard_normal(64).astype(dtype)
        e = rwkv7._compute_elements(X, x_prev, p, layer, v0 if layer else None)
        assert_elements_equal(e, reference_elements(X, x_prev, p, layer, v0))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_block_branch_elements(self, dtype, monkeypatch):
        p = random_block_params(64, n_heads=4, seed=99, dtype=dtype)
        rng = np.random.default_rng(100)
        state = RecurrentState.zeros(64, 4, dtype=dtype)
        block_forward(rng.standard_normal((20, 64)).astype(dtype), p, state, "chunked")
        rows = rng.standard_normal((8, 64)).astype(dtype)
        seen = []
        compute = rwkv7._compute_elements

        def spy(*args):
            seen.append(compute(*args))
            return seen[-1]

        monkeypatch.setattr(rwkv7, "_compute_elements", spy)
        block_branch(rows, p, state)
        xn = layer_norm(rows, p.ln1_w, p.ln1_b)
        (e,) = seen
        assert_elements_equal(e, reference_elements(xn, state.shift_tm[0], p, 0, None))


# ---------------------------------------------------------------------------
# delta-rule recurrence
# ---------------------------------------------------------------------------


class TestStateStep:
    def test_first_step_is_outer_product(self):
        e = make_elements(1, 4, seed=5)
        step = ElementSet(**{f: getattr(e, f)[0] for f in e.__dataclass_fields__})
        S = state_step(np.zeros((1, 4, 4)), step)
        np.testing.assert_allclose(
            S[0], np.outer(step.v, step.k_replace), rtol=1e-12
        )

    def test_no_decay_no_removal_accumulates(self):
        e = make_elements(1, 4, seed=6)
        step = ElementSet(**{f: getattr(e, f)[0] for f in e.__dataclass_fields__})
        step.w = np.ones(4)
        step.a = np.zeros(4)
        rng = np.random.default_rng(9)
        S_prev = rng.standard_normal((1, 4, 4))
        S = state_step(S_prev, step)
        np.testing.assert_allclose(
            S, S_prev + np.outer(step.v, step.k_replace)[None], rtol=1e-12
        )

    def test_matches_scalar_oracle_d2(self):
        w = [0.8, 0.6]
        a = [0.3, 0.9]
        kappa = [1.0, -2.0]
        v = [0.5, -0.25]
        k_rep = [2.0, 1.0]
        S_prev = [[0.1, -0.4], [0.7, 0.2]]
        norm = math.sqrt(sum(z * z for z in kappa) + 1e-12)
        khat = [z / norm for z in kappa]
        want = scalar_state_step(S_prev, w, a, khat, v, k_rep)
        step = ElementSet(
            r=np.zeros(2), w=np.array(w),
            k_removal=np.array(kappa), k_replace=np.array(k_rep),
            v=np.array(v), a=np.array(a), g=np.zeros(2), v0=np.zeros(2),
        )
        S = state_step(np.array(S_prev)[None], step)
        np.testing.assert_allclose(S[0], want, rtol=1e-12)

    def test_zero_removal_key_is_stable(self):
        e = make_elements(1, 4, seed=7)
        step = ElementSet(**{f: getattr(e, f)[0] for f in e.__dataclass_fields__})
        step.k_removal = np.zeros(4)
        S = state_step(np.ones((1, 4, 4)), step)
        assert np.isfinite(S).all()

    def test_non_finite_raises(self):
        e = make_elements(1, 4, seed=8)
        step = ElementSet(**{f: getattr(e, f)[0] for f in e.__dataclass_fields__})
        step.v = np.array([np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(NumericError):
            state_step(np.zeros((1, 4, 4)), step)


class TestChunkForward:
    def test_single_step_chunk(self):
        e = make_elements(1, 8, n_heads=2, seed=12)
        step = ElementSet(**{f: getattr(e, f)[0] for f in e.__dataclass_fields__})
        S_in = np.random.default_rng(0).standard_normal((2, 4, 4))
        states, S_out = chunk_states(S_in, e)
        want = state_step(S_in, step)
        np.testing.assert_allclose(states[0], want, rtol=1e-10)
        np.testing.assert_allclose(S_out, want, rtol=1e-10)

    @pytest.mark.parametrize("d,n_heads,B", [(16, 1, 8), (16, 4, 8), (8, 2, 5)])
    def test_matches_sequential(self, d, n_heads, B):
        e = make_elements(B, d, n_heads, seed=13)
        rng = np.random.default_rng(14)
        S_in = rng.standard_normal((n_heads, d // n_heads, d // n_heads))
        want, want_final = sequential_states(S_in, e, n_heads)
        got, got_final = chunk_states(S_in, e)
        np.testing.assert_allclose(got, want, atol=1e-10)
        np.testing.assert_allclose(got_final, want_final, atol=1e-10)

    def test_sequential_readouts_read_post_update_state(self):
        # the reference recurrence reads out y_t = S_t r_t after each step
        e = make_elements(6, 8, n_heads=2, seed=16)
        S_in = np.random.default_rng(1).standard_normal((2, 4, 4))
        r = e.r.reshape(6, 2, 4)
        states, want_final = sequential_states(S_in, e, 2)
        y, S_out = sequential_readouts(S_in, e, r)
        np.testing.assert_allclose(y, np.einsum("thvk,thk->thv", states, r), atol=1e-12)
        np.testing.assert_array_equal(S_out, want_final)

    def test_split_invariance(self):
        # 32 tokens processed as one chunk, 16+16, 4x8 or 8x4 give the same
        # readouts and end in the same state
        e = make_elements(32, 8, seed=15)
        S_in = np.zeros((1, 8, 8))
        r = e.r.reshape(32, 1, 8)
        runs = [chunk_readouts(S_in, e, r, max_chunk=size) for size in (32, 16, 8, 4)]
        for y, S in runs[1:]:
            np.testing.assert_allclose(y, runs[0][0], atol=1e-10)
            np.testing.assert_allclose(S, runs[0][1], atol=1e-10)

    @pytest.mark.parametrize("max_chunk", [0, rwkv7.DEFAULT_CHUNK + 1])
    def test_max_chunk_out_of_range_raises(self, max_chunk):
        # longer sub-chunks would leave the bound on the reciprocal decay
        e = make_elements(40, 8, seed=17)
        with pytest.raises(ConfigError, match="max_chunk"):
            chunk_readouts(np.zeros((1, 8, 8)), e, e.r.reshape(40, 1, 8), max_chunk)

    @pytest.mark.parametrize("d,n_heads", [(64, 1), (16, 4)])
    def test_decay_floor_single_precision(self, d, n_heads):
        # every w at its lower bound over one full sub-chunk: the kernel's
        # deepest reciprocal decay; float32 in gives float32 out
        B, hd = rwkv7.DEFAULT_CHUNK, d // n_heads
        e = make_elements(B, d, n_heads, seed=18, dtype=np.float32)
        e.w[...] = rwkv7.W_LOWER_BOUND * (1 + 1e-7)
        rng = np.random.default_rng(19)
        S_in = rng.standard_normal((n_heads, hd, hd)).astype(np.float32)
        r = e.r.reshape(B, n_heads, hd)
        y, S = chunk_readouts(S_in, e, r)
        assert y.dtype == S.dtype == np.float32
        e64 = ElementSet(**{f: x.astype(np.float64) for f, x in vars(e).items()})
        want_y, want_S = sequential_readouts(
            S_in.astype(np.float64), e64, r.astype(np.float64)
        )
        assert np.max(np.abs(y - want_y)) <= 1e-5 * np.max(np.abs(want_y))
        assert np.max(np.abs(S - want_S)) <= 1e-5 * np.max(np.abs(want_S))


# ---------------------------------------------------------------------------
# time / channel mixing and the full block
# ---------------------------------------------------------------------------


class TestTimeMix:
    def test_closed_gate_zero_output(self):
        p = random_block_params(8, n_heads=2, seed=16)
        e = make_elements(1, 8, 2, seed=17)
        e.g = np.zeros((1, 8))
        out = time_mix_output(e, np.zeros((1, 2, 4)), p)[0]
        np.testing.assert_array_equal(out, np.zeros(8))

    def test_collapsed_terms_leave_norm_bias(self):
        p = random_block_params(4, seed=18)
        p.r_k[...] = 0.0
        p.ln_out_b[...] = np.arange(4.0)
        p.W_o[...] = np.eye(4)
        e = make_elements(1, 4, seed=19)
        e.g = np.ones((1, 4))
        out = time_mix_output(e, np.zeros((1, 1, 4)), p)[0]
        np.testing.assert_allclose(out, p.ln_out_b, atol=1e-12)

    def test_matches_scalar_oracle_d2(self):
        # direct arithmetic evaluation of the readout at d=2, one head
        p = random_block_params(2, seed=20, rank=1)
        S = np.array([[[0.5, -1.0], [0.25, 2.0]]])
        e = make_elements(1, 2, seed=21)
        step = ElementSet(**{f: getattr(e, f)[0] for f in e.__dataclass_fields__})
        y = [
            S[0, 0, 0] * step.r[0] + S[0, 0, 1] * step.r[1],
            S[0, 1, 0] * step.r[0] + S[0, 1, 1] * step.r[1],
        ]
        mean = (y[0] + y[1]) / 2
        var = ((y[0] - mean) ** 2 + (y[1] - mean) ** 2) / 2
        yn = [(z - mean) / math.sqrt(var + 1e-5) for z in y]
        bonus = (
            step.r[0] * p.r_k[0] * step.k_replace[0]
            + step.r[1] * p.r_k[1] * step.k_replace[1]
        )
        ph = [yn[i] + bonus * step.v[i] for i in range(2)]
        gp = [step.g[i] * ph[i] for i in range(2)]
        want = [
            gp[0] * p.W_o[0, 0] + gp[1] * p.W_o[1, 0],
            gp[0] * p.W_o[0, 1] + gp[1] * p.W_o[1, 1],
        ]
        # the readout y = S r enters as (T=1, heads=1, head_dim=2)
        out = time_mix_output(e, np.array(y).reshape(1, 1, 2), p)[0]
        np.testing.assert_allclose(out, want, rtol=1e-12)


class TestChannelMix:
    def test_zero_in_zero_out(self):
        p = random_block_params(4, seed=22)
        state = RecurrentState.zeros(4, 1)
        out = channel_mix(np.zeros((1, 4)), p, state)[0]
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_negative_preactivation_clamps(self):
        p = random_block_params(4, seed=23)
        p.W_ffn_k[...] = -np.abs(p.W_ffn_k)
        state = RecurrentState.zeros(4, 1)
        x = np.abs(np.random.default_rng(0).standard_normal((1, 4)))
        out = channel_mix(x, p, state)[0]
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_matches_scalar_oracle_d2(self):
        p = random_block_params(2, seed=24, rank=1, h_ff=3)
        state = RecurrentState.zeros(2, 1)
        x_prev = [0.5, -1.5]
        x = [2.0, 1.0]
        state.shift_cm[0] = np.array(x_prev)
        mixed = [
            x[i] + (x_prev[i] - x[i]) * p.mu_ffn[i] for i in range(2)
        ]
        h = [
            max(0.0, sum(mixed[i] * p.W_ffn_k[i, j] for i in range(2))) ** 2
            for j in range(3)
        ]
        want = [sum(h[j] * p.W_ffn_v[j, i] for j in range(3)) for i in range(2)]
        out = channel_mix(np.array([x]), p, state)[0]
        np.testing.assert_allclose(out, want, rtol=1e-12)
        np.testing.assert_array_equal(state.shift_cm[0], x)


class TestBlockForward:
    def test_mode_equivalence_32_tokens(self):
        p = random_block_params(16, n_heads=4, seed=25)
        rng = np.random.default_rng(26)
        tokens = rng.standard_normal((32, 16))
        s1 = RecurrentState.zeros(16, 4)
        s2 = RecurrentState.zeros(16, 4)
        out_seq, _ = block_forward(tokens, p, s1, mode="sequential")
        out_chk, _ = block_forward(tokens, p, s2, mode="chunked")
        np.testing.assert_allclose(out_chk, out_seq, atol=1e-10)
        np.testing.assert_allclose(s2.S, s1.S, atol=1e-10)
        np.testing.assert_allclose(s2.shift_tm, s1.shift_tm, atol=1e-12)
        np.testing.assert_allclose(s2.shift_cm, s1.shift_cm, atol=1e-12)

    @pytest.mark.parametrize("mode", ["sequential", "chunked"])
    def test_streaming_resume(self, mode):
        p = random_block_params(8, n_heads=2, seed=27)
        rng = np.random.default_rng(28)
        tokens = rng.standard_normal((10, 8))
        s_full = RecurrentState.zeros(8, 2)
        out_full, _ = block_forward(tokens, p, s_full, mode=mode)
        s_half = RecurrentState.zeros(8, 2)
        out_a, _ = block_forward(tokens[:5], p, s_half, mode=mode)
        out_b, _ = block_forward(tokens[5:], p, s_half, mode=mode)
        np.testing.assert_allclose(np.vstack([out_a, out_b]), out_full, atol=1e-12)
        np.testing.assert_allclose(s_half.S, s_full.S, atol=1e-12)
        assert s_half.tokens_seen == s_full.tokens_seen == 10

    def test_empty_sequence_noop(self):
        p = random_block_params(4, seed=29)
        state = RecurrentState.zeros(4, 1)
        before = copy.deepcopy(state)
        out, _ = block_forward(np.zeros((0, 4)), p, state)
        assert out.shape == (0, 4)
        np.testing.assert_array_equal(state.S, before.S)
        assert state.tokens_seen == 0

    def test_unknown_mode(self):
        p = random_block_params(4, seed=30)
        with pytest.raises(ConfigError):
            block_forward(np.zeros((1, 4)), p, RecurrentState.zeros(4, 1), mode="fused")

    def test_state_size_constant(self):
        p = random_block_params(8, n_heads=2, seed=31)
        state = RecurrentState.zeros(8, 2)
        rng = np.random.default_rng(32)
        block_forward(rng.standard_normal((1, 8)), p, state)
        size_after_1 = state.nbytes
        block_forward(rng.standard_normal((999, 8)), p, state, mode="chunked")
        assert state.nbytes == size_after_1
        assert state.tokens_seen == 1000

    def test_stack_threads_value_residual(self):
        # two-layer stack: layer 1 must see layer 0's values, not its own
        blocks = [random_block_params(8, seed=33 + i) for i in range(2)]
        state = RecurrentState.zeros(8, 1, n_layers=2)
        rng = np.random.default_rng(35)
        tokens = rng.standard_normal((6, 8))
        out = forward_stack(tokens, blocks, state, mode="sequential")

        state2 = RecurrentState.zeros(8, 1, n_layers=2)
        x, v0 = block_apply(tokens, blocks[0], state2, 0, None, "chunked")
        x, _ = block_apply(x, blocks[1], state2, 1, v0, "chunked")
        np.testing.assert_allclose(x, out, atol=1e-10)
        assert state.tokens_seen == 6

    def test_stack_mode_equivalence(self):
        blocks = [random_block_params(8, n_heads=2, seed=40 + i) for i in range(3)]
        rng = np.random.default_rng(44)
        tokens = rng.standard_normal((12, 8))
        sa = RecurrentState.zeros(8, 2, n_layers=3)
        sb = RecurrentState.zeros(8, 2, n_layers=3)
        out_a = forward_stack(tokens, blocks, sa, mode="sequential")
        out_b = forward_stack(tokens, blocks, sb, mode="chunked")
        np.testing.assert_allclose(out_b, out_a, atol=1e-10)
        np.testing.assert_allclose(sb.S, sa.S, atol=1e-10)


class TestBlockBranch:
    """Each row runs as its own next token after the state; the state stays."""

    def prefix_state(self, p, seed):
        state = RecurrentState.zeros(8, p.n_heads)
        prefix = np.random.default_rng(seed).standard_normal((7, 8))
        block_forward(prefix, p, state, mode="chunked")
        return prefix, state

    def test_matches_last_token_oracle(self):
        p = random_block_params(8, n_heads=2, seed=70)
        prefix, state = self.prefix_state(p, seed=72)
        rows = np.random.default_rng(73).standard_normal((5, 8))
        x = block_branch(rows, p, state)
        for i in range(5):
            fresh = RecurrentState.zeros(8, 2)
            want, _ = block_forward(np.vstack([prefix, rows[i]]), p, fresh, "chunked")
            np.testing.assert_allclose(x[i], want[-1], rtol=0, atol=1e-10)

    def test_state_untouched(self):
        p = random_block_params(8, seed=74)
        _, state = self.prefix_state(p, seed=75)
        before = copy.deepcopy(state)
        block_branch(np.random.default_rng(76).standard_normal((4, 8)), p, state)
        for field in ("S", "shift_tm", "shift_cm"):
            np.testing.assert_array_equal(getattr(state, field), getattr(before, field))
        assert state.tokens_seen == before.tokens_seen

    def test_readouts_match_state_step(self):
        e = make_elements(5, 8, 2, seed=81)
        S = np.random.default_rng(82).standard_normal((2, 4, 4))
        r_heads = e.r.reshape(5, 2, 4)
        y = branch_readouts(S, e, r_heads)
        for i in range(5):
            step = ElementSet(**{f: getattr(e, f)[i] for f in e.__dataclass_fields__})
            S_i = state_step(S, step)
            np.testing.assert_allclose(y[i], np.einsum("hvk,hk->hv", S_i, r_heads[i]), atol=1e-12)


class TestBlockAbsorb:
    """block_absorb leaves the state block_forward leaves, without the
    block's outputs."""

    @pytest.mark.parametrize("prefix", [0, 7])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_state_equals_block_forward(self, dtype, prefix):
        # prefix > 0 starts from a used state with non-zero shift caches
        p = random_block_params(16, n_heads=4, seed=97, dtype=dtype)
        rng = np.random.default_rng(98)
        tokens = rng.standard_normal((prefix + 40, 16)).astype(dtype)
        want = RecurrentState.zeros(16, 4, dtype=dtype)
        block_forward(tokens[:prefix], p, want, "chunked")
        got = copy.deepcopy(want)
        block_forward(tokens[prefix:], p, want, "chunked")
        block_absorb(tokens[prefix:], p, got)
        for field in ("S", "shift_tm", "shift_cm"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert got.tokens_seen == want.tokens_seen == prefix + 40

    def test_skips_the_feed_forward(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rwkv7, "_ffn", lambda *args: calls.append(args))
        p = random_block_params(8, seed=99)
        block_absorb(np.ones((3, 8)), p, RecurrentState.zeros(8, 1))
        assert calls == []


class TestStreamContract:
    """forward_stack and block_branch check the tokens and the state against
    every block before any layer runs; RecurrentState.validate checks a state
    on its own."""

    def stack(self, dtype=np.float64, n_layers=2):
        return [
            random_block_params(8, n_heads=2, seed=90 + i, dtype=dtype) for i in range(n_layers)
        ]

    def tokens(self, dtype=np.float64):
        return np.random.default_rng(95).standard_normal((5, 8)).astype(dtype)

    def assert_rejected_unchanged(self, blocks, state, error, tokens=None):
        before = copy.deepcopy(state)
        with pytest.raises(error):
            forward_stack(self.tokens() if tokens is None else tokens, blocks, state, "chunked")
        for field in ("S", "shift_tm", "shift_cm"):
            np.testing.assert_array_equal(getattr(state, field), getattr(before, field))
            assert getattr(state, field).dtype == getattr(before, field).dtype
        assert state.tokens_seen == before.tokens_seen

    def test_state_of_other_width_rejected(self):
        self.assert_rejected_unchanged(
            self.stack(), RecurrentState.zeros(16, 2, n_layers=2), ShapeError
        )

    def test_state_of_other_head_count_rejected(self):
        self.assert_rejected_unchanged(
            self.stack(), RecurrentState.zeros(8, 4, n_layers=2), ShapeError
        )

    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_state_of_other_layer_count_rejected(self, n_layers):
        self.assert_rejected_unchanged(
            self.stack(), RecurrentState.zeros(8, 2, n_layers=n_layers), ShapeError
        )

    def test_tokens_of_other_width_rejected(self):
        self.assert_rejected_unchanged(
            self.stack(), RecurrentState.zeros(8, 2, n_layers=2), ShapeError,
            tokens=np.zeros((5, 6)),
        )

    def test_deeper_block_with_other_heads_rejected_before_layer_0(self):
        # layer 1 does not fit the state; layer 0 must not have run either
        blocks = [random_block_params(8, n_heads=2, seed=90),
                  random_block_params(8, n_heads=4, seed=91)]
        self.assert_rejected_unchanged(blocks, RecurrentState.zeros(8, 2, n_layers=2), ShapeError)

    def test_float32_state_under_float64_blocks_rejected(self):
        # would truncate every update of S to float32
        self.assert_rejected_unchanged(
            self.stack(), RecurrentState.zeros(8, 2, n_layers=2, dtype=np.float32), DataError
        )

    def test_default_float64_state_under_float32_blocks_rejected(self):
        # would run a mixed-precision stream
        self.assert_rejected_unchanged(
            self.stack(np.float32), RecurrentState.zeros(8, 2, n_layers=2), DataError,
            tokens=self.tokens(np.float32),
        )

    def test_tokens_of_other_dtype_rejected(self):
        state = RecurrentState.zeros(8, 2, n_layers=2, dtype=np.float32)
        self.assert_rejected_unchanged(self.stack(np.float32), state, DataError)

    def test_one_shift_cache_of_other_dtype_rejected(self):
        state = RecurrentState.zeros(8, 2, n_layers=2)
        state.shift_cm = state.shift_cm.astype(np.float32)
        self.assert_rejected_unchanged(self.stack(), state, DataError)

    def test_block_branch_checks_layer_0(self):
        p = random_block_params(8, n_heads=2, seed=96, dtype=np.float32)
        rows = self.tokens(np.float32)
        with pytest.raises(ShapeError):
            block_branch(rows, p, RecurrentState.zeros(8, 4, dtype=np.float32))
        with pytest.raises(DataError):
            block_branch(rows, p, RecurrentState.zeros(8, 2))
        with pytest.raises(DataError):
            block_branch(rows.astype(np.float64), p, RecurrentState.zeros(8, 2, dtype=np.float32))

    def assert_block_apply_rejected(self, block, state, layer, error):
        before = copy.deepcopy(state)
        with pytest.raises(error):
            block_apply(self.tokens(block.dtype), block, state, layer, None, "chunked")
        for field in ("S", "shift_tm", "shift_cm"):
            np.testing.assert_array_equal(getattr(state, field), getattr(before, field))

    def test_block_apply_state_of_other_head_count_rejected(self):
        self.assert_block_apply_rejected(
            self.stack()[0], RecurrentState.zeros(8, 4, n_layers=2), 0, ShapeError
        )

    def test_block_apply_state_of_other_dtype_rejected(self):
        self.assert_block_apply_rejected(
            self.stack()[0], RecurrentState.zeros(8, 2, n_layers=2, dtype=np.float32), 0, DataError
        )

    @pytest.mark.parametrize("layer", [-1, 2])
    def test_block_apply_layer_outside_state_rejected(self, layer):
        self.assert_block_apply_rejected(
            self.stack()[0], RecurrentState.zeros(8, 2, n_layers=2), layer, ShapeError
        )

    def test_block_apply_checks_only_its_layer(self):
        # layer 1 of a 2-layer stack runs as forward_stack runs it
        blocks, state = self.stack(), RecurrentState.zeros(8, 2, n_layers=2)
        want = forward_stack(self.tokens(), blocks, copy.deepcopy(state), "chunked")
        x, v0 = block_apply(self.tokens(), blocks[0], state, 0, None, "chunked")
        x, _ = block_apply(x, blocks[1], state, 1, v0, "chunked")
        np.testing.assert_array_equal(x, want)

    def test_empty_stack_rejected(self):
        state = RecurrentState.zeros(8, 2)
        with pytest.raises(ConfigError):
            forward_stack(self.tokens(), [], state, "chunked")

    def test_fresh_state_validates(self):
        for dtype in (np.float32, np.float64):
            RecurrentState.zeros(8, 2, n_layers=3, dtype=dtype).validate()

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda s: setattr(s, "S", s.S[0]), ShapeError),
            (lambda s: setattr(s, "S", s.S[..., :3]), ShapeError),
            (lambda s: setattr(s, "shift_tm", s.shift_tm[:, :4]), ShapeError),
            (lambda s: setattr(s, "shift_cm", s.shift_cm[:1]), ShapeError),
            (lambda s: setattr(s, "shift_cm", s.shift_cm.astype(np.float32)), DataError),
            (lambda s: [setattr(s, f, getattr(s, f).astype(np.int64))
                        for f in ("S", "shift_tm", "shift_cm")], DataError),
            (lambda s: s.S.__setitem__((1, 0, 2, 3), np.nan), DataError),
            (lambda s: s.shift_tm.__setitem__((0, 5), np.inf), DataError),
            (lambda s: setattr(s, "tokens_seen", -5), DataError),
        ],
        ids=["S-3d", "S-not-square", "shift_tm-width", "shift_cm-layers",
             "mixed-dtype", "int64", "nan-S", "inf-shift", "negative-count"],
    )
    def test_validate_rejects(self, edit, error):
        state = RecurrentState.zeros(8, 2, n_layers=2)
        edit(state)
        with pytest.raises(error):
            state.validate()


class TestNumericErrorContext:
    @pytest.mark.parametrize("mode", ["sequential", "chunked"])
    def test_names_layer_and_tile(self, mode):
        # a NaN at token 550 fires in the second 512-token tile of layer 0
        blocks = [random_block_params(8, seed=84 + i) for i in range(2)]
        tokens = np.random.default_rng(86).standard_normal((600, 8))
        tokens[550, 3] = np.nan
        state = RecurrentState.zeros(8, 1, n_layers=2)
        with pytest.raises(
            NumericError,
            match=r"^layer 0, tokens 512\.\.599: non-finite element in token 550$",
        ):
            forward_stack(tokens, blocks, state, mode=mode)

    def test_names_deeper_layer(self):
        blocks = [random_block_params(8, seed=87 + i) for i in range(2)]
        blocks[1].W_v[2, 5] = np.nan
        state = RecurrentState.zeros(8, 1, n_layers=2)
        with pytest.raises(NumericError, match=r"^layer 1, tokens 0\.\.9: "):
            forward_stack(np.random.default_rng(89).standard_normal((10, 8)), blocks, state, "chunked")


def tile_crossing_case():
    """A 2-layer stack and 1,100 tokens: both modes cross the 512-token outer
    tile twice."""
    blocks = [random_block_params(16, n_heads=4, seed=60 + i) for i in range(2)]
    tokens = np.random.default_rng(62).standard_normal((1100, 16))
    return blocks, tokens, lambda: RecurrentState.zeros(16, 4, n_layers=2)


class TestTileBoundary:
    def test_stack_mode_equivalence(self):
        blocks, tokens, fresh = tile_crossing_case()
        s_seq, s_chk = fresh(), fresh()
        out_seq = forward_stack(tokens, blocks, s_seq, mode="sequential")
        out_chk = forward_stack(tokens, blocks, s_chk, mode="chunked")
        np.testing.assert_allclose(out_chk, out_seq, atol=1e-10)
        np.testing.assert_allclose(s_chk.S, s_seq.S, atol=1e-10)

    @pytest.mark.parametrize("mode", ["sequential", "chunked"])
    def test_split_at_700_matches_unsplit(self, mode):
        blocks, tokens, fresh = tile_crossing_case()
        s_full, s_split = fresh(), fresh()
        out_full = forward_stack(tokens, blocks, s_full, mode=mode)
        out_a = forward_stack(tokens[:700], blocks, s_split, mode=mode)
        out_b = forward_stack(tokens[700:], blocks, s_split, mode=mode)
        np.testing.assert_allclose(np.vstack([out_a, out_b]), out_full, atol=1e-10)
        np.testing.assert_allclose(s_split.S, s_full.S, atol=1e-10)
        assert s_split.tokens_seen == s_full.tokens_seen == 1100


class TestProperties:
    """Seeded sweeps of the module invariants."""

    @pytest.mark.parametrize("d,n_heads", [(8, 1), (16, 4), (64, 4)])
    @pytest.mark.parametrize("B", [1, 4, 16, 64])
    def test_mode_equivalence_sweep_double(self, d, n_heads, B):
        e = make_elements(B, d, n_heads, seed=100 * B + d + n_heads)
        rng = np.random.default_rng(d * B)
        S_in = rng.standard_normal((n_heads, d // n_heads, d // n_heads))
        want, _ = sequential_states(S_in, e, n_heads)
        got, _ = chunk_states(S_in, e)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_mode_equivalence_single_precision(self):
        for seed in range(5):
            e = make_elements(64, 16, 4, seed=seed, dtype=np.float32)
            S_in = np.zeros((4, 4, 4), dtype=np.float32)
            want, _ = sequential_states(S_in, e, 4)
            got, _ = chunk_states(S_in, e)
            assert got.dtype == np.float32
            assert np.max(np.abs(got - want)) < 1e-5

    def test_determinism_bitwise(self):
        p = random_block_params(8, seed=50)
        rng = np.random.default_rng(51)
        tokens = rng.standard_normal((16, 8))
        outs = []
        for _ in range(2):
            state = RecurrentState.zeros(8, 1)
            out, _ = block_forward(tokens, p, state, mode="chunked")
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_jacobian_mode_agreement(self):
        # central differences through both paths at d=8, B=4
        d, B, h = 8, 4, 1e-4
        p = random_block_params(d, seed=52)
        rng = np.random.default_rng(53)
        tokens = rng.standard_normal((B, d))

        def run(mode, toks):
            state = RecurrentState.zeros(d, 1)
            out, _ = block_forward(toks, p, state, mode=mode)
            return out[-1]

        for (t_idx, c_idx) in [(0, 3), (1, 0), (3, 7)]:
            grads = {}
            for mode in ("sequential", "chunked"):
                up = tokens.copy()
                up[t_idx, c_idx] += h
                down = tokens.copy()
                down[t_idx, c_idx] -= h
                grads[mode] = (run(mode, up) - run(mode, down)) / (2 * h)
            denom = np.maximum(np.abs(grads["sequential"]), 1e-8)
            rel = np.abs(grads["chunked"] - grads["sequential"]) / denom
            assert np.max(rel) < 1e-3
