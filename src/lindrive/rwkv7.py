"""RWKV-7 block primitives: element projections, delta-rule state recurrence
in sequential and chunk-parallel form, time mixing and channel mixing.

A block has one body, run over tiles of tokens: element projection,
recurrence, time-mix readout, channel mix. Its two modes differ only in the
recurrence. Chunked mode runs chunk_readouts, the chunk-parallel kernel that
fusion and cross-attention use, which never materialises the per-step
states; sequential mode runs sequential_readouts, the reference that steps
state_step token by token.

Everything is plain numpy and dtype-preserving: float64 for oracle work,
float32 for benchmarks. A block holds no state of its own; callers own a
RecurrentState that is advanced in place, so one state means one stream and
distinct streams never share mutable data.

Conventions: tokens are row vectors, projections apply as ``x @ W``. The
per-head state matrix S has shape (head_dim, head_dim) with value channels
as rows and key channels as columns, i.e. a fresh write is the outer product
``v^T k_replace`` and the readout is ``S @ r``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ContractError, DataError, NumericError, ShapeError

NORM_EPS = 1e-5
# epsilon inside the removal-key L2 norm; degenerate (all-zero) keys then
# normalize to zero instead of dividing by zero
KAPPA_EPS = 1e-12
# gain on the decay exponent: w = exp(-DECAY_GAIN * sigmoid(...)), which pins
# every decay component into (exp(-DECAY_GAIN), 1)
DECAY_GAIN = float(np.exp(-0.5))
W_LOWER_BOUND = float(np.exp(-DECAY_GAIN))

# longest sub-chunk of chunk_readouts, which divides by a sub-chunk's
# cumulative decay: that stays above W_LOWER_BOUND ** DEFAULT_CHUNK ~ 3.7e-9,
# so its reciprocal (<= 2.7e8) is far from float32 overflow (~145 steps)
DEFAULT_CHUNK = 32


def sigmoid(x):
    # exp overflow for very negative x saturates to 0, which is the limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def lerp(a, b, mix):
    """Linear interpolation a + (b - a) * mix, elementwise.

    Used for token shift: mix=0 keeps the current token, mix=1 takes the
    previous one.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    mix = np.asarray(mix)
    if a.shape[-1] != b.shape[-1] or a.shape[-1] != mix.shape[-1]:
        raise ShapeError(
            f"lerp operands disagree: {a.shape} vs {b.shape} vs {mix.shape}"
        )
    return a + (b - a) * mix


def _standardize(x, eps: float = NORM_EPS):
    """(x - mean) / sqrt(var + eps) over the last axis, in one pass: the
    same reductions and divisions that np.mean and np.var run."""
    n = x.shape[-1]
    c = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    return c / np.sqrt(np.add.reduce(c * c, axis=-1, keepdims=True) / n + eps)


def layer_norm(x, weight, bias, eps: float = NORM_EPS):
    """LayerNorm over the last axis with learned affine."""
    return _standardize(np.asarray(x), eps) * weight + bias


@dataclass
class LoraParams:
    """Factors of one low-rank MLP; `bias` is the lambda vector."""

    A: np.ndarray  # (d, rank)
    B: np.ndarray  # (rank, d)
    bias: np.ndarray  # (d,)


@dataclass
class RwkvBlockParams:
    """All learned tensors of one RWKV-7 block.

    Mix vectors steer the token shift, the four square projections produce
    receptance/key/value/output, the lora factors produce decay, in-context
    learning rate, value-residual mix and gate, and k_k / k_a / r_k are the
    per-channel scales on removal key, replacement key and readout bonus.
    """

    d: int
    n_heads: int
    # token-shift mix vectors, each component in [0, 1]
    mu_r: np.ndarray
    mu_w: np.ndarray
    mu_k: np.ndarray
    mu_v: np.ndarray
    mu_a: np.ndarray
    mu_g: np.ndarray
    mu_ffn: np.ndarray
    # square projections (d, d)
    W_r: np.ndarray
    W_k: np.ndarray
    W_v: np.ndarray
    W_o: np.ndarray
    # channel-mix projections
    W_ffn_k: np.ndarray  # (d, h_ff)
    W_ffn_v: np.ndarray  # (h_ff, d)
    # low-rank MLPs
    lora_w: LoraParams
    lora_a: LoraParams
    lora_v: LoraParams
    lora_g: LoraParams  # bias unused: the gate runs bias-free
    # per-channel learned vectors
    k_k: np.ndarray  # removal-key scale
    k_a: np.ndarray  # replacement-key mix depth
    r_k: np.ndarray  # readout bonus gain
    # norm affines; identity by default
    ln1_w: np.ndarray
    ln1_b: np.ndarray
    ln2_w: np.ndarray
    ln2_b: np.ndarray
    ln_out_w: np.ndarray
    ln_out_b: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        return self.W_r.dtype

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor in field order, under its snapshot name: ``W_r``,
        ``mu_w``, ``lora_w.A``, ``lora_w.bias``, ..."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "LoraParams":
                out.update((f"{f.name}.{p.name}", getattr(value, p.name)) for p in fields(value))
            elif f.type == "np.ndarray":
                out[f.name] = value
        return out

    @classmethod
    def from_tensors(cls, d: int, n_heads: int, tensor) -> "RwkvBlockParams":
        """The inverse of tensors(), without validation: each tensor is
        tensor(snapshot name), asked for in field order."""
        kwargs = {}
        for f in fields(cls):
            if f.type == "LoraParams":
                kwargs[f.name] = LoraParams(
                    *(tensor(f"{f.name}.{p.name}") for p in fields(LoraParams))
                )
            elif f.type == "np.ndarray":
                kwargs[f.name] = tensor(f.name)
        return cls(d, n_heads, **kwargs)

    def validate(self) -> None:
        """Check the shape of every tensor, one floating dtype for all, finite
        values, the LoRA ranks and the [0, 1] range of the mix vectors."""
        if self.d % self.n_heads != 0:
            raise ConfigError(f"n_heads={self.n_heads} must divide d={self.d}")
        if not np.issubdtype(self.dtype, np.floating):
            raise DataError(f"block tensors must be floating point, got {self.dtype}")
        h_ff = _cols(self.W_ffn_k)
        for name, t in self.tensors().items():
            field, _, part = name.partition(".")
            rank = _cols(getattr(self, field).A) if part else 0
            shape = _tensor_shape(name, self.d, h_ff, rank)
            if t.shape != shape:
                raise ShapeError(f"{name} must have shape {shape}, got {t.shape}")
            if t.dtype != self.dtype:
                raise DataError(f"{name} is {t.dtype}, not the block's {self.dtype} (W_r)")
            if not np.isfinite(t).all():
                raise DataError(f"{name} holds non-finite values")
            if part == "A" and not 1 <= rank <= self.d:
                raise ConfigError(f"{field} rank must be in [1, {self.d}]")
            if name.startswith("mu_") and (np.any(t < 0.0) or np.any(t > 1.0)):
                raise ConfigError(f"{name} components must lie in [0, 1]")


def _cols(t) -> int:
    """Column count of a matrix, or -1 so that no expected shape matches."""
    return t.shape[1] if t.ndim == 2 else -1


def _tensor_shape(name: str, d: int, h_ff: int, rank: int) -> tuple[int, ...]:
    """Shape of block tensor `name`: (d,) unless a projection or LoRA factor."""
    special = {"W_ffn_k": (d, h_ff), "W_ffn_v": (h_ff, d), "A": (d, rank), "B": (rank, d)}
    key = name.rpartition(".")[2]
    if key in special:
        return special[key]
    return (d, d) if name.startswith("W_") else (d,)


def random_block_params(
    d: int,
    n_heads: int = 1,
    *,
    seed: int,
    h_ff: int | None = None,
    rank: int | None = None,
    dtype=np.float64,
) -> RwkvBlockParams:
    """Seeded random parameters at sane magnitudes for tests and benchmarks,
    drawn in field order; matrices are normal with std 1 / sqrt(fan-in)."""
    if h_ff is None:
        h_ff = 4 * d
    if rank is None:
        rank = max(1, d // 4)
    rng = np.random.default_rng(seed)
    # (low, high) of uniform vector draws and std of normal ones; lora_g's
    # bias is unused and drawn at scale 0, where `0.0 +` turns -0.0 into 0.0
    uniform = {"k_k": (0.5, 0.9), "k_a": (0.9, 1.1)}
    normal = {"r_k": 0.1, "lora_w.bias": 1.0, "lora_a.bias": 0.5,
              "lora_v.bias": 0.5, "lora_g.bias": 0.0}

    def draw(name):
        shape = _tensor_shape(name, d, h_ff, rank)
        if name.startswith("mu_"):
            return rng.uniform(0.0, 1.0, d)
        if name in uniform:
            return rng.uniform(*uniform[name], d)
        if name in normal:
            return 0.0 + rng.standard_normal(d) * normal[name]
        if name.startswith("ln"):
            return np.ones(d) if name.endswith("_w") else np.zeros(d)
        # times the reciprocal: a division would round differently
        return rng.standard_normal(shape) * (1.0 / np.sqrt(shape[0]))

    params = RwkvBlockParams.from_tensors(d, n_heads, lambda name: draw(name).astype(dtype))
    params.validate()
    return params


@dataclass
class RecurrentState:
    """The entire memory of one stream.

    Byte size depends only on (d, n_heads, n_layers): consuming more tokens
    never grows it.
    """

    S: np.ndarray  # (n_layers, n_heads, head_dim, head_dim)
    shift_tm: np.ndarray  # (n_layers, d) previous token seen by time mixing
    shift_cm: np.ndarray  # (n_layers, d) previous token seen by channel mixing
    tokens_seen: int = 0

    @classmethod
    def zeros(cls, d: int, n_heads: int, n_layers: int = 1, dtype=np.float64):
        if d % n_heads != 0:
            raise ConfigError(f"n_heads={n_heads} must divide d={d}")
        hd = d // n_heads
        return cls(
            S=np.zeros((n_layers, n_heads, hd, hd), dtype=dtype),
            shift_tm=np.zeros((n_layers, d), dtype=dtype),
            shift_cm=np.zeros((n_layers, d), dtype=dtype),
            tokens_seen=0,
        )

    @property
    def nbytes(self) -> int:
        return self.S.nbytes + self.shift_tm.nbytes + self.shift_cm.nbytes

    def validate(self) -> None:
        """Check that S is (layers, heads, hd, hd), both shift caches
        (layers, heads * hd), all three one floating dtype, the values finite
        and tokens_seen one integer >= 0."""
        if self.S.ndim != 4:
            raise ShapeError(f"S must be (layers, heads, hd, hd), got {self.S.shape}")
        L, H, hd, _ = self.S.shape
        _check_layout(self, L, H, hd, self.S.dtype)
        if not np.issubdtype(self.S.dtype, np.floating):
            raise DataError(f"state arrays must be floating point, got {self.S.dtype}")
        if not all(np.isfinite(a).all() for a in (self.S, self.shift_tm, self.shift_cm)):
            raise DataError("state holds non-finite values")
        if not isinstance(self.tokens_seen, (int, np.integer)) or self.tokens_seen < 0:
            raise DataError(f"tokens_seen must be one integer >= 0, got {self.tokens_seen!r}")


def _check_layout(state: RecurrentState, L: int, H: int, hd: int, dtype) -> None:
    """ShapeError unless S is (L, H, hd, hd) and both shift caches (L, H * hd),
    DataError unless all three are `dtype`."""
    S, tm, cm = state.S, state.shift_tm, state.shift_cm
    if S.shape != (L, H, hd, hd) or tm.shape != (L, H * hd) or cm.shape != tm.shape:
        raise ShapeError(
            f"state shapes (S, shift_tm, shift_cm) {S.shape}, {tm.shape}, {cm.shape} "
            f"do not fit {L} layers of {H} heads of width {hd}"
        )
    if S.dtype != dtype or tm.dtype != dtype or cm.dtype != dtype:
        raise DataError(
            f"state dtypes (S, shift_tm, shift_cm) {S.dtype}, {tm.dtype}, {cm.dtype} "
            f"are not {dtype}"
        )


@dataclass
class ElementSet:
    """Per-token projections feeding the delta rule.

    Arrays are (d,) for a single token, (T, d) for a chunk. `k_removal` is
    the raw (unnormalized) removal key; consumers normalize per head.
    `v0` is the layer-0 value used by the value residual of deeper layers.
    """

    r: np.ndarray
    w: np.ndarray
    k_removal: np.ndarray
    k_replace: np.ndarray
    v: np.ndarray
    a: np.ndarray
    g: np.ndarray
    v0: np.ndarray


def _split_heads(x, n_heads: int):
    """(..., d) -> (..., n_heads, head_dim)"""
    return x.reshape(*x.shape[:-1], n_heads, x.shape[-1] // n_heads)


def _normalize_removal(k_removal_heads):
    """Per-head L2 normalization with epsilon inside the norm."""
    norm = np.sqrt(
        np.sum(k_removal_heads * k_removal_heads, axis=-1, keepdims=True) + KAPPA_EPS
    )
    return k_removal_heads / norm, norm


def _compute_elements(x, x_prev, params: RwkvBlockParams, layer: int, v0):
    """Element equations for a batch of rows; x is (T, d), x_prev (T, d) or
    one (d,) row shared by every token. One lerp over the stacked mix
    vectors gives all six token-shifted inputs."""
    mu = np.array([params.mu_r, params.mu_w, params.mu_k, params.mu_v, params.mu_a, params.mu_g])
    xr, xw, xk, xv, xa, xg = lerp(x, x_prev, mu[:, None])
    lw, la, lv, lg = params.lora_w, params.lora_a, params.lora_v, params.lora_g
    w = np.exp(-DECAY_GAIN * sigmoid(np.tanh(xw @ lw.A) @ lw.B + lw.bias))
    k = xk @ params.W_k
    a = sigmoid(xa @ la.A @ la.B + la.bias)
    v = xv @ params.W_v
    if layer == 0:
        v0 = v
    else:
        # value residual: lerp from the layer-0 value by nu
        nu = sigmoid(xv @ lv.A @ lv.B + lv.bias)
        v = v0 + (v - v0) * nu
    return ElementSet(
        r=xr @ params.W_r,
        w=w,
        k_removal=k * params.k_k,
        k_replace=k * (1.0 + (a - 1.0) * params.k_a),
        v=v,
        a=a,
        g=sigmoid(xg @ lg.A) @ lg.B,
        v0=v0,
    )


def project_elements_seq(
    X,
    params: RwkvBlockParams,
    state: RecurrentState,
    layer: int = 0,
    v0_seq=None,
) -> ElementSet:
    """Vectorized element projection for a chunk of T tokens (rows of X)."""
    if layer >= 1 and v0_seq is None:
        raise ContractError("layers >= 1 need the layer-0 value sequence")
    X = np.asarray(X)
    x_prev = np.vstack([state.shift_tm[layer][None, :], X[:-1]])
    e = _compute_elements(X, x_prev, params, layer, v0_seq)
    state.shift_tm[layer] = X[-1]
    return e


def _head_operands(e: ElementSet, H: int):
    """Per-head delta-rule operands (w, a, v, k_replace, khat), each shaped
    (..., H, head_dim); khat is the L2-normalized removal key."""
    khat, _ = _normalize_removal(_split_heads(e.k_removal, H))
    return (
        _split_heads(e.w, H),
        _split_heads(e.a, H),
        _split_heads(e.v, H),
        _split_heads(e.k_replace, H),
        khat,
    )


def state_step(S_prev, e: ElementSet):
    """One delta-rule update.

    S_new = S_prev @ (diag(w) - khat^T (a * khat)) + v^T k_replace, applied
    independently per head; khat is the L2-normalized removal key.
    """
    w, a, v, k_rep, khat = _head_operands(e, S_prev.shape[0])
    if not all(np.isfinite(x).all() for x in (w, a, v, k_rep, khat)):
        raise NumericError("non-finite element reached state_step")
    decayed = S_prev * w[:, None, :]
    removed = (S_prev @ khat[:, :, None]) * (a * khat)[:, None, :]
    written = v[:, :, None] * k_rep[:, None, :]
    return decayed - removed + written


@functools.lru_cache(maxsize=DEFAULT_CHUNK)
def _score_mask(B: int):
    """Causal part of a B-token sub-chunk's stacked scores [khat; r] x
    [brow; k_replace]: the solve couplings (top rows) strictly below the
    diagonal, the readout scores (bottom rows) on and below it."""
    strict, lower = np.tri(B, k=-1, dtype=bool), np.tri(B, dtype=bool)
    mask = np.block([[strict, strict], [lower, lower]])
    mask.flags.writeable = False
    return mask


def chunk_readouts(S_in, e: ElementSet, r_heads, max_chunk: int = DEFAULT_CHUNK):
    """Chunk-parallel delta rule: readouts y_t = S_t r_t^T for every token of
    `e` and the final state, equal to repeated state_step.

    `r_heads` is (T, n_heads, head_dim); returns (y, S_out) with y shaped like
    `r_heads`. Tokens run in sub-chunks of max_chunk <= DEFAULT_CHUNK steps,
    carrying the state across. Inside a sub-chunk this is the UT/WY form of
    the chunked delta rule (Yang et al., arXiv 2406.06484) with the decay
    made separable as in Gated Linear Attention (arXiv 2312.06635): with
    F2_t = w_0 ... w_t and F1_t = F2_{t-1}, a step-s write reaches step t's
    readout decayed by F1_t / F2_s (before step t's update) or F2_t / F2_s
    (after it). So the solve couplings L and G and both readout score
    matrices come from one masked matmul per head, [khat F1; r F2] times
    [brow / F2; k_replace / F2]^T, and one unit-lower-triangular solve yields
    the per-step readouts m_t = S_{t-1} khat_t^T; no per-step state is built.
    Every w exceeds W_LOWER_BOUND, so 1/F2 < W_LOWER_BOUND ** -DEFAULT_CHUNK
    (about 2.7e8): no float32 overflow, and each ratio's rounding is relative.
    """
    if not 1 <= max_chunk <= DEFAULT_CHUNK:
        raise ConfigError(f"max_chunk must lie in [1, {DEFAULT_CHUNK}], got {max_chunk}")
    H, _, K = S_in.shape
    T = e.w.shape[0]
    w = _split_heads(e.w, H)
    k_removal = _split_heads(e.k_removal, H)
    khat, norm = _normalize_removal(k_removal)
    # removal row of the transition: transition_t = diag(w_t) + khat_t^T brow_t
    brow = -(_split_heads(e.a, H) / norm) * k_removal
    # (H, 2, T, K) operands; r_t F2_t = (r_t w_t) F1_t, so both query rows
    # scale by F1
    queries = np.stack([khat, r_heads * w]).transpose(2, 0, 1, 3)
    keys = np.stack([brow, _split_heads(e.k_replace, H)]).transpose(2, 0, 1, 3)
    v = _split_heads(e.v, H).transpose(1, 0, 2)
    w = w.transpose(1, 0, 2)
    y = np.empty_like(r_heads)
    S = S_in
    for lo in range(0, T, max_chunk):
        hi = min(lo + max_chunk, T)
        B = hi - lo
        # F[:, t] is the product of w over the steps before t: F1 = F[:, :-1],
        # F2 = F[:, 1:]
        F = np.ones((H, B + 1, K), dtype=w.dtype)
        np.cumprod(w[:, lo:hi], axis=1, out=F[:, 1:])
        q = (queries[:, :, lo:hi] * F[:, None, :-1]).reshape(H, 2 * B, K)
        c = (keys[:, :, lo:hi] / F[:, None, 1:]).reshape(H, 2 * B, K)
        scores = q @ c.transpose(0, 2, 1)
        scores *= _score_mask(B)
        # readouts of the incoming state: pre-solve rows, then the outputs'
        qS = q @ S.transpose(0, 2, 1)
        v_sub = v[:, lo:hi]
        rhs = qS[:, :B] + scores[:, :B, B:] @ v_sub
        m = np.linalg.solve(np.eye(B, dtype=bool) - scores[:, :B, :B], rhs)
        mv = np.concatenate([m, v_sub], axis=1)
        y[lo:hi] = (qS[:, B:] + scores[:, B:] @ mv).transpose(1, 0, 2)
        decay = F[:, -1:]
        S = S * decay + mv.transpose(0, 2, 1) @ (c * decay)
    return y, S


def sequential_readouts(S_in, e: ElementSet, r_heads):
    """Sequential reference for chunk_readouts, with the same arguments and
    returns: steps state_step token by token and reads out y_t = S_t r_t^T."""
    y = np.empty_like(r_heads)
    S = S_in
    for t in range(e.w.shape[0]):
        S = state_step(S, ElementSet(**{f: x[t] for f, x in vars(e).items()}))
        y[t] = np.einsum("hvk,hk->hv", S, r_heads[t])
    return y, S


def branch_readouts(S, e: ElementSet, r_heads):
    """Readouts y_i = S_i r_i^T with S_i = state_step(S, e_i), for every row
    i of `e` as its own next token after S; S itself is not advanced.

    `r_heads` is (M, n_heads, head_dim) and y is shaped like it. Expanding
    state_step gives y_i = S (w_i * r_i) - (S khat_i)(a_i khat_i . r_i)
    + v_i (k_replace_i . r_i), so no S_i is ever built.
    """
    w, a, v, k_rep, khat = _head_operands(e, S.shape[0])

    def read(q):  # S q_i^T for every row: (H, V, K) @ (H, K, M) -> (M, H, V)
        return (S @ q.transpose(1, 2, 0)).transpose(2, 0, 1)

    return (
        read(w * r_heads)
        - read(khat) * np.sum(a * khat * r_heads, axis=-1, keepdims=True)
        + v * np.sum(k_rep * r_heads, axis=-1, keepdims=True)
    )


def time_mix_output(e: ElementSet, y, params: RwkvBlockParams):
    """Per-head LayerNorm, readout bonus, gate and output projection.

    `y` holds the raw state readouts S_t r_t, shaped (T, n_heads, head_dim);
    returns (T, d).
    """
    H = params.n_heads
    r = _split_heads(e.r, H)
    k_rep = _split_heads(e.k_replace, H)
    v = _split_heads(e.v, H)
    r_k = _split_heads(params.r_k, H)
    p = _standardize(y).reshape(y.shape[0], -1) * params.ln_out_w + params.ln_out_b
    bonus = np.sum(r * (r_k * k_rep), axis=-1, keepdims=True) * v
    p = p + bonus.reshape(p.shape)
    bad = ~np.isfinite(p).all(axis=1)
    if bad.any():
        raise NumericError(f"non-finite time-mix readout in row {int(bad.argmax())}")
    return (e.g * p) @ params.W_o


def _ffn(X, x_prev, params: RwkvBlockParams):
    """Squared-ReLU feed-forward of the rows of X after token shift."""
    h = lerp(X, x_prev, params.mu_ffn) @ params.W_ffn_k
    return np.square(np.maximum(h, 0.0)) @ params.W_ffn_v


def channel_mix(X, params: RwkvBlockParams, state: RecurrentState, layer: int = 0):
    """Squared-ReLU channel mixing of the rows of X with its own token shift
    cache."""
    x_prev = np.vstack([state.shift_cm[layer][None, :], X[:-1]])
    state.shift_cm[layer] = X[-1]
    return _ffn(X, x_prev, params)


# the recurrence each block_apply mode runs; nothing else differs
_RECURRENCES = {"sequential": sequential_readouts, "chunked": chunk_readouts}
# tokens per outer tile of block_apply
_CHUNK_TILE = 512


def _block_tile(
    tokens,
    params: RwkvBlockParams,
    state: RecurrentState,
    layer: int,
    v0_seq,
    recur,
    first: int,
):
    """One tile of a block: project, recur, read out, mix. A non-finite
    element is named by its token, `first` being the tile's first."""
    xn = layer_norm(tokens, params.ln1_w, params.ln1_b)
    e = project_elements_seq(xn, params, state, layer, v0_seq)
    finite = np.isfinite(
        np.concatenate([e.r, e.w, e.k_removal, e.k_replace, e.v, e.a], axis=1)
    ).all(axis=1)
    if not finite.all():
        raise NumericError(f"non-finite element in token {first + int(finite.argmin())}")
    y, state.S[layer] = recur(state.S[layer], e, _split_heads(e.r, params.n_heads))
    x = tokens + time_mix_output(e, y, params)
    xn2 = layer_norm(x, params.ln2_w, params.ln2_b)
    return x + channel_mix(xn2, params, state, layer), e.v0


def _token_rows(tokens, d: int):
    """`tokens` as a (T, d) array; an empty input becomes (0, d)."""
    tokens = np.asarray(tokens)
    if tokens.size == 0:
        tokens = tokens.reshape(0, d)
    if tokens.ndim != 2 or tokens.shape[1] != d:
        raise ShapeError(f"tokens must be (T, {d}), got {tokens.shape}")
    return tokens


def _check_stream(tokens, blocks: list[RwkvBlockParams], state: RecurrentState):
    """`tokens` as (T, d) rows, once they and `state` fit every block of the
    stack (one state layer per block, with the block's width, heads and
    dtype): ShapeError for a width, head or layer count, DataError for a
    dtype. Nothing has run yet, so a rejected call leaves `state` unchanged."""
    tokens = _token_rows(tokens, blocks[0].d)
    for p in blocks:
        if tokens.dtype != p.dtype:
            raise DataError(f"tokens are {tokens.dtype}, not the block's {p.dtype}")
        _check_layout(state, len(blocks), p.n_heads, p.d // p.n_heads, p.dtype)
    return tokens


def block_apply(
    tokens,
    params: RwkvBlockParams,
    state: RecurrentState,
    layer: int = 0,
    v0_seq=None,
    mode: str = "sequential",
):
    """Run one block over `tokens`, mutating `state` at `layer`.

    Returns (outputs, v0_seq) where v0_seq stacks the layer-0 values needed
    by deeper layers of a stack. Both modes produce the same outputs and the
    same final state and differ only in the recurrence: sequential steps
    state_step token by token, chunked runs chunk_readouts.
    `state.tokens_seen` is left to forward_stack, which counts a stack's
    tokens once. A NumericError names the layer, the tile's token range and
    a non-finite element's token, counting from 0 in `tokens`.
    """
    if mode not in _RECURRENCES:
        raise ConfigError(f"unknown mode {mode!r}")
    tokens = _token_rows(tokens, params.d)
    # outer tiles bound the working set so long sequences stay cache
    # resident; the recurrence semantics are tile-invariant because all
    # cross-token memory lives in `state`
    out = np.empty_like(tokens)
    v0_out = np.empty_like(tokens)
    for lo in range(0, tokens.shape[0], _CHUNK_TILE):
        hi = min(lo + _CHUNK_TILE, tokens.shape[0])
        v0_tile = None if v0_seq is None else v0_seq[lo:hi]
        try:
            out[lo:hi], v0_out[lo:hi] = _block_tile(
                tokens[lo:hi], params, state, layer, v0_tile, _RECURRENCES[mode], lo
            )
        except NumericError as err:
            raise NumericError(f"layer {layer}, tokens {lo}..{hi - 1}: {err}") from err
    return out, v0_out


def block_branch(tokens, params: RwkvBlockParams, state: RecurrentState):
    """Run every row of `tokens` through the block (layer 0 of `state`) as
    its own next token after `state`, leaving `state` untouched.

    Row i comes out as block_forward's last output over [the tokens `state`
    has seen; tokens[i]], so rows are independent of each other: permuting
    them permutes the outputs. All rows run batched, with no chunk solve
    (branch_readouts). `tokens` and `state` are checked as forward_stack
    checks a one-block stack. A NumericError names the row.
    """
    tokens = _check_stream(tokens, [params], state)
    try:
        xn = layer_norm(tokens, params.ln1_w, params.ln1_b)
        e = _compute_elements(xn, state.shift_tm[0], params, 0, None)
        y = branch_readouts(state.S[0], e, _split_heads(e.r, params.n_heads))
        x = tokens + time_mix_output(e, y, params)
        xn2 = layer_norm(x, params.ln2_w, params.ln2_b)
        return x + _ffn(xn2, state.shift_cm[0], params)
    except NumericError as err:
        raise NumericError(f"layer 0, query branch: {err}") from err


def block_forward(
    tokens,
    params: RwkvBlockParams,
    state: RecurrentState,
    mode: str = "sequential",
):
    """Single-block forward (layer 0 semantics). Returns (outputs, state)."""
    return forward_stack(tokens, [params], state, mode), state


def forward_stack(
    tokens,
    blocks: list[RwkvBlockParams],
    state: RecurrentState,
    mode: str = "sequential",
):
    """Run a stack of blocks, threading the layer-0 value residual through
    and adding the consumed tokens to `state.tokens_seen`. Before any layer
    runs, `tokens` and `state` are checked against every block."""
    x = _check_stream(tokens, blocks, state)
    v0_seq = None
    for layer, params in enumerate(blocks):
        x, v0 = block_apply(x, params, state, layer, v0_seq, mode)
        if layer == 0:
            v0_seq = v0
            state.tokens_seen += x.shape[0]
    return x
