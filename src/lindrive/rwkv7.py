"""RWKV-7 block primitives: element projections, delta-rule state recurrence
in sequential and chunk-parallel form, time mixing and channel mixing.

A block has one body: element projection, recurrence, time-mix readout,
channel mix. A stack runs depth first, each tile of up to 256 tokens through
every block before the next tile, so its working memory does not grow with
the sequence. The two modes differ only in the recurrence. Chunked mode runs
chunk_readouts, the chunk-parallel kernel that fusion and cross-attention
use, which never materialises the per-step states; sequential mode runs
sequential_readouts, the reference that steps state_step token by token.

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
    # exp overflow for very negative x saturates to 0, which is the limit;
    # callers run it under np.errstate(over="ignore")
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


def _standardize(x):
    """(x - mean) / sqrt(var + NORM_EPS) over the last axis, in one pass:
    the same reductions and divisions that np.mean and np.var run."""
    n = x.shape[-1]
    c = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    return c / np.sqrt(np.add.reduce(c * c, axis=-1, keepdims=True) / n + NORM_EPS)


def layer_norm(x, weight, bias):
    """LayerNorm over the last axis with learned affine."""
    return _standardize(np.asarray(x)) * weight + bias


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
        """Every tensor in field order, by name: ``W_r``, ``mu_w``,
        ``lora_w.A``, ``lora_w.bias``, ..."""
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
        tensor(name), asked for in field order."""
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
        _check_heads(self.d, self.n_heads)
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


def _check_heads(d: int, n_heads) -> None:
    """ConfigError unless d is an integer >= 1 and n_heads an integer >= 1
    that divides it."""
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ConfigError(f"d={d!r} must be an integer >= 1")
    if not (isinstance(n_heads, (int, np.integer)) and n_heads >= 1 and d % n_heads == 0):
        raise ConfigError(f"n_heads={n_heads!r} must be an integer >= 1 that divides d={d}")


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
        _check_heads(d, n_heads)
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
        _check_layout(self.S, self.shift_tm, self.shift_cm, L, H, hd, self.S.dtype)
        if not np.issubdtype(self.S.dtype, np.floating):
            raise DataError(f"state arrays must be floating point, got {self.S.dtype}")
        if not all(np.isfinite(a).all() for a in (self.S, self.shift_tm, self.shift_cm)):
            raise DataError("state holds non-finite values")
        if not isinstance(self.tokens_seen, (int, np.integer)) or self.tokens_seen < 0:
            raise DataError(f"tokens_seen must be one integer >= 0, got {self.tokens_seen!r}")


def _check_layout(S, tm, cm, L: int, H: int, hd: int, dtype) -> None:
    """ShapeError unless S is (L, H, hd, hd) and both shift caches tm and cm
    (L, H * hd), DataError unless all three are `dtype`."""
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

    def heads(self, n_heads: int) -> ElementSet:
        """The set with r, w, k_removal, k_replace, v and a as (..., n_heads,
        head_dim) views, g and v0 as they are: a block call splits its
        elements once, for every kernel. An absent w and k_removal stay None."""
        w, k_removal = (None, None) if self.w is None else (
            _split_heads(self.w, n_heads), _split_heads(self.k_removal, n_heads))
        return ElementSet(_split_heads(self.r, n_heads), w, k_removal,
                          _split_heads(self.k_replace, n_heads), _split_heads(self.v, n_heads),
                          _split_heads(self.a, n_heads), self.g, self.v0)


def _split_heads(x, n_heads: int):
    """(..., d) -> (..., n_heads, head_dim)"""
    return x.reshape(*x.shape[:-1], n_heads, x.shape[-1] // n_heads)


def _normalize_removal(k_removal_heads):
    """Per-head L2 normalization with epsilon inside the norm."""
    norm = np.sqrt(
        np.add.reduce(k_removal_heads * k_removal_heads, axis=-1, keepdims=True) + KAPPA_EPS
    )
    return k_removal_heads / norm, norm


@np.errstate(over="ignore")
def _compute_elements(x, x_prev, params: RwkvBlockParams, layer: int, v0, state_terms=True):
    """Element equations for a batch of rows; x is (T, d), x_prev (T, d) or
    one (d,) row shared by every token. One lerp over the stacked mix
    vectors gives all six token-shifted inputs. With state_terms False the
    decay w and the removal key, which act only on an earlier state, are
    left None. The equations run under one errstate: a sigmoid saturates
    silently, and the callers' finite checks catch a non-finite element."""
    mu = np.array([params.mu_r, params.mu_w, params.mu_k, params.mu_v, params.mu_a, params.mu_g])
    xr, xw, xk, xv, xa, xg = lerp(x, x_prev, mu[:, None])
    lw, la, lv, lg = params.lora_w, params.lora_a, params.lora_v, params.lora_g
    w = np.exp(-DECAY_GAIN * sigmoid(np.tanh(xw @ lw.A) @ lw.B + lw.bias)) if state_terms else None
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
        k_removal=k * params.k_k if state_terms else None,
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
    x_prev = np.concatenate([state.shift_tm[layer][None, :], X[:-1]])
    e = _compute_elements(X, x_prev, params, layer, v0_seq)
    state.shift_tm[layer] = X[-1]
    return e


def state_step(S_prev, e: ElementSet):
    """One delta-rule update.

    S_new = S_prev @ (diag(w) - khat^T (a * khat)) + v^T k_replace, applied
    independently per head; khat is the L2-normalized removal key. `e` holds
    one token's (d,) rows.
    """
    h = e.heads(S_prev.shape[0])
    khat, _ = _normalize_removal(h.k_removal)
    if not all(np.isfinite(x).all() for x in (h.w, h.a, h.v, h.k_replace, khat)):
        raise NumericError("non-finite element reached state_step")
    decayed = S_prev * h.w[:, None, :]
    removed = (S_prev @ khat[:, :, None]) * (h.a * khat)[:, None, :]
    written = h.v[:, :, None] * h.k_replace[:, None, :]
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


def _unit_lower_inverse(L):
    """(I - L)^-1 for strictly lower-triangular L (..., B, B), by block
    doubling. I + L inverts the diagonal 2-blocks; once the diagonal
    s-blocks A and D of a diagonal 2s-block are inverted, the lower-left
    block of its inverse is D C A, C being L's block there. So one level of
    batched matmuls per doubling inverts every matrix at once, B padded to
    a power of two with identity rows."""
    B = L.shape[-1]
    P = 1 << (B - 1).bit_length()
    if P == B:
        X = L.copy()
    else:
        X = np.zeros(L.shape[:-2] + (P, P), dtype=L.dtype)
        X[..., :B, :B] = L
    X.reshape(X.shape[:-2] + (P * P,))[..., :: P + 1] += 1  # I + L, on the diagonal only
    row, item = X.strides[-2], X.itemsize
    s = 2
    while s < P:
        # the diagonal 2s-blocks of X as one (..., P / 2s, 2s, 2s) view
        blocks = np.ndarray(X.shape[:-2] + (P // (2 * s), 2 * s, 2 * s), X.dtype, X, 0,
                            X.strides[:-2] + (2 * s * (row + item), row, item))
        np.matmul(blocks[..., s:, s:] @ blocks[..., s:, :s], blocks[..., :s, :s],
                  out=blocks[..., s:, :s])
        s *= 2
    return X[..., :B, :B]


def _prepare(w, khat, rw, brow, k_replace, v):
    """What chunk_readouts needs of sub-chunks of B tokens that does not read
    the state.

    The inputs are (..., H, B, K) views, v (..., H, B, V): no leading axis
    for one sub-chunk, (n,) for a run of n. Returns, each with the inputs'
    leading axes: q = [khat F1; r F2] (2B, K); (I - L)^-1 (B, B); the
    readout rows of the masked scores (B, 2B); [G v; v] (2B, V), where G v
    is the state-free part of m's right-hand side; the decay F2_B (1, K);
    and c * decay (2B, K), with c = [brow / F2; k_replace / F2].
    """
    *lead, B, K = w.shape
    # F[..., t, :] is the product of w over the steps before t: F1 drops the
    # last row, F2 the first
    F = np.empty((*lead, B + 1, K), dtype=w.dtype)
    F[..., 0, :] = 1
    # np.cumprod is this accumulate behind a slower dispatch
    np.multiply.accumulate(w, axis=-2, out=F[..., 1:, :])
    F1, F2 = F[..., :-1, :], F[..., 1:, :]
    # filled in place: stacking the rows first and reshaping the products
    # made tile-sized copies that page-faulted afresh on every call
    q = np.empty((*lead, 2, B, K), dtype=w.dtype)
    c = np.empty_like(q)
    np.multiply(khat, F1, out=q[..., 0, :, :])
    np.multiply(rw, F1, out=q[..., 1, :, :])
    np.divide(brow, F2, out=c[..., 0, :, :])
    np.divide(k_replace, F2, out=c[..., 1, :, :])
    q, c = q.reshape(*lead, 2 * B, K), c.reshape(*lead, 2 * B, K)
    scores = q @ c.swapaxes(-1, -2)
    scores *= _score_mask(B)
    inv = _unit_lower_inverse(scores[..., :B, :B])
    mv = np.empty((*lead, 2 * B, v.shape[-1]), dtype=v.dtype)
    mv[..., B:, :] = v
    np.matmul(scores[..., :B, B:], mv[..., B:, :], out=mv[..., :B, :])
    decay = F[..., -1:, :]
    c *= decay
    return q, inv, scores[..., B:, :], mv, decay, c


def _carry(S, prepared, y):
    """Carry S through one sub-chunk, given its _prepare outputs without a
    leading axis: writes the readouts into y (B, H, V), returns the new S."""
    q, inv, readout, mv, decay, c_decay = prepared
    B = inv.shape[-1]
    # readouts of the incoming state: the rows m is solved from, then the
    # outputs'
    qS = q @ S.transpose(0, 2, 1)
    rhs = qS[:, :B]
    rhs += mv[:, :B]
    np.matmul(inv, rhs, out=mv[:, :B])
    np.add(qS[:, B:], readout @ mv, out=y.transpose(1, 0, 2))
    return S * decay + mv.transpose(0, 2, 1) @ c_decay


def chunk_readouts(S_in, h: ElementSet, r_heads):
    """Chunk-parallel delta rule: readouts y_t = S_t r_t^T for every token of
    `h` (ElementSet.heads) and the final state, equal to repeated state_step.

    `r_heads` is (T, n_heads, head_dim); returns (y, S_out) with y shaped like
    `r_heads`. Tokens run in sub-chunks of DEFAULT_CHUNK steps, carrying the
    state across. Inside a sub-chunk this is the UT/WY form of the chunked
    delta rule (Yang et al., arXiv 2406.06484) with the decay
    made separable as in Gated Linear Attention (arXiv 2312.06635): with
    F2_t = w_0 ... w_t and F1_t = F2_{t-1}, a step-s write reaches step t's
    readout decayed by F1_t / F2_s (before step t's update) or F2_t / F2_s
    (after it). So the couplings L and G and both readout score matrices
    come from one masked matmul per head, [khat F1; r F2] times
    [brow / F2; k_replace / F2]^T, and the per-step readouts
    m_t = S_{t-1} khat_t^T solve the unit-lower-triangular system
    (I - L) m = q S^T + G v; no per-step state is built.

    Only the state carry is sequential. _prepare computes everything of a
    sub-chunk that does not read the state, (I - L)^-1 included; _carry
    then carries the state through it: q S^T, m as one matmul by
    (I - L)^-1, the readout and the state update. A call of at most
    DEFAULT_CHUNK tokens, as every streamed frame makes, is one sub-chunk:
    prepared on (H, B, K) views and carried once. A longer call prepares its
    full sub-chunks as one batched run, one batched inverse for all, and
    carries them in turn; a ragged tail is one sub-chunk more. Splitting a
    call at a sub-chunk boundary changes no output bit.
    Every w exceeds W_LOWER_BOUND, so 1/F2 < W_LOWER_BOUND ** -DEFAULT_CHUNK
    (about 2.7e8): no float32 overflow, and each ratio's rounding is relative.
    """
    T = h.w.shape[0]
    khat, norm = _normalize_removal(h.k_removal)
    # removal row of the transition: transition_t = diag(w_t) + khat_t^T brow_t
    brow = -(h.a / norm) * h.k_removal
    # r_t F2_t = (r_t w_t) F1_t, so both query rows scale by F1
    rows = (h.w, khat, r_heads * h.w, brow, h.k_replace, h.v)
    y = np.empty_like(r_heads)
    S = S_in
    full = T - T % DEFAULT_CHUNK if T > DEFAULT_CHUNK else 0
    if full:
        # (n B, H, K) rows -> (n, H, B, K) views
        run = _prepare(*(x[:full].reshape(-1, DEFAULT_CHUNK, *x.shape[1:]).swapaxes(1, 2) for x in rows))
        for at, prepared in zip(range(0, full, DEFAULT_CHUNK), zip(*run)):
            S = _carry(S, prepared, y[at:at + DEFAULT_CHUNK])
    if full < T:
        S = _carry(S, _prepare(*(x[full:].swapaxes(0, 1) for x in rows)), y[full:])
    return y, S


def sequential_readouts(S_in, h: ElementSet, r_heads):
    """Sequential reference for chunk_readouts, with the same arguments and
    returns: steps state_step token by token, each token's rows flattened
    back to (d,), and reads out y_t = S_t r_t^T."""
    y = np.empty_like(r_heads)
    S = S_in
    for t in range(h.w.shape[0]):
        S = state_step(S, ElementSet(**{f: x[t].reshape(-1) for f, x in vars(h).items()}))
        y[t] = np.einsum("hvk,hk->hv", S, r_heads[t])
    return y, S


def branch_readouts(S, h: ElementSet, r_heads):
    """Readouts y_i = S_i r_i^T with S_i = state_step(S, h_i), for every row
    i of `h` (ElementSet.heads) as its own next token after S; S itself is
    not advanced.

    `r_heads` is (M, n_heads, head_dim) and y is shaped like it. Expanding
    state_step gives y_i = S (w_i * r_i) - (S khat_i)(a_i khat_i . r_i)
    + v_i (k_replace_i . r_i), so no S_i is ever built. S None stands for a
    zero state, which leaves the last term alone: no state is read.
    """
    y = h.v * np.add.reduce(h.k_replace * r_heads, axis=-1, keepdims=True)
    if S is None:
        return y
    khat, _ = _normalize_removal(h.k_removal)

    def read(q):  # S q_i^T for every row: (H, V, K) @ (H, K, M) -> (M, H, V)
        return (S @ q.transpose(1, 2, 0)).transpose(2, 0, 1)

    return read(h.w * r_heads) - read(khat) * np.add.reduce(h.a * khat * r_heads, axis=-1, keepdims=True) + y


def time_mix_output(h: ElementSet, y, params: RwkvBlockParams):
    """Per-head LayerNorm, readout bonus, gate and output projection of the
    elements `h` (ElementSet.heads).

    `y` holds the raw state readouts S_t r_t, shaped (T, n_heads, head_dim);
    returns (T, d).
    """
    r_k = _split_heads(params.r_k, params.n_heads)
    p = _standardize(y).reshape(y.shape[0], params.d) * params.ln_out_w + params.ln_out_b
    bonus = np.add.reduce(h.r * (r_k * h.k_replace), axis=-1, keepdims=True) * h.v
    p = p + bonus.reshape(p.shape)
    if not np.isfinite(p).all():
        row = int(np.isfinite(p).all(axis=1).argmin())
        raise _BadRow("non-finite time-mix readout in row", row)
    return (h.g * p) @ params.W_o


def _ffn(X, x_prev, params: RwkvBlockParams):
    """Squared-ReLU feed-forward of the rows of X after token shift."""
    h = lerp(X, x_prev, params.mu_ffn) @ params.W_ffn_k
    # in place: a 512-token tile would otherwise allocate two more (T, h_ff)
    # temporaries, which the allocator returns to the OS and faults back in
    np.maximum(h, 0.0, out=h)
    return np.square(h, out=h) @ params.W_ffn_v


def channel_mix(X, params: RwkvBlockParams, state: RecurrentState, layer: int = 0):
    """Squared-ReLU channel mixing of the rows of X with its own token shift
    cache."""
    x_prev = np.concatenate([state.shift_cm[layer][None, :], X[:-1]])
    state.shift_cm[layer] = X[-1]
    return _ffn(X, x_prev, params)


# the recurrence each block_apply mode runs; nothing else differs
_RECURRENCES = {"sequential": sequential_readouts, "chunked": chunk_readouts}
# tokens per tile: forward_stack and block_absorb run each tile through every
# layer before the next, so the tile, not the sequence, sets the working set;
# all cross-token memory lives in `state`, so tiling changes no output bit
_CHUNK_TILE = 256


class _BadRow(NumericError):
    """A non-finite value in row `row` of a block's input; `what` names it."""

    def __init__(self, what: str, row: int):
        super().__init__(f"{what} {row}")
        self.what, self.row = what, row


def _in_tile(err: NumericError, layer: int, lo: int, hi: int) -> NumericError:
    """`err` of layer `layer` over tokens lo..hi-1, its row counted from 0."""
    detail = f"{err.what} {lo + err.row}" if isinstance(err, _BadRow) else err
    return NumericError(f"layer {layer}, tokens {lo}..{hi - 1}: {detail}")


def _block_tile(tokens, params: RwkvBlockParams, state: RecurrentState, layer: int, v0_seq,
                recur, outputs: bool = True):
    """One tile of a block: project, recur, read out, mix. A non-finite
    element or time-mix readout raises _BadRow with its row.

    With outputs False the tile only advances `state`: the channel-mix
    shift cache takes the last normed row, the feed-forward never runs and
    (None, None) comes back. The time-mix output still runs over every row:
    run for the last row alone, its matmuls round differently."""
    xn = layer_norm(tokens, params.ln1_w, params.ln1_b)
    e = project_elements_seq(xn, params, state, layer, v0_seq)
    # no name holds the stacked elements: kept alive through the tile, they
    # grew the heap, and a float32 2,048-token fuse_parallel took 4,528
    # page faults in place of 3,616
    parts = [e.r, e.w, e.k_removal, e.k_replace, e.v, e.a]
    if not np.isfinite(np.concatenate(parts, axis=1)).all():
        row = int(np.isfinite(np.concatenate(parts, axis=1)).all(axis=1).argmin())
        raise _BadRow("non-finite element in token", row)
    h = e.heads(params.n_heads)
    y, state.S[layer] = recur(state.S[layer], h, h.r)
    x = tokens + time_mix_output(h, y, params)
    xn2 = layer_norm(x, params.ln2_w, params.ln2_b)
    if not outputs:
        state.shift_cm[layer] = xn2[-1]
        return None, None
    return x + channel_mix(xn2, params, state, layer), e.v0


def _depth_first(tokens, blocks: list[RwkvBlockParams], state: RecurrentState, mode: str,
                 outputs: bool = True):
    """Run `blocks` over `tokens` depth first: each tile of up to _CHUNK_TILE
    tokens goes through every layer (block_apply, with the tile's layer-0
    values) before the next starts, then counts in state.tokens_seen.
    Returns the last layer's outputs; with outputs False the one block only
    advances `state`. A NumericError names the layer, the tile's token range
    and a bad token or readout row, counted over `tokens`."""
    out = np.empty_like(tokens) if outputs else None
    for lo in range(0, tokens.shape[0], _CHUNK_TILE):
        hi = min(lo + _CHUNK_TILE, tokens.shape[0])
        x, v0 = tokens[lo:hi], None
        for layer, params in enumerate(blocks):
            try:
                if outputs:
                    x, v0 = block_apply(x, params, state, layer, v0, mode)
                else:
                    _block_tile(x, params, state, layer, None, _RECURRENCES[mode], outputs)
            except NumericError as err:
                # block_apply named the rows of its tile: name them in `tokens`
                raise _in_tile(err.__cause__ or err, layer, lo, hi) from err
        if outputs:
            out[lo:hi] = x
        state.tokens_seen += hi - lo
    return out


def _token_rows(tokens, d: int):
    """`tokens` as a (T, d) array; an empty input becomes (0, d)."""
    tokens = np.asarray(tokens)
    if tokens.size == 0:
        tokens = tokens.reshape(0, d)
    if tokens.ndim != 2 or tokens.shape[1] != d:
        raise ShapeError(f"tokens must be (T, {d}), got {tokens.shape}")
    return tokens


def _check_stream(tokens, blocks: list[RwkvBlockParams], state: RecurrentState | None):
    """`tokens` as (T, d) rows, once they and `state` fit every block of the
    stack (one state layer per block, with the block's width, heads and
    dtype): ConfigError for an empty stack, ShapeError for a width, head or
    layer count, DataError for a dtype. A None state stands for a fresh one
    and fits any stack. Nothing has run yet, so a rejected call leaves
    `state` unchanged."""
    if not blocks:
        raise ConfigError("a stack needs at least one block")
    tokens = _token_rows(tokens, blocks[0].d)
    for p in blocks:
        if tokens.dtype != p.dtype:
            raise DataError(f"tokens are {tokens.dtype}, not the block's {p.dtype}")
        if state is not None:
            _check_layout(state.S, state.shift_tm, state.shift_cm, len(blocks), p.n_heads,
                          p.d // p.n_heads, p.dtype)
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
    The tokens run as one tile: forward_stack calls this once per tile and
    layer. `state.tokens_seen` is left to forward_stack, which counts a
    stack's tokens once. The tokens and layer `layer` of `state` are checked
    against the block first, as forward_stack checks a stack, so a rejected
    call leaves `state` unchanged.
    A NumericError names the layer, the token range and the row of a
    non-finite element or readout, counting from 0 in `tokens`.
    """
    if mode not in _RECURRENCES:
        raise ConfigError(f"unknown mode {mode!r}")
    n_layers = state.S.shape[0] if state.S.ndim == 4 else 0
    if not 0 <= layer < n_layers:
        raise ShapeError(f"layer {layer} is not one of the state's {n_layers} layers")
    tokens = _check_stream(tokens, [params], None)
    at = slice(layer, layer + 1)
    _check_layout(state.S[at], state.shift_tm[at], state.shift_cm[at], 1, params.n_heads,
                  params.d // params.n_heads, params.dtype)
    if tokens.shape[0] == 0:
        return tokens.copy(), tokens.copy()
    try:
        return _block_tile(tokens, params, state, layer, v0_seq, _RECURRENCES[mode])
    except NumericError as err:
        raise _in_tile(err, layer, 0, tokens.shape[0]) from err


def block_absorb(tokens, params: RwkvBlockParams, state: RecurrentState) -> None:
    """Advance `state` (layer 0) over `tokens` without the block's outputs.

    Leaves S, both shift caches and tokens_seen as block_forward(tokens,
    params, state, "chunked") leaves them, bit for bit, but never runs the
    channel-mix feed-forward, which feeds only the outputs. Checks and
    NumericError messages are those of block_forward.
    """
    _depth_first(_check_stream(tokens, [params], state), [params], state, "chunked", False)


def block_branch(tokens, params: RwkvBlockParams, state: RecurrentState | None = None):
    """Run every row of `tokens` through the block (layer 0 of `state`) as
    its own next token after `state`, leaving `state` untouched.

    Row i comes out as block_forward's last output over [the tokens `state`
    has seen; tokens[i]], so rows are independent of each other: permuting
    them permutes the outputs. All rows run batched, with no chunk solve
    (branch_readouts). A None state stands for a fresh all-zero one, which
    is neither allocated nor read, so neither the decay nor the removal key
    is computed. `tokens` and `state` are checked as
    forward_stack checks a one-block stack. A NumericError names the row.
    """
    tokens = _check_stream(tokens, [params], state)
    if state is None:
        zero = np.zeros(params.d, dtype=params.dtype)
        S, shift_tm, shift_cm = None, zero, zero
    else:
        S, shift_tm, shift_cm = state.S[0], state.shift_tm[0], state.shift_cm[0]
    try:
        xn = layer_norm(tokens, params.ln1_w, params.ln1_b)
        h = _compute_elements(xn, shift_tm, params, 0, None, S is not None).heads(params.n_heads)
        x = tokens + time_mix_output(h, branch_readouts(S, h, h.r), params)
        xn2 = layer_norm(x, params.ln2_w, params.ln2_b)
        return x + _ffn(xn2, shift_cm, params)
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
    """Run a stack of blocks depth first, tile by tile (_depth_first),
    threading the layer-0 value residual through and adding the consumed
    tokens to `state.tokens_seen`. Before any layer runs, `tokens`, `state`
    and `mode` are checked against every block."""
    tokens = _check_stream(tokens, blocks, state)
    if mode not in _RECURRENCES:
        raise ConfigError(f"unknown mode {mode!r}")
    return _depth_first(tokens, blocks, state, mode)
