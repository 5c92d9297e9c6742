"""Linear cross-attention.

M query tokens attend to L feature tokens at cost linear in L + M: the
queries are first self-encoded by one RWKV-7 block, then the concatenated
sequence [features; queries] runs through a second block whose recurrent
state carries feature information forward into the query positions. The
last M outputs are the cross-attended queries. No attention matrix exists.
Both blocks always run chunk-parallel (rwkv7.chunk_readouts).

Both operations use a fresh recurrent state per call, so they are pure
functions of their inputs and independent calls may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .rwkv7 import RecurrentState, RwkvBlockParams, block_forward


@dataclass
class QuerySet:
    """A bundle of M query tokens of width d."""

    tokens: np.ndarray  # (M, d)

    def __post_init__(self):
        self.tokens = np.atleast_2d(np.asarray(self.tokens))
        if self.tokens.shape[0] < 1:
            raise ShapeError("a QuerySet needs at least one token")

    @property
    def m(self) -> int:
        return self.tokens.shape[0]

    @property
    def d(self) -> int:
        return self.tokens.shape[1]


@dataclass
class CrossAttnParams:
    """One encoder block for the queries, one block for the joint pass."""

    encoder: RwkvBlockParams
    mixer: RwkvBlockParams

    @property
    def d(self) -> int:
        return self.mixer.d


def encode_query(
    q: QuerySet,
    enc_params: RwkvBlockParams,
) -> QuerySet:
    """Self-encode the queries' positional dependencies with one block."""
    if q.d != enc_params.d:
        raise ShapeError(f"query width {q.d} != block width {enc_params.d}")
    state = RecurrentState.zeros(
        enc_params.d, enc_params.n_heads, dtype=q.tokens.dtype
    )
    out, _ = block_forward(q.tokens, enc_params, state, "chunked")
    return QuerySet(out)


def cross_attend(
    features,
    q_enc: QuerySet,
    xattn_params: RwkvBlockParams,
) -> QuerySet:
    """Let the encoded queries read the feature tokens.

    Runs [features; queries] through the mixing block from a fresh state and
    returns the last M outputs. Cost is linear in L + M. The recurrence is
    strictly causal: query position i never sees query positions > i.
    """
    features = np.asarray(features)
    if features.size == 0:
        features = features.reshape(0, q_enc.d)
    if features.ndim != 2 or features.shape[1] != q_enc.d:
        raise ShapeError(
            f"features must be (L, {q_enc.d}), got {features.shape}"
        )
    if q_enc.d != xattn_params.d:
        raise ShapeError(
            f"query width {q_enc.d} != block width {xattn_params.d}"
        )
    seq = np.vstack([features, q_enc.tokens])
    state = RecurrentState.zeros(
        xattn_params.d, xattn_params.n_heads, dtype=seq.dtype
    )
    out, _ = block_forward(seq, xattn_params, state, "chunked")
    return QuerySet(out[-q_enc.m:])


def attend(
    features,
    q: QuerySet,
    params: CrossAttnParams,
) -> QuerySet:
    """encode_query then cross_attend, the usual composite."""
    return cross_attend(features, encode_query(q, params.encoder), params.mixer)


def random_cross_attn_params(
    d: int, n_heads: int = 1, *, seed: int, dtype=np.float64
) -> CrossAttnParams:
    from .rwkv7 import random_block_params

    return CrossAttnParams(
        encoder=random_block_params(d, n_heads, seed=seed, dtype=dtype),
        mixer=random_block_params(d, n_heads, seed=seed + 1, dtype=dtype),
    )
