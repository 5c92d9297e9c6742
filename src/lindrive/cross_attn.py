"""Linear cross-attention.

M query tokens attend to L feature tokens at cost linear in L + M, in two
steps. feature_state reads the features into a fresh recurrent state of the
mixing block with one chunk-parallel pass (rwkv7.chunk_readouts), computing
only the state: the mixer's outputs over the features are never read, so
its feed-forward does not run on them (rwkv7.block_absorb). read_state then
runs every query through the mixer as its own single next token after that
state (rwkv7.block_branch). The queries are independent: query i sees the
features and itself, never another query, so permuting the queries permutes
the outputs, and one feature state serves any number of reads.
encode_query is the same branch step of the encoder block from a zero
state, which it neither allocates nor reads. No attention matrix exists.

Every step runs in the dtype of its block's parameters; features or
queries in another dtype raise DataError. Each call starts from a fresh
state, so the functions are pure and independent calls may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .rwkv7 import RecurrentState, RwkvBlockParams, block_absorb, block_branch


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
    """One block that encodes the queries, one that mixes features into them."""

    encoder: RwkvBlockParams
    mixer: RwkvBlockParams

    @property
    def d(self) -> int:
        return self.mixer.d


def encode_query(
    q: QuerySet,
    enc_params: RwkvBlockParams,
) -> QuerySet:
    """Encode every query on its own with one block, from a zero state."""
    return QuerySet(block_branch(q.tokens, enc_params))


def feature_state(features, mixer: RwkvBlockParams) -> RecurrentState:
    """Read the feature tokens into a fresh state of the mixing block: one
    chunk-parallel pass, cost linear in L. The state equals the one the
    mixer's chunked block_forward leaves, bit for bit."""
    state = RecurrentState.zeros(mixer.d, mixer.n_heads, dtype=mixer.dtype)
    block_absorb(features, mixer, state)
    return state


def read_state(
    state: RecurrentState,
    q_enc: QuerySet,
    mixer: RwkvBlockParams,
) -> QuerySet:
    """Let every encoded query read a feature state as its own next token;
    the state is not changed, so it can serve any number of reads."""
    return QuerySet(block_branch(q_enc.tokens, mixer, state))


def cross_attend(
    features,
    q_enc: QuerySet,
    xattn_params: RwkvBlockParams,
) -> QuerySet:
    """Let the encoded queries read the feature tokens.

    Reads the features into a feature state, then every query reads that
    state; cost is linear in L + M. The queries are independent: output i
    depends on the features and on query i alone, and equals the last
    output of the mixing block run over [features; query i].
    """
    return read_state(feature_state(features, xattn_params), q_enc, xattn_params)


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
