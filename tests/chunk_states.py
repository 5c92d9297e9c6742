"""Per-step states recovered from the production chunk kernel.

chunk_readouts never materialises the per-step states S_t; it returns the
readouts y_t = S_t r_t. Reading out with the basis vector r_t = e_k for every
t returns column k of every S_t, so head_dim calls rebuild all states as the
kernel computes them. The tests compare those against repeated state_step.
"""

import numpy as np

from lindrive.rwkv7 import chunk_readouts


def chunk_states(S_in, e):
    """(states, S_out): states[t] is the per-head state after token t."""
    H, hd, _ = S_in.shape
    cols = []
    for k in range(hd):
        basis = np.zeros((e.r.shape[0], H, hd), dtype=e.r.dtype)
        basis[..., k] = 1.0
        y, S_out = chunk_readouts(S_in, e.heads(H), basis)
        cols.append(y)
    return np.stack(cols, axis=-1), S_out
