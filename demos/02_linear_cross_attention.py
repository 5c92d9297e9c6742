"""Cross-attention without an attention matrix.

Eight query tokens read a feature sequence in two steps: the features
stream into the mixing block's recurrent state once (the feature state),
then every query runs as its own next token after that state. Cost grows
linearly with feature length, and the queries are independent of each
other: bumping one query moves only its own output.
"""

import time

import numpy as np

from lindrive.cross_attn import (
    QuerySet,
    cross_attend,
    encode_query,
    feature_state,
    random_cross_attn_params,
    read_state,
)
from lindrive.rwkv7 import random_block_params


def main():
    d, m = 32, 8
    params = random_cross_attn_params(d, seed=3)
    rng = np.random.default_rng(4)
    queries = QuerySet(rng.standard_normal((m, d)))

    q_enc = encode_query(queries, params.encoder)
    features = rng.standard_normal((200, d))
    out = cross_attend(features, q_enc, params.mixer)
    print(f"{features.shape[0]} feature tokens + {m} queries -> {out.m} outputs")

    # the features matter: perturbing one feature channel moves the queries
    bumped = features.copy()
    bumped[57, 3] += 1.0
    moved = cross_attend(bumped, q_enc, params.mixer)
    print(f"perturbing one feature component moves outputs by "
          f"{np.max(np.abs(moved.tokens - out.tokens)):.2e}")

    # ... but no query affects another, before or after it
    bq = QuerySet(q_enc.tokens.copy())
    bq.tokens[5] += 1.0
    out2 = cross_attend(features, bq, params.mixer)
    others = np.arange(m) != 5
    untouched = np.array_equal(out2.tokens[others], out.tokens[others])
    print(f"queries 0..4 and 6..7 invariant to a bump of query 5: {untouched}")
    perm = rng.permutation(m)
    shuffled = cross_attend(features, QuerySet(q_enc.tokens[perm]), params.mixer)
    print(f"shuffling the queries shuffles the outputs: "
          f"{np.array_equal(shuffled.tokens, out.tokens[perm])}")

    # one feature state serves any number of reads
    state = feature_state(features, params.mixer)
    again = read_state(state, q_enc, params.mixer)
    print(f"reading a prebuilt feature state gives the same outputs: "
          f"{np.array_equal(again.tokens, out.tokens)}")

    # linear cost in feature length
    p16 = random_block_params(16, seed=5)
    q16 = QuerySet(np.random.default_rng(6).standard_normal((m, 16)))
    enc16 = QuerySet(q16.tokens)  # skip the encoder, time the mixing block
    print("\nfeature length vs wall time (median of 5):")
    for L in (256, 512, 1024, 2048):
        feats = np.random.default_rng(L).standard_normal((L, 16))
        cross_attend(feats, enc16, p16)
        reps = []
        for _ in range(5):
            t0 = time.perf_counter()
            cross_attend(feats, enc16, p16)
            reps.append(time.perf_counter() - t0)
        t = float(np.median(reps))
        print(f"  L={L:5d}: {t * 1e3:7.2f} ms   {t / (L + m) * 1e6:5.1f} us/token")


if __name__ == "__main__":
    main()
