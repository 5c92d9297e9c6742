"""Span tracer for the traced benchmark run.

Each layer's public entry point is wrapped at the module attribute its
caller resolves at call time (``decoder.attend`` is what ``decoder_layer``
calls, ``rwkv7.block_apply`` is what ``forward_stack`` and
``block_forward`` call), so the package itself is never edited. A span
records its name, start, end, parent span and the unit of work (op,
history or resume) it belongs to; spans stay in memory and are written out
when the run ends. Wrappers are installed only around traced rounds and
removed afterwards, so untraced rounds run the package's own functions.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

TARGETS = (
    ("rwkv7", "block_apply"),
    ("fusion", "fuse_step"),
    ("fusion", "fuse_parallel"),
    ("fusion", "assemble_bev"),
    ("cross_attn", "encode_query"),
    ("cross_attn", "cross_attend"),
    ("decoder", "decode"),
    ("decoder", "decoder_layer"),
    ("decoder", "attend"),
    ("decoder", "derive_agent_queries"),
    ("decoder", "cluster_anchors"),
    ("pdms", "score_trajectory"),
    ("pdms", "first_overlap_time"),
    ("pdms", "obb_overlap"),
    ("pdms", "arc_progress"),
    ("pdms", "point_in_polygon"),
    ("pdms", "comfort_ok"),
    ("snapshots", "save_state"),
    ("snapshots", "load_state"),
)


class Tracer:
    """Records spans and boundary counters while installed and recording."""

    def __init__(self, package):
        self._modules = {mod: getattr(package, mod) for mod, _ in TARGETS}
        self._originals = {}
        self.names = [f"{mod}.{attr}" for mod, attr in TARGETS]
        # [name index, parent span or -1, start_s, end_s, unit]
        self.spans: list[list] = []
        self.units: list[str] = []
        # boundary counters per unit kind: counts[kind][name]
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self.seen_features: set = set()
        self.recording = False

    def install(self) -> None:
        for name_idx, (mod, attr) in enumerate(TARGETS):
            module = self._modules[mod]
            original = getattr(module, attr)
            self._originals[(mod, attr)] = original
            setattr(module, attr, self._wrap(name_idx, original))

    def uninstall(self) -> None:
        for (mod, attr), original in self._originals.items():
            setattr(self._modules[mod], attr, original)
        self._originals.clear()

    def begin_unit(self, kind: str) -> None:
        """Start one unit of work; repeated features are counted per unit."""
        self.units.append(kind)
        self.seen_features.clear()
        self.recording = True

    def end_unit(self) -> None:
        self.recording = False

    def count(self, name: str, n: int) -> None:
        self.counts[self.units[-1]][name] += n

    def total(self, name: str, kinds) -> int:
        return sum(self.counts[kind][name] for kind in kinds)

    def _wrap(self, name_idx, fn):
        count = _COUNTERS.get(self.names[name_idx])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if count is not None:
                count(self, args)
            sid = len(self.spans)
            span = [name_idx, self._stack[-1] if self._stack else -1, 0.0, 0.0,
                    len(self.units) - 1]
            self.spans.append(span)
            self._stack.append(sid)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()

        return traced

    def summary(self, kinds) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name, over the
        spans of units whose kind is in `kinds`.

        Self time is a span's duration minus that of its direct children;
        one thread runs everything, so children never overlap.
        """
        child_s = [0.0] * len(self.spans)
        for name_idx, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, (name_idx, _, start, end, unit) in enumerate(self.spans):
            if self.units[unit] not in kinds:
                continue
            agg = out[self.names[name_idx]]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_s[sid]
        return out

    def write(self, path) -> None:
        payload = {
            "fields": ["name", "parent", "start_s", "end_s", "unit"],
            "names": self.names,
            "units": self.units,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _count_block_apply(tracer, args):
    tracer.count("rwkv7.block_apply.tokens", np.shape(args[0])[0])


def _count_cross_attend(tracer, args):
    features, q_enc, mixer = np.asarray(args[0]), args[1], args[2]
    n_feat = features.shape[0] if features.ndim == 2 else 0
    tracer.count("cross_attn.tokens", n_feat + q_enc.m)
    tracer.count("cross_attn.feature_tokens", n_feat)
    key = (id(mixer), features.shape, hash(features.tobytes()))
    if key in tracer.seen_features:
        tracer.count("cross_attn.repeated_feature_tokens", n_feat)
    tracer.seen_features.add(key)


def _count_decoder_layer(tracer, args):
    tracer.count("decoder.modes_refined", np.shape(args[0])[0])


def _count_obb_overlap(tracer, args):
    # one call tests every grid point against one agent
    tracer.count("pdms.obb_overlap.box_tests", np.shape(args[0])[0])


_COUNTERS = {
    "rwkv7.block_apply": _count_block_apply,
    "cross_attn.cross_attend": _count_cross_attend,
    "decoder.decoder_layer": _count_decoder_layer,
    "pdms.obb_overlap": _count_obb_overlap,
}
