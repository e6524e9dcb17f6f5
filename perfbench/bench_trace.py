"""Spans recorded from outside airylab, around the calls into each layer.

A Tracer replaces module bindings (for example ``airylab.sao.tridiagonal_eigenvalues``,
the name ``sao_spectrum`` looks up at call time) with wrappers that record a
span per call plus per-call counts, and puts the originals back on exit.
Spans stay in memory; the runner writes them out when the run ends.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a top-level span
    trace_id: int  # the round the span belongs to
    start: float
    end: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its child spans cover.

    Calls are single-threaded, so children nest inside their parent and do not
    overlap each other; the covered part is the sum of child durations.
    """
    child_total = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_total[span.parent] += span.end - span.start
    return [span.end - span.start - covered for span, covered in zip(spans, child_total)]


def covered_time(spans: list[Span]) -> float:
    """Time inside any span: top-level spans never overlap one another."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


def _airy_counts(args, kwargs, result):
    xs = np.asarray(args[0], dtype=float)
    return {"points": xs.size,
            "points_mid": int(np.count_nonzero(np.abs(xs) <= 8.0)),
            "points_pos": int(np.count_nonzero(xs > 8.0)),
            "points_neg": int(np.count_nonzero(xs < -8.0))}


def _tridiagonal_counts(args, kwargs, result):
    return {"order": np.asarray(args[0]).size, "eigs": np.asarray(result).size}


def _riccati_counts(args, kwargs, result):
    return {"cells": np.asarray(args[0]).size}


def _weight_health(args, kwargs, result):
    """Kish ESS share and largest weight share of the log values passed in."""
    logs = np.asarray(args[0], dtype=float)
    if logs.size == 0 or not np.isfinite(logs.max()):
        return {}
    w = np.exp(logs - logs.max())
    total = float(w.sum())
    return {"ess_share": total * total / float((w * w).sum()) / logs.size,
            "max_weight_share": float(w.max()) / total,
            "weighted_calls": 1}


# (module, attribute, layer, counter): every binding through which the
# benchmark or airylab itself reaches a measured layer.
BINDINGS = [
    ("airylab.hill", "tridiagonal_eigenvalues", "hill.tridiagonal_eigenvalues", _tridiagonal_counts),
    ("airylab.sao", "tridiagonal_eigenvalues", "hill.tridiagonal_eigenvalues", _tridiagonal_counts),
    ("airylab.hill", "riccati_cell_counts", "hill.riccati_cell_counts", _riccati_counts),
    ("airylab.sao", "riccati_cell_counts", "hill.riccati_cell_counts", _riccati_counts),
    ("airylab.hill", "hill_spectrum", "hill.hill_spectrum", None),
    ("airylab.airy", "ai_values", "airy.ai_values", _airy_counts),
    ("airylab.fredholm", "ai_values", "airy.ai_values", _airy_counts),
    ("airylab.fredholm", "fredholm_det", "fredholm.fredholm_det", None),
    ("airylab.fredholm", "sample_sao2_spectra", "fredholm.sample_sao2_spectra", None),
    ("airylab.fredholm", "airy_product_estimate", "fredholm.airy_product_estimate", None),
    ("airylab.sao", "sao_spectrum", "sao.sao_spectrum", None),
    ("airylab.fredholm", "sao_spectrum", "sao.sao_spectrum", None),
    ("airylab.sao", "ldp_estimate", "sao.ldp_estimate", None),
    ("airylab.mc", "estimate_from_log_samples", "mc.estimate_from_log_samples", _weight_health),
    ("airylab.sao", "estimate_from_log_samples", "mc.estimate_from_log_samples", _weight_health),
    ("airylab.mc", "spawn_rng", "mc.spawn_rng", None),
    ("airylab.sao", "spawn_rng", "mc.spawn_rng", None),
    ("airylab.fredholm", "spawn_rng", "mc.spawn_rng", None),
    ("airylab.wkb", "wkb_compare", "wkb.wkb_compare", None),
]


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    trace_id: int = 0
    _stack: list[int] = field(default_factory=list)

    def wrap(self, layer: str, fn, counter=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(layer, self._stack[-1] if self._stack else -1, self.trace_id, 0.0)
            self.spans.append(span)
            self._stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            layer_counts = self.counts[layer]
            layer_counts["calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    layer_counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, bindings=BINDINGS):
        """Swap every binding for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, layer, counter in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self) -> dict:
        """Self time and counts per layer, summed over every recorded span."""
        totals = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span.name]["self_s"] += own
        for layer, layer_counts in self.counts.items():
            totals[layer].update(layer_counts)
        return totals

    def dump(self) -> list[dict]:
        return [{"name": s.name, "parent": s.parent, "trace_id": s.trace_id,
                 "start": s.start, "end": s.end} for s in self.spans]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(totals: dict, rounds: int) -> dict:
    """Per-layer metrics per traced round, named as in BENCHMARK.json."""
    def get(layer, key):
        return totals.get(layer, {}).get(key, 0.0)

    def per_round(layer, key):
        return get(layer, key) / rounds

    tri, airy, det, ric = ("hill.tridiagonal_eigenvalues", "airy.ai_values",
                           "fredholm.fredholm_det", "hill.riccati_cell_counts")
    mc = "mc.estimate_from_log_samples"
    weighted = get(mc, "weighted_calls")
    return {
        f"{tri}.calls": (per_round(tri, "calls"), "count"),
        f"{tri}.order": (_ratio(get(tri, "order"), get(tri, "calls")), "rows"),
        f"{tri}.eigs": (_ratio(get(tri, "eigs"), get(tri, "calls")), "count"),
        f"{tri}.self_s": (per_round(tri, "self_s"), "s"),
        f"{tri}.ms_per_call": (_ratio(get(tri, "self_s"), get(tri, "calls"), 1e3), "ms"),
        f"{airy}.calls": (per_round(airy, "calls"), "count"),
        f"{airy}.points": (per_round(airy, "points"), "count"),
        f"{airy}.points_mid": (per_round(airy, "points_mid"), "count"),
        f"{airy}.points_pos": (per_round(airy, "points_pos"), "count"),
        f"{airy}.points_neg": (per_round(airy, "points_neg"), "count"),
        f"{airy}.self_s": (per_round(airy, "self_s"), "s"),
        f"{airy}.ns_per_point": (_ratio(get(airy, "self_s"), get(airy, "points"), 1e9), "ns"),
        f"{det}.calls": (per_round(det, "calls"), "count"),
        f"{det}.self_s": (per_round(det, "self_s"), "s"),
        f"{det}.ms_per_call": (_ratio(get(det, "self_s"), get(det, "calls"), 1e3), "ms"),
        "fredholm.sample_sao2_spectra.self_s": (per_round("fredholm.sample_sao2_spectra", "self_s"), "s"),
        "fredholm.airy_product_estimate.self_s": (per_round("fredholm.airy_product_estimate", "self_s"), "s"),
        f"{ric}.cells": (per_round(ric, "cells"), "count"),
        f"{ric}.self_s": (per_round(ric, "self_s"), "s"),
        f"{ric}.ns_per_cell": (_ratio(get(ric, "self_s"), get(ric, "cells"), 1e9), "ns"),
        "hill.hill_spectrum.self_s": (per_round("hill.hill_spectrum", "self_s"), "s"),
        "sao.sao_spectrum.self_s": (per_round("sao.sao_spectrum", "self_s"), "s"),
        "sao.ldp_estimate.self_s": (per_round("sao.ldp_estimate", "self_s"), "s"),
        f"{mc}.self_s": (per_round(mc, "self_s"), "s"),
        "mc.spawn_rng.calls": (per_round("mc.spawn_rng", "calls"), "count"),
        "mc.ess_share": (_ratio(get(mc, "ess_share"), weighted), "fraction"),
        "mc.max_weight_share": (_ratio(get(mc, "max_weight_share"), weighted), "fraction"),
        "wkb.wkb_compare.calls": (per_round("wkb.wkb_compare", "calls"), "count"),
        "wkb.wkb_compare.self_s": (per_round("wkb.wkb_compare", "self_s"), "s"),
    }

