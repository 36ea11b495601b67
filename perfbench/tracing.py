"""Spans around sievenorm's public functions, recorded from outside the package.

Each function is wrapped at the module attribute where its caller looks it
up: ``experiments`` and ``quadrature`` import names such as
``grid_eval_sequence`` directly, so patching ``sievenorm.expsum`` alone would
miss every call.  Spans stay in memory with a link to their parent span and
are written out once, after the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time

#: Traced function -> (modules whose attribute the callers look up, what to count).
#: A module that no longer holds the name is skipped, so a moved import shows as
#: missing counts rather than a crash.
WRAPPED = {
    "arith.coefficient_sequence": (("experiments",), None),
    "expsum.grid_eval_kernel": (("experiments", "quadrature"), "kernel_grid"),
    "expsum.grid_eval_sequence": (("experiments", "quadrature"), "grid"),
    "expsum.eval_sequence": (("largesieve", "expsum"), "points"),
    "quadrature.l1_norm": (("experiments",), "l1"),
    "largesieve.build_point_set": (("experiments",), "point_set"),
    "largesieve.large_sieve_check": (("experiments",), None),
    "experiments.mobius_ramanujan_weighted_sum": (("experiments",), None),
}


def _largest_prime_factor(m: int) -> int:
    largest, p = 1, 2
    while p * p <= m:
        while m % p == 0:
            largest, m = p, m // p
        p += 1
    return max(largest, m)


def _counts(kind, args, result) -> dict:
    if kind == "grid":
        return {"samples": result.M}
    if kind == "kernel_grid":
        return {"samples": result.M, "kind": result.spec.kind}
    if kind == "points":
        return {"point_terms": len(result) * args[0].N}
    if kind == "l1":
        return {"grids": len(result.grids), "converged": bool(result.converged)}
    if kind == "point_set":
        return {"points": len(result)}
    return {}


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, fn, count_kind=None):
        """``fn`` wrapped so that each call records a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(count_kind, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, (lookups, count_kind) in WRAPPED.items():
            for module in lookups:
                mod = importlib.import_module(f"sievenorm.{module}")
                attr = name.rsplit(".", 1)[1]
                original = getattr(mod, attr, None)
                if original is None:
                    continue
                setattr(mod, attr, self.span(name, original, count_kind))

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def dump(self, path) -> None:
        own = self.self_times()
        doc = [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "duration": s.duration,
                "self": own[s.id],
                "counts": s.counts,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(doc) + "\n")


def call_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to the call itself, measured on a no-op."""

    def noop():
        return None

    wrapped = Tracer().span("calibration", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def layer_metrics(tracer: Tracer, root: int) -> dict:
    """Per-layer totals from the spans below the ``root`` span (the suite run)."""
    own = tracer.self_times()
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def total(name, key=None):
        return sum(s.counts.get(key, 0) if key else s.duration for s in spans(name))

    def self_total(name):
        return sum(own[s.id] for s in spans(name))

    kernel, seq = "expsum.grid_eval_kernel", "expsum.grid_eval_sequence"
    evals, l1 = "expsum.eval_sequence", "quadrature.l1_norm"
    seq_calls = len(spans(seq))
    l1_calls = len(spans(l1))
    eval_ms = [s.duration * 1e3 for s in spans(evals)]
    top = [s for s in tracer.spans if s.parent == root]
    return {
        "arith.coefficient_sequence.calls": len(spans("arith.coefficient_sequence")),
        "arith.coefficient_sequence.s": total("arith.coefficient_sequence"),
        f"{kernel}.calls": len(spans(kernel)),
        f"{kernel}.s": total(kernel),
        f"{kernel}.samples": total(kernel, "samples"),
        f"{kernel}.k_part3.s": sum(
            s.duration for s in spans(kernel) if s.counts.get("kind") == "k_part3"
        ),
        f"{seq}.calls": seq_calls,
        f"{seq}.s": total(seq),
        f"{seq}.samples": total(seq, "samples"),
        f"{seq}.smooth_len_frac": (
            sum(_largest_prime_factor(s.counts["samples"]) <= 7 for s in spans(seq)) / seq_calls
            if seq_calls
            else 0.0
        ),
        f"{evals}.calls": len(eval_ms),
        f"{evals}.s": total(evals),
        f"{evals}.point_terms": total(evals, "point_terms"),
        f"{evals}.p50_ms": _quantile(eval_ms, 0.50),
        f"{evals}.p99_ms": _quantile(eval_ms, 0.99),
        f"{l1}.calls": l1_calls,
        f"{l1}.self_s": self_total(l1),
        f"{l1}.grids": total(l1, "grids"),
        f"{l1}.converged_frac": (
            sum(s.counts["converged"] for s in spans(l1)) / l1_calls if l1_calls else 0.0
        ),
        "largesieve.build_point_set.calls": len(spans("largesieve.build_point_set")),
        "largesieve.build_point_set.s": total("largesieve.build_point_set"),
        "largesieve.build_point_set.points": total("largesieve.build_point_set", "points"),
        "largesieve.large_sieve_check.self_s": self_total("largesieve.large_sieve_check"),
        "experiments.mobius_ramanujan_weighted_sum.s": total(
            "experiments.mobius_ramanujan_weighted_sum"
        ),
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": len(tracer.spans) * call_cost(),
        "trace.attributed_frac": sum(s.duration for s in top) / tracer.spans[root].duration,
    }
