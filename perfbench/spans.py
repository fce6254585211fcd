"""Spans recorded by the benchmark around the program's layer boundaries.

The wrappers are installed from the benchmark's side; nothing in the program
changes.  Coarse calls (``cli.main``, the polynomial builders, the shape
predicates, the verifiers) each get a span: name, layer, start, end, parent
and job id.  Per-element calls (stream ``next``, the statistics, and
``ColoredPermutation.canonical_rep``) run millions of times, so they are not
spans of their own: their call count and time are added to the enclosing
span, which keeps the trace small and the overhead per element low.

A span's self time is its duration minus the part of it that child spans
cover and minus the per-element time it encloses.
"""
from __future__ import annotations

import resource
from dataclasses import dataclass, field
from time import perf_counter

CLI = "cli"
BUILD = "enumeration.build"
POLY = "poly"
VERIFY = "enumeration.verify"
STREAM = "enumeration.stream"
STATS = "stats"
CANONICAL = "core.canonical_rep"
JOB = "job"

BUILDERS = ("stat_report", "flag_table", "colored_eulerian",
            "flag_eulerian_quotient", "flag_eulerian_full")
PREDICATES = {"is_palindromic": "poly.palindromic", "is_unimodal": "poly.unimodal",
              "is_real_rooted": "poly.real_rooted"}
STAT_FUNCTIONS = ("flag_descent", "reversal_map", "colored_descent_count")


@dataclass
class Span:
    id: int
    parent: int | None
    job: str
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    # per-element work enclosed: layer -> [calls, seconds, elements]
    agg: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "job": self.job,
                "name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "attrs": self.attrs, "agg": self.agg}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._job = ""

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._job, name, layer, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def run_job(self, job_id: str, fn, *args):
        self._job = job_id
        span = self.open(job_id, JOB)
        try:
            return fn(*args)
        finally:
            self.close(span)

    def _add(self, layer: str, seconds: float, elements: int) -> None:
        if not self._stack:
            return
        rec = self._stack[-1].agg.get(layer)
        if rec is None:
            self._stack[-1].agg[layer] = [1, seconds, elements]
        else:
            rec[0] += 1
            rec[1] += seconds
            rec[2] += elements

    # -- wrappers -----------------------------------------------------------

    def span(self, fn, name: str, layer: str, attrs=None):
        def wrapper(*args, **kwargs):
            span = self.open(name, layer)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.attrs["rss_growth_kb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss)
            if attrs is not None:
                attrs(span, args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def per_element(self, fn, layer: str):
        add = self._add

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                add(layer, perf_counter() - t0, 0)
        wrapper.__wrapped__ = fn
        return wrapper

    def stream(self, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            return it if isinstance(it, _Stream) else _Stream(it, self._add)
        wrapper.__wrapped__ = fn
        return wrapper


class _Stream:
    """Times each ``next`` of a program stream; the time is the stream's
    (element construction included), the consumer's work between calls is
    not."""

    __slots__ = ("_it", "_add")

    def __init__(self, it, add) -> None:
        self._it = it
        self._add = add

    def __iter__(self):
        return self

    def __next__(self):
        t0 = perf_counter()
        try:
            item = next(self._it)
        except StopIteration:
            self._add(STREAM, perf_counter() - t0, 0)
            raise
        self._add(STREAM, perf_counter() - t0, 1)
        return item


def _build_attrs(span: Span, args, result) -> None:
    # StatReport builders cover their domain's exact cardinality; flag_table
    # returns polynomials and its rows are counted by its child spans.
    span.attrs["elements"] = getattr(result, "cardinality", 0)


def _poly_attrs(span: Span, args, result) -> None:
    coefficients = args[0].coefficients
    span.attrs["degree"] = len(coefficients) - 1
    span.attrs["coeff_bits"] = max(abs(c).bit_length() for c in coefficients)
    span.attrs["result"] = bool(result)


def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries: the names ``cli`` imports from
    ``enumeration``, the builders, predicates, streams and statistics that
    ``enumeration`` calls through its module namespace, the shape predicates
    in ``poly``, and ``ColoredPermutation.canonical_rep``."""
    from wreath_eulerian import cli, core, enumeration, poly

    cli.main = tracer.span(cli.main, "cli.main", CLI)
    for module in (cli, enumeration):
        for name in BUILDERS:
            if hasattr(module, name):
                setattr(module, name, tracer.span(getattr(module, name), name,
                                                  BUILD, _build_attrs))
        for name in dir(module):
            if name.startswith("verify_"):
                setattr(module, name, tracer.span(getattr(module, name), name, VERIFY))
    for module in (enumeration, poly):
        for name, label in PREDICATES.items():
            setattr(module, name, tracer.span(getattr(module, name), label,
                                              POLY, _poly_attrs))
    for name in dir(enumeration):
        if name.startswith("iterate_"):
            setattr(enumeration, name, tracer.stream(getattr(enumeration, name)))
    for name in STAT_FUNCTIONS:
        setattr(enumeration, name, tracer.per_element(getattr(enumeration, name), STATS))
    core.ColoredPermutation.canonical_rep = tracer.per_element(
        core.ColoredPermutation.canonical_rep, CANONICAL)


# ---------------------------------------------------------------------------
# Analysis of a finished trace (span dicts as written out)

def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        inner = covered(s["start"], s["end"], children.get(s["id"], []))
        per_element = sum(rec[1] for rec in s["agg"].values())
        out[s["id"]] = s["end"] - s["start"] - inner - per_element
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers from one traced pass; shares are of total job
    time (the sum of the job spans)."""
    selfs = self_times(spans)
    job_s = sum(s["end"] - s["start"] for s in spans if s["layer"] == JOB)

    def self_of(layer: str) -> float:
        return sum(selfs[s["id"]] for s in spans if s["layer"] == layer)

    def agg(layer: str) -> tuple[int, float, int]:
        calls = secs = elements = 0
        for s in spans:
            rec = s["agg"].get(layer)
            if rec:
                calls += rec[0]
                secs += rec[1]
                elements += rec[2]
        return calls, secs, elements

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    by_id = {s["id"]: s for s in spans}

    def outermost(layer: str) -> list[dict]:
        return [s for s in spans if s["layer"] == layer and
                (s["parent"] is None or by_id[s["parent"]]["layer"] != layer)]

    build_self = self_of(BUILD)
    elements = sum(s["attrs"].get("elements", 0) for s in spans if s["layer"] == BUILD)
    poly_spans = [s for s in spans if s["layer"] == POLY]
    rr = named("poly.real_rooted")
    stream_calls, stream_s, stream_elements = agg(STREAM)
    stats_calls, stats_s, _ = agg(STATS)
    canon_calls, canon_s, _ = agg(CANONICAL)
    verify = [s for s in spans if s["layer"] == VERIFY]
    return {
        "cli.self_s": self_of(CLI),
        "cli.share": ratio(self_of(CLI), job_s),
        "enumeration.build.calls": len(outermost(BUILD)),
        "enumeration.build.self_s": build_self,
        "enumeration.build.elements": elements,
        "enumeration.build.ns_per_element": ratio(build_self * 1e9, elements),
        "enumeration.build.share": ratio(build_self, job_s),
        "poly.real_rooted.calls": len(rr),
        "poly.real_rooted.s": sum(s["end"] - s["start"] for s in rr),
        "poly.real_rooted.s_max": max((s["end"] - s["start"] for s in rr), default=0.0),
        "poly.real_rooted.true_share": ratio(sum(s["attrs"]["result"] for s in rr), len(rr)),
        "poly.palindromic.s": sum(s["end"] - s["start"] for s in named("poly.palindromic")),
        "poly.unimodal.s": sum(s["end"] - s["start"] for s in named("poly.unimodal")),
        "poly.degree_max": max((s["attrs"]["degree"] for s in poly_spans), default=0),
        "poly.coeff_bits_max": max((s["attrs"]["coeff_bits"] for s in poly_spans), default=0),
        "poly.share": ratio(self_of(POLY), job_s),
        "enumeration.stream.elements": stream_elements,
        "enumeration.stream.s": stream_s,
        "enumeration.stream.us_per_element": ratio(stream_s * 1e6, stream_elements),
        "enumeration.stream.share": ratio(stream_s, job_s),
        "enumeration.verify.calls": len(outermost(VERIFY)),
        "enumeration.verify.self_s": self_of(VERIFY),
        "enumeration.verify.rss_growth_mb": max(
            (s["attrs"].get("rss_growth_kb", 0) / 1024 for s in verify), default=0.0),
        "stats.calls": stats_calls,
        "stats.s": stats_s,
        "stats.share": ratio(stats_s, job_s),
        "core.canonical_rep.calls": canon_calls,
        "core.canonical_rep.s": canon_s,
        "core.share": ratio(canon_s, job_s),
        "trace.job_s": job_s,
    }
