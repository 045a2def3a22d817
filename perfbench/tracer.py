"""Span tracer that wraps piseries functions by replacing module attributes.

The tracer is installed from outside the package: each target function is
swapped for a wrapper on its module, so calls from other modules and calls
inside the same module (which resolve through module globals) both pass
through it.  ``restore`` puts every original back.

A span records its name, start, end, parent span and job id.  Each thread
keeps its own parent stack; a span opened on a thread with an empty stack
(a worker of ``corpus.run``'s thread pool) takes the innermost open span of
the installing thread as its parent, so the pool's work nests under the
``corpus.run`` call that submitted it.

Spans stay in memory; :func:`layer_metrics` turns them into per-layer
numbers, and :meth:`Tracer.dump` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The seven measured layers; ``cli`` is argument parsing only.
MODULES = ("corpus", "seqkit", "sereval", "congruence", "quadform",
           "exactid", "relation")

#: exactid functions whose calls make up ``exactid.calls`` and ``busy_s``.
EXACTID_CHECKS = ("check_family", "check_sun_finite_step",
                  "check_franel_transform", "check_sn_expansion",
                  "check_skl_bound")

#: Functions whose report lists the primes a congruence check tested.
PRIME_REPORTS = ("congruence.verify_claim", "congruence.check_duality_sum",
                 "congruence.check_duality_term",
                 "quadform.verify_quadform_claim")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: object = None
    cpu: float = 0.0          # process CPU seconds inside, when recorded


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module.attr`` recorded under ``name``.

    ``mode`` is ``span`` (timed span), ``cpu`` (span that also records
    process CPU time) or ``count`` (call count only, for hot functions).
    """

    module: str
    attr: str
    name: str
    mode: str = "span"


def default_targets() -> List[Target]:
    """The public entry points of every layer, plus the second binding of
    ``term_value`` that ``congruence`` holds."""
    t = [
        Target("corpus", "parse_registry", "corpus.parse_registry"),
        Target("corpus", "run", "corpus.run", "cpu"),
        Target("corpus", "_run_entry", "corpus.run_entry"),
        Target("seqkit", "table", "seqkit.table"),
        Target("seqkit", "memo_table", "seqkit.memo_table"),
        Target("sereval", "eval_series", "sereval.eval_series"),
        Target("sereval", "tail_bound", "sereval.tail_bound"),
        Target("sereval", "constant", "sereval.constant"),
        Target("sereval", "eval_rhs", "sereval.eval_rhs"),
        Target("sereval", "verify_series_identity",
               "sereval.verify_series_identity"),
        Target("sereval", "term_value", "sereval.term_value", "count"),
        Target("congruence", "term_value", "sereval.term_value", "count"),
        Target("congruence", "truncated_sum_mod",
               "congruence.truncated_sum_mod"),
        Target("congruence", "truncated_sum_exact",
               "congruence.truncated_sum_exact"),
        Target("congruence", "verify_claim", "congruence.verify_claim"),
        Target("congruence", "check_pn_refinement",
               "congruence.check_pn_refinement"),
        Target("congruence", "check_integrality",
               "congruence.check_integrality"),
        Target("congruence", "check_duality_sum",
               "congruence.check_duality_sum"),
        Target("congruence", "check_duality_term",
               "congruence.check_duality_term"),
        Target("quadform", "dispatch", "quadform.dispatch"),
        Target("quadform", "represent", "quadform.represent", "count"),
        Target("quadform", "verify_quadform_claim",
               "quadform.verify_quadform_claim"),
        Target("quadform", "check_partition", "quadform.check_partition"),
        Target("relation", "pslq", "relation.pslq"),
        Target("relation", "rediscover", "relation.rediscover"),
    ]
    t += [Target("exactid", f, f"exactid.{f}") for f in EXACTID_CHECKS]
    return t


class Tracer:
    """Wraps target functions while installed; usable as a context manager."""

    def __init__(self, targets: Sequence[Target]):
        self.targets = list(targets)
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.job: object = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []
        self._main_stack: List[int] = []
        self._built: Dict[object, int] = {}   # sequence kind -> max index

    # ---- install / restore ------------------------------------------------

    def install(self) -> "Tracer":
        import importlib
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        for t in self.targets:
            module = importlib.import_module(f"piseries.{t.module}")
            orig = getattr(module, t.attr)
            self._saved.append((module, t.attr, orig))
            setattr(module, t.attr, self._wrap(orig, t))
        return self

    def restore(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # ---- recording --------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name = target.name
        if target.mode == "count":
            counts, lock = self.counts, self._lock

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with lock:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        with_cpu = target.mode == "cpu"
        tags_job = name == "corpus.run_entry"
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            local_job = getattr(self._local, "job", None)
            job = local_job if local_job is not None else self.job
            if tags_job and args:
                job = self._local.job = f"{self.job}/{args[0].ident}"
            span = Span(name, 0.0, 0.0, parent, job)
            with self._lock:
                sid = len(self.spans)
                self.spans.append(span)
            stack.append(sid)
            cpu0 = cpu_clock() if with_cpu else 0.0
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                if with_cpu:
                    span.cpu = cpu_clock() - cpu0
                stack.pop()
                if tags_job:
                    self._local.job = local_job
            self._observe(name, result)
            return result
        return spanned

    def _observe(self, name: str, result) -> None:
        """Counters read off return values, at the boundary that made them."""
        counts = self.counts
        with self._lock:
            if name == "seqkit.table":
                built = self._built
                rows = result.n_max + 1
                counts["seqkit.table.rows_built"] += rows
                prev = built.get(result.kind, -1)
                counts["seqkit.table.rows_rebuilt"] += min(prev,
                                                           result.n_max) + 1
                built[result.kind] = max(prev, result.n_max)
            elif name in PRIME_REPORTS:
                counts["congruence.primes_tested"] += len(result.tested)
            elif name == "congruence.check_pn_refinement":
                counts["congruence.primes_tested"] += len(
                    {p for p, _ in result.checked})
            elif name == "relation.pslq":
                counts["relation.pslq.found"] += result.status == "FOUND"

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.name, s.start, s.end, s.parent,
                                     s.job]) + "\n")


# --------------------------------------------------------------------------
# span arithmetic
# --------------------------------------------------------------------------

def _covered(intervals: Iterable[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def _outermost(spans: Sequence[Span]) -> List[bool]:
    """True for spans with no ancestor of the same name (so inclusive time
    of a recursive function such as ``sereval.constant`` counts once)."""
    out = []
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        out.append(p is None)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span], counts: Dict[str, int],
                  nproc: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics ``<module>.<function>.<stat>`` from one traced run.

    ``busy_s`` is inclusive span time, counting nested spans of the same
    name once.  A ratio whose base is zero (layer not reached) reads 0.
    """
    counts = defaultdict(int, counts)
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    outer = _outermost(spans)
    for s, top in zip(spans, outer):
        calls[s.name] += 1
        if top:
            busy[s.name] += s.end - s.start
    module_self: Dict[str, float] = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        module_self[s.name.split(".", 1)[0]] += st

    has_child: Dict[int, set] = defaultdict(set)
    for s in spans:
        if s.parent is not None:
            has_child[s.parent].add(s.name)
    memo_hits = sum(1 for i, s in enumerate(spans)
                    if s.name == "seqkit.memo_table"
                    and "seqkit.table" not in has_child[i])
    fallbacks = sum(1 for i, s in enumerate(spans)
                    if s.name == "congruence.truncated_sum_mod"
                    and "congruence.truncated_sum_exact" in has_child[i])
    run_wall = sum(s.end - s.start for s in spans if s.name == "corpus.run")
    run_cpu = sum(s.cpu for s in spans if s.name == "corpus.run")
    exactid_names = [f"exactid.{f}" for f in EXACTID_CHECKS]

    m: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (value, unit)

    put("corpus.parse_registry.busy_s", busy["corpus.parse_registry"], "s")
    put("corpus.run.calls", calls["corpus.run"], "count")
    put("corpus.run.busy_s", busy["corpus.run"], "s")
    put("corpus.run.cpu_util", _ratio(run_cpu, run_wall * nproc), "ratio")
    put("seqkit.table.calls", calls["seqkit.table"], "count")
    put("seqkit.table.busy_s", busy["seqkit.table"], "s")
    put("seqkit.table.rows_built", counts["seqkit.table.rows_built"], "count")
    put("seqkit.table.rebuilt_ratio",
        _ratio(counts["seqkit.table.rows_rebuilt"],
               counts["seqkit.table.rows_built"]), "ratio")
    put("seqkit.memo_table.calls", calls["seqkit.memo_table"], "count")
    put("seqkit.memo_table.hit_ratio",
        _ratio(memo_hits, calls["seqkit.memo_table"]), "ratio")
    for f in ("eval_series", "tail_bound", "constant",
              "verify_series_identity"):
        put(f"sereval.{f}.calls", calls[f"sereval.{f}"], "count")
        put(f"sereval.{f}.busy_s", busy[f"sereval.{f}"], "s")
    put("sereval.tail_bound.per_eval",
        _ratio(calls["sereval.tail_bound"], calls["sereval.eval_series"]),
        "ratio")
    put("sereval.term_value.calls", counts["sereval.term_value"], "count")
    put("sereval.eval_rhs.busy_s", busy["sereval.eval_rhs"], "s")
    for f in ("truncated_sum_mod", "truncated_sum_exact"):
        put(f"congruence.{f}.calls", calls[f"congruence.{f}"], "count")
        put(f"congruence.{f}.busy_s", busy[f"congruence.{f}"], "s")
    put("congruence.exact_fallback_ratio",
        _ratio(fallbacks, calls["congruence.truncated_sum_mod"]), "ratio")
    put("congruence.primes_tested", counts["congruence.primes_tested"],
        "count")
    for f in ("verify_claim", "check_pn_refinement", "check_integrality",
              "check_duality_sum", "check_duality_term"):
        put(f"congruence.{f}.busy_s", busy[f"congruence.{f}"], "s")
    put("quadform.dispatch.calls", calls["quadform.dispatch"], "count")
    put("quadform.dispatch.busy_s", busy["quadform.dispatch"], "s")
    put("quadform.represent.calls", counts["quadform.represent"], "count")
    for f in ("verify_quadform_claim", "check_partition"):
        put(f"quadform.{f}.busy_s", busy[f"quadform.{f}"], "s")
    put("exactid.calls", sum(calls[n] for n in exactid_names), "count")
    put("exactid.busy_s", sum(busy[n] for n in exactid_names), "s")
    put("relation.pslq.calls", calls["relation.pslq"], "count")
    put("relation.pslq.busy_s", busy["relation.pslq"], "s")
    put("relation.pslq.found_ratio",
        _ratio(counts["relation.pslq.found"], calls["relation.pslq"]),
        "ratio")
    put("relation.rediscover.busy_s", busy["relation.rediscover"], "s")
    for mod in MODULES:
        put(f"{mod}.self_s", module_self[mod], "s")
    return m
