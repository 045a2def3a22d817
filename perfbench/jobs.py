"""Seeded jobs, expected outcomes and job execution for the four workloads.

A workload's *unit* is the list of jobs one fresh process runs.  It holds
every entry of every stratum pool exactly once.  Each entry's parameters
are fixed: the stratum's parameter grid is dealt out over its pool in
registry order, so every grid value goes to equally many entries.  The
seed sets the order in which the jobs run.  So the heavy entries are in
every unit, and every seed runs the same work: which entry meets which
parameters moved a unit's latency percentiles by up to 30 % between
seeds when the seed chose it.

Jobs reach ``piseries`` only through its public entry points,
``corpus.run`` and ``relation.rediscover``; this module imports it lazily
so that ``run.py`` can use the module without importing the program.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("series-certify", "congruence-scan", "registry-run", "discover")

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: A job slower than this (seconds) counts as wrong, like a wrong outcome.
JOB_DEADLINE_S = 30.0

# ---- series-certify --------------------------------------------------------

#: Series whose term envelope ratio theta is at least 3/4, so direct
#: summation needs many terms, or 1 (the Euler-transform path).  Their cold
#: cost is dominated by growing ``seqkit.memo_table``.
BOUNDARY_SERIES = (
    "II3p", "IV14p", "S1", "5.13", "5.12", "cooper-f4", "7.5", "IV18p",
    "5.9", "III7p", "III2p", "III1p", "6.4", "IV20p", "I3p", "6.8", "II5p",
    "I3pp", "5.1", "6.1", "1.1", "1.2", "1.2-catalan", "1.78", "1.79",
    "aux-2", "g-20", "7.1", "7.11", "w5",
)

#: Series left out of every workload because one cold job alone takes more
#: than 1 s at the lowest digits their stratum uses (12 for theta >= 3/4)
#: and so cannot be covered in every run; measured costs are in README.md.
OVER_BUDGET_SERIES = ("II4p", "8.1", "5.20", "5.23", "S2", "IV15p", "5.24",
                      "II11p", "III9p", "7.3", "w2")

SERIES_DIGITS = {"fast": (20, 30, 40), "boundary": (12, 15)}

# ---- congruence-scan -------------------------------------------------------

CONGRUENCE_STRATA = ("fast", "exact", "quadform", "dual", "dual-term",
                     "refinement", "integrality")
CONGRUENCE_PMAX = (50, 75, 100)
REFINEMENT_NMAX = (2, 3)
INTEGRALITY_NMAX = (32, 48, 64)

# ---- registry-run ----------------------------------------------------------

#: The strata of the one ``corpus.run`` batch: SERIES split into the two
#: convergence strata and CONGRUENCE into its check paths.
REGISTRY_STRATA = ("SERIES/fast", "SERIES/boundary", "CONGRUENCE/fast",
                   "CONGRUENCE/exact", "CONGRUENCE/quadform",
                   "CONGRUENCE/dual", "CONGRUENCE/dual-term",
                   "CONGRUENCE/refinement", "INTEGRALITY/integrality",
                   "FINITE_IDENTITY/finite", "SKIP/skip")
REGISTRY_PARAMS = {"digits": 12, "p_max": 80, "n_max": 2}

# ---- discover --------------------------------------------------------------

#: discover uses fast series only (cold rediscovery of the boundary series
#: S1 or S2 at 60 digits takes over 8 s) and leaves out those whose cold
#: rediscovery takes over 1.2 s at 60-80 digits.  The digits stay close
#: together because a job's cold cost jumps with the table size its digits
#: need (S5: 0.09 s at 70 digits, 0.96 s at 80).
DISCOVER_DIGITS = (60, 62, 64)
DISCOVER_OVER_BUDGET = ("5.17", "7.10", "7.7", "5.4", "5.5", "5.3")
DISCOVER_MAX_NORM = 10 ** 6


# --------------------------------------------------------------------------
# pools
# --------------------------------------------------------------------------

def congruence_path(entry) -> str:
    """Which check an INTEGRALITY/CONGRUENCE entry takes in ``corpus.run``.

    Plain truncated-sum claims are ``fast`` when the modular fast path
    applies to every prime and ``exact`` when the sum goes through exact
    rationals (denominator factors, a ``g_k(x)`` sequence, or ``lhs-mul``).
    """
    if entry.kind == "INTEGRALITY":
        return "integrality"
    if entry.quadform is not None:
        return "quadform"
    if entry.duality is not None:
        return "dual"
    if entry.dual_term is not None:
        return "dual-term"
    if entry.check == "refinement":
        return "refinement"
    spec = entry.claim.spec
    exact = (entry.claim.lhs_ppow or spec.den
             or any(kind.tag == "GPOLY" for kind, _ in spec.seq))
    return "exact" if exact else "fast"


def _discover_vector(entry) -> Optional[Tuple[int, ...]]:
    """Primitive integer vector (w1, w0, -q) of a degree-1 weight series
    whose closed form is a single q*sqrt(d)*INV_PI, else None."""
    series = entry.series
    if series is None or len(series.spec.weight) != 2 \
            or len(series.rhs.addends) != 1 \
            or series.rhs.addends[0][2] != "INV_PI":
        return None
    w0, w1 = series.spec.weight
    vec = [Fraction(w1), Fraction(w0), -Fraction(series.rhs.addends[0][0])]
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def pools(entries: Sequence) -> Dict[str, List[str]]:
    """Entry ids per ``<workload-stratum>`` key, in registry order."""
    out: Dict[str, List[str]] = {}

    def add(key: str, ident: str) -> None:
        out.setdefault(key, []).append(ident)

    by_id = {e.ident: e for e in entries}
    for ident in BOUNDARY_SERIES:
        if ident not in by_id:
            raise KeyError(f"boundary series {ident!r} not in the registry")
    for e in entries:
        if e.kind == "SERIES" and e.ident not in OVER_BUDGET_SERIES:
            stratum = "boundary" if e.ident in BOUNDARY_SERIES else "fast"
            add(f"series/{stratum}", e.ident)
            if stratum == "fast" and e.series is not None \
                    and _discover_vector(e) is not None \
                    and e.ident not in DISCOVER_OVER_BUDGET:
                add("discover/fast", e.ident)
        elif e.kind in ("CONGRUENCE", "INTEGRALITY"):
            add(f"congruence/{congruence_path(e)}", e.ident)
        elif e.kind == "FINITE_IDENTITY":
            add("finite/finite", e.ident)
        elif e.kind == "SKIP":
            add("skip/skip", e.ident)
    return out


# --------------------------------------------------------------------------
# job generation
# --------------------------------------------------------------------------

@dataclass
class Job:
    workload: str
    index: int
    stratum: str
    idents: Tuple[str, ...]
    params: Dict[str, int] = field(default_factory=dict)

    def key(self, ident: str) -> str:
        """Expected-table key: the id plus the parameters the job passes."""
        return ident + "@" + ",".join(f"{k}={v}"
                                      for k, v in sorted(self.params.items()))


def plan(workload: str, entries: Sequence) -> Dict[str, tuple]:
    """Per stratum: (entry pool, parameter grid)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    pool = pools(entries)
    if workload == "series-certify":
        return {s: (pool[f"series/{s}"], {"digits": d})
                for s, d in SERIES_DIGITS.items()}
    if workload == "congruence-scan":
        grid = {"refinement": {"n_max": REFINEMENT_NMAX},
                "integrality": {"n_max": INTEGRALITY_NMAX}}
        return {s: (pool[f"congruence/{s}"],
                    grid.get(s, {"p_max": CONGRUENCE_PMAX}))
                for s in CONGRUENCE_STRATA}
    if workload == "discover":
        return {"fast": (pool["discover/fast"], {"digits": DISCOVER_DIGITS})}
    source = {"SERIES": "series", "FINITE_IDENTITY": "finite",
              "SKIP": "skip", "CONGRUENCE": "congruence",
              "INTEGRALITY": "congruence"}
    grid = {k: (v,) for k, v in REGISTRY_PARAMS.items()}
    return {s: (pool[source[s.split("/")[0]] + "/" + s.split("/")[1]], grid)
            for s in REGISTRY_STRATA}


def unit(workload: str, seed: int, entries: Sequence) -> List[Job]:
    """The jobs of one unit: every pooled entry once, in a seeded order.

    ``registry-run``'s unit is one job, a single ``corpus.run`` batch.
    """
    out: List[Job] = []
    for stratum, (pool, grid) in plan(workload, entries).items():
        names = sorted(grid)
        combos = list(itertools.product(*(grid[k] for k in names)))
        for i, ident in enumerate(pool):
            out.append(Job(workload, 0, stratum, (ident,),
                           dict(zip(names, combos[i % len(combos)]))))
    random.Random(f"{workload}:{seed}").shuffle(out)
    if workload == "registry-run":
        return [Job(workload, 0, "batch",
                    tuple(i for j in out for i in j.idents),
                    dict(REGISTRY_PARAMS))]
    for index, job in enumerate(out):
        job.index = index
    return out


def expected_keys(entries: Sequence) -> Dict[str, Tuple[str, Dict[str, int]]]:
    """Every (conjectural entry, parameters) pair any job can produce,
    keyed as in the expected table."""
    by_id = {e.ident: e for e in entries}
    keys = {}
    for workload in WORKLOADS:
        if workload == "discover":
            continue
        for pool, grid in plan(workload, entries).values():
            names = sorted(grid)
            for values in itertools.product(*(grid[k] for k in names)):
                params = dict(zip(names, values))
                job = Job(workload, 0, "", (), params)
                for ident in pool:
                    e = by_id[ident]
                    if e.status == "conjectural" and e.kind != "SKIP":
                        keys[job.key(ident)] = (ident, params)
    return keys


# --------------------------------------------------------------------------
# expected outcomes
# --------------------------------------------------------------------------

def load_expected() -> Dict[str, str]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["outcomes"]


def expected_outcome(entry, job: Job, table: Dict[str, str]) -> Optional[str]:
    """What a correct run reports for this entry and these parameters.

    A SKIP entry reports SKIPPED and a proven entry PASS; a conjectural
    entry reports what was recorded at the commit that defined the
    benchmark (None when nothing was recorded, which counts as wrong).
    """
    if entry.kind == "SKIP":
        return "SKIPPED"
    if entry.status == "proven":
        return "PASS"
    return table.get(job.key(entry.ident))


def discover_expected(entry) -> str:
    vec = _discover_vector(entry)
    return "FOUND" if max(abs(c) for c in vec) <= DISCOVER_MAX_NORM \
        else "NOT FOUND"


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

@dataclass
class Result:
    """One checked sample: an entry's outcome and its latency."""

    ident: str
    stratum: str
    params: Dict[str, int]
    outcome: str
    expected: Optional[str]
    seconds: float
    seen: bool           # the entry already ran earlier in this process

    @property
    def ok(self) -> bool:
        return (self.outcome == self.expected
                and self.seconds <= JOB_DEADLINE_S)


def execute(job: Job, by_id: Dict[str, object], table: Dict[str, str],
            seen: set, clock) -> Tuple[float, List[Result]]:
    """Run one job; return its wall time and one checked result per row.

    Closed-loop jobs are timed here around the call; ``registry-run``
    rows carry the ``ReportRow.seconds`` the program reports.
    """
    from piseries import corpus

    entries = [by_id[i] for i in job.idents]
    was_seen = [i in seen for i in job.idents]
    seen.update(job.idents)
    if job.workload == "registry-run":
        start, error = clock(), None
        try:
            rows = {r.ident: (r.outcome, r.seconds)
                    for r in corpus.run(entries, **job.params).rows}
        except Exception as exc:  # every row of a raising batch is wrong
            rows = {}
            error = f"error: {exc!r}"
        wall = clock() - start
        results = []
        for e, s in zip(entries, was_seen):
            outcome, seconds = rows.get(e.ident, (error, wall))
            results.append(Result(e.ident, registry_stratum(e), job.params,
                                  outcome, expected_outcome(e, job, table),
                                  seconds, s))
        return wall, results
    entry = entries[0]
    start = clock()
    try:
        if job.workload == "discover":
            outcome = _discover(entry, job.params["digits"])
            expected = discover_expected(entry)
        else:
            outcome = corpus.run([entry], **job.params).rows[0].outcome
            expected = expected_outcome(entry, job, table)
    except Exception as exc:  # a raising job is a wrong job, not a crash
        outcome, expected = f"error: {exc!r}", None
    wall = clock() - start
    return wall, [Result(entry.ident, job.stratum, job.params, outcome,
                         expected, wall, was_seen[0])]


def registry_stratum(entry) -> str:
    """``<kind>/<stratum>`` of an entry as ``REGISTRY_STRATA`` names it."""
    if entry.kind == "SERIES":
        return "SERIES/" + ("boundary" if entry.ident in BOUNDARY_SERIES
                            else "fast")
    if entry.kind in ("CONGRUENCE", "INTEGRALITY"):
        return f"{entry.kind}/{congruence_path(entry)}"
    return {"FINITE_IDENTITY": "FINITE_IDENTITY/finite",
            "SKIP": "SKIP/skip"}[entry.kind]


def _discover(entry, digits: int) -> str:
    """FOUND when the confirmed relation is proportional to the registry's
    (w1, w0, -q); NOT FOUND when no relation came back; WRONG otherwise."""
    from piseries import relation

    d = entry.series.rhs.addends[0][1]
    cand = relation.rediscover(entry.series.spec, [(d, "INV_PI")],
                               digits=digits, max_norm=DISCOVER_MAX_NORM)
    if cand is None:
        return "NOT FOUND"
    want = _discover_vector(entry)
    got = list(cand.coeffs)
    proportional = all(got[i] * want[0] == want[i] * got[0]
                       for i in range(len(want)))
    return "FOUND" if proportional and cand.confirmed else "WRONG"
