"""Tests of the benchmark itself: job generation, checking and tracing.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


@pytest.fixture(scope="module")
def entries():
    from piseries import corpus
    return corpus.load_default()


@pytest.fixture(scope="module")
def by_id(entries):
    return {e.ident: e for e in entries}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs(workload, entries):
    assert jobs.unit(workload, 7, entries) == jobs.unit(workload, 7, entries)
    assert jobs.unit(workload, 7, entries) != jobs.unit(workload, 8, entries)


@pytest.mark.parametrize("workload", ["series-certify", "congruence-scan"])
def test_seed_changes_order_not_work(workload, entries):
    """Every seed runs the same jobs; each grid value equally often."""
    def work(unit):
        return sorted((j.stratum, j.idents, sorted(j.params.items()))
                      for j in unit)

    first = jobs.unit(workload, 1, entries)
    for seed in (2, 3):
        assert work(jobs.unit(workload, seed, entries)) == work(first)
    for stratum, (pool, grid) in jobs.plan(workload, entries).items():
        for key, values in grid.items():
            used = Counter(j.params[key] for j in first
                           if j.stratum == stratum)
            counts = [used[v] for v in values]
            assert sum(counts) == len(pool)
            assert max(counts) - min(counts) <= 1


def test_every_conjectural_job_has_a_recorded_outcome(entries):
    table = jobs.load_expected()
    missing = [k for k in jobs.expected_keys(entries) if k not in table]
    assert not missing


def _cheap_jobs():
    return [
        jobs.Job("series-certify", 0, "fast", ("1.2",), {"digits": 20}),
        jobs.Job("congruence-scan", 1, "integrality", ("Z1-n",),
                 {"n_max": 32}),
        jobs.Job("congruence-scan", 2, "quadform", ("8-1-q",),
                 {"p_max": 50}),
        jobs.Job("congruence-scan", 3, "dual-term", ("dt-t",),
                 {"p_max": 50}),
        jobs.Job("discover", 4, "fast", ("f-320",), {"digits": 60}),
    ]


def _outcomes(by_id, table, traced):
    tr = tracing.Tracer(tracing.default_targets()) if traced else None
    if tr is not None:
        tr.install()
    try:
        out = []
        for job in _cheap_jobs():
            _, rows = jobs.execute(job, by_id, table, set(),
                                   time.perf_counter)
            out += [(r.ident, r.outcome, r.expected) for r in rows]
    finally:
        if tr is not None:
            tr.restore()
    return out, tr


def test_registry_batch_checks_every_row(by_id):
    job = jobs.Job("registry-run", 0, "batch",
                   ("1.2", "Z1-n", "dt-t", "8-1-q"),
                   dict(jobs.REGISTRY_PARAMS))
    wall, rows = jobs.execute(job, by_id, jobs.load_expected(), set(),
                              time.perf_counter)
    assert [r.ident for r in rows] == list(job.idents)
    assert all(r.ok for r in rows) and wall > 0
    assert "PASS" in {r.outcome for r in rows}


def test_tracing_keeps_outcomes_and_restores_attributes(by_id):
    table = jobs.load_expected()
    targets = tracing.default_targets()
    before = {(t.module, t.attr): getattr(
        importlib.import_module(f"piseries.{t.module}"), t.attr)
        for t in targets}
    plain, _ = _outcomes(by_id, table, traced=False)
    traced, tr = _outcomes(by_id, table, traced=True)
    assert plain == traced
    assert all(o == e for _, o, e in plain)
    for (module, attr), fn in before.items():
        assert getattr(importlib.import_module(f"piseries.{module}"),
                       attr) is fn
    metrics = tracing.layer_metrics(tr.spans, tr.counts, 2)
    assert metrics["quadform.dispatch.calls"][0] > 0
    assert metrics["relation.pslq.calls"][0] == 1
    assert metrics["relation.pslq.found_ratio"][0] == 1.0
    assert metrics["congruence.check_integrality.busy_s"][0] > 0
    assert metrics["sereval.term_value.calls"][0] > 0


def test_self_time_on_hand_built_tree():
    S = tracing.Span
    spans = [
        S("corpus.run", 0.0, 10.0, None),
        S("sereval.eval_series", 1.0, 4.0, 0),
        S("seqkit.table", 2.0, 3.0, 1),
        S("congruence.verify_claim", 3.5, 6.0, 0),   # overlaps sibling
        S("seqkit.table", 8.0, 12.0, 0),              # runs past parent
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - (6.0 - 1.0) - (10.0 - 8.0), 2.0, 1.0, 2.5, 4.0])
    m = tracing.layer_metrics(spans, {}, 2)
    assert m["corpus.self_s"][0] == pytest.approx(3.0)
    assert m["seqkit.self_s"][0] == pytest.approx(5.0)
    assert m["seqkit.table.busy_s"][0] == pytest.approx(5.0)


def test_nested_same_name_spans_count_once_in_busy_time():
    S = tracing.Span
    spans = [S("sereval.constant", 0.0, 5.0, None),
             S("sereval.constant", 1.0, 3.0, 0)]
    m = tracing.layer_metrics(spans, {}, 2)
    assert m["sereval.constant.calls"][0] == 2
    assert m["sereval.constant.busy_s"][0] == pytest.approx(5.0)


def test_p90_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(99)), 0.9) is None
    values = list(range(100))
    p90 = run.percentile(values, 0.9)
    assert p90 == 89
    assert sum(v > p90 for v in values) == 10
    unit = {"results": [["x", "s", {}, "PASS", "PASS", 0.001, False, True]]
            * 40, "wall_s": 0.04, "setup_s": 1.0, "ref_s": 0.002,
            "peak_rss_mb": 1.0}
    assert "job_p90_ms" not in run.end_to_end([unit, unit])
    assert "job_p90_ms" in run.end_to_end([unit, unit, unit])


def test_times_are_divided_by_the_host_slowdown():
    rows = [["x", "s", {}, "PASS", "PASS", 0.004, False, True]] * 10
    unit = {"results": rows, "wall_s": 0.04, "setup_s": 1.0,
            "ref_s": 2 * run.REF_SLICE_S, "peak_rss_mb": 5.0}
    raw = run.end_to_end([unit], scaled=False)
    scaled = run.end_to_end([unit])
    assert raw["jobs_per_s"][0] == pytest.approx(250.0)
    assert scaled["jobs_per_s"][0] == pytest.approx(500.0)
    assert scaled["job_p50_ms"][0] == pytest.approx(2.0)
    assert scaled["setup_s"][0] == pytest.approx(0.5)
    assert scaled["peak_rss_mb"][0] == raw["peak_rss_mb"][0] == 5.0


def test_wrong_expected_outcome_counts_as_error(by_id, capsys):
    job = jobs.Job("congruence-scan", 0, "integrality", ("Z1-n",),
                   {"n_max": 32})
    table = dict(jobs.load_expected())
    right = table[job.key("Z1-n")]
    table[job.key("Z1-n")] = "SUPPORTED" if right == "FAIL" else "FAIL"
    _, rows = jobs.execute(job, by_id, table, set(), time.perf_counter)
    assert not rows[0].ok
    out = {"results": [[r.ident, r.stratum, r.params, r.outcome, r.expected,
                        r.seconds, r.seen, r.ok] for r in rows],
           "wall_s": 1.0, "setup_s": 1.0, "ref_s": 0.002,
           "peak_rss_mb": 1.0}
    doc = run.report("congruence-scan", 0, {}, [out])
    assert doc["failed"] == 1 and doc["attempted"] == 1
    assert doc["correct"] is False
    assert "error_rate: 1.0000" in capsys.readouterr().out
