"""Run one unit of a workload in this (fresh) process; print one JSON line.

    python3 perfbench/worker.py --workload W --seed N [--traced] \
        [--spans PATH]

``run.py`` starts this with ``src`` on ``PYTHONPATH``.  The process pays
the import and registry parse first, as a command-line user does, and
reports that time as ``setup_s``; then it runs the unit's jobs one after
the other (``registry-run``: its one batch).  With ``--traced`` the layer
functions are wrapped before the registry is parsed and the per-layer
metrics are added to the output.

Around and between the jobs the process times a fixed reference loop
(``reference_slice``, no ``piseries`` code in it) and reports the median as
``ref_s``; ``run.py`` uses it to put units that ran while the host was
slower or faster on one scale.  ``registry-run``'s unit is one long batch,
so there a sampler thread times the loop while the batch runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import tracer as tracing  # noqa: E402


#: The reference loop runs at least this often between jobs (seconds), and
#: ``REF_EDGE`` times before set-up and after the last job.
REF_EVERY_S = 0.1
REF_EDGE = 5


def reference_slice(clock=time.perf_counter) -> float:
    """Seconds taken by a fixed interpreter-bound integer loop (~2 ms)."""
    start = clock()
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
    return clock() - start


class Sampler(threading.Thread):
    """Times ``reference_slice`` every ``REF_EVERY_S`` until stopped.

    It holds the GIL for one slice (~2 ms) per period, about 2 % of the
    time the batch's pool threads share it.
    """

    def __init__(self, refs: list):
        super().__init__(daemon=True)
        self.refs, self.halt = refs, threading.Event()

    def run(self) -> None:
        while not self.halt.wait(REF_EVERY_S):
            self.refs.append(reference_slice())

    def stop(self) -> None:
        self.halt.set()
        self.join()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    clock = time.perf_counter
    refs = [reference_slice(clock) for _ in range(REF_EDGE)]
    t0 = clock()
    import piseries.corpus as corpus
    import piseries.relation  # noqa: F401  (imported as a user's run would)

    tr = None
    if args.traced:
        tr = tracing.Tracer(tracing.default_targets()).install()
    entries = corpus.load_default()
    setup_s = clock() - t0

    by_id = {e.ident: e for e in entries}
    table = jobs.load_expected()
    seen: set = set()
    walls, results = [], []
    last_ref = clock()
    sampler = None
    if args.workload == "registry-run":
        sampler = Sampler(refs)
        sampler.start()
    try:
        for job in jobs.unit(args.workload, args.seed, entries):
            if sampler is None and clock() - last_ref >= REF_EVERY_S:
                refs.append(reference_slice(clock))
                last_ref = clock()
            if tr is not None:
                tr.job = job.index
            wall, rows = jobs.execute(job, by_id, table, seen, clock)
            walls.append(wall)
            results.extend(rows)
    finally:
        if sampler is not None:
            sampler.stop()
        if tr is not None:
            tr.restore()
    refs += [reference_slice(clock) for _ in range(REF_EDGE)]

    out = {
        "setup_s": setup_s,
        "wall_s": sum(walls),
        "ref_s": statistics.median(refs),
        "results": [[r.ident, r.stratum, r.params, r.outcome, r.expected,
                     r.seconds, r.seen, r.ok] for r in results],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tr is not None:
        metrics = tracing.layer_metrics(tr.spans, tr.counts,
                                        os.cpu_count() or 1)
        metrics["trace.spans"] = (len(tr.spans), "count")
        out["metrics"] = metrics
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tr.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
