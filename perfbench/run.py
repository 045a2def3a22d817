"""piseries benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

A run is a series of *units*: each unit is a fresh worker process that
imports ``piseries``, parses the bundled registry and runs the workload's
unit of jobs (every pooled entry once, see ``jobs.unit``).  Every unit of a
run has the same jobs, so the metrics are medians over units of identical
work.

Times are reported at a reference host speed.  A shared host can go
through slow and fast stretches lasting tens of seconds (on the 2-vCPU VM
the benchmark was built on, a unit's throughput moved by 30-40 % between
them); every worker also times a fixed integer loop that runs no
``piseries`` code (``worker.reference_slice``), and each unit's times are
divided by its ``slowdown``, the median loop time over ``REF_SLICE_S``.
A change to ``piseries`` moves the reported times as it moves the raw
ones; the raw medians are printed in the report lines.

``--trace 0`` measures the end-to-end metrics: units run one after the
other until one more would end past ``--seconds``, and at least
``MIN_UNITS``.  ``setup_s`` is the median of the units' set-up times.

``--trace 1`` measures the per-layer metrics: untraced units for
``--seconds / 2`` (at least one), then one traced unit;
``trace.overhead_ratio`` is the traced unit's job time over the median
untraced one.

Human-readable lines (input properties, failing jobs) come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when a
result was printed, even if some job was wrong (``correct`` is then
false), and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS  # noqa: E402  (jobs imports piseries lazily)

#: Units per ``--trace 0`` run at least, so that every median is over three.
MIN_UNITS = 3
#: Reference speed: one ``worker.reference_slice`` takes this long (seconds).
REF_SLICE_S = 2.0e-3
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
#: Every process this run starts is killed once the run is this old, so a
#: stuck job fails the run instead of overrunning its 180-second limit.
RUN_LIMIT_S = 170.0
SPANS_DIR = ".bench_out"
_DEADLINE = time.monotonic() + RUN_LIMIT_S


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, a worker failed)."""


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank q-quantile, or None unless at least ``MIN_BEYOND``
    samples lie beyond it."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def slowdown(unit: dict) -> float:
    """How much slower than the reference speed the host ran this unit."""
    return unit["ref_s"] / REF_SLICE_S


def end_to_end(units: Sequence[dict],
               scaled: bool = True) -> Dict[str, tuple]:
    """Medians over units; latency percentiles over the pooled samples.

    Times are divided by each unit's ``slowdown`` unless ``scaled`` is
    false.
    """
    k = [slowdown(u) if scaled else 1.0 for u in units]
    lat_ms = [r[5] * 1000.0 / ku for u, ku in zip(units, k)
              for r in u["results"]]
    m = {
        "jobs_per_s": (statistics.median(len(u["results"]) * ku / u["wall_s"]
                                         for u, ku in zip(units, k)), "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "setup_s": (statistics.median(u["setup_s"] / ku
                                      for u, ku in zip(units, k)), "s"),
        "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in units),
                        "MB"),
    }
    p90 = percentile(lat_ms, 0.9)
    if p90 is not None:
        m["job_p90_ms"] = (p90, "ms")
    return m


def properties(results: Sequence[list]) -> List[Tuple[str, str, float]]:
    """Share of samples per stratum, seen-before flag and parameter value."""
    n = len(results)
    rows: List[Tuple[str, str, float]] = []
    for name, key in (("stratum", lambda r: r[1]),
                      ("seen_before", lambda r: str(r[6]).lower())):
        for value, c in sorted(Counter(map(key, results)).items()):
            rows.append((name, value, c / n))
    params = Counter((k, v) for r in results for k, v in r[2].items())
    for (k, v), c in sorted(params.items()):
        rows.append((k, str(v), c / n))
    return rows


# --------------------------------------------------------------------------
# processes
# --------------------------------------------------------------------------

def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("PISERIES_CACHE", None)    # no on-disk table cache
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(args: List[str], root: Path) -> str:
    remaining = _DEADLINE - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached")
    try:
        done = subprocess.run([sys.executable] + args, cwd=root,
                              env=_env(root), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:2]} timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"{args[:2]} exited {done.returncode}:"
                         f" {done.stderr.strip()[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def worker(root: Path, workload: str, seed: int,
           traced: bool = False) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    if traced:
        args += ["--traced", "--spans",
                 str(root / SPANS_DIR / f"spans-{workload}-{seed}.jsonl")]
    return json.loads(_python(args, root))


def units(root: Path, workload: str, seed: int, seconds: float,
          at_least: int) -> List[dict]:
    """Untraced units until one more would end past ``seconds``."""
    start, out = time.monotonic(), []
    while True:
        out.append(worker(root, workload, seed))
        elapsed = time.monotonic() - start
        if len(out) >= at_least \
                and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def _check_tree(root: Path) -> None:
    if not (root / "src" / "piseries" / "__init__.py").is_file():
        raise BenchError(f"no piseries source tree under {root}/src;"
                         " run from the repository root")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            root: Path) -> Tuple[dict, List[dict]]:
    """Metrics plus the worker outputs whose samples were checked."""
    _check_tree(root)
    if not trace:
        plain = units(root, workload, seed, seconds, MIN_UNITS)
        return end_to_end(plain), plain
    plain = units(root, workload, seed, seconds / 2, 1)
    traced = worker(root, workload, seed, traced=True)
    metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
    base = statistics.median(u["wall_s"] / slowdown(u) for u in plain)
    metrics["trace.overhead_ratio"] = (
        traced["wall_s"] / slowdown(traced) / base, "ratio")
    return metrics, plain + [traced]


def report(workload: str, seed: int, metrics: dict,
           outputs: List[dict]) -> dict:
    results = [r for w in outputs for r in w["results"]]
    wrong = [r for r in results if not r[7]]
    print(f"workload {workload} seed {seed}: {len(results)} samples,"
          f" {len(wrong)} wrong")
    for name, value, share in properties(outputs[0]["results"]):
        print(f"  property {name}={value}: {share:.3f}")
    for r in wrong[:50]:
        print(f"  WRONG {r[0]} {r[2]} outcome={r[3]} expected={r[4]}"
              f" seconds={r[5]:.3f}")
    print(f"  error_rate: {len(wrong) / len(results):.4f}")
    plain = [w for w in outputs if "metrics" not in w]
    print("  host slowdown per unit: "
          + " ".join(f"{slowdown(w):.3f}" for w in plain))
    for name, (value, unit) in sorted(end_to_end(plain, False).items()):
        print(f"  raw {name}: {value:.6g} {unit}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name}: {value:.6g} {unit}")
    return {"correct": not wrong, "attempted": len(results),
            "failed": len(wrong),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        metrics, outputs = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), root)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args.workload, args.seed, metrics, outputs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
