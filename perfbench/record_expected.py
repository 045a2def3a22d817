"""Record the expected outcome of every conjectural job into expected.json.

    PYTHONPATH=src python3 perfbench/record_expected.py

Run from the repository root.  Proven entries are never recorded: a
correct run must report PASS for them, whatever this script sees.  A
conjectural entry's expected outcome is what ``corpus.run`` reports for it
with the job's parameters at the commit where the table was recorded, so a
later change that flips one shows up as a wrong job.  Keys already in the
table are kept and not run again; keys no job can produce any more are
dropped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402


def main() -> int:
    from piseries import corpus

    known = jobs.load_expected() if jobs.EXPECTED_PATH.exists() else {}
    entries = corpus.load_default()
    by_id = {e.ident: e for e in entries}
    wanted = jobs.expected_keys(entries)
    outcomes = {k: v for k, v in known.items() if k in wanted}
    for key in sorted(k for k in wanted if k not in outcomes):
        ident, params = wanted[key]
        row = corpus.run([by_id[ident]], **params).rows[0]
        outcomes[key] = row.outcome
        print(f"{key}\t{row.outcome}\t{row.seconds:.3f}", file=sys.stderr,
              flush=True)
    doc = {"about": "corpus.run outcome of each conjectural entry per job"
                    " parameters; written by record_expected.py",
           "outcomes": dict(sorted(outcomes.items()))}
    jobs.EXPECTED_PATH.write_text(json.dumps(doc, indent=0) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
