"""The smoke step of the CI workflow, run by tier-1 from the source tree.

The workflow file stays the one source of the pinned values: the test
reads the step's ``run:`` block from ``.github/workflows/tier1.yml`` and
runs it under ``bash -eo pipefail`` (the shell GitHub Actions gives a
``run:`` step), with ``piseries`` on PATH resolving to ``src/``.  So
every exit code the block checks and every ``grep`` pin it holds is
checked here too.

One line is CI-only and replaced by ``true``: the assertion that mpmath is
absent.  In CI the package is installed alone at that step; tier-1
installs the test extra, which includes mpmath as the tests' oracle.  The
``pip install`` steps are outside the block.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
SMOKE_STEP = "- name: Smoke test of the installed console script"
#: the block's one CI-only line: mpmath is not installed at that step
MPMATH_ABSENT = ("python -c \"import importlib.util as u;"
                 " assert u.find_spec('mpmath') is None\"")


def smoke_block() -> str:
    """The ``run: |`` block of the smoke step, its indentation removed."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    step = next(i for i, line in enumerate(lines)
                if line.strip() == SMOKE_STEP)
    run = next(i for i in range(step + 1, len(lines))
               if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


def test_smoke_block_runs_from_source(tmp_path):
    block = smoke_block()
    assert block.splitlines().count(MPMATH_ABSENT) == 1
    script = block.replace(MPMATH_ABSENT, "true") + "echo smoke-block-done\n"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "piseries"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -c "import sys;'
                    ' from piseries.cli import main; sys.exit(main())"'
                    ' "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    work = tmp_path / "work"
    work.mkdir()
    done = subprocess.run(
        ["bash", "--noprofile", "--norc", "-xeo", "pipefail", "-c", script],
        cwd=work, env=env, capture_output=True, text=True, timeout=600)
    # -x traces each command to stderr, so a failure names its line
    assert done.returncode == 0, done.stderr[-4000:]
    assert done.stdout.endswith("smoke-block-done\n")
