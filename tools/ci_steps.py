"""Run the CI workflow's steps that follow its Tier-1 test run, locally.

    python tools/ci_steps.py

Reads the ``run:`` blocks of .github/workflows/tier1.yml after the step
"Tier-1 tests" (with PyYAML) and runs each under ``bash -eo pipefail``
from the repository root, as the CI host's default shell does.  Prints
each step's result and seconds, and exits 1 if any step failed.  The step
that reads the Tier-1 junit report needs the tier1.xml of a Tier-1 run
made with the workflow's command; the other steps need only the source
tree.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
AFTER = "Tier-1 tests"


def steps():
    """(name, script) of each step with a ``run:`` block after AFTER."""
    for job in yaml.safe_load(WORKFLOW.read_text())["jobs"].values():
        names = [s.get("name") for s in job["steps"]]
        for s in job["steps"][names.index(AFTER) + 1:]:
            if "run" in s:
                yield s["name"], s["run"]


def main() -> int:
    results = []
    for name, script in steps():
        t0 = time.monotonic()
        ok = subprocess.run(["bash", "-eo", "pipefail", "-c", script], cwd=ROOT).returncode == 0
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {time.monotonic() - t0:6.1f} s  {name}", flush=True)
    print(f"{results.count(False)} of {len(results)} steps failed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
