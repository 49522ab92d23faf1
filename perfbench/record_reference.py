"""Record the pinned outputs in ``reference.json`` from the current code.

Usage, from the root of a checkout: ``python3 perfbench/record_reference.py``.
Run it only at a commit whose outputs are trusted; the benchmark compares
every later run against what it writes.
"""

from __future__ import annotations

import json
import time

import run


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + run.DEADLINE_S
    growth = run.run_rep("growth-012", None, False, deadline, 0)
    verify = run.run_rep("verify-all", None, False, deadline, 1)
    if growth["exit_code"] != 0 or verify["exit_code"] != 0 or not verify["passed"]:
        raise SystemExit("refusing to pin a failing run")
    if any(suite["violations"] for suite in verify["suites"].values()):
        raise SystemExit("refusing to pin a run with violations")
    reference = {
        "commit": run.git_commit(run.ROOT),
        "growth-012": {
            "csv_rows_sha256": growth["csv_rows_sha256"],
            "ball_lines_sha256": growth["ball_lines_sha256"],
            "gamma": growth["gamma"],
        },
        "verify-all": {
            "passed": verify["passed"],
            "checks": {name: s["checks"] for name, s in sorted(verify["suites"].items())},
        },
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
