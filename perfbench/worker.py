"""One measured repetition of a workload, in a fresh interpreter.

Usage: ``python3 worker.py JOB_JSON``.  The job names the workload, the
package source directory, the input file (word problem only), a scratch
directory and whether to trace.  Set-up (imports and turning the inputs
into package objects) ends at ``setup_end``, read from the shared
monotonic clock so the parent can add the interpreter start it timed.
The last stdout line is one JSON object with the timings and the outputs
the parent checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

GROWTH_ARGV = ["growth", "--omega", "(012)", "--radius", "12", "--format", "csv"]
VERIFY_ARGV = ["verify", "--suite", "all", "--radius", "10"]

_DIGITS = bytes.maketrans(b"01234567", bytes(range(8)))


def letters(text: str) -> tuple[int, ...]:
    """Letter tuple from a digit string such as ``"0102"``."""
    return tuple(text.encode("ascii").translate(_DIGITS))


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import overgrowth
    from overgrowth import cli

    workload = job["workload"]
    work = Path(job["work"])
    result: dict = {}
    if workload == "growth-012":
        export = work / f"ball-{os.getpid()}.jsonl"
        argv = GROWTH_ARGV + ["--export-ball", str(export)]
    elif workload == "verify-all":
        argv = VERIFY_ARGV
    else:
        spec = json.loads(Path(job["inputs"]).read_text(encoding="utf-8"))
        omegas = {text: overgrowth.parse_omega(text) for text in spec["omegas"]}
        pairs = [
            (
                overgrowth.Element.from_letters(letters(left), omegas[omega]),
                overgrowth.Element.from_letters(letters(right), omegas[omega]),
            )
            for omega, left, right in spec["queries"]
        ]
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(overgrowth)
        tracer.install()
    equal = overgrowth.elements.equal  # looked up after the tracer wraps it

    setup_end = time.monotonic()
    t0 = time.perf_counter()
    if workload == "wordproblem":
        answers = []
        latencies = []
        clock = time.perf_counter
        for run_id, (g, h) in enumerate(pairs):
            if tracer is not None:
                tracer.run_id = run_id
            start = clock()
            same = equal(g, h)
            latencies.append(clock() - start)
            answers.append(same)
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    wall = time.perf_counter() - t0

    result["setup_end"] = setup_end
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload == "wordproblem":
        result["answers"] = "".join("1" if a else "0" for a in answers)
        result["latencies_s"] = latencies
    else:
        result["exit_code"] = code
    if workload == "growth-012":
        rows = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
        ball = export.read_text(encoding="utf-8").splitlines()
        export.unlink()
        result["csv_rows_sha256"] = sha256_lines(rows)
        result["ball_lines_sha256"] = sha256_lines(ball)
        result["gamma"] = [int(row.split(",")[2]) for row in rows[1:]]
    elif workload == "verify-all":
        report = json.loads(out.getvalue())
        result["passed"] = report["passed"]
        result["suites"] = {
            name: {"checks": suite["checks"], "violations": len(suite["violations"])}
            for name, suite in report["suites"].items()
        }
    if tracer is not None:
        tracer.restore()
        result["restored"] = tracer.restored()
        result["totals"] = tracer.totals()
        result["counters"] = tracer.counters()
        tracer.write(Path(job["spans"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
