"""Benchmark of the overgrowth calculator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh single-threaded interpreter (``worker.py``),
one at a time: a closed loop with one client.  With ``--trace 0`` the
benchmark makes as many repetitions as fit in ``--seconds`` (at least one),
checks every output and reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced and two traced repetitions and reports
the per-layer metrics.  The last stdout line is the JSON result; the lines
before it give each metric with its unit and sample count, and the stamp
(Python version, nproc, platform, git commit, seed).
"""

from __future__ import annotations

import argparse
import ast
import compileall
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"
ACCEPTANCE_TESTS = ROOT / "tests" / "test_acceptance.py"

WORKLOADS = ("growth-012", "verify-all", "wordproblem")
DEADLINE_S = 170  # a run must end within 180 s
# Seconds the calibration loop (calibrate.py) takes at the reference host
# speed; times are reported at that speed (see ``run_rep``).
CALIBRATION_REFERENCE_S = 0.5
TRACED_REPS = 2

# Functions whose call count and self time are reported per layer.
TIMED_FUNCTIONS = (
    "words.reduce",
    "elements.mul",
    "elements.generator",
    "elements.decompose",
    "elements.signature",
    "elements.equal",
    "elements.is_identity",
    "elements.act",
    "growth.enumerate_ball",
    "growth.lookup",
    "growth.geodesic_words",
    "growth.classify_geodesics",
    "growth.stabilizes_level",
    "growth.level_section_trace",
    "growth.lemma3_check",
    "growth.lemma8_check",
    "growth.lemma11_check",
    "growth.prop6_check",
    "omega.symbol_at",
)


class BenchmarkError(RuntimeError):
    """A repetition could not run to completion."""


def git_commit(root: Path) -> str:
    """Commit of a git checkout read from ``.git`` directly, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }


def acceptance_gamma() -> list[int]:
    """``GAMMA_012_REGRESSION`` from the acceptance tests, read without
    importing them."""
    tree = ast.parse(ACCEPTANCE_TESTS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GAMMA_012_REGRESSION"
            for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise BenchmarkError(f"GAMMA_012_REGRESSION not found in {ACCEPTANCE_TESTS}")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# -- inputs -----------------------------------------------------------------


def prepare_wordproblem(seed: int):
    """Generate and certify the queries; returns (input file, answers, dropped)."""
    sys.path.insert(0, str(SRC))
    from overgrowth import Element, is_identity, parse_omega

    import wordgen

    def package_is_identity(omega: str, letters) -> bool:
        return is_identity(Element.from_letters(letters, parse_omega(omega)))

    qs = wordgen.generate(seed, package_is_identity)
    path = WORK / f"wordproblem-{seed}.json"
    spec = {
        "omegas": list(wordgen.OMEGAS),
        "queries": [
            [q.omega, "".join(map(str, q.left)), "".join(map(str, q.right))]
            for q in qs.queries
        ],
    }
    path.write_text(json.dumps(spec), encoding="utf-8")
    answers = "".join("1" if q.equal else "0" for q in qs.queries)
    return path, answers, qs.dropped


# -- repetitions --------------------------------------------------------------


def calibrate(deadline: float) -> float:
    """Seconds the calibration loop takes now, in its own interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "calibrate.py")],
        capture_output=True,
        text=True,
        check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return float(proc.stdout)


def run_rep(workload: str, inputs, trace: bool, deadline: float, index: int) -> dict:
    job = {
        "workload": workload,
        "src": str(SRC),
        "work": str(WORK),
        "inputs": str(inputs) if inputs else None,
        "trace": trace,
        "spans": str(WORK / f"spans-{workload}"),
    }
    job_path = WORK / f"job-{os.getpid()}-{index}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("OVERGROWTH_BUDGET", None)
    started = time.monotonic()
    before = calibrate(deadline)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(ROOT),
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} repetition {index} ran out of time") from exc
    finally:
        job_path.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} repetition {index} exited {proc.returncode}:\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.splitlines()[-1])
    after = calibrate(deadline)
    result["elapsed_s"] = time.monotonic() - started
    result["calibration_s"] = [before, after]
    # The shared host's speed drifts by tens of percent within minutes, so
    # every time is scaled to the reference speed by the calibration loop
    # run just before (set-up) and around (timed phase) the interval timed.
    scale = CALIBRATION_REFERENCE_S / ((before + after) / 2)
    result["scale"] = scale
    result["raw_wall_s"] = result["wall_s"]
    result["wall_s"] *= scale
    result["setup_s"] = (result["setup_end"] - spawned) * CALIBRATION_REFERENCE_S / before
    if "latencies_s" in result:
        result["latencies_s"] = [x * scale for x in result["latencies_s"]]
    return result


# -- checking -----------------------------------------------------------------


def check_growth(rep: dict, ref: dict, regression: list[int]) -> tuple[int, int]:
    gamma = rep["gamma"]
    ok = (
        rep["exit_code"] == 0
        and rep["csv_rows_sha256"] == ref["csv_rows_sha256"]
        and rep["ball_lines_sha256"] == ref["ball_lines_sha256"]
        and gamma == ref["gamma"]
        and gamma[: len(regression)] == regression
    )
    return 1, 0 if ok else 1


def check_verify(rep: dict, ref: dict) -> tuple[int, int]:
    """One output per suite plus the top-level verdict."""
    failed = 0
    for name, checks in ref["checks"].items():
        got = rep["suites"].get(name)
        if got is None or got["checks"] != checks or got["violations"] != 0:
            failed += 1
    verdict_ok = (
        rep["passed"] is True
        and rep["exit_code"] == 0
        and set(rep["suites"]) == set(ref["checks"])
    )
    return len(ref["checks"]) + 1, failed + (0 if verdict_ok else 1)


def check_wordproblem(rep: dict, answers: str) -> tuple[int, int]:
    got = rep["answers"]
    if len(got) != len(answers):
        return len(answers), len(answers)
    return len(answers), sum(a != b for a, b in zip(got, answers))


# -- metrics ------------------------------------------------------------------


def work_units(workload: str, ref: dict, answers: str) -> int:
    """Elements per ball, checks per verify run, or queries per run."""
    if workload == "growth-012":
        return ref["growth-012"]["gamma"][-1]
    if workload == "verify-all":
        return sum(ref["verify-all"]["checks"].values())
    return len(answers)


def end_to_end(reps: list[dict], workload: str, units: int, attempted: int, failed: int):
    walls = [r["wall_s"] for r in reps]
    if workload == "wordproblem":
        latencies = sorted(x for r in reps for x in r["latencies_s"])
    else:
        latencies = sorted(walls)  # one op is one whole command
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "throughput": (statistics.median(units / w for w in walls), "1/s", len(walls)),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms", len(latencies)),
        "op_p99_ms": (percentile(latencies, 0.99) * 1e3, "ms", len(latencies)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB", len(reps)),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s", len(reps)),
        "correct_rate": ((attempted - failed) / attempted, "ratio", attempted),
    }


def per_layer(traced: list[dict], untraced_wall: float):
    """Per-layer metrics, self times averaged over the traced repetitions."""
    n = len(traced)

    def mean_self(name: str) -> float:
        return sum(r["totals"][name][2] * r["scale"] for r in traced) / n

    first = traced[0]
    totals, counters = first["totals"], first["counters"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for name in TIMED_FUNCTIONS:
        values[f"{name}.calls"] = (totals[name][0], "count")
        values[f"{name}.self_s"] = (mean_self(name), "s")
    values["words.reduce.letters_in"] = (counters["letters_in"], "count")
    values["words.reduce.contraction_ratio"] = (
        ratio(counters["contractions"], counters["letters_in"]), "ratio")
    values["elements.decompose.repeat_ratio"] = (
        ratio(counters["decompose_repeats"], totals["elements.decompose"][0]), "ratio")
    values["elements.equal.true_ratio"] = (
        ratio(counters["equal_true"], totals["elements.equal"][0]), "ratio")
    values["growth.candidates"] = (counters["candidates"], "count")
    values["growth.new_elements"] = (counters["new_elements"], "count")
    values["growth.lookup.hit_ratio"] = (
        ratio(counters["lookup_hits"], totals["growth.lookup"][0]), "ratio")
    values["growth.lookup.collisions"] = (counters["lookup_collisions"], "count")
    values["cli.main.self_s"] = (
        sum(mean_self(name) for name in totals if name.startswith("cli.")), "s")
    traced_wall = sum(r["wall_s"] for r in traced) / n
    values["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return values


def counts(rep: dict) -> dict:
    """Everything in a traced repetition that must repeat exactly."""
    return {
        "calls": {name: row[0] for name, row in rep["totals"].items()},
        "counters": rep["counters"],
    }


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM unwinds like an exception, so subprocess.run kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "overgrowth" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    try:
        regression = acceptance_gamma()
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        compileall.compile_dir(str(SRC / "overgrowth"), quiet=1)
        WORK.mkdir(exist_ok=True)
        inputs, answers, dropped = None, "", 0
        if args.workload == "wordproblem":
            inputs, answers, dropped = prepare_wordproblem(args.seed)

        reps: list[dict] = []
        if args.trace:
            untraced = run_rep(args.workload, inputs, False, deadline, 0)
            traced = [
                run_rep(args.workload, inputs, True, deadline, i + 1)
                for i in range(TRACED_REPS)
            ]
            reps = [untraced] + traced
        else:
            # start a repetition only when it should end within --seconds
            spent = 0.0
            while not reps or spent * (len(reps) + 1) / len(reps) <= args.seconds:
                rep = run_rep(args.workload, inputs, False, deadline, len(reps))
                reps.append(rep)
                spent += rep["elapsed_s"]
        if inputs is not None:
            inputs.unlink()
    except (BenchmarkError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    for rep in reps:
        if args.workload == "growth-012":
            a, f = check_growth(rep, ref["growth-012"], regression)
        elif args.workload == "verify-all":
            a, f = check_verify(rep, ref["verify-all"])
        else:
            a, f = check_wordproblem(rep, answers)
        attempted += a
        failed += f
    correct = failed == 0

    info = stamp(args.workload, args.seed)
    info["repetitions"] = len(reps)
    info["raw_wall_s_each"] = [round(r["raw_wall_s"], 4) for r in reps]
    info["calibration_s_each"] = [[round(c, 4) for c in r["calibration_s"]] for r in reps]
    if args.workload == "wordproblem":
        info["queries"] = len(answers)
        info["dropped_uncertified"] = dropped
    if args.trace:
        first, second = (counts(r) for r in traced)
        info["counts_repeat"] = first == second
        info["restored"] = all(r["restored"] for r in traced)
        correct = correct and info["counts_repeat"] and info["restored"]
        values = per_layer(traced, untraced["wall_s"])
        print(f"# stamp: {json.dumps(info, sort_keys=True)}")
        for name, (value, unit) in values.items():
            print(f"# {name} = {value:.6g} {unit}")
    else:
        units = work_units(args.workload, ref, answers)
        full = end_to_end(reps, args.workload, units, attempted, failed)
        values = {name: (value, unit) for name, (value, unit, _) in full.items()}
        print(f"# stamp: {json.dumps(info, sort_keys=True)}")
        for name, (value, unit, samples) in full.items():
            print(f"# {name} = {value:.6g} {unit} (n={samples})")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
