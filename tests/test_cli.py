"""Command-line surface: flags, outputs, exit codes, reproducibility."""

import ast
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import overgrowth.cli as cli
import overgrowth.growth as gr
from overgrowth.cli import build_parser, main

from _oracles import growth_whole_ball

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_classify(capsys):
    code, data = run_json(capsys, "classify", "--omega", "(012)")
    assert code == 0
    assert data["class"] == "Omega0" and data["star_window"] == 3
    code, data = run_json(capsys, "classify", "--omega", "01(2)")
    assert code == 0 and data["class"] == "Omega2" and data["star_window"] is None


def test_classify_parse_error_exits_2(capsys):
    code = main(["classify", "--omega", "(x)"])
    assert code == 2
    assert "position" in capsys.readouterr().err


def test_reduce(capsys):
    code, data = run_json(capsys, "reduce", "--word", "b c")
    assert code == 0 and data["word"] == "d" and data["alpha"] == 1
    code, data = run_json(capsys, "reduce", "--word", "a a")
    assert code == 0 and data["word"] == "" and data["alpha"] == 1
    code, data = run_json(capsys, "reduce", "--word", "B x")
    assert code == 0 and data["word"] == "b" and data["alpha"] == 1


def test_equal_and_identity(capsys):
    code, data = run_json(capsys, "equal", "--omega", "(01)", "--w1", "b", "--w2", "x")
    assert code == 0 and data["equal"] is True
    code, data = run_json(capsys, "identity", "--omega", "(0)", "--word", "d")
    assert code == 0 and data["identity"] is True


def test_act_sections_portrait(capsys):
    code, data = run_json(capsys, "act", "--omega", "(012)", "--word", "a", "--vertex", "01")
    assert code == 0 and data["image"] == "11"
    code, data = run_json(capsys, "sections", "--omega", "(012)", "--word", "b")
    assert code == 0 and data["left"] == "a" and data["right"] == "b" and data["shift"] == 1
    code, data = run_json(capsys, "portrait", "--omega", "(012)", "--word", "a", "--depth", "2")
    assert code == 0 and data["labels"] == {"": "P", "0": "I", "1": "I"}


def test_order(capsys):
    code, data = run_json(
        capsys, "order", "--omega", "(012)", "--word", "a x", "--max-order", "4096"
    )
    assert code == 0 and data["order"] is None and data["exceeded"] is True
    code, data = run_json(
        capsys, "order", "--omega", "(012)", "--word", "a d", "--max-order", "64"
    )
    assert code == 0 and data["order"] == 4


def test_growth_csv_reproducible(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["growth", "--omega", "(012)", "--radius", "5", "--output", str(p1)]) == 0
    assert (
        main(
            [
                "growth", "--omega", "(012)", "--radius", "5",
                "--workers", "4", "--output", str(p2),
            ]
        )
        == 0
    )
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert any(line.startswith("# tool:") for line in lines)
    assert any(line.startswith("# omega: (012)") for line in lines)
    header_at = lines.index("n,sphere,gamma,gamma_root,lower_curve,upper_curve")
    first = lines[header_at + 1].split(",")
    assert first[:3] == ["0", "1", "1"]


def test_growth_dihedral_column(capsys):
    code, out = run(capsys, "growth", "--omega", "(0)", "--radius", "12")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert [int(r[2]) for r in rows] == [2 * n + 1 for n in range(13)]


def test_growth_curves_past_float_range_are_formatted_from_their_logs(capsys):
    # The upper curve exp(n loglog n / log n) leaves float range at
    # n = 2,715; from there it is formatted from its log, to the same 12
    # significant digits.
    code, out = run(capsys, "growth", "--omega", "(0)", "--radius", "2800")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
    _, upper = gr.bound_curves(range(2714, 2801), "1/2")
    assert rows[2714]["upper_curve"] == f"{math.exp(upper[2714]):.12g}"
    with pytest.raises(OverflowError):
        math.exp(upper[2715])
    for n in (2715, 2800):
        assert float(Decimal(rows[n]["upper_curve"]).ln()) == pytest.approx(upper[n], rel=1e-12)
    assert rows[2800]["upper_curve"] == "2.35149153573e+317"


def test_lemma9_roots_past_float_range(capsys):
    # From k = 621 on the count exceeds float range, so its root is taken
    # through its log.
    code, data = run_json(capsys, "verify", "--suite", "lemma9", "--kmax", "700")
    assert code == 0 and data["passed"]
    rows = data["suites"]["lemma9"]["detail"]["rows"]
    with pytest.raises(OverflowError):
        float(rows[620]["count"])
    for row in rows[619:]:
        assert row["root"] == pytest.approx(math.exp(math.log(row["count"]) / row["k"]), rel=1e-12)
        assert row["root"] < row["bound"]


def test_growth_radius_zero(capsys):
    code, data = run_json(
        capsys, "growth", "--omega", "(012)", "--radius", "0", "--format", "json"
    )
    assert code == 0
    assert len(data["rows"]) == 1 and data["rows"][0]["gamma"] == 1


def test_growth_budget_overrun_exits_3(capsys):
    code, data = run_json(
        capsys, "growth", "--omega", "(012)", "--radius", "6", "--budget", "50",
        "--format", "json",
    )
    assert code == 3
    assert data["header"]["complete"] is False
    assert data["header"]["radius"] < 6
    assert data["rows"][-1]["gamma"] <= 50


def test_growth_ball_export(tmp_path, capsys):
    path = tmp_path / "ball.jsonl"
    code, _ = run(
        capsys,
        "growth", "--omega", "(012)", "--radius", "2",
        "--export-ball", str(path),
    )
    assert code == 0
    records = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(records) == 23
    assert records[0] == {
        "id": 0, "length": 0, "word": "", "portrait_hash": records[0]["portrait_hash"],
    }
    assert all(set(r) == {"id", "length", "word", "portrait_hash"} for r in records)


def test_verify_suites(capsys):
    code, data = run_json(capsys, "verify", "--suite", "eq1")
    assert code == 0 and data["passed"]
    assert data["suites"]["eq1"]["checks"] == 36

    code, data = run_json(capsys, "verify", "--suite", "lemma4")
    assert code == 0 and data["passed"]

    code, data = run_json(
        capsys, "verify", "--suite", "lemma9", "--delta", "3/10", "--kmax", "10"
    )
    assert code == 0 and data["passed"]


def test_verify_all_entry_point(capsys):
    code, data = run_json(capsys, "verify", "--suite", "all")
    assert code == 0 and data["passed"]
    assert set(data["suites"]) == {
        "eq1", "eq2", "lemma3", "lemma4", "lemma8", "lemma9", "lemma11", "prop6",
    }
    assert all(s["passed"] for s in data["suites"].values())
    assert all(s["status"] == "passed" for s in data["suites"].values())
    radii = {name: s.get("radius") for name, s in data["suites"].items()}
    assert radii == {
        "eq1": None, "eq2": None, "lemma4": None, "lemma9": None,
        "lemma3": 8, "lemma8": 8, "lemma11": 8, "prop6": 20,
    }


@pytest.mark.parametrize("argv, exit_code", [(("--radius", "1"), 0), (("--budget", "2"), 3)])
def test_prop6_reports_strict_json_below_three_spheres(capsys, argv, exit_code):
    # A ball of fewer than 3 spheres has no degree estimate: it is null,
    # not NaN, which is not JSON.
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    code, out = run(capsys, "verify", "--suite", "prop6", *argv)
    assert code == exit_code
    detail = json.loads(out, parse_constant=refuse)["suites"]["prop6"]["detail"]
    assert len(detail) == 4
    assert all(rep["degree_estimate"] is None for rep in detail.values())


def test_reports_refuse_nan():
    with pytest.raises(ValueError):
        cli._json_text({"value": float("nan")})


def test_verify_all_skips_suites_a_sequence_cannot_run(capsys):
    # lemma11 needs all three symbols in the first cycle, prop6 an
    # eventually constant sequence; under "all" they are skipped, which is
    # neither a violation nor an incomplete run.
    for text, skipped in (
        ("(012)", {"prop6"}),
        ("(01)", {"lemma11", "prop6"}),
        ("(0)", {"lemma11"}),
    ):
        code, data = run_json(
            capsys, "verify", "--suite", "all", "--omega", text, "--radius", "5"
        )
        assert code == 0 and data["passed"], text
        for name, rep in data["suites"].items():
            if name in skipped:
                assert rep["status"] == "skipped" and rep["checks"] == 0, (text, name)
                assert not rep["passed"] and rep["violations"] == [] and rep["detail"]
            else:
                assert rep["status"] == "passed", (text, name)
    # Asked for by name, an inapplicable suite is still a usage error.
    assert main(["verify", "--suite", "prop6", "--omega", "(012)", "--radius", "5"]) == 2
    assert main(["verify", "--suite", "lemma11", "--omega", "(01)", "--radius", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_shift_only_where_it_is_read(capsys):
    for argv in (
        ["verify", "--suite", "eq1", "--shift", "1"],
        ["classify", "--omega", "(012)", "--shift", "1"],
        ["reduce", "--word", "a", "--shift", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    code, data = run_json(capsys, "sections", "--omega", "(012)", "--word", "b", "--shift", "1")
    assert code == 0 and data["shift"] == 2


def run_with_hash_seed(seed, *argv):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "overgrowth.cli", *argv],
        env=env, capture_output=True, check=True,
    ).stdout


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # Words are bytes, whose hashes are salted per process; the memo and
    # dedup dicts keyed by them must not leak that order into a report.
    outputs = []
    for seed in ("0", "1"):
        ball = tmp_path / f"ball{seed}.jsonl"
        growth = run_with_hash_seed(
            seed, "growth", "--omega", "(012)", "--radius", "6", "--export-ball", str(ball)
        )
        verify = run_with_hash_seed(seed, "verify", "--suite", "all", "--radius", "4")
        outputs.append((growth, ball.read_bytes(), verify))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (("--omega", "(012)", "--radius", "7"), set()),
        (("--omega", "(01)", "--radius", "7"), {"lemma11"}),
        (("--omega", "(012)", "--radius", "8", "--budget", "200"), set()),
    ],
)
def test_ball_suites_share_a_ball_as_if_each_ran_alone(capsys, argv, skipped):
    # Under "all" the ball suites read one ball; each entry must equal the
    # suite's report on a fresh ball of its own.
    _, together = run_json(capsys, "verify", "--suite", "all", *argv)
    for name in ("lemma3", "lemma8", "lemma11"):
        rep = together["suites"][name]
        if name in skipped:
            assert rep["status"] == "skipped"
            assert main(["verify", "--suite", name, *argv]) == 2
            capsys.readouterr()
            continue
        _, alone = run_json(capsys, "verify", "--suite", name, *argv)
        assert alone["suites"][name] == rep, (argv, name)


def test_verify_all_enumerates_the_ball_suites_ball_once(capsys, monkeypatch):
    real = gr.enumerate_ball
    calls = []

    def counted(omega, shift=0, radius=0, budget=gr.DEFAULT_BUDGET):
        calls.append((str(omega), shift, radius))
        return real(omega, shift, radius, budget)

    monkeypatch.setattr(gr, "enumerate_ball", counted)
    code, _ = run(capsys, "verify", "--suite", "all", "--radius", "6")
    assert code == 0
    assert calls.count(("(012)", 0, 6)) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("growth", "--omega", "(012)", "--radius", "4", "--curve-epsilon", "1/0"),
        ("growth", "--omega", "(012)", "--radius", "4", "--curve-epsilon", "1e400"),
        ("verify", "--suite", "all", "--epsilon", "1/0"),
        ("verify", "--suite", "lemma8", "--epsilon", "1e400"),
        ("verify", "--suite", "lemma9", "--delta", "1/0"),
        ("verify", "--suite", "lemma9", "--delta", "1e400"),
        ("verify", "--suite", "lemma11", "--epsilon", "one"),
    ],
)
def test_bad_fraction_options_exit_2(capsys, argv):
    # A zero denominator or a value past float range is bad input, not a
    # found violation (exit 1) or a traceback.
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("growth", "--omega", "(012)", "--radius", "2", "--output", "x.csv"),
        ("growth", "--omega", "(012)", "--radius", "2", "--export-ball", "x.jsonl"),
        ("verify", "--suite", "eq1", "--output", "x.json"),
    ],
)
def test_unwritable_output_path_exits_2(capsys, tmp_path, argv):
    # The file would go in a directory that does not exist.
    *flags, name = argv
    assert main([*flags, str(tmp_path / "missing" / name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        # A complete run's budget sits a little above its ball's size, so a
        # dedup that stops merging fails at once instead of eating memory.
        (("--omega", "(012)", "--radius", "0", "--budget", "10"), 0),
        (("--omega", "(012)", "--radius", "10", "--budget", "14000"), 0),
        # Distinct elements shared the old level-8 keys here (643 elements).
        (("--omega", "(000001)", "--shift", "4", "--radius", "10", "--budget", "700"), 0),
        # The old level-8 key was exact to radius 8 here (36,176 elements).
        (("--omega", "(0012)", "--radius", "11", "--budget", "37000"), 0),
        # The budget stops inside sphere 9 (ids 3804..7755).
        (("--omega", "(012)", "--radius", "10", "--budget", "5000"), 3),
        # Keys of level 6 with one-letter classes (5,099 elements): the
        # level-7 portrait labels come from the class words' tables.
        (("--omega", "0(1)", "--radius", "50", "--budget", "5200"), 0),
        # Keys of level 6 with an inner ball (601 elements in 301 spheres).
        (("--omega", "(0)", "--radius", "300", "--budget", "650"), 0),
    ],
)
def test_streamed_growth_matches_the_whole_ball_export(tmp_path, argv, code):
    outputs = []
    for name, run in (
        ("streamed", main),
        ("whole", lambda full: growth_whole_ball(build_parser().parse_args(full))),
    ):
        csv, ball = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
        full = ["growth", *argv, "--output", str(csv), "--export-ball", str(ball)]
        outputs.append((run(full), csv.read_bytes(), ball.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == code
    if code == 3:
        assert outputs[0][2].count(b"\n") == 3804


@pytest.mark.parametrize("chunk", [1, 3, 1000])
@pytest.mark.parametrize("radius", [0, 10])
def test_bulk_export_matches_the_whole_ball_export(tmp_path, monkeypatch, chunk, radius):
    # Radius 10 has ids up to 5 digits, so runs split at 10, 100, 1,000
    # and 10,000 inside and at the edges of chunks; radius 0 is the root
    # alone, with portrait b"\0".  Each budget sits a little above the
    # ball's size (13,883 at radius 10), so a broken dedup fails at once.
    monkeypatch.setattr(cli, "_EXPORT_CHUNK", chunk)
    budget = "10" if radius == 0 else "14000"
    argv = ["growth", "--omega", "(012)", "--radius", str(radius), "--budget", budget]
    outputs = []
    for name, run in (
        ("bulk", main),
        ("whole", lambda full: growth_whole_ball(build_parser().parse_args(full))),
    ):
        csv, ball = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
        full = [*argv, "--output", str(csv), "--export-ball", str(ball)]
        outputs.append((run(full), csv.read_bytes(), ball.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][2].count(b"\n") == (1 if radius == 0 else 13_883)


@pytest.mark.parametrize("flag", ["--output", "--export-ball"])
def test_growth_fails_on_a_bad_path_before_building_the_ball(
    capsys, tmp_path, monkeypatch, flag
):
    def not_called(*args):
        raise AssertionError("the ball was built before the file was opened")

    monkeypatch.setattr(gr, "enumerate_ball", not_called)
    monkeypatch.setattr(gr, "grow_ball", not_called)
    path = tmp_path / "missing" / "out"
    assert main(["growth", "--omega", "(012)", "--radius", "13", flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--output", "--export-ball"])
def test_growth_bad_input_creates_no_file(capsys, tmp_path, flag):
    for bad in (
        ("--radius", "-1"),
        ("--radius", "4", "--curve-epsilon", "0"),
        ("--radius", "2", "--shift", "-1"),
        # Exact and positive, but its float underflows to 0.
        ("--radius", "3", "--curve-epsilon", "1e-400"),
    ):
        path = tmp_path / "f"
        assert main(["growth", "--omega", "(012)", *bad, flag, str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not path.exists()


@pytest.mark.parametrize("held", [None, b"bytes that must survive\n"], ids=["absent", "held"])
@pytest.mark.parametrize("export", ["f", "./f", "absolute"])
def test_growth_refuses_one_file_for_report_and_export(
    capsys, tmp_path, monkeypatch, held, export
):
    # Both opens would truncate it, and the report, written last through
    # the other handle, would overwrite the start of the export.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "f"
    if held is not None:
        path.write_bytes(held)
    if export == "absolute":
        export = str(path)
    argv = ["growth", "--omega", "(012)", "--radius", "3", "--output", "f", "--export-ball", export]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --output and --export-ball name one file\n"
    if held is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == held


def test_growth_refuses_a_hard_link_of_the_report_as_export(capsys, tmp_path):
    # Two names, one file: only an existing pair can be told apart this way.
    path, link = tmp_path / "f", tmp_path / "g"
    path.write_bytes(b"kept\n")
    os.link(path, link)
    argv = ["growth", "--omega", "(012)", "--radius", "3",
            "--output", str(path), "--export-ball", str(link)]
    assert main(argv) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert path.read_bytes() == b"kept\n"


def test_no_assert_statement_in_src():
    # python -O strips every assert, so no check in a report may be one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "overgrowth").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_too_deep_recursion_exits_2(capsys):
    # A budget of 2^3000 - 1 labels lets the walk start.
    argv = ["portrait", "--omega", "(012)", "--word", "x", "--depth", "3000",
            "--budget", str(2**3000 - 1)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: maximum recursion depth")
    assert captured.err.count("\n") == 1


def test_portrait_labels_are_bounded_by_the_budget(capsys):
    # A portrait to depth d has 2^d - 1 labels; a deeper one is refused
    # before any walk.
    argv = ["portrait", "--omega", "(012)", "--word", "x", "--depth"]
    assert main([*argv, "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "depth 40" in captured.err and str(gr.DEFAULT_BUDGET) in captured.err
    code, data = run_json(capsys, *argv, "3", "--budget", "7")
    assert code == 0 and len(data["labels"]) == 7
    assert main([*argv, "3", "--budget", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget of 6" in captured.err


def test_verify_lemma3_radius(capsys):
    code, data = run_json(
        capsys, "verify", "--suite", "lemma3", "--omega", "(012)", "--radius", "6"
    )
    assert code == 0 and data["passed"]
    assert data["suites"]["lemma3"]["detail"]["passed"]


def test_verify_invalid_delta_exits_2(capsys):
    code = main(["verify", "--suite", "lemma9", "--delta", "2.5"])
    assert code == 2
    assert capsys.readouterr().err == "error: delta must lie strictly between 0 and 1\n"


@pytest.mark.parametrize(
    "argv",
    [("--delta", "0.01"), ("--delta", "0.05"), ("--delta", "0.1"), ("--delta", "0.2"),
     ("--delta", "1e-300", "--kmax", "5")],
)
def test_lemma9_flags_are_not_violations(capsys, argv):
    # Past k = 4 a root can still stand above the limiting bound, the more
    # so for small delta; only a count above 7 * bound^k fails.
    code, data = run_json(capsys, "verify", "--suite", "lemma9", *argv)
    rep = data["suites"]["lemma9"]
    assert code == 0 and rep["status"] == "passed" and rep["violations"] == []
    assert max(rep["detail"]["flagged_k"]) > 4


def test_lemma9_fails_on_a_count_above_its_bound(capsys, monkeypatch):
    real = gr.count_ftilde
    monkeypatch.setattr(gr, "count_ftilde", lambda d, k: 7**k if k > 4 else real(d, k))
    code, data = run_json(capsys, "verify", "--suite", "lemma9")
    rep = data["suites"]["lemma9"]
    assert code == 1 and rep["status"] == "failed"
    assert [v["k"] for v in rep["violations"]] == list(range(5, 15))
    assert all(v["detail"] == "above 7 * bound^k" for v in rep["violations"])


def test_verify_checks_its_arguments_before_any_suite_runs(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "_suite_eq1", refuse)
    monkeypatch.setattr(gr, "enumerate_ball", refuse)
    for argv in (
        ["--suite", "all", "--output", str(tmp_path / "missing" / "x.json")],
        ["--suite", "all", "--delta", "2.5"],
        ["--suite", "lemma11", "--omega", "(01)"],
    ):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_verify_violation_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "_suite_eq1", lambda cfg: {"checks": 1, "violations": [{"pair": "zz"}]}
    )
    code, data = run_json(capsys, "verify", "--suite", "eq1")
    assert code == 1 and not data["passed"]
    # violations outrank an incomplete suite
    code, data = run_json(capsys, "verify", "--suite", "all", "--budget", "50")
    assert code == 1 and not data["passed"]
    assert data["suites"]["eq1"]["status"] == "failed"
    assert data["suites"]["lemma8"]["status"] == "incomplete"


def test_eq1_checks_each_generator_on_the_action(capsys, monkeypatch):
    # A b that moves the leaves 0 -> 1 -> 2 -> 0 is no involution.
    real = cli.level_table
    cycle = bytes((1, 2, 0)) + bytes(range(3, 256))
    monkeypatch.setattr(
        cli, "level_table", lambda g, depth: cycle if g.word == b"\1" else real(g, depth)
    )
    code, data = run_json(capsys, "verify", "--suite", "eq1")
    rep = data["suites"]["eq1"]
    assert code == 1 and rep["status"] == "failed" and rep["checks"] == 36
    assert rep["violations"] == [{"pair": "bb", "expected": "identity"}]


def test_eq1_checks_the_products_through_reduce(capsys, monkeypatch):
    # Every parsed word and every product goes through reduce: a reduce
    # that merges b c into b must fail eq1 on bc.
    real = cli.reduce
    monkeypatch.setattr(
        cli, "reduce", lambda raw: real(b"\1") if bytes(raw) == b"\1\2" else real(raw)
    )
    code, data = run_json(capsys, "verify", "--suite", "eq1")
    rep = data["suites"]["eq1"]
    assert code == 1 and rep["status"] == "failed" and rep["checks"] == 36
    assert rep["violations"] == [{"pair": "bc", "expected": "d"}]


def test_eq2_checks_the_recursion_at_every_shift(capsys, monkeypatch):
    import overgrowth.elements as el

    # Reading the level-1 symbol at every shift keeps each generator's root
    # decomposition right, so only the action below level 1 can catch it.
    real = el.symbol_at
    monkeypatch.setattr(el, "symbol_at", lambda omega, n: real(omega, 1))
    code, data = run_json(capsys, "verify", "--suite", "eq2")
    rep = data["suites"]["eq2"]
    assert code == 1 and rep["status"] == "failed" and rep["checks"] == 40
    assert {v["kind"] for v in rep["violations"]} == {"action"}
    # (0) and (2) are constant, so the shift cannot matter there.
    assert {v["omega"] for v in rep["violations"]} == {"(012)", "(01)", "01(2)"}


@pytest.mark.parametrize("omega", ["(0012)", "2(01)", "(0102011)", "0(12)", "(000001)", "12(0)"])
def test_eq2_passes_over_more_sequences(capsys, omega):
    code, data = run_json(capsys, "verify", "--suite", "eq2", "--omega", omega)
    rep = data["suites"]["eq2"]
    assert code == 0 and data["passed"] and rep["status"] == "passed"
    assert rep["checks"] == 8 and rep["violations"] == []


def test_headers_everywhere(capsys):
    for argv in (
        ["classify", "--omega", "(01)"],
        ["reduce", "--word", "a"],
        ["verify", "--suite", "lemma4"],
    ):
        _, data = run_json(capsys, *argv)
        header = data["header"]
        assert header["tool"].startswith("overgrowth ")
        assert header["budget"] == gr.DEFAULT_BUDGET and "seed" in header


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--omega", "(012)"),
        ("reduce", "--word", "B x"),
        ("equal", "--omega", "(01)", "--w1", "b", "--w2", "x"),
        ("identity", "--omega", "(0)", "--word", "d"),
        ("act", "--omega", "(012)", "--word", "a b", "--vertex", "0110"),
        ("sections", "--omega", "(012)", "--word", "b", "--shift", "1"),
        ("portrait", "--omega", "(012)", "--word", "x", "--depth", "3"),
        ("order", "--omega", "(012)", "--word", "a d", "--seed", "7"),
    ],
)
def test_one_element_reports_print_what_they_write(capsys, tmp_path, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "report.json"
    assert main([*argv, "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text(encoding="utf-8") == out
    header = json.loads(out)["header"]
    assert sorted(header) == ["budget", "omega", "seed", "tool"]
    assert header["tool"].startswith("overgrowth ")


def test_zero_or_negative_budget_exits_2(capsys):
    for argv in (
        ["growth", "--omega", "(012)", "--radius", "2", "--budget", "0"],
        ["verify", "--suite", "eq1", "--budget", "0"],
        ["verify", "--suite", "eq1", "--budget", "-5"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "budget" in captured.err


def test_verify_nonpositive_radius_and_kmax_exit_2(capsys):
    for flag, value in (("--radius", "0"), ("--radius", "-1"), ("--kmax", "0")):
        assert main(["verify", "--suite", "lemma9", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and flag[2:] in captured.err


def test_verify_zero_delta_is_not_replaced_by_default(capsys):
    assert main(["verify", "--suite", "lemma9", "--delta", "0"]) == 2
    assert "delta" in capsys.readouterr().err


def test_verify_budget_overrun_is_incomplete(capsys):
    # (012) at budget 50 completes radius 2 (23 elements) of the radius-8
    # ball, and so does the shifted ball lemma3 needs; (0) at budget 30
    # holds 29 of the 41 dihedral elements.
    for suite, budget, radius in (
        ("lemma3", "50", 2),
        ("lemma8", "50", 2),
        ("lemma11", "50", 2),
        ("prop6", "30", 14),
    ):
        code, data = run_json(capsys, "verify", "--suite", suite, "--budget", budget)
        rep = data["suites"][suite]
        assert code == 3, suite
        assert not data["passed"] and not rep["passed"]
        assert rep["status"] == "incomplete" and rep["violations"] == []
        assert rep["radius"] == radius, suite


def test_geodesic_cap_makes_a_suite_incomplete(capsys, monkeypatch):
    # Over (0) the minimal words quadruple every other sphere: element 34,
    # of length 17, is the first with more than 200,000 of them.
    code, data = run_json(
        capsys, "verify", "--suite", "lemma8", "--omega", "(0)", "--radius", "40"
    )
    rep = data["suites"]["lemma8"]
    assert code == 3 and not data["passed"] and not rep["passed"]
    assert rep["status"] == "incomplete" and rep["violations"] == []
    assert rep["detail"] == "element 34 has more than 200000 minimal words"
    assert rep["radius"] == 16 and rep["checks"] > 0

    # At a cap of 3, the first (012) level-3 stabilizer with more minimal
    # words has length 5.
    monkeypatch.setattr(gr, "GEODESIC_CAP", 3)
    code, data = run_json(capsys, "verify", "--suite", "lemma11", "--radius", "6")
    rep = data["suites"]["lemma11"]
    assert code == 3 and not data["passed"] and not rep["passed"]
    assert rep["status"] == "incomplete" and rep["violations"] == []
    assert rep["detail"].endswith("has more than 3 minimal words")
    assert rep["radius"] == 4 and rep["checks"] > 0


def test_lemma11_reports_an_unreduced_minimal_word(capsys, monkeypatch):
    # The bound is stated for reduced words.  An unreduced minimal word is a
    # part-A violation, a check that ``python -O`` keeps.
    real = gr.geodesic_words

    def with_a_clash(table, eid):
        words = real(table, eid)
        return (b"\0\0" + words[0],) + words[1:]

    monkeypatch.setattr(gr, "geodesic_words", with_a_clash)
    code, data = run_json(capsys, "verify", "--suite", "lemma11", "--radius", "6")
    rep = data["suites"]["lemma11"]
    assert code == 1 and not data["passed"] and not rep["passed"]
    assert rep["violations"][0] == {"eid": 0, "word": "a a", "detail": "not reduced"}
    assert all(v["detail"] == "not reduced" for v in rep["violations"])


def test_lemma3_reports_a_section_missing_from_the_shifted_ball(capsys, monkeypatch):
    # Every section lies in the shifted ball, whose radius covers the
    # contraction bound.  One that a lookup misses is a violation, a check
    # that ``python -O`` keeps.
    real = gr.BallTable.lookup
    misses = []

    def miss_once(self, element, key=None):
        if element.word == b"" and not misses:
            misses.append(element)
            return None
        return real(self, element, key)

    monkeypatch.setattr(gr.BallTable, "lookup", miss_once)
    code, data = run_json(capsys, "verify", "--suite", "lemma3", "--radius", "6")
    rep = data["suites"]["lemma3"]
    assert code == 1 and not data["passed"] and rep["status"] == "failed"
    assert rep["violations"] == [
        {"eid": 0, "side": "left", "detail": "section not in shifted ball"}
    ]
    assert len(misses) == 1
