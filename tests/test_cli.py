"""Command-line surface: flags, outputs, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import overgrowth.growth as gr
from overgrowth.cli import main

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


@pytest.mark.parametrize("flag", ["--output", "--export-ball"])
def test_growth_fails_on_a_bad_path_before_building_the_ball(
    capsys, tmp_path, monkeypatch, flag
):
    def not_called(*args):
        raise AssertionError("the ball was built before the file was opened")

    monkeypatch.setattr(gr, "enumerate_ball", not_called)
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
    ):
        path = tmp_path / "f"
        assert main(["growth", "--omega", "(012)", *bad, flag, str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not path.exists()


def test_too_deep_recursion_exits_2(capsys):
    argv = ["portrait", "--omega", "(012)", "--word", "x", "--depth", "3000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_lemma3_radius(capsys):
    code, data = run_json(
        capsys, "verify", "--suite", "lemma3", "--omega", "(012)", "--radius", "6"
    )
    assert code == 0 and data["passed"]
    assert data["suites"]["lemma3"]["detail"]["passed"]


def test_verify_invalid_delta_exits_2(capsys):
    code = main(["verify", "--suite", "lemma9", "--delta", "2.5"])
    assert code == 2


def test_verify_violation_exit_code(capsys, monkeypatch):
    import overgrowth.cli as cli

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
    import overgrowth.cli as cli

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


def test_eq2_checks_the_recursion_at_every_shift(capsys, monkeypatch):
    import overgrowth.elements as el
    from overgrowth.omega import shift_normalize, symbol_at
    from overgrowth.words import split_reduce

    # Reading the level-1 symbol at every shift keeps each generator's root
    # decomposition right, so only the action below level 1 can catch it.
    def shift_blind(g):
        swap, left, right, _, _ = split_reduce(g.word, symbol_at(g.omega, 1))
        down = shift_normalize(g.omega, g.shift + 1)
        return el.WreathDecomposition(
            swap, el.Element(left, g.omega, down), el.Element(right, g.omega, down)
        )

    monkeypatch.setattr(el, "decompose", shift_blind)
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
        assert "budget" in header and "seed" in header


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("OVERGROWTH_BUDGET", "123")
    _, data = run_json(capsys, "classify", "--omega", "(01)")
    assert data["header"]["budget"] == 123


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
