"""Tests of the benchmark's own parts: oracle, input generator, tracer and
metric names.  Run with ``python -m pytest perfbench/tests`` from the root."""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import overgrowth  # noqa: E402
from overgrowth import Element, act, equal, is_identity, parse_omega  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import wordgen  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def package_is_identity(omega: str, letters) -> bool:
    return is_identity(Element.from_letters(letters, parse_omega(omega)))


def test_oracle_vertex_action_matches_package():
    rng = random.Random(7)
    for omega in wordgen.OMEGAS:
        level = oracle.LevelAction(omega, 6)
        for _ in range(40):
            word = wordgen.random_word(rng, rng.randrange(12))
            g = Element.from_letters(word, parse_omega(omega))
            v = rng.randrange(64)
            want = act(g, format(v, "06b"))
            assert format(level.apply(word, v), "06b") == want


def test_oracle_answers_agree_with_package_equal():
    qs = wordgen.generate(3, package_is_identity, queries=48)
    assert qs.queries
    assert {q.equal for q in qs.queries} == {True, False}
    for q in qs.queries:
        w = parse_omega(q.omega)
        got = equal(Element.from_letters(q.left, w), Element.from_letters(q.right, w))
        assert got == q.equal


def test_generator_is_seeded_and_words_reduced():
    a = wordgen.generate(5, package_is_identity, queries=16)
    b = wordgen.generate(5, package_is_identity, queries=16)
    assert a == b
    for q in a.queries:
        assert oracle.reduce_letters(q.left) == list(q.left)
        assert oracle.reduce_letters(q.right) == list(q.right)
        assert len(q.left) >= 2 * wordgen.SPINE_LETTERS - 1


def test_uncertifiable_mutants_are_dropped():
    # Over (01) the letter B acts trivially, so a mutant differing by B is
    # equal to its word and has no witness vertex.
    assert oracle.swap_level(5, "(01)", wordgen.MAX_SWAP_LEVEL) is None
    assert package_is_identity("(01)", [5])


def test_tracer_records_and_restores_every_binding():
    growth = overgrowth.growth
    originals = {
        "growth.equal": growth.equal,
        "elements.decompose": overgrowth.elements.decompose,
        "package.reduce": overgrowth.reduce,
        "lookup": growth.BallTable.__dict__["lookup"],
    }
    tracer = Tracer(overgrowth)
    tracer.install()
    try:
        assert growth.equal is not originals["growth.equal"]
        assert growth.equal.__wrapped__ is originals["growth.equal"]
        assert overgrowth.reduce is not originals["package.reduce"]
        # looked up through the package, whose binding the tracer wrapped
        table = overgrowth.enumerate_ball(parse_omega("(012)"), radius=3)
    finally:
        tracer.restore()
    assert tracer.restored()
    assert growth.equal is originals["growth.equal"]
    assert overgrowth.elements.decompose is originals["elements.decompose"]
    assert overgrowth.reduce is originals["package.reduce"]
    assert growth.BallTable.__dict__["lookup"] is originals["lookup"]
    totals = tracer.totals()
    assert totals["growth.enumerate_ball"][0] == 1
    assert tracer.counters()["new_elements"] == len(table.entries)
    assert totals["growth.lookup"][0] > 0
    for calls, total, self_time in totals.values():
        assert self_time <= total + 1e-9


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    fake = {
        "wall_s": 2.0,
        "setup_s": 0.1,
        "peak_rss_mb": 10.0,
        "latencies_s": [0.001, 0.002],
        "scale": 1.0,
        "restored": True,
        "totals": {f: [1, 0.2, 0.1] for f in run.TIMED_FUNCTIONS + ("cli.main",)},
        "counters": dict.fromkeys(Tracer(overgrowth).counters(), 1),
    }
    e2e = run.end_to_end([fake], "wordproblem", 2, 2, 0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layer = run.per_layer([fake, fake], 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[n] == v[1] for n, v in e2e.items())
    assert all(units[n] == v[1] for n, v in layer.items())


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "growth-012",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
