"""Ball enumeration, geodesic classification, counting, and the checkers."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from overgrowth.omega import first_third_symbol_index, parse_omega
from overgrowth.words import SPINE_LETTERS, parse_letters, reduce, render_letters
from overgrowth import growth
from overgrowth.elements import Element, equal, generator, is_identity, mul
from overgrowth.growth import (
    BudgetExceeded,
    GeodesicCapExceeded,
    LemmaViolation,
    NotLevelStabilizer,
    bound_curves,
    classify_geodesics,
    count_ftilde,
    count_ftilde_exhaustive,
    enumerate_ball,
    geodesic_words,
    lemma3_check,
    lemma8_check,
    lemma8_map,
    lemma9_bound,
    lemma9_report,
    lemma11_check,
    level_section_trace,
    prop6_check,
    stabilizes_level,
)

from _oracles import act_word, ball_links, ftilde_count_exhaustive, identity_to_depth

W012 = parse_omega("(012)")
W0 = parse_omega("(0)")

_BALLS = {}


def ball(omega_text, radius, shift=0):
    key = (omega_text, radius, shift)
    if key not in _BALLS:
        _BALLS[key] = enumerate_ball(parse_omega(omega_text), shift, radius)
    return _BALLS[key]


def test_ball_examples():
    assert ball("(012)", 0).gamma() == [1]
    assert ball("(012)", 1).gamma() == [1, 9]
    assert ball("(0)", 5).gamma() == [1, 3, 5, 7, 9, 11]


def test_generators_distinct_over_012():
    # gamma(1) = 9 because all eight generators are distinct and nontrivial
    t = ball("(012)", 1)
    ids = {t.lookup(generator(k, W012)) for k in range(8)}
    assert len(ids) == 8 and t.lookup(Element.identity(W012)) not in ids


def exhaustive_gamma(omega_text, shift, radius, depth):
    """Growth of the ball from every product of at most ``radius``
    generators, deduplicated by the letterwise action on all vertices of
    level ``depth``."""
    omega = parse_omega(omega_text)
    best = {}
    for L in range(radius + 1):
        for raw in itertools.product(range(8), repeat=L):
            w = reduce(raw).word
            if w not in best or best[w][0] > L:
                best[w] = (L, raw)
    leaves = [format(i, f"0{depth}b") for i in range(1 << depth)]
    seen = {}
    for L, raw in best.values():
        key = tuple(act_word(raw, omega, shift, v) for v in leaves)
        if key not in seen or seen[key] > L:
            seen[key] = L
    return [sum(1 for L in seen.values() if L <= n) for n in range(radius + 1)]


def test_ball_gamma_against_exhaustive_words():
    # Level 10 separates the elements of each ball: the smallest separating
    # levels are 5, 4, 5, 4 and 3 in the order below.
    cases = (("(012)", 0, 5), ("01(2)", 0, 4), ("(0012)", 1, 4), ("(01)", 0, 4), ("(0)", 0, 4))
    for text, shift, radius in cases:
        oracle = exhaustive_gamma(text, shift, radius, 10)
        assert oracle == ball(text, radius, shift).gamma(), (text, shift)


def test_ball_determinism():
    t1 = enumerate_ball(W012, 0, 6)
    # A freshly parsed spec starts with an empty memo: a cold run.
    t2 = enumerate_ball(parse_omega("(012)"), 0, 6)
    assert t1.entries == t2.entries
    assert ball_links(t1) == ball_links(t2)
    assert t1.strata == t2.strata


def test_equal_specs_keep_separate_memos():
    warm, cold = parse_omega("(012)"), parse_omega("(012)")
    assert warm == cold and hash(warm) == hash(cold)
    assert str(warm) == "(012)"
    assert repr(warm) == "OmegaSpec(preperiod='', period='012')"
    t1 = enumerate_ball(warm, 0, 5)
    # The ball decides equality by its level tables alone; the word problem
    # fills the identity memo.
    assert not equal(generator("b", warm), generator("c", warm))
    assert warm.sections and warm.trivial
    assert cold.sections == {} and cold.trivial == {}
    assert warm == cold and hash(warm) == hash(cold)
    t2 = enumerate_ball(cold, 0, 5)
    assert t1.entries == t2.entries
    assert ball_links(t1) == ball_links(t2)
    assert t1.keys == t2.keys
    assert t1.strata == t2.strata


def test_ball_budget_cap():
    t = enumerate_ball(W012, 0, 6, budget=50)
    assert not t.complete
    assert t.radius < 6
    assert t.gamma()[-1] <= 50
    # the surviving table is still coherent
    assert len(t.entries) == t.gamma()[-1]
    assert all(t.lookup(t.element(i)) == i for i in range(len(t.entries)))


def test_ball_memory_per_element():
    # An element is its word, its 128-byte half-table key, its packed first
    # link, its id in the key index and 0.28 extra links: about 327 traced
    # bytes at (012) r=10 under CPython 3.11 (676 with the 256-byte table,
    # a one-id list per key and a list of link tuples).  The bound leaves
    # 10% for other interpreter versions.
    tracemalloc.start()
    try:
        table = enumerate_ball(parse_omega("(012)"), 0, 10)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.entries) == 13_883
    assert traced / len(table.entries) < 360


def test_strata_lengths_and_canonical_words():
    t = ball("(012)", 6)
    for n, stratum in enumerate(t.strata):
        for eid in stratum:
            assert len(t.entries[eid]) == n
            assert reduce(t.entries[eid]).contractions == 0
    gam = t.gamma()
    assert all(gam[i] < gam[i + 1] for i in range(len(gam) - 1))


def test_geodesic_words_structure():
    t = ball("(012)", 4)
    for n in range(5):
        for eid in t.strata[n]:
            words = geodesic_words(t, eid)
            assert words
            for w in words:
                assert len(w) == n
                assert reduce(w).contractions == 0
                assert len(reduce(w).word) == n


def test_geodesic_links_complete_small_radius():
    # the predecessor links reproduce exactly the reduced length-n words
    # of each element, against brute force over all products of <= 4 letters
    from collections import defaultdict

    t = ball("(012)", 4)
    brute = defaultdict(set)
    for L in range(5):
        for raw in itertools.product(range(8), repeat=L):
            r = reduce(raw)
            if r.contractions or len(r.word) != L:
                continue  # not a reduced word of this length
            eid = t.lookup(Element(r.word, W012, 0))
            assert eid is not None
            if len(t.entries[eid]) == L:
                brute[eid].add(bytes(raw))
    assert set(brute) == set(range(len(t.entries)))
    for eid, words in brute.items():
        assert set(geodesic_words(t, eid)) == words


def test_geodesic_words_cap(monkeypatch):
    t = ball("(012)", 4)
    eid = t.strata[4][0]
    monkeypatch.setattr(growth, "GEODESIC_CAP", 0)
    with pytest.raises(GeodesicCapExceeded):
        geodesic_words(enumerate_ball(W012, 0, 4), eid)


def test_gamma_submultiplicative():
    gam = ball("(012)", 8).gamma()
    for i in range(len(gam)):
        for j in range(len(gam) - i):
            assert gam[i + j] <= gam[i] * gam[j]


def test_classify_geodesics_small():
    t = ball("(012)", 2)
    cls1 = classify_geodesics(t, "0.1", 1)
    a_id = t.lookup(generator("a", W012))
    assert a_id in cls1.D
    for k in range(1, 8):
        assert t.lookup(generator(k, W012)) in cls1.F
    cls2 = classify_geodesics(t, "0.1", 2)
    ab = t.lookup(mul(generator("a", W012), generator("b", W012)))
    assert ab in cls2.F
    assert cls2.F | cls2.D == frozenset(t.strata[2])
    assert not (cls2.F & cls2.D)


def test_classify_geodesics_partition_to_6():
    t = ball("(012)", 6)
    for n in range(7):
        cls = classify_geodesics(t, Fraction(1, 10), n)
        assert cls.F | cls.D == frozenset(t.strata[n])
        assert not (cls.F & cls.D)


def test_classify_geodesics_brute_force_reclassification():
    t = ball("(012)", 6)
    eps = Fraction(1, 10)
    for n in (4, 5, 6):
        cls = classify_geodesics(t, eps, n)
        threshold = (Fraction(1, 2) - eps) * n
        for eid in t.strata[n]:
            spread_words = []
            for w in geodesic_words(t, eid):
                counts = [0] * 8
                for let in w:
                    counts[let] += 1
                if all(counts[k] <= threshold for k in SPINE_LETTERS):
                    spread_words.append(w)
            assert (eid in cls.D) == bool(spread_words)


def test_count_ftilde_examples():
    assert count_ftilde("0.5", 2) == 7
    assert count_ftilde("0.99", 1) == 7
    assert count_ftilde("0.5", 3) == 133


def test_count_ftilde_against_exhaustive():
    for delta in ("0.3", "0.5", "0.7"):
        for k in range(1, 5):
            dp = count_ftilde(delta, k)
            assert dp == count_ftilde_exhaustive(delta, k)
            assert dp == ftilde_count_exhaustive(delta, k)


def test_lemma9_report():
    rep = lemma9_report("0.3", 14)
    assert rep["bound"] == pytest.approx(0.7 ** -1 * 0.05 ** -0.3, rel=1e-12)
    assert rep["rows"][0]["root"] == 7.0
    trend = [r["trend"] for r in rep["rows"]]
    assert all(trend[i + 1] <= trend[i] for i in range(len(trend) - 1))
    with pytest.raises(ValueError):
        lemma9_report("2.3", 5)
    with pytest.raises(ValueError):
        lemma9_report("0", 5)
    # limiting bound tends to 1 for vanishing delta
    assert lemma9_bound("0.000001") == pytest.approx(1.0, abs=1e-4)


def test_lemma8_map():
    res = lemma8_map(parse_letters("a b a b a"), "0.1")
    assert res.mapped == b"\x01\x01" and res.n_prime == 2
    with pytest.raises(ValueError):
        lemma8_map(parse_letters("a"), "0.1")
    with pytest.raises(ValueError):
        lemma8_map((1, 1), "0.1")  # unreduced input
    # a spread word of length 4 cannot pass the frequency inequality
    with pytest.raises(LemmaViolation):
        lemma8_map(parse_letters("b a c a d a x"), "0.01")


def test_lemma8_check_clean():
    rep = lemma8_check(ball("(012)", 6), "0.1")
    assert rep["passed"] and rep["checked_words"] > 0


def test_lemma8_check_keeps_no_minimal_words():
    table = enumerate_ball(W012, 0, 8)
    rep = lemma8_check(table, "0.1")
    assert rep["passed"] and rep["checked_words"] > 0
    # A sphere's words go once the next sphere is checked, and a last-sphere
    # element's once that element is checked.
    assert table._geodesics == {}
    # The one-pass classification checks the F-type words classify_geodesics finds.
    fresh = enumerate_ball(W012, 0, 8)
    f_words = sum(
        len(geodesic_words(fresh, eid))
        for n in range(2, 9)
        for eid in classify_geodesics(fresh, "0.1", n).F
    )
    assert rep["checked_words"] == f_words
    # Evicted words are recomputed on demand, the same as on a fresh table.
    for eid in range(0, len(table.entries), 37):
        assert geodesic_words(table, eid) == geodesic_words(fresh, eid)
    assert lemma8_check(table, "0.1") == rep == lemma8_check(fresh, "0.1")


def test_level_section_trace():
    tr = level_section_trace(Element.identity(W012), 3)
    assert all(
        lv.alpha == 0 and all(e.length == 0 for e in lv.words) for lv in tr
    )
    tr = level_section_trace(generator("b", W012), 1)
    words = tr[0].words
    assert render_letters(words[0].word) == "a" and render_letters(words[1].word) == "b"
    assert words[1].shift == 1
    assert tr[0].alpha == 0
    assert (tr[0].x, tr[0].y, tr[0].z) == (0, 0, 1)
    with pytest.raises(NotLevelStabilizer):
        level_section_trace(generator("a", W012), 1)
    with pytest.raises(NotLevelStabilizer):
        level_section_trace(generator("b", W012), 2)
    # a d a fixes level 2, and its level-2 section d a moves level 3.
    ada = Element.from_text("a d a", W012)
    assert len(level_section_trace(ada, 2)) == 2
    with pytest.raises(NotLevelStabilizer):
        level_section_trace(ada, 3)


def test_section_walks_write_no_memo(monkeypatch):
    # lemma3 and the lemma-11 traces visit each section once: they split
    # words themselves and leave the sequence's memo alone.
    table = enumerate_ball(parse_omega("(012)"), 0, 8)
    before = dict(table.omega.sections)
    assert lemma3_check(table)["passed"]
    assert table.omega.sections == before

    def not_called(*args):
        raise AssertionError("level_section_trace must walk the words itself")

    stab = [
        g for g in map(table.element, range(len(table.entries)))
        if stabilizes_level(g, 3)
    ]
    assert len(stab) > 20
    monkeypatch.setattr(growth, "stabilizes_level", not_called)
    monkeypatch.setattr(growth, "decompose", not_called)
    for g in stab:
        level_section_trace(g, 3)
    with pytest.raises(NotLevelStabilizer):
        level_section_trace(Element.from_text("a d a", table.omega), 3)


@pytest.mark.parametrize("text, order", [("(012)", 16), ("(0012)", 32)])
def test_word_problem_writes_no_section_memo(text, order):
    # is_identity splits each section itself and memoizes only its answer,
    # so the word problem leaves the sequence's section memo empty.
    omega = parse_omega(text)
    rng = random.Random(text)
    # a b has this order; its sections stay nonempty for a few levels.
    relator, mover = b"\0\1" * order, b"\0\1" * (order // 2)
    assert identity_to_depth(relator, omega, 0, 9)
    assert not identity_to_depth(mover, omega, 0, 9)
    u, v = (
        bytes(x for _ in range(150) for x in (0, rng.randrange(1, 8))) for _ in "uv"
    )
    trivial = Element.from_letters(u + relator + u[::-1], omega)
    moving = Element.from_letters(u + mover + u[::-1], omega)
    assert len(trivial.word) > 300 and len(moving.word) > 300
    assert moving.in_stabilizer
    rest = Element(v, omega, 0)
    cases = [
        (is_identity, (trivial,), True),
        (is_identity, (moving,), False),
        (equal, (Element.from_letters(trivial.word + v, omega), rest), True),
        (equal, (Element.from_letters(moving.word + v, omega), rest), False),
    ]
    for decide, args, expected in cases:
        assert decide(*args) is expected
        assert omega.sections == {}
        assert omega.trivial
    assert omega.trivial[(0, trivial.word)] is True
    assert omega.trivial[(0, moving.word)] is False


def test_lemma11_part_a_and_gate():
    t = ball("(012)", 6)
    rep = lemma11_check(t, "0.3")
    assert rep["s"] == 3 and rep["t"] == 2
    assert rep["part_a_passed"]
    assert rep["part_b"] == "precondition unmet, skipped"
    rep = lemma11_check(t, "0.45")
    assert isinstance(rep["part_b"], dict)
    assert rep["part_b"]["passed"]
    assert rep["passed"]


def test_lemma11_bound_arithmetic():
    bound = (1 - Fraction("0.2") / 5) * 13 + 2**3 - 1
    assert float(bound) == pytest.approx(19.48)


def test_lemma11_symbol_roles_generalize():
    # the x/y/z roles follow the actual first/second/third symbols, so the
    # unconditional bound must hold for any symbol order and preperiod
    for text, s, t in (
        ("(120)", 3, 2),
        ("(201)", 3, 2),
        ("(210)", 3, 2),
        ("1(012)", 4, 2),
        ("22(012)", 4, 3),
    ):
        rep = lemma11_check(ball(text, 7), "0.4")
        assert (rep["s"], rep["t"]) == (s, t)
        assert rep["part_a_passed"] and rep["checked_words"] > 0
        assert rep["passed"]


def test_lemma11_rejects_wrong_level():
    with pytest.raises(ValueError):
        lemma11_check(enumerate_ball(parse_omega("(01)"), 0, 3), "0.3")


def test_lemma11_full_scale():
    # the smallest radius/epsilon pair satisfying the n * eps > 5/2 gate
    # with a nonvacuous spread set; ~20 s, the slowest test in the suite
    t = enumerate_ball(W012, 0, 13)
    assert t.gamma() == [
        1, 9, 23, 79, 168, 416, 832, 1992, 3804, 7756,
        13883, 28427, 51112, 101736,
    ]
    rep = lemma11_check(t, Fraction(1, 5))
    assert rep["part_a_passed"]
    assert rep["checked_words"] == 2477
    assert rep["part_b"]["bound"] == pytest.approx(19.48)
    assert rep["part_b"]["checked_words"] == 1676
    assert rep["part_b"]["passed"]


def reference_part_b(t, eps):
    """Lemma 11 part B as a separate pass: the spread minimal words of the
    D-type level-s stabilizers of the outer sphere, each traced afresh."""
    s = first_third_symbol_index(t.omega)
    n = t.radius
    threshold = (Fraction(1, 2) - eps) * n
    headline = (1 - eps / 5) * n + (1 << s) - 1
    checked, violations = 0, []
    for eid in sorted(classify_geodesics(t, eps, n).D):
        if not stabilizes_level(t.element(eid), s):
            continue
        for w in geodesic_words(t, eid):
            counts = [0] * 8
            for let in w:
                counts[let] += 1
            if any(counts[k] > threshold for k in SPINE_LETTERS):
                continue
            tr = level_section_trace(Element(w, t.omega, t.shift), s)
            checked += 1
            total = sum(len(e.word) for e in tr[s - 1].words)
            if total > headline:
                violations.append(
                    {"eid": eid, "word": render_letters(w), "total": total,
                     "bound": float(headline)}
                )
    return checked, violations


@pytest.mark.parametrize(
    "text, radius, eps, checked",
    [("(012)", 12, Fraction(1, 4), 256), ("(120)", 9, Fraction(2, 5), 0)],
)
def test_lemma11_part_b_matches_a_separate_pass(text, radius, eps, checked):
    t = ball(text, radius)
    part_b = lemma11_check(t, eps)["part_b"]
    assert (part_b["checked_words"], part_b["violations"]) == reference_part_b(t, eps)
    assert part_b["checked_words"] == checked


def test_checkers_never_pass_an_incomplete_ball():
    # At budget 200 the (012) ball stops at radius 4; the checks find no
    # violation there, but what they did not reach is unchecked.
    t = enumerate_ball(W012, 0, 10, budget=200)
    assert (t.radius, t.complete) == (4, False)
    rep = lemma8_check(t, "0.1")
    assert rep["checked_words"] > 0 and rep["violations"] == []
    assert not rep["complete"] and not rep["passed"]
    rep = lemma11_check(t, Fraction(8, 25))
    assert rep["checked_words"] > 0 and rep["part_a_passed"]
    assert not rep["complete"] and not rep["passed"]
    full = ball("(012)", 6)
    assert lemma8_check(full, "0.1")["complete"]
    assert lemma11_check(full, Fraction(8, 25))["complete"]
    rep = prop6_check(parse_omega("01(2)"), 20, budget=100)
    assert rep["dihedral_exact"] and rep["collapsed_set"] == ["a", "x"]
    assert (rep["complete"], rep["passed"]) == (False, False)


def test_lemma3_check():
    rep = lemma3_check(enumerate_ball(W012, 0, 6))
    assert rep["passed"]
    assert rep["numeric_inequality"]["lhs"] <= rep["numeric_inequality"]["rhs"]
    # the contraction is not specific to three-symbol sequences
    assert lemma3_check(enumerate_ball(parse_omega("(01)"), 0, 6))["passed"]
    assert lemma3_check(enumerate_ball(parse_omega("01(2)"), 0, 6))["passed"]


def test_lemma3_checks_the_radius_both_balls_cover():
    # At budget 300 both (012) balls complete radius 4, and the sections of
    # a length-m element need the shifted ball to ceil((m + 2) / 2).
    rep = lemma3_check(enumerate_ball(W012, 0, 10, budget=300), budget=300)
    assert (rep["radius"], rep["complete"], rep["passed"]) == (4, False, False)
    assert rep["gamma"] == ball("(012)", 4).gamma()
    assert rep["gamma_shifted"] == ball("(012)", 3, shift=1).gamma()
    assert rep["numeric_inequality"] == {"lhs": 168, "rhs": 2 * 79**2, "passed": True}
    assert rep["violations"] == []
    assert lemma3_check(enumerate_ball(W012, 0, 6, budget=9), budget=9)["radius"] == 0
    with pytest.raises(BudgetExceeded):
        lemma3_check(enumerate_ball(W012, 0, 6, budget=8), budget=8)


def test_prop6():
    rep = prop6_check(W0, 12)
    assert rep["passed"]
    assert rep["gamma_shifted"] == [2 * n + 1 for n in range(13)]
    rep = prop6_check(parse_omega("01(2)"), 8, degree_radius=6)
    assert rep["passed"]
    assert rep["collapsed_set"] == ["a", "x"]
    with pytest.raises(ValueError):
        prop6_check(W012, 4)


def test_bound_curves():
    # Every n up to 512, then every 10^4 up to 10^6.
    samples = (*range(2, 513), *range(10**4, 10**6 + 1, 10**4))
    lower, upper = bound_curves(samples, 1)
    assert lower[16] == pytest.approx(16 / math.log(16) ** 3)
    assert min(lower) == 2
    assert min(upper) == 3  # loglog(3) > 0 is fine with natural logs
    # upper grows monotonically from 16 on
    ups = [lv for n, lv in upper.items() if n >= 16]
    assert len(ups) > 100
    assert all(ups[i] < ups[i + 1] for i in range(len(ups) - 1))
    with pytest.raises(ValueError):
        bound_curves(samples, 0)
