"""Acceptance suite: one test per criterion, one PASS line each.

Frozen expected values were computed once with this library and
cross-checked against the independent oracles in _oracles (letterwise
vertex actions, exhaustive word enumeration, naive counting); the
regression values are pinned below.
"""

import random
import time
from fractions import Fraction
from functools import cache

from overgrowth.omega import parse_omega, shift_normalize, symbol_at
from overgrowth.words import (
    A,
    REFERENCE_PRODUCTS,
    SPINE_LETTERS,
    a_count,
    parse_letters,
    reduce,
    render_letters,
    spine_mul,
)
from overgrowth.elements import (
    Element,
    act,
    all_generators,
    decompose,
    equal,
    generator,
    is_identity,
    mul,
    signature,
)
from overgrowth import growth
from overgrowth.growth import (
    classify_geodesics,
    count_ftilde,
    count_ftilde_exhaustive,
    bound_curves,
    enumerate_ball,
    geodesic_words,
    lemma8_map,
    lemma9_report,
    lemma11_check,
    lemma3_check,
    level_section_trace,
    prop6_check,
    stabilizes_level,
)

from _oracles import act_word, random_raw_word

W012 = parse_omega("(012)")

# gamma of the (012) ball, radii 0..9, computed once by breadth-first
# enumeration and verified against exhaustive products of <= 5 generators
GAMMA_012_REGRESSION = [1, 9, 23, 79, 168, 416, 832, 1992, 3804, 7756]

# Reference-curve samples: every n up to 512, then every 10^4 up to 10^6.
CURVE_SAMPLES = (*range(2, 513), *range(10**4, 10**6 + 1, 10**4))

# documented small-k envelope for criterion 8: raw roots may exceed the
# limiting bound only for k <= 4, and from k = 4 on stay within 1.05x of it
LEMMA9_FLAG_KS = {1, 4}
LEMMA9_ENVELOPE_FACTOR = 1.05

EQ2_LEFT = {
    0: {1: "a", 2: "a", 3: "", 4: "a", 5: "", 6: "", 7: "a"},
    1: {1: "a", 2: "", 3: "a", 4: "a", 5: "", 6: "a", 7: ""},
    2: {1: "", 2: "a", 3: "a", 4: "a", 5: "a", 6: "", 7: ""},
}


@cache
def ball(omega_text: str, radius: int, shift: int = 0):
    return enumerate_ball(parse_omega(omega_text), shift, radius)


def test_c01_letter_table():
    started = time.time()
    pairs = set()
    for n1, n2, prod in REFERENCE_PRODUCTS:
        (k1,), (k2,), (kp,) = parse_letters(n1), parse_letters(n2), parse_letters(prod)
        assert spine_mul(k1, k2) == kp
        assert spine_mul(k2, k1) == kp
        pairs.add(frozenset((k1, k2)))
    assert len(pairs) == 21
    for k in range(1, 8):
        assert spine_mul(k, k) == 0
    for g in all_generators(W012):
        assert is_identity(mul(g, g))
    assert time.time() - started < 1.0
    print("\nACCEPTANCE 01 PASS - 21 letter products and 8 involutions")


def test_c02_one_level_substitution():
    mismatches = 0
    for text in ("(012)", "(01)", "(0)", "(2)", "01(2)"):
        omega = parse_omega(text)
        sym = symbol_at(omega, 1)
        for k in range(8):
            g = generator(k, omega)
            d = decompose(g)
            if k == A:
                assert d.top_swap and d.left.length == 0 and d.right.length == 0
            else:
                assert not d.top_swap
                assert render_letters(d.left.word) == EQ2_LEFT[sym][k]
                assert tuple(d.right.word) == (k,) and a_count(d.right.word) == 0
                assert d.right.shift == shift_normalize(omega, 1)
            for depth in range(1, 7):
                for i in range(1 << depth):
                    v = format(i, f"0{depth}b")
                    if act(g, v) != act_word((k,), omega, 0, v):
                        mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 02 PASS - substitution rows vs letterwise action, depth 6")


def test_c03_section_contraction():
    t = ball("(012)", 8)
    t_s = ball("(012)", 5, shift=1)
    violations = 0
    for eid in range(len(t.entries)):
        g = t.element(eid)
        if not g.in_stabilizer:
            continue
        d = decompose(g)
        for sec in (d.left, d.right):
            found = t_s.lookup(sec)
            assert found is not None
            if len(t_s.entries[found]) > Fraction(len(g.word) + 1, 2):
                violations += 1
    assert violations == 0
    gam, gam_s = t.gamma(), t_s.gamma()
    assert gam[6] <= 2 * gam_s[4] ** 2
    rep = lemma3_check(enumerate_ball(W012, 0, 6))
    assert rep["complete"] and rep["violations"] == []
    print("ACCEPTANCE 03 PASS - section lengths and one-step growth inequality")


def test_c04_two_symbol_collapse():
    w01, w0 = parse_omega("(01)"), parse_omega("(0)")
    assert equal(generator("b", w01), generator("x", w01))
    ident = Element.identity(w0)
    x0 = generator("x", w0)
    assert equal(generator("d", w0), ident)
    assert equal(generator("b", w0), generator("c", w0))
    assert equal(generator("b", w0), x0)
    assert equal(generator("B", w0), ident)
    assert equal(generator("C", w0), ident)
    assert equal(generator("D", w0), x0)
    print("ACCEPTANCE 04 PASS - collapse relations over (01) and (0)")


def test_c05_dihedral_growth():
    for text in ("(0)", "(1)", "(2)"):
        assert ball(text, 20).gamma() == [2 * n + 1 for n in range(21)]
    rep = prop6_check(parse_omega("01(2)"), 12, degree_radius=8)
    assert rep["collapsed_set"] == ["a", "x"]
    assert rep["violations"] == [] and rep["radius"] == 12
    print("ACCEPTANCE 05 PASS - 2n+1 growth over constant tails, 01(2) collapse")


def test_c06_word_problem_soundness():
    rng = random.Random(20240)
    relator = parse_letters("a d a d a d a d")
    checked_equal = 0
    for i in range(10_000):
        raw1 = random_raw_word(rng, 10)
        if i % 25 == 0:
            prefix = random_raw_word(rng, 2)
            raw2 = tuple(reduce(prefix + relator).word)
            raw1 = prefix
        else:
            raw2 = random_raw_word(rng, 10)
        g = Element.from_letters(raw1, W012)
        h = Element.from_letters(raw2, W012)
        same = equal(g, h)
        sig_same = signature(g, 14) == signature(h, 14)
        if same:
            checked_equal += 1
            assert sig_same, f"equal pair with differing depth-14 portraits: {raw1} {raw2}"
        if not sig_same:
            assert not same
    assert checked_equal >= 400  # the implication is exercised, not vacuous
    print(f"ACCEPTANCE 06 PASS - 10^4 word pairs, {checked_equal} equal, portraits agree")


def test_c07_a_deletion_map():
    t = ball("(012)", 8)
    eps = Fraction(1, 10)
    checked = 0
    for n in range(2, 9):
        cls = classify_geodesics(t, eps, n)
        assert cls.F | cls.D == frozenset(t.strata[n])
        assert not (cls.F & cls.D)
        for eid in sorted(cls.F):
            for w in geodesic_words(t, eid):
                res = lemma8_map(w, eps)  # raises on any failed inequality
                assert Fraction(n - 1, 2) <= res.n_prime <= Fraction(n + 1, 2)
                checked += 1
    assert checked > 0
    print(f"ACCEPTANCE 07 PASS - a-deletion map on {checked} minimal F-words")


def test_c08_frequency_counts():
    started = time.time()
    for delta in ("0.3", "0.5", "0.7"):
        for k in range(1, 5):
            assert count_ftilde(delta, k) == count_ftilde_exhaustive(delta, k)
    rep = lemma9_report("0.3", 14)["detail"]
    roots = [r["root"] for r in rep["rows"]]
    trend = [r["trend"] for r in rep["rows"]]
    assert all(r > 0 and r < float("inf") for r in roots)
    assert all(trend[i + 1] <= trend[i] for i in range(3, len(trend) - 1))
    assert trend[-1] < trend[3]  # the envelope really comes down
    assert set(rep["flagged_k"]) == LEMMA9_FLAG_KS
    bound = rep["bound"]
    assert max(roots[3:]) <= LEMMA9_ENVELOPE_FACTOR * bound
    assert time.time() - started < 10.0
    print("ACCEPTANCE 08 PASS - exact counts, monotone envelope within 1.05x bound")


# The spine letters that act trivially at a level carrying each symbol:
# d, B, C at 0; c, B, D at 1; b, C, D at 2.
FIXED_LETTERS = {0: (3, 5, 6), 1: (2, 5, 7), 2: (1, 6, 7)}

# Sequence, radius, t, s, and its first, second and third symbols.
LEMMA11_CASES = (
    ("(012)", 8, 2, 3, (0, 1, 2)),
    ("(0012)", 9, 3, 4, (0, 1, 2)),
    ("(0102011)", 9, 2, 4, (0, 1, 2)),
    ("(120)", 8, 2, 3, (1, 2, 0)),
)


def test_c09_iterated_contraction(monkeypatch):
    # The letter counts lemma11_check reads, as (symbol, count) in call order.
    read = []

    def recorded(word, symbol):
        count = real_count(word, symbol)
        read.append((symbol, count))
        return count

    real_count = growth.fixed_count
    monkeypatch.setattr(growth, "fixed_count", recorded)
    for text, radius, t_, s, (q1, q2, q3) in LEMMA11_CASES:
        t = ball(text, radius)
        read.clear()
        rep = lemma11_check(t, Fraction(1, 5))
        assert rep["violations"] == [], text
        assert (rep["t"], rep["detail"]["s"]) == (t_, s)
        # independent re-check of the inequality on every traced word
        expected = []
        violations = 0
        for eid in range(len(t.entries)):
            if not stabilizes_level(t.element(eid), s):
                continue
            for w in geodesic_words(t, eid):
                tr = level_section_trace(Element(reduce(w).word, t.omega, 0), s)
                total = sum(len(e) for e in tr[s - 1].words)
                x0 = sum(1 for k in w if k in FIXED_LETTERS[q1])
                y = sum(1 for e in tr[t_ - 2].words for k in e if k in FIXED_LETTERS[q2])
                z = sum(1 for e in tr[s - 2].words for k in e if k in FIXED_LETTERS[q3])
                expected += ((q1, x0), (q2, y), (q3, z))
                alphas = sum(tr[j].alpha for j in range(s - 1))
                if total > len(w) + (1 << s) - 1 - x0 - y - z - alphas:
                    violations += 1
        assert violations == 0, text
        assert len(expected) == 3 * rep["checks"] > 0, text
        assert read == expected, text
    print(f"ACCEPTANCE 09 PASS - unconditional bound over {len(LEMMA11_CASES)} sequences")


def test_c10_growth_regression():
    t = ball("(012)", 9)
    assert t.gamma() == GAMMA_012_REGRESSION
    assert t.gamma()[1] == 9
    # identical when recomputed on a freshly parsed spec, whose memo is empty
    cold = parse_omega("(012)")
    assert cold.trivial == {}
    t2 = enumerate_ball(cold, 0, 9)
    assert t2.gamma() == GAMMA_012_REGRESSION
    assert t2.entries == t.entries
    print("ACCEPTANCE 10 PASS - frozen gamma reproduced:", GAMMA_012_REGRESSION)


def test_c11_submultiplicative_and_ceiling():
    tables = {
        "(012)": ball("(012)", 9),
        "(01)": ball("(01)", 9),
        "(0)": ball("(0)", 20),
        "(1)": ball("(1)", 20),
        "(2)": ball("(2)", 20),
        "01(2)": ball("01(2)", 9),
    }
    for text, t in tables.items():
        gam = t.gamma()
        for i in range(len(gam)):
            for j in range(len(gam) - i):
                assert gam[i + j] <= gam[i] * gam[j], (text, i, j)
        assert all(gam[n] ** (1 / n) <= 9 for n in range(1, len(gam)))
    print("ACCEPTANCE 11 PASS - submultiplicativity and exponent ceiling 9")


def test_c12_bound_curves():
    started = time.time()
    lo, up = bound_curves(CURVE_SAMPLES, 1)
    sampled = [n for n in lo if 16 <= n <= 10**6 and n in up]
    assert len(sampled) > 100
    assert all(lo[n] < up[n] for n in sampled)
    assert time.time() - started < 1.0
    print("ACCEPTANCE 12 PASS - lower curve below upper on sampled 16..10^6")
