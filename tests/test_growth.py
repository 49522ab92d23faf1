"""Ball enumeration, geodesic classification, counting, and the checkers."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from overgrowth.omega import first_third_symbol_index, parse_omega, symbol_at
from overgrowth.words import (
    SPINE_LETTERS,
    even_section_inputs,
    fixed_count,
    parse_letters,
    reduce,
    render_letters,
    section_of,
    split_sections,
)
from overgrowth import cli, growth, words
from overgrowth.elements import Element, equal, generator, is_identity, mul
from overgrowth.growth import (
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

from _oracles import (
    act_word,
    ball_links,
    ftilde_count_exhaustive,
    identity_to_depth,
    lemma3_every_lookup,
    lemma8_every_word,
    reduce_stack_pass,
    split_letters,
)

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


@pytest.mark.parametrize("text", ["(012)", "01(2)", "(0012)", "(01)", "0(12)", "012(0)", "(0)"])
def test_growth_is_invariant_under_relabelling_the_symbols(text):
    # Renaming the symbols 0, 1, 2 renames the spine letters' coordinates,
    # so the six relabelled sequences give isomorphic groups.
    gammas = {
        tuple(enumerate_ball(parse_omega(text.translate(str.maketrans("012", perm))), 0, 10).gamma())
        for perm in map("".join, itertools.permutations("012"))
    }
    assert len(gammas) == 1


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
    assert warm.trivial
    assert cold.trivial == {}
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
    # An element is its word, its 32-byte key (a level-4 table and 16 class
    # bytes at r=10) and its entry in the key index, which maps the key to
    # the word itself: about 169 traced bytes at (012) r=10 under CPython
    # 3.11 (292 with a 128-byte level-8 key and an int id per key, 327 with
    # stored links too).  The bound leaves 6% for other interpreter versions.
    tracemalloc.start()
    try:
        table = enumerate_ball(parse_omega("(012)"), 0, 10)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.entries) == 13_883
    assert traced / len(table.entries) < 180


def test_streamed_growth_peaks_below_the_whole_ball(tmp_path, capsys):
    # growth keeps two spheres of the ball and drops each one below them:
    # spheres 10 and 11 hold 73% of the (012) ball at radius 11, and its
    # traced peak is about 72-74% of the whole ball's traced size.
    tracemalloc.start()
    try:
        table = enumerate_ball(parse_omega("(012)"), 0, 11)
        whole, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del table
    argv = ["growth", "--omega", "(012)", "--radius", "11", "--export-ball"]
    tracemalloc.start()
    try:
        assert cli.main([*argv, str(tmp_path / "ball.jsonl")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.splitlines()[-1].startswith("11,14544,28427,")
    assert peak < 0.8 * whole


def test_dropped_spheres_leave_the_kept_sphere_keyed():
    # growth drops each sphere once the next is complete: the key index
    # is then refilled with exactly the kept sphere.
    table = growth.BallTable(W012, 0, 7)
    for n, sphere in enumerate(growth.grow_ball(table)):
        if n:
            table.drop_sphere(n - 1)
        assert len(table._by_key) == len(sphere)
        for eid in sphere:
            assert table._by_key[table.keys[eid]] == table.entries[eid]
            assert table.lookup(table.element(eid)) == eid
    assert set(table.entries[: table.strata[-1].start]) == {None}
    assert set(table.keys[: table.strata[-1].start]) == {None}


def test_ball_table_refuses_a_negative_radius():
    # enumerate_ball and growth read the table's check.
    for build in (growth.BallTable, enumerate_ball):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            build(W012, 0, -1)


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
    rep = lemma9_report("0.3", 14)["detail"]
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


@pytest.mark.parametrize(
    "delta",
    ["1/1000", "1/100", "1/20", "1/10", "1/5", "3/10", "1/2", "6/7", "9/10", "99/100"],
)
def test_lemma9_counts_stay_below_seven_bound_to_the_k(delta):
    # A fixed letter dominates in sum_{j < delta k} C(k, j) 6^j words, at
    # most B^k of them for delta <= 6/7 (a Chernoff bound), and 7^k <= B^k
    # beyond; the union over the 7 letters gives 7 B^k.
    rep = lemma9_report(delta, 60)
    assert rep["checks"] == 60 and rep["violations"] == []
    log_bound = math.log(rep["detail"]["bound"])
    for row in rep["detail"]["rows"]:
        assert math.log(row["count"]) < math.log(7) + row["k"] * log_bound


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


def test_lemma8_inequalities_hold_for_every_f_type_count():
    # The three inequalities lemma8_map checks, on every length n, every
    # epsilon = p/q < 1/2 with q <= 16, both spine-letter counts n' a reduced
    # word can have, and every count m of an F-type word's top spine letter.
    # None fails, so lemma8_check can list no violation for a reduced word.
    cases = 0
    epsilons = {Fraction(p, q) for q in range(2, 17) for p in range(1, (q + 1) // 2)}
    for n in range(2, 121):
        for eps in epsilons:
            delta = 2 * eps + Fraction(3, n - 1)
            floor_m = math.floor((Fraction(1, 2) - eps) * n)
            for n_prime in {n // 2, (n + 1) // 2}:
                assert Fraction(n - 1, 2) <= n_prime <= Fraction(n + 1, 2)
                line = (1 - delta) * n_prime
                for m in range(floor_m + 1, n_prime + 1):
                    assert m > line, (n, eps, n_prime, m)
                    cases += 1
    assert cases == 111_163


def test_lemma8_check_clean():
    rep = lemma8_check(ball("(012)", 6), "0.1")
    assert rep["complete"] and rep["violations"] == [] and rep["checks"] > 0
    assert "detail" not in rep


def test_lemma8_check_keeps_no_minimal_words():
    table = enumerate_ball(W012, 0, 8)
    rep = lemma8_check(table, "0.1")
    assert rep["complete"] and rep["violations"] == [] and rep["checks"] > 0
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
    assert rep["checks"] == f_words
    # Evicted words are recomputed on demand, the same as on a fresh table.
    for eid in range(0, len(table.entries), 37):
        assert geodesic_words(table, eid) == geodesic_words(fresh, eid)
    assert lemma8_check(table, "0.1") == rep == lemma8_check(fresh, "0.1")
    # fresh held words of last-sphere elements that lemma8 does not list.
    assert table._geodesics == fresh._geodesics == {}


@pytest.mark.parametrize(
    "text, radius",
    # The old level-8 key was exact to radius 8 over (0012); (0) hits the
    # cap at element 34.
    [("(012)", 10), ("(0012)", 10), ("(01)", 12), ("01(2)", 14), ("(0)", 20)],
)
def test_lemma8_check_matches_listing_every_word(text, radius):
    omega = parse_omega(text)
    rep = lemma8_check(enumerate_ball(omega, 0, radius), "0.1")
    assert rep == lemma8_every_word(enumerate_ball(omega, 0, radius), "0.1")
    assert rep["checks"] > 0
    assert ("detail" in rep) == (text == "(0)") == (not rep["complete"])


def test_lemma8_check_lists_words_of_unspread_elements_only(monkeypatch):
    # A spread stored word is a spread minimal word: its element is D-type.
    table = enumerate_ball(W012, 0, 10)
    unspread = [
        eid
        for n in range(2, 11)
        for eid in table.strata[n]
        if max(map(table.entries[eid].count, (1, 2, 3, 4, 5, 6, 7)))
        > (Fraction(1, 2) - Fraction(1, 10)) * n
    ]
    real = growth.geodesic_words
    listed = []
    depth = 0

    def counting(table, eid):
        # Only the checker's own calls, not the recursion's.
        nonlocal depth
        if not depth:
            listed.append(eid)
        depth += 1
        try:
            return real(table, eid)
        finally:
            depth -= 1

    monkeypatch.setattr(growth, "geodesic_words", counting)
    rep = lemma8_check(table, "0.1")
    assert rep["complete"] and rep["violations"] == []
    assert listed == unspread and len(listed) == 201


def _has_letter_above(word, threshold):
    return any(word.count(k) > threshold for k in SPINE_LETTERS)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize(
    "text, radius",
    [("(012)", 10), ("01(2)", 14), ("(0012)", 10), ("(01)", 12), ("(0)", 520), ("0(1)", 40)],
)
def test_sphere_selection_matches_the_per_element_rule(monkeypatch, text, radius, chunk):
    # Chunks of 7 words put chunk boundaries inside every sphere past 7.
    if chunk is not None:
        monkeypatch.setattr(growth, "_COLUMN_CHUNK", chunk)
    t = ball(text, radius)
    for eps in (Fraction(1, 10), Fraction(8, 25), Fraction(49, 100)):
        for n in range(radius + 1):
            threshold = math.floor((Fraction(1, 2) - eps) * n)
            expected = [eid for eid in t.strata[n] if _has_letter_above(t.entries[eid], threshold)]
            assert growth._f_type_candidates(t, n, threshold) == expected


def test_sphere_selection_cases_reach_past_a_chunk_and_a_byte():
    # The cases above hold a sphere of several chunks, and (0)'s words of
    # 510 letters, whose letter b occurs 255 times, then longer words, read
    # one at a time.
    assert len(ball("(012)", 10).strata[10]) > 5 * growth._COLUMN_CHUNK
    t = ball("(0)", 520)
    assert growth._COLUMN_LENGTH_MAX == 510
    assert [t.entries[eid].count(1) for eid in t.strata[510]] == [255, 255]
    assert sorted(t.entries[eid].count(1) for eid in t.strata[511]) == [255, 256]


@pytest.mark.parametrize(
    "text, radius", [("(012)", 9), ("01(2)", 12), ("(0012)", 9), ("(01)", 12), ("0(1)", 14)]
)
def test_f_type_split_matches_listing_every_word_across_chunks(monkeypatch, text, radius):
    monkeypatch.setattr(growth, "_COLUMN_CHUNK", 7)
    omega = parse_omega(text)
    rep = lemma8_check(enumerate_ball(omega, 0, radius), "0.1")
    assert rep == lemma8_every_word(enumerate_ball(omega, 0, radius), "0.1")
    assert rep["complete"] and rep["checks"] > 0
    t = enumerate_ball(omega, 0, radius)
    for eps in (Fraction(1, 10), Fraction(8, 25)):
        for n in range(radius + 1):
            threshold = math.floor((Fraction(1, 2) - eps) * n)
            f_ids = frozenset(
                eid for eid in t.strata[n]
                if all(_has_letter_above(w, threshold) for w in geodesic_words(t, eid))
            )
            cls = classify_geodesics(t, eps, n)
            assert (cls.F, cls.D) == (f_ids, frozenset(t.strata[n]) - f_ids)


def test_level_section_trace():
    tr = level_section_trace(Element.identity(W012), 3)
    assert all(
        lv.alpha == 0 and lv.words == (b"",) * (2 << j) for j, lv in enumerate(tr)
    )
    tr = level_section_trace(generator("b", W012), 1)
    words = tr[0].words
    assert render_letters(words[0]) == "a" and render_letters(words[1]) == "b"
    assert tr[0].alpha == 0
    joined = b"".join(words)
    assert tuple(fixed_count(joined, q) for q in (0, 1, 2)) == (0, 0, 1)
    with pytest.raises(NotLevelStabilizer):
        level_section_trace(generator("a", W012), 1)
    with pytest.raises(NotLevelStabilizer):
        level_section_trace(generator("b", W012), 2)
    # a d a fixes level 2, and its level-2 section d a moves level 3.
    ada = Element.from_text("a d a", W012)
    assert len(level_section_trace(ada, 2)) == 2
    with pytest.raises(NotLevelStabilizer):
        level_section_trace(ada, 3)


@pytest.mark.parametrize("text", ["(012)", "(0012)", "(0102011)", "(120)"])
def test_level_section_trace_matches_oracle_splits(text):
    # Level j + 1 splits every level-j word by the letterwise substitution
    # and reduces each child one letter at a time, counting contractions.
    t = ball(text, 9)
    s = first_third_symbol_index(t.omega)
    traced = 0
    for eid in range(len(t.entries)):
        g = t.element(eid)
        if not stabilizes_level(g, s):
            with pytest.raises(NotLevelStabilizer):
                level_section_trace(g, s)
            continue
        for w in geodesic_words(t, eid):
            traced += 1
            words = [w]
            trace = level_section_trace(Element(w, t.omega, t.shift), s)
            for j, level in enumerate(trace):
                raw = []
                for u in words:
                    swap, left, right = split_letters(u, t.omega, t.shift + j)
                    assert not swap
                    raw += (left, right)
                reduced = [reduce_stack_pass(r) for r in raw]
                words = [u for u, _ in reduced]
                assert level.words == tuple(words)
                assert level.alpha == sum(alpha for _, alpha in reduced)
    assert traced > 100


def test_lemma11_traces_split_words_themselves(monkeypatch):
    # level_section_trace splits each section word itself: it calls neither
    # stabilizes_level nor decompose, and still stops at a swapping section.
    table = enumerate_ball(parse_omega("(012)"), 0, 8)
    rep = lemma3_check(table)
    assert rep["complete"] and rep["violations"] == []

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
def test_word_problem_memoizes_only_its_answers(text, order):
    # is_identity and equal split long words section by section, answer
    # right, and memoize the identity answer of each word in ``trivial``.
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
        assert omega.trivial
    assert omega.trivial[(0, trivial.word)] is True
    assert omega.trivial[(0, moving.word)] is False


def test_lemma11_part_a_and_gate():
    t = ball("(012)", 6)
    rep = lemma11_check(t, "0.3")
    assert rep["detail"]["s"] == 3 and rep["t"] == 2
    assert rep["violations"] == []
    assert rep["detail"]["part_b"] == "precondition unmet, skipped"
    rep = lemma11_check(t, "0.45")
    assert isinstance(rep["detail"]["part_b"], dict)
    assert rep["detail"]["part_b"]["passed"]
    assert rep["complete"] and rep["violations"] == []
    # The lemma holds for 0 < epsilon < 1/2 only.  From 1/2 on, the spread
    # threshold keeps no word of length n, so part B would pass unchecked.
    for bad in ("0.7", "1/2", "0", "-0.1"):
        with pytest.raises(ValueError, match="epsilon"):
            lemma11_check(t, bad)


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
        assert (rep["detail"]["s"], rep["t"]) == (s, t)
        assert rep["violations"] == [] and rep["checks"] > 0
        assert rep["complete"]


def test_lemma11_check_reads_the_shifted_sequence():
    # (0012) read from position 2 on is (0120): the same generators, so the
    # same ball and the same levels and symbol roles.
    shifted = lemma11_check(enumerate_ball(parse_omega("(0012)"), 1, 10), Fraction(1, 5))
    assert shifted == lemma11_check(ball("(0120)", 10), Fraction(1, 5))
    assert (shifted["detail"]["s"], shifted["t"], shifted["checks"]) == (3, 2, 229)


@pytest.mark.parametrize("cap", [24, 32])
def test_lemma11_cap_radius_counts_the_stabilizer_being_listed(monkeypatch, cap):
    # Over 01(2) the cap stops element 6590, of length 11, while a level-3
    # stabilizer of length 13 lists its words: every stabilizer up to
    # length 12 is checked.  A memo that lemma8 leaves changes nothing.
    monkeypatch.setattr(growth, "GEODESIC_CAP", cap)
    t = enumerate_ball(parse_omega("01(2)"), 0, 14)
    for _ in range(2):
        rep = lemma11_check(t, Fraction(8, 25))
        assert rep["detail"] == f"element 6590 has more than {cap} minimal words"
        assert rep["radius"] == 12 and not rep["complete"]
        lemma8_check(t, Fraction(1, 10))


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
    assert rep["violations"] == []
    assert rep["checks"] == 2477
    part_b = rep["detail"]["part_b"]
    assert part_b["bound"] == pytest.approx(19.48)
    assert part_b["checked_words"] == 1676
    assert part_b["passed"]


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
            total = sum(len(e) for e in tr[s - 1].words)
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
    part_b = lemma11_check(t, eps)["detail"]["part_b"]
    assert (part_b["checked_words"], part_b["violations"]) == reference_part_b(t, eps)
    assert part_b["checked_words"] == checked


def test_checkers_never_pass_an_incomplete_ball():
    # At budget 200 the (012) ball stops at radius 4; the checks find no
    # violation there, but what they did not reach is unchecked.
    t = enumerate_ball(W012, 0, 10, budget=200)
    assert (t.radius, t.complete) == (4, False)
    rep = lemma8_check(t, "0.1")
    assert rep["checks"] > 0 and rep["violations"] == []
    assert not rep["complete"]
    rep = lemma11_check(t, Fraction(8, 25))
    assert rep["checks"] > 0 and rep["violations"] == []
    assert not rep["complete"]
    full = ball("(012)", 6)
    assert lemma8_check(full, "0.1")["complete"]
    assert lemma11_check(full, Fraction(8, 25))["complete"]
    rep = prop6_check(parse_omega("01(2)"), 20, budget=100)
    assert rep["violations"] == [] and rep["collapsed_set"] == ["a", "x"]
    assert rep["complete"] is False


def test_lemma3_check():
    rep = lemma3_check(enumerate_ball(W012, 0, 6))
    assert rep["complete"] and rep["violations"] == []
    assert rep["detail"]["lhs"] <= rep["detail"]["rhs"]
    assert (rep["checks"], rep["radius"]) == (ball("(012)", 6).gamma()[6], 6)
    # the contraction is not specific to three-symbol sequences
    for text in ("(01)", "01(2)"):
        rep = lemma3_check(enumerate_ball(parse_omega(text), 0, 6))
        assert rep["complete"] and rep["violations"] == []


def test_lemma3_checks_the_radius_both_balls_cover():
    # At budget 300 both (012) balls complete radius 4, and the sections of
    # a length-m element need the shifted ball to ceil((m + 2) / 2).
    rep = lemma3_check(enumerate_ball(W012, 0, 10, budget=300), budget=300)
    assert (rep["radius"], rep["complete"]) == (4, False)
    assert rep["checks"] == ball("(012)", 4).gamma()[4] == 168
    assert ball("(012)", 3, shift=1).gamma()[3] == 79
    assert rep["detail"] == {"lhs": 168, "rhs": 2 * 79**2, "passed": True}
    assert rep["violations"] == []
    assert lemma3_check(enumerate_ball(W012, 0, 6, budget=9), budget=9)["radius"] == 0
    # Neither ball covers a radius: nothing is checked, which is no pass.
    assert lemma3_check(enumerate_ball(W012, 0, 6, budget=8), budget=8) == {
        "checks": 0,
        "violations": [],
        "radius": None,
        "complete": False,
        "detail": "ball enumeration hit the element budget",
    }


def test_lemma3_check_looks_up_each_distinct_section_once(monkeypatch):
    table = ball("(012)", 10)
    expected = lemma3_every_lookup(table)
    real = growth.BallTable.lookup
    asked = []

    def counting(self, element, key=None):
        # Enumeration passes a key; lemma3's section lookups do not.
        if key is None:
            asked.append(element.word)
        return real(self, element, key)

    monkeypatch.setattr(growth.BallTable, "lookup", counting)
    assert lemma3_check(table) == expected
    assert len(asked) == len(set(asked)) == 471


SPLIT_BALLS = [
    ("(012)", 10, 0),
    ("(012)", 9, 1),
    ("(012)", 9, 2),
    ("01(2)", 14, 0),
    ("(0012)", 10, 0),
    ("(01)", 14, 0),
    ("(0)", 300, 0),
    ("0(1)", 100, 0),
]


@pytest.mark.parametrize("text, radius, shift", SPLIT_BALLS)
def test_column_split_matches_split_sections(text, radius, shift):
    # Chunk by chunk, as lemma3_check reads a sphere, the column split picks
    # the words with an even number of a's and gives the sections that
    # split_sections gives each one.  The balls hold spheres of every
    # length mod 4 (both leads even, one, none), chunks of one or two long
    # words, and spheres of many chunks.
    table = ball(text, radius, shift)
    symbol = symbol_at(table.omega, table.shift + 1)
    chunks, evens = [], []
    for stratum in table.strata:
        chunks.append(0)
        evens.append(0)
        for start in range(stratum.start, stratum.stop, growth._COLUMN_CHUNK):
            chunk = table.entries[start : min(start + growth._COLUMN_CHUNK, stratum.stop)]
            offsets, inputs = even_section_inputs(chunk, symbol)
            even = [i for i, word in enumerate(chunk) if word.count(0) % 2 == 0]
            assert list(offsets) == even
            assert list(map(section_of, inputs)) == [
                section for i in even for section in split_sections(chunk[i], symbol)[1:]
            ]
            chunks[-1] += 1
            evens[-1] += len(even)
    sizes = list(map(len, table.strata))
    for n in range(1, radius + 1):
        # Even words: all of the sphere, none, or those of one lead.
        if n % 4 == 0:
            assert evens[n] == sizes[n]
        elif n % 4 == 2:
            assert evens[n] == 0
        else:
            assert 0 < evens[n] < sizes[n]
    if text == "(012)" and shift == 0:
        # Sphere 10 spans six chunks and has no even word; sphere 8 spans
        # two, all even.
        assert (sizes[10], chunks[10], evens[10]) == (6127, 6, 0)
        assert chunks[8] == 2 and evens[8] == sizes[8]
    assert lemma3_check(table) == lemma3_every_lookup(table)


def test_lemma3_check_splits_no_word_by_itself(monkeypatch):
    table = ball("(012)", 10)
    expected = lemma3_every_lookup(table)
    # Building the shifted ball splits its generators' words: it is built
    # before the patch.
    shifted = enumerate_ball(table.omega, 1, 6)
    monkeypatch.setattr(growth, "enumerate_ball", lambda *args: shifted)

    def not_called(*args):
        raise AssertionError("lemma3_check splits a sphere's words by columns")

    monkeypatch.setattr(words, "split_reduce", not_called)
    monkeypatch.setattr(words, "split_sections", not_called)
    monkeypatch.setattr(growth, "split_reduce", not_called)
    assert lemma3_check(table) == expected


@pytest.mark.parametrize("kinds", [{"missing"}, {"too long"}, {"missing", "too long"}])
def test_lemma3_lists_violations_in_id_order_across_both_leads(monkeypatch, kinds):
    # Sphere 8 holds even words of both leads, a first and a spine letter.
    # Some of their section words miss in the shifted ball, or come back as
    # an id too long for the bound, or both: the record lists them as the
    # oracle, which looks up every section, does, in (eid, side) order.
    table = ball("(012)", 10)
    symbol = symbol_at(table.omega, 1)
    stratum = table.strata[8]
    words_8 = table.entries[stratum.start : stratum.stop]
    leads = [[w for w in words_8 if (w[0] == 0) == lead] for lead in (True, False)]
    assert all(len(group) > 100 for group in leads)
    missing, too_long = set(), set()
    for group in leads:
        for word in group[3::97]:
            _, left, right = split_sections(word, symbol)
            missing.add(left)
            too_long.add(right)
    too_long -= missing
    if "missing" not in kinds:
        missing = set()
    if "too long" not in kinds:
        too_long = set()
    real = growth.BallTable.lookup

    def patched(self, element, key=None):
        if key is None and self.shift == 1:
            if element.word in missing:
                return None
            if element.word in too_long:
                # A length-5 id: past the bound (8 + 1) / 2 of sphere 8,
                # and at that of sphere 9.
                return self.strata[5].start
        return real(self, element, key)

    monkeypatch.setattr(growth.BallTable, "lookup", patched)
    expected = lemma3_every_lookup(table)
    rep = lemma3_check(table)
    assert rep == expected
    found = rep["violations"]
    order = [(v["eid"], v["side"] == "right") for v in found]
    assert order == sorted(order) and len(set(order)) == len(order)
    in_8 = [v for v in found if v["eid"] in stratum]
    assert {table.entries[v["eid"]][0] == 0 for v in in_8} == {True, False}
    assert {"missing" if "detail" in v else "too long" for v in in_8} == kinds
    assert not any(v.get("section_length") for v in found if v["eid"] in table.strata[9])


def test_prop6():
    # No violation at a complete radius 12: the shifted ball's spheres are
    # exactly the 2n + 1 of the infinite dihedral group.
    rep = prop6_check(W0, 12)
    assert (rep["violations"], rep["radius"], rep["complete"]) == ([], 12, True)
    assert rep["degree_estimate"] == pytest.approx(math.log(25) / math.log(12))
    rep = prop6_check(parse_omega("01(2)"), 8, degree_radius=6)
    assert rep["violations"] == [] and rep["complete"]
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
