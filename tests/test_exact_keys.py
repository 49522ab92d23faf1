"""The exact level-8 ball key.

``tail`` and ``exact_radius`` are checked against a brute-force search
over letterwise vertex actions, the contraction lemma behind them on whole
balls, and balls whose lookups cross ``exact_radius`` against a ball
deduplicated by the word problem alone.  The ball loop probes the key index
itself up to ``exact_radius`` and goes through ``lookup`` only above it.
"""

import json
import random

import pytest

import overgrowth.growth as growth
from overgrowth.cli import main
from overgrowth.elements import (
    _PORTRAIT_CHUNK,
    TABLE_DEPTH_MAX,
    ContextMismatch,
    Element,
    decompose,
    equal,
    exact_radius,
    generator,
    level_table,
    portrait_bytes,
    signature,
    tail,
)
from overgrowth.growth import enumerate_ball
from overgrowth.omega import parse_omega, shift_normalize
from overgrowth.words import A, LETTER_NAMES, reduce

from _oracles import (
    act_word,
    ball_links,
    ball_with_stored_links,
    random_raw_word,
    signature_bytes,
)

ONE_LETTER_WORDS = [b""] + [bytes((k,)) for k in range(8)]


def separating_level(omega, shift):
    """Least level whose vertex actions, letter by letter, tell apart every
    two elements of length at most one that ``equal`` calls distinct."""
    elements = [Element(w, omega, shift) for w in ONE_LETTER_WORDS]
    distinct = [
        (i, j)
        for i in range(len(elements))
        for j in range(i)
        if not equal(elements[i], elements[j])
    ]
    for level in range(1, 13):
        vertices = [format(v, f"0{level}b") for v in range(1 << level)]
        tables = [
            tuple(act_word(w, omega, shift, v) for v in vertices) for w in ONE_LETTER_WORDS
        ]
        if all(tables[i] != tables[j] for i, j in distinct):
            return level
    raise AssertionError("no level up to 12 separates the one-letter elements")


def halvings(n):
    """Number of halvings n -> ceil(n / 2) that bring n down to 1."""
    h = 0
    while n > 1:
        n, h = (n + 1) // 2, h + 1
    return h


def test_tail_and_exact_radius_match_brute_force():
    radii = {}
    for text in ("(012)", "(0012)", "01(2)", "(0)", "2(01)"):
        omega = parse_omega(text)
        shifts = range(omega.cycle_length)
        tails = {s: separating_level(omega, s) for s in shifts}
        for s in shifts:
            assert tail(omega, s) == tails[s], (text, s)
            want = max(
                (
                    1 << h
                    for h in range(TABLE_DEPTH_MAX + 1)
                    if h + tails[shift_normalize(omega, s + h)] <= TABLE_DEPTH_MAX
                ),
                default=0,
            )
            assert exact_radius(omega, s) == want, (text, s)
        radii[text] = [exact_radius(omega, s) for s in shifts]
    assert radii["(012)"] == [16, 16, 16]
    assert radii["01(2)"] == [64, 64, 64]
    assert radii["(0)"] == [64]
    assert radii["(0012)"] == [8, 16, 16, 8]
    assert exact_radius(parse_omega("(01)"), 0) == 32


def test_exact_radius_is_zero_when_no_level_fits():
    # Over (00000001) the letter C first swaps at level 8, so telling it
    # from the identity takes level 9.
    omega = parse_omega("(00000001)")
    assert tail(omega, 0) == 9
    assert exact_radius(omega, 0) == 0


def level_sections(g, h):
    """The 2^h level-h sections of g, checking the contraction bound
    |section| <= (|g| + 1) / 2 at every step."""
    out = [g]
    for _ in range(h):
        nxt = []
        for e in out:
            d = decompose(e)
            for sec in (d.left, d.right):
                assert len(sec.word) <= (len(e.word) + 1) // 2
                nxt.append(sec)
        out = nxt
    return out


def test_level_h_sections_have_at_most_one_letter():
    assert (halvings(8), halvings(12), halvings(16), halvings(17)) == (3, 4, 4, 5)
    for text, radius in (("(012)", 8), ("01(2)", 12)):
        table = enumerate_ball(parse_omega(text), 0, radius)
        h = halvings(radius)
        for eid in range(len(table.entries)):
            assert all(len(s.word) <= 1 for s in level_sections(table.element(eid), h))


def equal_only_ball(omega, shift, radius):
    """Breadth-first ball whose merges are decided by ``equal`` alone; the
    level-6 table only narrows the elements it is asked about, since equal
    elements act alike on every level.  Returns (words, links, gamma)."""
    shift = shift_normalize(omega, shift)
    elements = [Element.identity(omega, shift)]
    links = [[]]
    strata = [[0]]
    buckets = {level_table(elements[0], 6): [0]}
    for level in range(radius):
        frontier = []
        for eid in strata[level]:
            for letter in range(8):
                cand = Element(reduce(elements[eid].word + bytes((letter,))).word, omega, shift)
                if len(cand.word) <= level:
                    continue
                bucket = buckets.setdefault(level_table(cand, 6), [])
                found = next((i for i in bucket if equal(cand, elements[i])), None)
                if found is None:
                    found = len(elements)
                    elements.append(cand)
                    links.append([])
                    bucket.append(found)
                    frontier.append(found)
                if len(elements[found].word) == level + 1:
                    links[found].append((eid, letter))
        strata.append(frontier)
    gamma, total = [], 0
    for stratum in strata:
        total += len(stratum)
        gamma.append(total)
    return [e.word for e in elements], links, gamma


def test_balls_crossing_exact_radius_match_equal_only_dedup(monkeypatch):
    confirmed = []
    real_equal = growth.equal

    def counting_equal(g, h):
        confirmed.append(len(g.word))
        return real_equal(g, h)

    monkeypatch.setattr(growth, "equal", counting_equal)
    # Over (000001) at shift 4, distinct elements share level-8 tables from
    # radius 8 on, and only the word problem tells them apart.  (0012) is
    # exact to 8 at shifts 0 and 3, so strata 9 and 10 confirm every key
    # hit by the word problem; (012) asked for radius 18 (above its exact
    # radius 16) stops at radius 7 under the budget.
    for text, shift, radius, budget, reached, exact in (
        ("(000001)", 4, 10, 20_000, 10, 2),
        ("(0012)", 0, 10, 20_000, 10, 8),
        ("(0012)", 3, 10, 20_000, 10, 8),
        ("(012)", 0, 18, 3_000, 7, 16),
    ):
        omega = parse_omega(text)
        confirmed.clear()
        table = enumerate_ball(omega, shift, radius, budget)
        assert (table.radius, table.exact_radius) == (reached, exact)
        monkeypatch.setattr(growth, "equal", real_equal)
        words, links, gamma = equal_only_ball(omega, shift, table.radius)
        monkeypatch.setattr(growth, "equal", counting_equal)
        assert table.gamma() == gamma
        assert table.entries == words
        # Every stratum above the exact radius, and none below, asked equal.
        assert set(confirmed) == set(range(exact + 1, table.radius + 1)), text
        # Deriving the links past the exact radius asks equal too.
        assert ball_links(table) == links
        if text == "(000001)":
            assert len(set(table.keys)) < len(table.entries)


@pytest.mark.parametrize(
    "text, shift, radius, budget",
    [("(000001)", 4, 10, 350), ("(000001)", 4, 10, 550), ("(0102011)", 3, 9, 6000)],
)
def test_budget_stop_among_shared_keys(text, shift, radius, budget):
    # Over (000001) at shift 4, strata 9 and 10 (ids 271..642) hold ids whose
    # key an earlier id already has; the first two budgets stop inside each.
    # Over (0102011) at shift 3, ids 406, 836 and 5706 share a key: the stop
    # inside stratum 9 (ids 3804..7755) keeps 836 and drops 5706.
    omega = parse_omega(text)
    whole = enumerate_ball(omega, shift, radius)
    table = enumerate_ball(omega, shift, radius, budget)
    kept = len(table.entries)
    assert not table.complete
    words, links, gamma = equal_only_ball(omega, shift, table.radius)
    assert table.gamma() == gamma
    assert table.entries == words
    assert ball_links(table) == links
    for eid in range(kept, len(whole.entries)):
        assert table.lookup(whole.element(eid)) is None
        assert table.lookup(whole.element(eid), whole.keys[eid]) is None
    # The stop keeps exactly the kept ids of the whole ball's key index.
    assert any(i >= kept for ids in whole._shared_keys.values() for i in ids)
    assert table._by_key == {k: i for k, i in whole._by_key.items() if i < kept}
    shared = {
        k: [i for i in ids if i < kept] for k, ids in whole._shared_keys.items()
    }
    assert table._shared_keys == {k: ids for k, ids in shared.items() if ids}
    assert table._shared_keys and all(
        i < kept for ids in table._shared_keys.values() for i in ids
    )
    # Every derived link of a kept id points to a kept id.
    assert all(j < kept for preds in ball_links(table) for j, _ in preds)


@pytest.mark.parametrize(
    "text, shift, radius, budget",
    [
        ("(012)", 0, 12, None),
        ("(012)", 0, 12, 40_000),
        ("(01)", 0, 16, None),
        ("(01)", 0, 16, 6_000),
        # exact_radius is 8: spheres 9 to 11 derive links through lookup.
        ("(0012)", 0, 11, None),
        ("(0012)", 0, 11, 20_000),
        # Distinct elements share keys from radius 8 on.
        ("(000001)", 4, 10, None),
        ("(000001)", 4, 10, 550),
    ],
)
def test_derived_links_match_the_loop_that_stored_them(text, shift, radius, budget):
    # Each budget stops inside the last sphere asked for.
    budget = budget or growth.DEFAULT_BUDGET
    stored, links = ball_with_stored_links(parse_omega(text), shift, radius, budget)
    table = enumerate_ball(parse_omega(text), shift, radius, budget)
    assert (table.radius, table.complete) == (stored.radius, stored.complete)
    assert table.complete == (budget == growth.DEFAULT_BUDGET)
    assert table.entries == stored.entries and table.keys == stored.keys
    assert table.strata == stored.strata
    assert table._by_key == stored._by_key
    assert table._shared_keys == stored._shared_keys
    # The loop found each element's links in (pred, letter) order.
    assert links == [sorted(found) for found in links]
    assert ball_links(table) == links


def test_ball_loop_probes_the_key_index_itself_up_to_exact_radius(monkeypatch):
    # Letters taking each element of spheres 8 and 9 of (0012) to the
    # sphere below: their products are predecessors, met building the
    # sphere, and the loop skips them.
    plain = enumerate_ball(parse_omega("(0012)"), 0, 10)
    down = {
        eid: {letter for _, letter in plain.predecessors(eid)}
        for n in (8, 9)
        for eid in plain.strata[n]
    }
    lookups, outside = [], []
    in_lookup = []
    real_lookup = growth.BallTable.lookup
    real_element = growth.Element

    def counting_lookup(table, element, key=None):
        lookups.append((len(element.word), key is not None))
        in_lookup.append(True)
        try:
            return real_lookup(table, element, key)
        finally:
            in_lookup.pop()

    def counting_element(word, omega, shift):
        if not in_lookup:
            outside.append(len(word))
        return real_element(word, omega, shift)

    monkeypatch.setattr(growth.BallTable, "lookup", counting_lookup)
    monkeypatch.setattr(growth, "Element", counting_element)
    # Within exact_radius only the eight generators become an Element and
    # a lookup call.
    for text, radius in (("(012)", 12), ("(0012)", 8)):
        del lookups[:], outside[:]
        table = enumerate_ball(parse_omega(text), 0, radius)
        assert table.complete and radius <= table.exact_radius
        assert lookups == [(1, True)] * 8 and outside == [1] * 8
    # (0012) at shift 0 is exact to 8: the generators and each candidate
    # built from spheres 8 and 9 whose product is not in the sphere below
    # are one Element and one lookup with its key, and no other candidate
    # is.
    del lookups[:], outside[:]
    table = enumerate_ball(parse_omega("(0012)"), 0, 10)
    assert table.complete and table.exact_radius == 8
    assert table.entries == plain.entries
    candidates = [1] * 8 + [
        n + 1
        for n in (8, 9)
        for eid in table.strata[n]
        for letter in (range(1, 8) if table.entries[eid][-1] == A else (A,))
        if letter not in down[eid]
    ]
    assert any(down.values())
    assert sorted(lookups) == [(n, True) for n in candidates]
    assert sorted(outside) == candidates


def test_lookup_rejects_a_foreign_shift_or_sequence():
    omega = parse_omega("(012)")
    table = enumerate_ball(omega, 0, 3)
    b = 2
    for foreign in (generator("b", omega, 1), generator("b", parse_omega("(0012)"))):
        with pytest.raises(ContextMismatch):
            table.lookup(foreign)
        with pytest.raises(ContextMismatch):
            table.lookup(foreign, table.keys[b])
    # An equal spec parsed on its own is the same sequence.
    assert table.lookup(generator("b", parse_omega("(012)"))) == b


def test_portraits_read_off_level_eight_tables():
    rng = random.Random(3)
    elements = [Element.identity(parse_omega("(012)"))]
    for text in ("(012)", "01(2)", "(0012)"):
        omega = parse_omega(text)
        elements += [
            Element(reduce(random_raw_word(rng, 30)).word, omega, rng.randrange(3))
            for _ in range(20)
        ]
    halves = [level_table(g, TABLE_DEPTH_MAX)[::2] for g in elements]
    for depth in range(TABLE_DEPTH_MAX + 1):
        signs = portrait_bytes(halves, depth)
        for g, sign in zip(elements, signs, strict=True):
            assert sign == signature_bytes(signature(g, depth))
    for depth in (-1, TABLE_DEPTH_MAX + 1):
        with pytest.raises(ValueError):
            list(portrait_bytes(halves, depth))


def test_portrait_chunks_cover_any_number_of_tables():
    # The identity (signature 0 -> b"\0") comes first; the lengths straddle
    # the chunk size, and the whole ball is not a multiple of it.
    table = enumerate_ball(parse_omega("(012)"), 0, 6)
    size, chunk = len(table.keys), _PORTRAIT_CHUNK
    assert size % chunk
    for depth in (0, 1, 3, 7, 8):
        signs = [
            signature_bytes(signature(table.element(eid), depth)) for eid in range(size)
        ]
        assert signs[0] == b"\0"
        for n in (0, 1, chunk - 1, chunk, chunk + 1, size):
            assert list(portrait_bytes(table.keys[:n], depth)) == signs[:n]


def test_ball_export_lines_are_sorted_json(tmp_path):
    path = tmp_path / "ball.jsonl"
    argv = ["growth", "--omega", "01(2)", "--radius", "7", "--export-ball", str(path)]
    assert main(argv + ["--output", str(tmp_path / "rows.csv")]) == 0
    table = enumerate_ball(parse_omega("01(2)"), 0, 7)
    lines = path.read_text(encoding="ascii").splitlines()
    assert len(lines) == len(table.entries)
    for line, word in zip(lines, table.entries):
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True)
        assert record["word"] == " ".join(LETTER_NAMES[k] for k in word)
