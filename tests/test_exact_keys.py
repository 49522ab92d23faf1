"""The exact ball key: a level-h table and the class of each level-h section.

Classes are checked against a brute-force search over letterwise vertex
actions, keys against the word problem on every short reduced word, and
whole balls against a ball deduplicated by the word problem alone.  The
ball loop probes the key index itself at every radius and calls neither
``equal`` nor ``lookup``: only building a table does, to check the eight
generators and to class the products of its classes.
"""

import itertools
import json
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import overgrowth.growth as growth
from overgrowth.cli import main
from overgrowth.elements import (
    ContextMismatch,
    Element,
    decompose,
    equal,
    generator,
    is_identity,
    level_table,
    signature,
)
from overgrowth.growth import NO_CLASS, BallTable, enumerate_ball, grow_ball
from overgrowth.omega import parse_omega, shift_normalize
from overgrowth.words import A, LETTER_NAMES, SPINE_LETTERS, reduce

from _oracles import (
    act_word,
    ball_links,
    ball_with_stored_links,
    class_products,
    portrait_signs,
    random_raw_word,
    signature_bytes,
)

ONE_LETTER_WORDS = [b""] + [bytes((k,)) for k in range(8)]
SRC = Path(__file__).resolve().parents[1] / "src"


def move_key(table, word):
    """Key of a word composed move by move from the root's, as the ball
    loop keys its candidates."""
    key = table.root_key
    for letter in word:
        key = table.letter_indices[letter].translate(table._layout(key))
    return key


def reduced_words(max_length):
    """Every reduced word of at most ``max_length`` letters: ``a``
    alternating with the spine letters."""
    words = [b""]
    for n in range(1, max_length + 1):
        for first_a in (True, False):
            kinds = [(first_a + i) % 2 for i in range(n)]
            choices = [(A,) if kind else SPINE_LETTERS for kind in kinds]
            words += [bytes(w) for w in itertools.product(*choices)]
    return words


def action(word, omega, shift, level):
    """Images of every vertex of a level under a word, letter by letter."""
    return tuple(
        act_word(word, omega, shift, format(i, f"0{level}b")) for i in range(1 << level)
    )


@pytest.mark.parametrize("text", ["(012)", "(0012)", "01(2)", "(0)", "2(01)", "(00000001)"])
def test_one_letter_classes_match_brute_force(text):
    # Two one-letter words share a class exactly when they act alike on a
    # level deep enough to show every symbol (a spine letter that first
    # swaps at level j moves level j + 1), and a class names a word of its
    # own: 0 the identity, 8 the letter a.  Over (00000001) the letter C
    # first swaps at level 8, past the old level-8 key.
    omega = parse_omega(text)
    level = omega.cycle_length + 1
    for shift in range(omega.cycle_length):
        table = BallTable(omega, shift, 5)
        classes = [0] + list(table._letter_class)
        actions = [action(w, omega, table.class_shift, level) for w in ONE_LETTER_WORDS]
        for i, j in itertools.combinations(range(len(ONE_LETTER_WORDS)), 2):
            assert (classes[i] == classes[j]) == (actions[i] == actions[j]), (text, shift, i, j)
        assert classes[1] == 8 and table._class_words[8] == b"\0"
        for c, word in table._class_words.items():
            assert classes[ONE_LETTER_WORDS.index(word)] == c


@pytest.mark.parametrize(
    "text, shift, radius",
    [
        ("(012)", 0, 12),
        ("(012)", 0, 100),
        ("(012)", 0, 400),
        *[("(0012)", shift, radius) for shift in range(4) for radius in (11, 100)],
        ("(000001)", 4, 10),
        ("(0102011)", 3, 10),
        ("01(2)", 0, 24),
        ("01(2)", 0, 100),
        ("(0)", 0, 300),
        ("0(1)", 0, 100),
        ("(01)", 0, 66),
    ],
)
def test_class_products_match_the_coset_and_inner_key_reference(text, shift, radius):
    # _class_of names a product by the inner lookup or the word problem;
    # the reference by coset arithmetic or the inner ball's move keys.
    # The lookup could name a product past the inner ball's own keys where
    # the reference reads NO_CLASS, but none of these tables has one: they
    # agree on every entry, in both regimes.
    table = BallTable(parse_omega(text), shift, radius)
    times = class_products(table)
    pad = bytes(256 - len(table.root_key) - 8)
    assert table._letter_class == bytes(t[0] for t in times)
    assert table._heads == [bytes((c,)) for c in times[A]]
    assert table._tails == [bytes(t[c] for t in times[1:]) + pad for c in range(256)]


@pytest.mark.parametrize(
    "text, shift", [("(012)", 0), ("(000001)", 4), ("(0102011)", 3)]
)
def test_keys_partition_short_words_as_equal_does(text, shift):
    # Every reduced word of length at most 6 is within the keys of a ball
    # of radius 6.  Words are bucketed by their level-6 tables first, as
    # equal_only_ball does: equal elements act alike on every level.
    omega = parse_omega(text)
    table = BallTable(omega, shift, 6)
    words = reduced_words(6)
    by_key, by_equal = {}, []
    buckets = {}
    for word in words:
        key = table.split_key(word)
        assert key == move_key(table, word) and NO_CLASS not in key
        by_key.setdefault(key, []).append(word)
        g = Element(word, omega, table.shift)
        bucket = buckets.setdefault(level_table(g, 6), [])
        for group in bucket:
            if equal(g, Element(group[0], omega, table.shift)):
                group.append(word)
                break
        else:
            bucket.append([word])
            by_equal.append(bucket[-1])
    assert sorted(by_key.values()) == sorted(by_equal)
    assert len(by_equal) < len(words)


@pytest.mark.parametrize(
    "text, radius", [("(012)", 10), ("(0012)", 11), ("0(1)", 70)]
)
def test_stored_keys_are_the_split_keys_of_each_word(text, radius):
    table = enumerate_ball(parse_omega(text), 0, radius)
    assert (table.inner is not None) == (radius > 64)
    n = 1 << table.depth
    for eid, (word, key) in enumerate(zip(table.entries, table.keys)):
        assert table.split_key(word) == key
        assert key[:n] == level_table(table.element(eid), table.depth)[:n]


def long_relator(ball, n):
    """A trivial reduced word W1 W2^-1 from two minimal words of one
    element of sphere n, W1 ending with a spine letter and W2 with ``a``."""
    for eid in ball.strata[n]:
        preds = ball.predecessors(eid)
        spine = [(j, s) for j, s in preds if s != A]
        by_a = [(j, s) for j, s in preds if s == A]
        if spine and by_a:
            (j1, s1), (j2, _) = spine[0], by_a[0]
            return ball.entries[j1] + bytes((s1,)) + (ball.entries[j2] + b"\0")[::-1]
    raise AssertionError(f"no element of sphere {n} ends both ways")


def test_long_non_geodesic_words_are_found():
    # A trivial word whose first half is a geodesic longer than the keys
    # cover, appended to a word of the ball, makes the moves cross a
    # section with no class, so lookup splits the word; over 0(1) at
    # radius 70 its long level-6 sections go to the inner ball.  Words of
    # the spheres past the ball are not found.
    for text, radius, far in (("(012)", 4, 10), ("0(1)", 70, 140)):
        omega = parse_omega(text)
        table = enumerate_ball(omega, 0, radius)
        whole = enumerate_ball(omega, 0, far)
        rel = long_relator(whole, far)
        assert reduce(rel).word == rel and is_identity(Element(rel, omega, 0))
        ids = range(0, len(whole.entries), 97)
        split = found = 0
        for eid in ids:
            word = whole.entries[eid]
            long = reduce(word + rel).word
            if len(long) < len(word) + len(rel):
                continue
            split += NO_CLASS in move_key(table, long)
            if eid < len(table.entries):
                found += 1
                assert table.split_key(long) == table.keys[eid]
                assert table.lookup(Element(long, omega, 0)) == eid
            else:
                assert table.lookup(Element(long, omega, 0)) is None
        assert split and found, text


def test_a_product_with_no_class_raises_even_under_optimize():
    # After sphere 1, every a-product at vertex N - 2 is made to have no
    # class: a spine candidate that reads it misses, and the loop stops
    # with an error, not an assert, so python -O keeps it.
    script = textwrap.dedent(
        """
        from overgrowth.growth import NO_CLASS, BallTable, grow_ball
        from overgrowth.omega import parse_omega
        table = BallTable(parse_omega("(012)"), 0, 4)
        spheres = grow_ball(table)
        next(spheres), next(spheres), next(spheres)
        table._heads[:] = [bytes((NO_CLASS,))] * 256
        try:
            list(spheres)
        except RuntimeError as exc:
            print("raised:", exc)
        """
    )
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, timeout=60, env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: a section of ")
        assert "contraction bound failed" in proc.stdout


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
    for text, radius, h in (("(012)", 8, 3), ("01(2)", 12, 4)):
        table = enumerate_ball(parse_omega(text), 0, radius)
        assert table.depth == h and table.reach == 1
        for eid in range(len(table.entries)):
            assert all(len(s.word) <= 1 for s in level_sections(table.element(eid), h))


def equal_only_ball(omega, shift, radius):
    """Breadth-first ball whose merges are decided by ``equal`` alone; the
    level-6 table, composed from the letters' tables, only narrows the
    elements it is asked about, since equal elements act alike on every
    level.  Returns (words, links, gamma)."""
    shift = shift_normalize(omega, shift)
    letter_tables = [level_table(generator(k, omega, shift), 6) for k in range(8)]
    elements = [Element.identity(omega, shift)]
    tables = [level_table(elements[0], 6)]
    links = [[]]
    strata = [[0]]
    buckets = {tables[0]: [0]}
    for level in range(radius):
        frontier = []
        for eid in strata[level]:
            for letter in range(8):
                cand = Element(reduce(elements[eid].word + bytes((letter,))).word, omega, shift)
                if len(cand.word) <= level:
                    continue
                table = letter_tables[letter].translate(tables[eid])
                bucket = buckets.setdefault(table, [])
                found = next((i for i in bucket if equal(cand, elements[i])), None)
                if found is None:
                    found = len(elements)
                    elements.append(cand)
                    tables.append(table)
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
    asked = []
    real_equal = growth.equal

    def counting_equal(g, h):
        asked.append(len(g.word))
        return real_equal(g, h)

    monkeypatch.setattr(growth, "equal", counting_equal)
    # The old level-8 key was exact only to radius 2 over (000001) at
    # shift 4, 8 over (0012) at shifts 0 and 3, 1 over (0102011) at shift
    # 3 and 16 over (012); (012) asked for radius 18 stops at radius 7
    # under the budget.  (0) at radius 200 and 0(1) at radius 65 key their
    # level-6 sections by ids in an inner ball.
    for text, shift, radius, budget, reached in (
        ("(000001)", 4, 10, 20_000, 10),
        ("(0012)", 0, 10, 20_000, 10),
        ("(0012)", 3, 10, 20_000, 10),
        ("(0102011)", 3, 8, 20_000, 8),
        ("(012)", 0, 18, 3_000, 7),
        ("(0)", 0, 200, 20_000, 200),
        ("0(1)", 0, 65, 20_000, 65),
    ):
        omega = parse_omega(text)
        # Building the table may ask equal to class the products of its
        # classes; growing the ball and deriving its links ask it nothing.
        table = BallTable(omega, shift, radius)
        del asked[:]
        for _ in grow_ball(table, budget):
            pass
        assert table.radius == reached
        assert (table.inner is not None) == (radius > 64)
        links = ball_links(table)
        assert asked == [], text
        monkeypatch.setattr(growth, "equal", real_equal)
        words, want_links, gamma = equal_only_ball(omega, shift, table.radius)
        monkeypatch.setattr(growth, "equal", counting_equal)
        assert table.gamma() == gamma
        assert table.entries == words
        assert links == want_links


@pytest.mark.parametrize(
    "text, shift, radius, budget",
    [("(000001)", 4, 10, 350), ("(000001)", 4, 10, 550), ("(0102011)", 3, 9, 6000)],
)
def test_budget_stop_among_shared_keys(text, shift, radius, budget):
    # These balls once had distinct elements sharing a level-8 key: over
    # (000001) at shift 4 in strata 9 and 10 (ids 271..642), where the
    # first two budgets stop, and over (0102011) at shift 3 ids 406, 836
    # and 5706, where the stop inside stratum 9 (ids 3804..7755) keeps 836
    # and drops 5706.  Now every element has a key of its own.
    omega = parse_omega(text)
    whole = enumerate_ball(omega, shift, radius)
    table = enumerate_ball(omega, shift, radius, budget)
    kept = len(table.entries)
    assert not table.complete
    assert len(set(whole.keys)) == len(whole.keys)
    words, links, gamma = equal_only_ball(omega, shift, table.radius)
    assert table.gamma() == gamma
    assert table.entries == words
    assert ball_links(table) == links
    for eid in range(kept, len(whole.entries)):
        assert table.lookup(whole.element(eid)) is None
        assert table.lookup(whole.element(eid), whole.keys[eid]) is None
    # The stop keeps exactly the kept ids of the whole ball's key index.
    assert table._by_key == dict(zip(whole.keys[:kept], whole.entries[:kept]))
    # Every derived link of a kept id points to a kept id.
    assert all(j < kept for preds in ball_links(table) for j, _ in preds)


@pytest.mark.parametrize(
    "text, shift, radius, budget",
    [
        ("(012)", 0, 12, None),
        ("(012)", 0, 12, 40_000),
        ("(01)", 0, 16, None),
        ("(01)", 0, 16, 6_000),
        ("(0012)", 0, 11, None),
        ("(0012)", 0, 11, 20_000),
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
    assert table.entries == stored.entries
    assert table.strata == stored.strata
    assert table._by_key == dict(zip(table.keys, table.entries))
    # The loop found each element's links in (pred, letter) order.
    assert links == [sorted(found) for found in links]
    assert ball_links(table) == links


def test_ball_loop_probes_the_key_index_itself_up_to_exact_radius(monkeypatch):
    # Keys are exact at every radius: the loop builds no Element and calls
    # no lookup.  Only the table's set-up looks up its eight generators, in
    # the table and in its inner ball, to check their move keys.
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
    for text, shift, radius in (
        ("(012)", 0, 12),
        ("(0012)", 0, 10),
        ("(0102011)", 3, 9),
        ("0(1)", 0, 70),
    ):
        del lookups[:], outside[:]
        table = BallTable(parse_omega(text), shift, radius)
        keyed = [lookup for lookup in lookups if lookup[1]]
        assert keyed == [(1, True)] * 8 * (1 + (table.inner is not None))
        del lookups[:], outside[:]
        for _ in grow_ball(table):
            pass
        assert table.complete and table.radius == radius
        assert lookups == [] and outside == []


def test_an_inner_ball_that_stops_short_stops_the_ball():
    # The inner ball of (012) at radius 400 is the ball of radius 7 at
    # shift 6 with at most 255 ids.  It stops at radius 4, so the keys
    # cover the elements up to length 4 * 2^6 = 256: the table is cut
    # there before it grows, and a budget stops the ball far below that.
    omega = parse_omega("(012)")
    table = BallTable(omega, 0, 400)
    assert table.reach == 7 and not table.inner.complete
    assert table.inner.radius == 4 and len(table.inner.entries) <= NO_CLASS
    assert table.radius == 256 and not table.complete
    assert enumerate_ball(omega, 0, 400, budget=3000).radius < 256
    # An inner ball that completes cuts nothing.
    table = BallTable(parse_omega("(0)"), 0, 300)
    assert table.radius == 300 and table.complete
    assert table.inner.complete and table.inner.radius == 5
    for _ in grow_ball(table):
        pass
    assert table.radius == 300 and table.complete


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
    # A key that is not the word's split key is an error.
    with pytest.raises(RuntimeError):
        table.lookup(generator("b", omega), table.keys[b + 1])


def test_portraits_read_off_level_eight_tables():
    # Portraits to every depth up to 8, read off the keys of random words
    # within the keys of a ball, above, on and below its key level.
    rng = random.Random(3)
    for text, radius in (
        ("(012)", 30), ("01(2)", 12), ("(0012)", 3), ("0(1)", 50), ("0(1)", 70)
    ):
        omega = parse_omega(text)
        table = BallTable(omega, rng.randrange(3), radius)
        words = [b""] + [reduce(random_raw_word(rng, radius)).word for _ in range(20)]
        keys = [table.split_key(w) for w in words]
        for depth in range(9):
            signs = portrait_signs(table, keys, depth)
            for w, sign in zip(words, signs, strict=True):
                g = Element(w, omega, table.shift)
                assert sign == signature_bytes(signature(g, depth)), (text, depth)
        for depth in (-1, 9):
            with pytest.raises(ValueError):
                table.portrait_records(keys, depth)


def test_portrait_records_read_each_key_byte_once_per_record_byte():
    # The labels of one record byte that sit in one key byte share one
    # read of it, so a call makes at most one read per label, and fewer
    # once a record byte holds labels of one level-h subtree.
    # Radii 2 to 64 give key levels h = 1 to 6 with one-letter classes,
    # radius 100 level 6 with an inner ball.
    omega = parse_omega("(012)")
    levels = []
    for radius in (2, 4, 8, 16, 32, 64, 100):
        table = BallTable(omega, 0, radius)
        levels.append((table.depth, table.inner is None))
        for depth in range(9):
            table.portrait_records([table.root_key], depth)
            columns = table._portrait_columns[depth]
            for reads in columns:
                indices = [index for index, _ in reads]
                assert len(set(indices)) == len(indices), (radius, depth)
            assert sum(map(len, columns)) <= (1 << depth) - 1, (radius, depth)
    assert levels == [(h, True) for h in range(1, 7)] + [(6, False)]


def test_portrait_chunks_cover_any_number_of_tables():
    # The identity (signature 0 -> b"\0") comes first; the records of any
    # run of keys, none at all included, are that run of the whole ball's.
    table = enumerate_ball(parse_omega("(012)"), 0, 6)
    size = len(table.keys)
    for depth in range(9):
        signs = [
            signature_bytes(signature(table.element(eid), depth)) for eid in range(size)
        ]
        assert signs[0] == b"\0"
        assert portrait_signs(table, table.keys, depth) == signs
        for lo, hi in ((0, 0), (0, 1), (1, 2), (3, 259), (size - 257, size)):
            assert portrait_signs(table, table.keys[lo:hi], depth) == signs[lo:hi]


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
