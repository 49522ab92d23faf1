"""Level tables and the table-keyed ball, checked against the slow paths:
a ball deduplicated by the word problem alone, ``act`` vertex by vertex,
and ``signature`` for the exported portrait hashes."""

import json
import random
from hashlib import sha256

from hypothesis import example, given, settings, strategies as st

from overgrowth.cli import main
from overgrowth.elements import (
    IDENTITY_TABLE,
    Element,
    act,
    equal,
    generator,
    level_table,
    mul,
    signature,
)
from overgrowth.growth import BallTable, enumerate_ball, export_portrait_depth
from overgrowth.omega import OmegaSpec, parse_omega, shift_normalize
from overgrowth.words import reduce, render_letters

from _oracles import ball_links, portrait_signs, random_raw_word, signature_bytes


def reference_ball(omega, shift, radius):
    """Breadth-first ball that merges a candidate into the first earlier
    element ``equal`` accepts; returns (words, links, gamma)."""
    shift = shift_normalize(omega, shift)
    gens = [generator(k, omega, shift) for k in range(8)]
    elements = [Element.identity(omega, shift)]
    lengths = [0]
    links = [[]]
    strata = [[0]]
    for level in range(radius):
        frontier = []
        for eid in strata[level]:
            for letter in range(8):
                cand = mul(elements[eid], gens[letter])
                if cand.length <= level:
                    continue
                found = next((i for i, e in enumerate(elements) if equal(cand, e)), None)
                if found is None:
                    found = len(elements)
                    elements.append(cand)
                    lengths.append(level + 1)
                    links.append([])
                    frontier.append(found)
                if lengths[found] == level + 1:
                    links[found].append((eid, letter))
        strata.append(frontier)
    gamma, total = [], 0
    for stratum in strata:
        total += len(stratum)
        gamma.append(total)
    return [e.word for e in elements], links, gamma


def table_by_act(g, depth):
    images = (int(act(g, format(i, f"0{depth}b")) or "0", 2) for i in range(1 << depth))
    return bytes(images) + IDENTITY_TABLE[1 << depth:]


SEQUENCES = st.builds(
    OmegaSpec, st.text("012", max_size=3), st.text("012", min_size=1, max_size=3)
)


@settings(max_examples=25, deadline=None)
@given(SEQUENCES, st.integers(0, 3), st.integers(0, 5))
@example(parse_omega("01(2)"), 0, 5)
@example(parse_omega("(0)"), 0, 5)
@example(parse_omega("(0)"), 1, 4)
def test_table_keyed_ball_matches_word_problem_dedup(omega, shift, radius):
    table = enumerate_ball(omega, shift, radius)
    words, links, gamma = reference_ball(omega, shift, radius)
    assert table.gamma() == gamma
    assert table.entries == words
    assert ball_links(table) == links

    partial = enumerate_ball(omega, shift, radius, budget=50)
    kept = len(partial.entries)
    assert partial.entries == words[:kept]
    assert partial.complete == (kept == len(words))
    for eid in range(kept, len(words)):
        assert partial.lookup(table.element(eid)) is None
        assert partial.lookup(table.element(eid), table.keys[eid]) is None


def test_stored_tables_and_exported_hashes(tmp_path):
    for text in ("(012)", "01(2)"):
        table = enumerate_ball(parse_omega(text), 0, 6)
        n = 1 << table.depth
        for eid, key in enumerate(table.keys):
            assert key[:n] == table_by_act(table.element(eid), table.depth)[:n]
        # The keys hold level-3 tables; the hashes keep the portrait depth.
        depth = export_portrait_depth(6)
        path = tmp_path / "ball.jsonl"
        argv = ["growth", "--omega", text, "--radius", "6", "--export-ball", str(path)]
        assert main(argv + ["--output", str(tmp_path / "rows.csv")]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(table.entries)
        for eid, (record, word) in enumerate(zip(records, table.entries)):
            sig = signature(table.element(eid), depth)
            digest = sha256(sig.to_bytes((sig.bit_length() + 7) // 8 or 1, "big"))
            assert record["id"] == eid and record["word"] == render_letters(word)
            assert record["portrait_hash"] == digest.hexdigest()[:16]


def test_table_signer_matches_signature_at_every_depth():
    rng = random.Random(11)
    omega = parse_omega("(012)")
    table = BallTable(omega, 0, 30)
    elements = [Element.identity(omega)] + [
        Element(reduce([rng.randrange(8) for _ in range(rng.randrange(1, 30))]).word, omega, 0)
        for _ in range(40)
    ]
    keys = [table.split_key(g.word) for g in elements]
    for depth in range(9):
        signs = portrait_signs(table, keys, depth)
        assert len(signs) == len(elements)
        for g, sign in zip(elements, signs):
            assert sign == signature_bytes(signature(g, depth))


@settings(max_examples=60, deadline=None)
@given(SEQUENCES, st.integers(0, 3), st.randoms(use_true_random=False))
def test_half_tables_decide_level_tables(omega, shift, rng):
    # Leaves 2j and 2j + 1 are siblings, and so are their images: the odd
    # bytes of a level-8 table are its even bytes XOR 1.
    elements = [
        Element.from_letters(random_raw_word(rng, 12), omega, shift) for _ in range(30)
    ]
    tables = [level_table(g, 8) for g in elements]
    halves = [t[::2] for t in tables]
    for t, half in zip(tables, halves):
        assert t[1::2] == bytes(v ^ 1 for v in half)
    # Two halves are equal exactly when the two tables are.
    assert len(set(halves)) == len(set(tables)) == len(set(zip(halves, tables)))


def test_level_tables_compose_like_products():
    omega = parse_omega("2(01)")
    rng = random.Random(5)
    for _ in range(30):
        g = Element(reduce([rng.randrange(8) for _ in range(12)]).word, omega, 0)
        h = Element(reduce([rng.randrange(8) for _ in range(12)]).word, omega, 0)
        composed = level_table(h, 8).translate(level_table(g, 8))
        assert composed == level_table(mul(g, h), 8)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(("(012)", "01(2)", "(0012)")),
    st.integers(0, 3),
    st.lists(st.integers(0, 7), max_size=60),
)
def test_lookup_key_composed_from_letter_tables(text, shift, raw):
    # ``lookup`` keys a word by composing the letters' moves along it, the
    # path the ball loop takes; within the keys of a radius-64 ball that
    # is the split key, and its first bytes are the word's level-6 table.
    table = BallTable(parse_omega(text), shift, 64)
    word = reduce(raw).word
    element = Element(word, table.omega, table.shift)
    key = table.root_key
    for letter in word:
        key = table.letter_indices[letter].translate(table._layout(key))
    assert key == table.split_key(word)
    assert key[:64] == level_table(element, 6)[:64]


def test_dedup_depth_is_capped_at_eight():
    assert export_portrait_depth(12) == 7
    assert export_portrait_depth(30) == 8
    assert export_portrait_depth(31) == 8
    assert export_portrait_depth(10_000) == 8


def test_budget_limited_ball_at_the_depth_cap_is_coherent():
    omega = parse_omega("(012)")
    table = enumerate_ball(omega, radius=40, budget=2000)
    assert not table.complete and table.radius < 40
    assert len(table.entries) == table.gamma()[-1] <= 2000
    assert len(table.strata) == table.radius + 1
    for eid, key in enumerate(table.keys):
        assert key == table.split_key(table.entries[eid])
        assert table.lookup(table.element(eid)) == eid
    signs = portrait_signs(table, table.keys, 8)
    for eid in range(0, len(table.keys), 97):
        assert signs[eid] == signature_bytes(signature(table.element(eid), 8))
