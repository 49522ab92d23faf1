"""The fused section kernel and the bulk split of long words,
prefix/suffix-cancelling equality, reduced words and the recursive
level-stabilizer test, each checked against the slow path it replaced:
``split_letters`` followed by ``reduce``, ``is_identity(mul(g, inverse(h)))``
with the letterwise vertex action, ``reduce``, and ``act`` on every vertex
of the level."""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

import overgrowth.words as words

from overgrowth.elements import (
    Element,
    act,
    decompose,
    equal,
    inverse,
    is_identity,
    mul,
)
from overgrowth.growth import (
    _level_stabilizers,
    enumerate_ball,
    geodesic_words,
    stabilizes_level,
)
from overgrowth.omega import OmegaSpec, parse_omega, shift_normalize, symbol_at
from overgrowth.words import (
    a_count,
    reduce,
    render_letters,
    split_reduce,
    split_sections,
)

from _oracles import (
    SWAPS,
    act_word,
    identity_to_depth,
    split_letters,
    word_from_parts,
)

SEQUENCES = st.builds(
    OmegaSpec,
    st.text(alphabet="012", max_size=3),
    st.text(alphabet="012", min_size=1, max_size=4),
)


def reduced_words(max_spine):
    return st.builds(
        word_from_parts,
        st.booleans(),
        st.lists(st.integers(1, 7), max_size=max_spine).map(tuple),
        st.booleans(),
    )


@settings(max_examples=400, deadline=None)
@given(reduced_words(100), SEQUENCES, st.integers(0, 3))
@example(word_from_parts(True, (1, 1, 2, 3), False), parse_omega("01(2)"), 0)
@example(word_from_parts(True, (7, 3, 3, 5), True), parse_omega("(0)"), 1)
@example(word_from_parts(False, (4, 4, 4), True), parse_omega("(0012)"), 3)
def test_split_reduce_matches_split_then_reduce(word, omega, shift):
    shift = shift_normalize(omega, shift)
    swap, raw_left, raw_right = split_letters(word, omega, shift)
    left, right = reduce(raw_left), reduce(raw_right)
    assert split_reduce(word, symbol_at(omega, shift + 1)) == (
        swap, left.word, right.word, left.contractions, right.contractions,
    )
    dec = decompose(Element(word, omega, shift))
    assert (dec.top_swap, dec.left.word, dec.right.word) == (swap, left.word, right.word)


# One constant sequence per symbol: at shift 0 it splits at that symbol.
CONSTANT = ("(0)", "(1)", "(2)")

# Spine alphabets: all seven letters, and few letters, whose children
# have many equal neighbours and long cancellations.
ALPHABETS = ((1, 2, 3, 4, 5, 6, 7), (1, 2), (3, 5), (4,), (1,))


def spines(max_size):
    """Spine letters over one of ``ALPHABETS``, one byte drawn per letter."""
    return st.tuples(
        st.sampled_from(ALPHABETS),
        st.integers(0, max_size).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    ).map(lambda ab: tuple(ab[0][k % len(ab[0])] for k in ab[1]))


def cascade(w, t):
    """``reduce(w + t + w^-1)``: every letter is an involution, so w^-1 is
    w reversed."""
    return reduce(w + t + w[::-1]).word


@st.composite
def split_inputs(draw):
    """A reduced word of 0 to about 2,500 letters: a random one, or the
    cascade ``reduce(w + t + w^-1)`` of a random w around a short t or a
    power (a s)^n, whose sections cancel w's against w^-1's."""
    lead, trail = draw(st.booleans()), draw(st.booleans())
    if draw(st.booleans()):
        return word_from_parts(lead, draw(spines(1250)), trail)
    w = word_from_parts(lead, draw(spines(600)), trail)
    if draw(st.booleans()):
        t = draw(reduced_words(20))
    else:
        t = bytes((0, draw(st.integers(1, 7)))) * draw(st.sampled_from((1, 2, 4, 8, 16, 32)))
    return cascade(w, t)


@settings(max_examples=300, deadline=None)
@given(split_inputs(), st.integers(0, 2))
# 47 and 48 letters: the last word split letter by letter and the first in bulk.
@example(word_from_parts(False, (1, 2, 3, 4) * 6, False), 0)
@example(word_from_parts(True, (1, 2, 3, 4) * 6, False), 1)
@example(word_from_parts(True, (7,) * 23, True), 2)
@example(word_from_parts(False, (7,) * 24, True), 2)
# 127 and 128 letters, both split in bulk.
@example(word_from_parts(False, (1, 2, 3, 4) * 16, False), 0)
@example(word_from_parts(True, (1, 2, 3, 4) * 16, False), 1)
@example(word_from_parts(True, (7,) * 63, True), 2)
@example(word_from_parts(False, (7,) * 64, True), 2)
# A longer cascade than the strategy's w of at most 600 spine letters
# reaches: at symbol 0 both children of w (a d)^4 w^-1, for w's 3,000 spine
# letters drawn from b and c, cancel 1,500 values in one run.
@example(
    cascade(
        word_from_parts(True, tuple(random.Random(0).choices((1, 2), k=3000)), False),
        b"\0\3" * 4,
    ),
    0,
)
def test_split_sections_matches_split_reduce_and_split_then_reduce(word, symbol):
    omega = parse_omega(CONSTANT[symbol])
    swap, raw_left, raw_right = split_letters(word, omega, 0)
    expected = (swap, reduce(raw_left).word, reduce(raw_right).word)
    assert split_sections(word, symbol) == expected
    assert split_reduce(word, symbol)[:3] == expected
    dec = decompose(Element(word, omega, 0))
    assert (dec.top_swap, dec.left.word, dec.right.word) == expected


def test_bulk_split_on_short_words(monkeypatch):
    # Every reduced word with at most four spine letters, split in bulk.
    monkeypatch.setattr(words, "SPLIT_BULK_MIN", 0)
    for m in range(5):
        for spine in itertools.product(range(1, 8), repeat=m):
            for lead, trail in itertools.product((False, True), repeat=2):
                word = word_from_parts(lead, spine, trail)
                for symbol in (0, 1, 2):
                    assert split_sections(word, symbol) == split_reduce(word, symbol)[:3]


@pytest.mark.parametrize("text, order", [("(012)", 16), ("(0012)", 32), ("01(2)", 8)])
def test_word_problem_on_long_conjugates(text, order):
    # x (a b)^n x^-1 is trivial for the order n of a b; changing one spine
    # letter k of x to k' gives p (k k') p^-1 for the prefix p before it,
    # which moves p applied to a vertex that k k' moves.
    omega = parse_omega(text)
    rng = random.Random(text)
    relator = b"\0\1" * order
    assert identity_to_depth(relator, omega, 0, 9)
    x = word_from_parts(True, [rng.randrange(1, 8) for _ in range(500)], False)
    y = word_from_parts(False, [rng.randrange(1, 8) for _ in range(400)], True)
    assert 900 < len(x) < 1100
    trivial = Element.from_letters(x + relator + x[::-1], omega)
    assert len(trivial.word) > 2000
    assert is_identity(trivial)
    assert equal(Element.from_letters(trivial.word + y, omega), Element(y, omega, 0))
    for i in rng.sample(range(1, len(x), 2), 5):
        new = rng.choice([k for k in range(1, 8) if k != x[i]])
        t = x[i] ^ new
        x_mut = x[:i] + bytes((new,)) + x[i + 1 :]
        moving = Element.from_letters(x_mut + relator + x[::-1], omega)
        assert moving.in_stabilizer
        assert not is_identity(moving)
        assert not equal(Element.from_letters(moving.word + y, omega), Element(y, omega, 0))
        level = next(j for j in range(1, 9) if SWAPS[t][symbol_at(omega, j)])
        vertex = act_word(x[:i], omega, 0, "1" * (level - 1) + "00")
        assert act_word(moving.word, omega, 0, vertex) != vertex


def test_word_problem_builds_no_element_per_section(monkeypatch):
    # is_identity and equal recurse on the section words themselves.
    omega = parse_omega("(012)")
    rng = random.Random(1)
    x = word_from_parts(True, [rng.randrange(1, 8) for _ in range(250)], False)
    y = word_from_parts(False, [rng.randrange(1, 8) for _ in range(20)], True)
    trivial = Element.from_letters(x + b"\0\1" * 16 + x[::-1], omega)
    assert len(trivial.word) > 1000
    g = Element.from_letters(trivial.word + y, omega)
    h = Element(y, omega, 0)
    built = []
    real_init = Element.__init__

    def counted(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(Element, "__init__", counted)
    assert is_identity(trivial)
    assert built == []
    descended = len(omega.trivial)
    omega.trivial.clear()
    assert equal(g, h)
    assert built == []
    assert len(omega.trivial) == descended > 1


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(st.integers(1, 7), max_size=100), st.booleans())
def test_letters_match_append_loop(leading_a, spine, trailing_a):
    word = word_from_parts(leading_a, spine, trailing_a)
    assert bytes(k for k in word if k) == bytes(spine)
    assert reduce(word).word == word


EQUAL_SEQUENCES = ("(012)", "01(2)", "(0012)", "(01)")


@lru_cache(maxsize=None)
def distinct_geodesics(text):
    """Pairs of distinct minimal words of one element, from the r=5 ball."""
    table = enumerate_ball(parse_omega(text), 0, 5)
    pairs = []
    for eid in range(len(table.entries)):
        words = [tuple(w) for w in geodesic_words(table, eid)]
        pairs.extend(zip(words, words[1:]))
    return tuple(pairs)


raw_words = st.lists(st.integers(0, 7), max_size=80).map(tuple)


@st.composite
def word_pairs(draw):
    """(omega, g, h) with g = p u s and h = p v s for random p, s, where
    (u, v) is two minimal words of one element, two random words, or
    a reduced word and one of its prefixes or suffixes."""
    omega = parse_omega(draw(st.sampled_from(EQUAL_SEQUENCES)))
    kind = draw(st.sampled_from(("geodesics", "random", "prefix", "suffix")))
    if kind == "geodesics":
        u, v = draw(st.sampled_from(distinct_geodesics(str(omega))))
    elif kind == "random":
        u, v = draw(raw_words), draw(raw_words)
    else:
        u = tuple(reduce(draw(raw_words)).word)
        cut = draw(st.integers(0, len(u)))
        v = u[:cut] if kind == "prefix" else u[cut:]
    if draw(st.booleans()):
        u, v = v, u
    p, s = draw(raw_words), draw(raw_words)
    g = Element.from_letters(p + u + s, omega)
    h = Element.from_letters(p + v + s, omega)
    return omega, g, h


@settings(max_examples=400, deadline=None)
@given(word_pairs())
def test_equal_matches_product_descent_and_vertex_action(pair):
    omega, g, h = pair
    same = equal(g, h)
    assert same == is_identity(mul(g, inverse(h)))
    assert same == equal(h, g)
    quotient = g.word + h.word[::-1]
    if same:
        assert identity_to_depth(quotient, omega, 0, 7)
    elif a_count(g.word) % 2 != a_count(h.word) % 2:
        assert not identity_to_depth(quotient, omega, 0, 1)


def test_equal_on_shared_prefix_and_suffix_examples():
    w = parse_omega("(012)")
    el = lambda text: Element.from_text(text, w)
    # (a d)^4 = 1 in the middle of a common prefix and suffix
    assert equal(el("b a c a d a d a d a d a x"), el("b a c a x"))
    # one word a prefix of the other
    assert not equal(el("b a c"), el("b a c a d"))
    assert equal(el("b a c"), el("b a c a d a d a d a d"))
    # nothing shared
    assert not equal(el("a b"), el("c a"))


def stabilizes_by_act(g, s):
    return all(
        act(g, format(i, f"0{s}b")) == format(i, f"0{s}b") for i in range(1 << s)
    ) if s else True


def test_stabilizes_level_matches_vertex_action():
    for text in ("(012)", "01(2)", "(0012)"):
        table = enumerate_ball(parse_omega(text), 0, 6)
        for eid in range(len(table.entries)):
            g = table.element(eid)
            fixed = True  # fixing level s fixes every level above it
            for s in range(10):
                fixed = fixed and stabilizes_by_act(g, s)
                assert stabilizes_level(g, s) == fixed, (text, render_letters(g.word), s)


def test_level_stabilizers_read_off_tables_match_the_recursion():
    # Levels down to the keys' level are read off their tables and deeper
    # ones off the section classes: (0000000012) shows its third symbol at
    # s = 10, and (0) at radius 66 keys its sections by an inner ball.
    cases = [(text, 6) for text in ("(012)", "01(2)", "(0012)")]
    for text, radius in cases + [("(0000000012)", 5), ("(0)", 66)]:
        table = enumerate_ball(parse_omega(text), 0, radius)
        for s in range(11):
            expected = [
                eid for eid in range(len(table.entries))
                if stabilizes_level(table.element(eid), s)
            ]
            assert _level_stabilizers(table, s) == expected, (text, s)
