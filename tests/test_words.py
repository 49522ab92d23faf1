"""Letter algebra and stack-pass reduction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from overgrowth.elements import generator
from overgrowth.growth import enumerate_ball
from overgrowth.omega import parse_omega
from overgrowth.words import (
    A,
    LETTER_NAMES,
    REFERENCE_PRODUCTS,
    WordParseError,
    a_count,
    extend,
    fixed_count,
    parse_letters,
    reduce,
    render_letters,
    spine_mul,
)

from _oracles import (
    min_contractions,
    random_raw_word,
    reduce_random_order,
    reduce_stack_pass,
    word_from_parts,
)


def _letters(text):
    return parse_letters(text)


def test_spine_mul_examples():
    b, c, d, x, B, C, D = range(1, 8)
    assert spine_mul(b, c) == d
    assert spine_mul(B, x) == b
    assert spine_mul(D, D) == 0


def test_reference_table_matches_xor():
    pairs = set()
    for n1, n2, prod in REFERENCE_PRODUCTS:
        (k1,), (k2,), (kp,) = _letters(n1), _letters(n2), _letters(prod)
        assert spine_mul(k1, k2) == kp
        assert spine_mul(k2, k1) == kp
        pairs.add(frozenset((k1, k2)))
    assert len(pairs) == 21  # every unordered pair of distinct letters
    for k in range(1, 8):
        assert spine_mul(k, k) == 0


def test_reduce_examples():
    r = reduce(_letters("b b"))
    assert r.word == b"" and r.contractions == 1
    r = reduce(_letters("b c"))
    assert render_letters(r.word) == "d" and r.contractions == 1
    r = reduce(_letters("a b a a c"))
    assert render_letters(r.word) == "a d" and r.contractions == 2


def test_reduce_idempotent():
    rng = random.Random(5)
    for _ in range(500):
        raw = random_raw_word(rng, 16)
        word = reduce(raw).word
        again = reduce(word)
        assert again.word == word
        assert again.contractions == 0


def test_reduce_confluent_random_order():
    rng = random.Random(17)
    for _ in range(100_000):
        raw = random_raw_word(rng, 20)
        stack_word = reduce(raw).word
        random_word, _ = reduce_random_order(raw, rng)
        assert random_word == tuple(stack_word)


def test_reduce_contraction_count_vs_smallest_derivation():
    # The stack-pass count is the fixed convention; it can exceed the
    # smallest derivation (e.g. "c d B B x": 4 vs 3, where merging B B
    # away first saves a step) but never undercounts it.  Differences are
    # reported rather than hidden.
    rng = random.Random(23)
    overcounts = []
    for _ in range(400):
        raw = random_raw_word(rng, 8)
        alpha = reduce(raw).contractions
        best = min_contractions(raw)
        assert alpha >= best, (raw, alpha, best)
        if alpha != best:
            overcounts.append((render_letters(raw), alpha, best))
    print(f"\nstack pass above smallest derivation on {len(overcounts)}/400 words")
    for line in overcounts[:5]:
        print("  ", line)


def test_reduce_parity_and_length_bounds():
    rng = random.Random(29)
    for _ in range(2000):
        raw = random_raw_word(rng, 18)
        receipt = reduce(raw)
        a_in = sum(1 for v in raw if v == 0)
        assert a_count(receipt.word) % 2 == a_in % 2
        assert len(receipt.word) <= len(raw)
        assert len(receipt.word) >= len(raw) - 2 * receipt.contractions


def test_reduced_word_structure():
    w = reduce(_letters("a b a c a")).word
    assert w[0] == A and w[-1] == A and tuple(w[1::2]) == (1, 2)
    assert len(w) == 5 and a_count(w) == 3
    # the bare word "a" has one form, however it is reached
    assert reduce((A,)).word == extend(b"", A) == word_from_parts(False, (), True) == b"\0"
    # letters are checked where they enter
    with pytest.raises(ValueError):
        generator(9, parse_omega("(012)"))
    with pytest.raises(ValueError):
        extend(w, 8)
    with pytest.raises(ValueError):
        reduce((9,))
    with pytest.raises(TypeError):
        reduce(3)  # not read as bytes(3), three a's


def test_word_text_round_trip():
    rng = random.Random(31)
    for _ in range(300):
        word = reduce(random_raw_word(rng, 12)).word
        assert reduce(parse_letters(render_letters(word))).word == word
    assert parse_letters("Bx") == parse_letters("B x")
    with pytest.raises(WordParseError):
        parse_letters("b q")


def test_xyz_profile():
    # The paper's x, y and z of a word are its fixed counts at 0, 1 and 2.
    def xyz(text):
        word = reduce(_letters(text)).word
        return tuple(fixed_count(word, q) for q in (0, 1, 2))

    assert xyz("d") == (1, 0, 0)
    assert xyz("B") == (1, 1, 0)
    assert xyz("a x a") == (0, 0, 0)
    # c in y only, D in y and z
    assert xyz("c a D") == (0, 2, 1)


def test_render_letters_names():
    assert render_letters(range(8)) == "a b c d x B C D"
    assert LETTER_NAMES == "abcdxBCD"


def test_extend_matches_reduce_over_a_ball():
    for word in enumerate_ball(parse_omega("(012)"), 0, 6).entries:
        for k in range(8):
            assert extend(word, k) == reduce(word + bytes((k,))).word


REDUCED_WORDS = st.builds(
    word_from_parts,
    st.booleans(),
    st.lists(st.integers(1, 7), max_size=19).map(tuple),
    st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(REDUCED_WORDS, st.integers(0, 7))
def test_extend_matches_reduce_on_random_words(word, letter):
    assert len(word) <= 40
    assert extend(word, letter) == reduce(word + bytes((letter,))).word


def test_extend_rejects_bad_letters():
    with pytest.raises(ValueError):
        extend(b"", 8)
    with pytest.raises(ValueError):
        extend(word_from_parts(False, (1,), False), -1)


# Every input type ``reduce`` takes; a generator can be read only once.
INPUT_TYPES = {
    "tuple": tuple,
    "list": list,
    "bytes": bytes,
    "bytearray": bytearray,
    "generator": lambda letters: (k for k in letters),
}

RAW_WORDS = st.lists(st.integers(0, 7), max_size=60)
LONG_ALTERNATING = st.builds(
    lambda rng, lead, trail: word_from_parts(
        lead, [rng.randrange(1, 8) for _ in range(500)], trail
    ),
    st.randoms(use_true_random=False),
    st.booleans(),
    st.booleans(),
)


def _assert_matches_stack_pass(letters, kind):
    receipt = reduce(INPUT_TYPES[kind](letters))
    assert type(receipt.word) is bytes
    assert (receipt.word, receipt.contractions) == reduce_stack_pass(letters)


@settings(max_examples=300, deadline=None)
@given(RAW_WORDS, st.sampled_from(sorted(INPUT_TYPES)))
def test_reduce_matches_stack_pass_on_raw_words(letters, kind):
    _assert_matches_stack_pass(letters, kind)


@settings(max_examples=300, deadline=None)
@given(RAW_WORDS, st.lists(st.integers(0, 7), max_size=4), st.sampled_from(sorted(INPUT_TYPES)))
def test_reduce_matches_stack_pass_on_cascades(w, tail, kind):
    # w w^-1 collapses to the empty word by a cascade through the middle.
    _assert_matches_stack_pass(w + w[::-1] + tail, kind)


@settings(max_examples=300, deadline=None)
@given(REDUCED_WORDS, REDUCED_WORDS, st.sampled_from(sorted(INPUT_TYPES)))
def test_reduce_matches_stack_pass_on_products(u, v, kind):
    # The input shape of ``mul``: two reduced words end to end.
    _assert_matches_stack_pass(u + v, kind)


@settings(max_examples=25, deadline=None)
@given(LONG_ALTERNATING, LONG_ALTERNATING, st.sampled_from(sorted(INPUT_TYPES)))
def test_reduce_matches_stack_pass_on_long_words(u, v, kind):
    assert len(u) >= 999
    _assert_matches_stack_pass(u, kind)
    assert reduce(u).word is u  # a reduced ``bytes`` word comes back as it is
    _assert_matches_stack_pass(u + v, kind)


@pytest.mark.parametrize(
    "kind, bad",
    [
        (kind, bad)
        for kind in sorted(INPUT_TYPES)
        for bad in (8, 255, 256, -1)
        if kind not in ("bytes", "bytearray") or 0 <= bad <= 255  # bytes hold 0..255
    ],
)
def test_reduce_rejects_bad_letters(kind, bad):
    # bytes() raises its own message for 256 and -1.
    for letters in ([bad], [0, 1, 0, bad, 2]):
        with pytest.raises(ValueError, match=r"^letters are encoded as 0\.\.7$"):
            reduce(INPUT_TYPES[kind](letters))
