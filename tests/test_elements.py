"""Tree action, sections, equality, portraits, and bounded order.

The independent reference throughout is the letterwise closed-form action
from _oracles, which never touches the section machinery under test.
"""

import random

import pytest

from overgrowth.omega import parse_omega, symbol_at
from overgrowth.words import a_count, letter_label, parse_letters, render_letters
from overgrowth.growth import stabilizes_level
from overgrowth.elements import (
    ContextMismatch,
    Element,
    OddParityError,
    _first_swap_level,
    act,
    all_generators,
    decompose,
    equal,
    generator,
    inverse,
    is_identity,
    level_table,
    mul,
    order_bounded,
    portrait,
    power,
    sections,
    signature,
)

from _oracles import (
    act_word,
    first_swap_level_loop,
    identity_to_depth,
    parse_element,
    portrait_via_act,
    random_raw_word,
    small_canonical_specs,
    word_from_parts,
)

W012 = parse_omega("(012)")
W01 = parse_omega("(01)")
W0 = parse_omega("(0)")

OMEGA_MATRIX = [parse_omega(s) for s in ("(012)", "(01)", "(0)", "(2)", "01(2)")]


def el(text, omega=W012, shift=0):
    return Element.from_text(text, omega, shift)


def test_generator_basics():
    assert render_letters(generator("b", W012).word) == "b"
    assert a_count(generator("a", W012).word) == 1
    assert is_identity(generator("d", W0))
    assert is_identity(generator("B", W01))


def spine_label(k, omega, shift, level):
    """Whether spine letter k swaps at the given level of its spine."""
    return letter_label(k, symbol_at(omega, shift + level))


def test_first_swap_level_matches_the_level_loop():
    for omega in small_canonical_specs():
        for shift in range(omega.cycle_length + 2):
            for k in range(1, 8):
                assert _first_swap_level(k, omega, shift) == first_swap_level_loop(k, omega, shift)


def test_letter_label_examples():
    assert spine_label(1, W012, 0, 1)  # b at symbol 0
    assert not spine_label(5, W012, 0, 1)  # B at symbol 0
    assert spine_label(7, W012, 0, 1)  # D at symbol 0
    assert not spine_label(3, W012, 0, 1)  # d at symbol 0
    assert spine_label(3, W012, 0, 2)  # d at symbol 1


def test_letter_label_matches_row_data():
    # left substitution coordinate agrees with the letter's swap parity
    for omega in OMEGA_MATRIX:
        for shift in range(omega.cycle_length):
            for k in range(1, 8):
                for level in range(1, 13):
                    g = generator(k, omega, shift)
                    lab = "P" if spine_label(k, omega, shift, level) else "I"
                    # peel level-1 sections down to the queried level
                    cur = g
                    for _ in range(level - 1):
                        cur = decompose(cur).right
                    d = decompose(cur)
                    assert (render_letters(d.left.word) == "a") == (lab == "P")


def test_decompose_examples():
    d = decompose(generator("b", W012))
    assert not d.top_swap
    assert render_letters(d.left.word) == "a" and render_letters(d.right.word) == "b"
    assert d.left.shift == 1 and d.right.shift == 1

    d = decompose(generator("a", W012))
    assert d.top_swap and d.left.length == 0 and d.right.length == 0

    d = decompose(el("a b a"))
    assert not d.top_swap
    assert render_letters(d.left.word) == "b" and d.left.shift == 1
    assert render_letters(d.right.word) == "a"


def test_decompose_length_bound_exhaustive_short_words():
    # both section words stay within (L + 1) / 2, checked on every reduced
    # word of length at most 10 (covers every ball element of radius 10)
    from itertools import product

    for m in range(0, 6):
        for spine in product(range(1, 8), repeat=m):
            for lead in (False, True):
                for trail in ((False, True) if m else (False,)):
                    word = word_from_parts(lead, spine, trail)
                    if len(word) > 10:
                        continue
                    g = Element(word, W012, 0)
                    d = decompose(g)
                    bound = (len(word) + 1) / 2
                    assert d.left.length <= bound
                    assert d.right.length <= bound


def test_sections():
    left, right = sections(generator("b", W012))
    assert render_letters(left.word) == "a" and render_letters(right.word) == "b"
    left, right = sections(Element.identity(W012))
    assert left.length == 0 and right.length == 0
    with pytest.raises(OddParityError):
        sections(generator("a", W012))


def test_act_examples():
    assert act(generator("a", W012), "01") == "11"
    assert act(generator("b", W012), "00") == "01"
    # x fixes the all-ones path and swaps just below it
    assert act(generator("x", W012), "111") == "111"
    assert act(generator("x", W012), "000") == "010"
    with pytest.raises(ValueError):
        act(generator("a", W012), "02")


def test_act_matches_letterwise_oracle():
    rng = random.Random(41)
    for _ in range(2000):
        omega = rng.choice(OMEGA_MATRIX)
        shift = rng.randrange(omega.cycle_length)
        raw = random_raw_word(rng, 10)
        g = Element.from_letters(raw, omega, shift)
        for _ in range(4):
            v = "".join(rng.choice("01") for _ in range(rng.randrange(1, 7)))
            assert act(g, v) == act_word(raw, omega, shift, v)


def test_mul_composition_law():
    # act(g * h, v) = act(g, act(h, v)), with h applied first
    rng = random.Random(71)
    for _ in range(500):
        omega = rng.choice(OMEGA_MATRIX)
        g = Element.from_letters(random_raw_word(rng, 9), omega)
        h = Element.from_letters(random_raw_word(rng, 9), omega)
        v = "".join(rng.choice("01") for _ in range(6))
        assert act(mul(g, h), v) == act(g, act(h, v))


def test_act_is_automorphism_on_prefixes():
    rng = random.Random(43)
    for _ in range(200):
        raw = random_raw_word(rng, 8)
        g = Element.from_letters(raw, W012)
        v = "".join(rng.choice("01") for _ in range(6))
        image = act(g, v)
        for cut in range(7):
            assert act(g, v[:cut]) == image[:cut]


def test_portrait_examples():
    assert portrait(generator("a", W012), 2) == {"": "P", "0": "I", "1": "I"}

    assert portrait(generator("b", W012), 3) == {
        "": "I", "0": "P", "1": "I", "00": "I", "01": "I", "10": "P", "11": "I",
    }

    for depth in (0, 1, 4):
        labels = portrait(Element.identity(W012), depth)
        assert set(labels.values()) <= {"I"}
        assert len(labels) == (1 << depth) - 1


def packed_labels(labels, depth, prefix=""):
    """A portrait's labels packed into an int as ``signature`` packs them."""
    if depth == 0:
        return 0
    half = (1 << (depth - 1)) - 1
    return (
        (labels[prefix] == "P")
        | packed_labels(labels, depth - 1, prefix + "0") << 1
        | packed_labels(labels, depth - 1, prefix + "1") << (1 + half)
    )


def test_portrait_matches_letterwise_oracle():
    rng = random.Random(47)
    for _ in range(300):
        omega = rng.choice(OMEGA_MATRIX)
        raw = random_raw_word(rng, 8)
        g = Element.from_letters(raw, omega)
        assert portrait(g, 4) == portrait_via_act(raw, omega, 0, 4)
    # From 128 letters on a word's sections are split in bulk at the root.
    for omega, depth in zip(OMEGA_MATRIX, (6, 7, 8, 6, 7)):
        shift = rng.randrange(omega.cycle_length)
        spine = [rng.randrange(1, 8) for _ in range(rng.randrange(64, 201))]
        word = bytes(x for k in spine for x in (0, k))
        g = Element(word, omega, shift)
        labels = portrait_via_act(word, omega, shift, depth)
        assert portrait(g, depth) == labels
        assert signature(g, depth) == packed_labels(labels, depth)
        images = bytes(
            int(act_word(word, omega, shift, format(i, f"0{depth}b")), 2)
            for i in range(1 << depth)
        )
        assert level_table(g, depth)[: 1 << depth] == images
    # Depths 0 and 1, deeper portraits and nonzero shifts on short words.
    for _ in range(20):
        omega = rng.choice(OMEGA_MATRIX)
        shift = rng.randrange(1, omega.cycle_length + 2)
        raw = random_raw_word(rng, 8)
        g = Element.from_letters(raw, omega, shift)
        for depth in (0, 1, 9, 10):
            labels = portrait_via_act(raw, omega, shift, depth)
            assert portrait(g, depth) == labels
            assert signature(g, depth) == packed_labels(labels, depth)
    for g in (Element.identity(W012), el("a b a c")):
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            signature(g, -1)


def test_mul_and_inverse():
    assert render_letters(mul(generator("b", W012), generator("c", W012)).word) == "d"
    g = el("a b a c")
    assert is_identity(mul(g, inverse(g)))
    assert is_identity(mul(el("a b"), el("b a")))
    assert render_letters(inverse(Element.from_letters(parse_letters("a b c"), W012)).word) == "d a"
    assert render_letters(inverse(el("a")).word) == "a"
    assert inverse(Element.identity(W012)).length == 0
    with pytest.raises(ContextMismatch):
        mul(generator("b", W012), generator("b", W01))
    with pytest.raises(ContextMismatch):
        mul(generator("b", W012, 0), generator("b", W012, 1))


def test_is_identity_examples():
    assert is_identity(generator("d", W0))
    assert is_identity(mul(generator("b", W01), generator("x", W01)))
    assert not is_identity(el("a b a b"))
    assert not identity_to_depth(parse_letters("a b a b"), W012, 0, 8)


def test_is_identity_matches_oracle_to_depth():
    rng = random.Random(53)
    for _ in range(400):
        omega = rng.choice(OMEGA_MATRIX)
        raw = random_raw_word(rng, 8)
        g = Element.from_letters(raw, omega)
        if is_identity(g):
            assert identity_to_depth(raw, omega, 0, 9)
        else:
            # the recursion's verdict must show up at some finite depth
            assert not identity_to_depth(raw, omega, 0, 14)


def test_known_relations():
    ad = mul(generator("a", W012), generator("d", W012))
    assert is_identity(power(ad, 4))
    assert not is_identity(power(ad, 2))
    assert equal(el("a d a d"), el("d a d a"))
    assert equal(el("a d a d a d a d"), Element.identity(W012))


def test_equal():
    assert equal(generator("b", W01), generator("x", W01))
    assert not equal(generator("b", W012), generator("c", W012))
    g = el("a c a d")
    assert equal(g, g)
    with pytest.raises(ContextMismatch):
        equal(generator("b", W012), generator("b", W01))


def test_equal_equivalence_on_sample():
    rng = random.Random(73)
    els = [Element.from_letters(random_raw_word(rng, 6), W012) for _ in range(35)]
    classes: list[list[Element]] = []
    for g in els:
        assert equal(g, g)
        for cls in classes:
            if equal(cls[0], g):
                cls.append(g)
                break
        else:
            classes.append([g])
    for cls in classes:
        for g in cls:
            for h in cls:
                assert equal(g, h) and equal(h, g)
    for cls, other in zip(classes, classes[1:]):
        assert not equal(cls[0], other[0])


def test_identity_iff_deep_portrait_trivial():
    # necessary direction always; the converse holds on these families
    rng = random.Random(79)
    for i in range(150):
        omega = rng.choice(OMEGA_MATRIX)
        g = Element.from_letters(random_raw_word(rng, 8), omega)
        assert is_identity(g) == (signature(g, 14) == 0)
        if i < 10:
            assert is_identity(g) == (set(portrait(g, 14).values()) == {"I"})


def test_stabilizes_level_matches_oracle():
    # g^(2^j) fixes level j (the action on level j lies in a 2-group of
    # exponent 2^j), so the powers give words that fix deep levels.
    rng = random.Random(61)
    fixing = [0] * 7
    for omega in OMEGA_MATRIX:
        for i in range(12):
            shift = rng.randrange(omega.cycle_length + 2)
            if i % 4 == 0:
                # From 128 letters on a word's sections are split in bulk.
                spine = [rng.randrange(1, 8) for _ in range(rng.randrange(64, 101))]
                g = Element.from_letters([x for k in spine for x in (0, k)], omega, shift)
                powers = (1, 2)
            else:
                g = Element.from_letters(random_raw_word(rng, 10), omega, shift)
                powers = (1, 2, 4, 8)
            for k in powers:
                h = power(g, k)
                for s in range(1, 7):
                    fixes = identity_to_depth(h.word, omega, h.shift, s)
                    assert stabilizes_level(h, s) == fixes
                    fixing[s] += fixes and h.word != b""
    # Nonempty words that fix each level 1..6.
    assert min(fixing[1:]) > 20


def test_equal_is_congruence():
    rng = random.Random(59)
    pairs = [(el("a d a d"), el("d a d a")), (el("b x"), el("B"))]
    for g, h in pairs:
        assert equal(g, h)
        for _ in range(20):
            f = Element.from_letters(random_raw_word(rng, 6), W012)
            assert equal(mul(g, f), mul(h, f))


def test_section_homomorphism():
    rng = random.Random(61)
    for _ in range(300):
        g = Element.from_letters(random_raw_word(rng, 8), W012)
        h = Element.from_letters(random_raw_word(rng, 8), W012)
        if not (g.in_stabilizer and h.in_stabilizer):
            continue
        gl, gr = sections(g)
        hl, hr = sections(h)
        pl, pr = sections(mul(g, h))
        assert equal(pl, mul(gl, hl))
        assert equal(pr, mul(gr, hr))


def test_involutions_across_matrix():
    for omega in OMEGA_MATRIX:
        for g in all_generators(omega):
            assert is_identity(mul(g, g))


def test_order_bounded():
    assert order_bounded(generator("a", W012), 16) == 2
    assert order_bounded(generator("d", W012), 16) == 2
    assert order_bounded(Element.identity(W012), 5) == 1
    assert order_bounded(generator("d", W0), 5) == 1
    assert order_bounded(mul(generator("a", W012), generator("x", W012)), 4096) is None
    ad = mul(generator("a", W012), generator("d", W012))
    assert order_bounded(ad, 16) == 4
    assert order_bounded(ad, 3) is None
    ab = mul(generator("a", W012), generator("b", W012))
    assert order_bounded(ab, 64) == 16


def test_order_matches_direct_powering():
    rng = random.Random(67)
    for _ in range(60):
        g = Element.from_letters(random_raw_word(rng, 5), W012)
        k = order_bounded(g, 64)
        direct = None
        for j in range(1, 65):
            if is_identity(power(g, j)):
                direct = j
                break
        assert k == direct


def test_signature_consistency():
    g, h = el("a d a d"), el("d a d a")
    assert signature(g, 9) == signature(h, 9)
    assert signature(generator("b", W012), 3) != signature(generator("c", W012), 3)


def test_element_text_round_trip():
    g = el("a b a c", W012)
    assert str(g) == "a b a c @ 0 @ (012)"
    assert parse_element(str(g)) == g
    assert parse_element("b @ 1 @ (012)").shift == 1
    assert parse_element("", W012).length == 0


def test_element_is_an_immutable_value():
    g = el("a b a c")
    with pytest.raises(AttributeError):
        g.word = b""
    with pytest.raises(AttributeError):
        del g.shift
    # Equality and hashing go by (word, omega, shift): over an equal spec
    # with its own identity memo the element is equal, and it is equal to
    # the plain tuple of its fields.
    h = Element(g.word, parse_omega("(012)"), 0)
    assert g == h and hash(g) == hash(h)
    assert g == (g.word, W012, 0)
    assert g != el("a b a c", W012, 1) and g != el("a b a d") and g != el("a b a c", W01)
    assert len({g, h, el("a b a c", W012, 1)}) == 2
