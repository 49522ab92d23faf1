"""Sequence parsing, canonical form, shifts, and classification."""

import random

import pytest

from _oracles import classify_by_window_search, first_third_symbol_loop, small_canonical_specs
from overgrowth.omega import (
    OmegaKind,
    OmegaParseError,
    OmegaSpec,
    classify,
    first_positions,
    first_third_symbol_index,
    parse_omega,
    shift,
    shift_normalize,
    symbol_at,
)


def test_parse_basic():
    w = parse_omega("(012)")
    assert w.preperiod == "" and w.period == "012"
    w = parse_omega("01(2)")
    assert w.preperiod == "01" and w.period == "2"


def test_parse_canonicalizes_period_power():
    # primitivity found by trying all divisors
    for text, period in [("(0101)", "01"), ("(000)", "0"), ("(012012)", "012")]:
        assert parse_omega(text).period == period


def test_parse_canonicalizes_preperiod():
    assert str(parse_omega("2(12)")) == "(21)"
    assert str(parse_omega("00(0)")) == "(0)"
    assert str(parse_omega("01(2)")) == "01(2)"


def test_parse_errors_carry_position():
    with pytest.raises(OmegaParseError):
        parse_omega("012")
    with pytest.raises(OmegaParseError):
        parse_omega("()")
    with pytest.raises(OmegaParseError) as err:
        parse_omega("(x)")
    assert err.value.position == 1
    with pytest.raises(OmegaParseError):
        parse_omega("(01")


def test_symbol_at():
    w = parse_omega("(012)")
    assert symbol_at(w, 1) == 0
    assert symbol_at(w, 4) == 0
    assert symbol_at(parse_omega("01(2)"), 7) == 2
    with pytest.raises(ValueError):
        symbol_at(w, 0)


def test_shift():
    assert str(shift(parse_omega("(012)"), 1)) == "(120)"
    assert str(shift(parse_omega("01(2)"), 2)) == "(2)"
    assert shift(parse_omega("(012)"), 3) == parse_omega("(012)")
    assert shift(parse_omega("(012)"), 0) == parse_omega("(012)")


def test_shift_normalize():
    assert shift_normalize(parse_omega("(012)"), 5) == 2
    assert shift_normalize(parse_omega("01(2)"), 9) == 2
    assert shift_normalize(parse_omega("(012)"), 2) == 2
    w = parse_omega("01(20)")
    for k in range(20):
        kn = shift_normalize(w, k)
        assert kn < w.cycle_length
        assert shift(w, kn) == shift(w, k)


def test_shift_compatible_with_symbol_at():
    rng = random.Random(11)
    for _ in range(50):
        pre = "".join(rng.choice("012") for _ in range(rng.randrange(4)))
        per = "".join(rng.choice("012") for _ in range(1, 5))
        w = OmegaSpec(pre, per)
        for k in range(0, 3 * w.cycle_length):
            shifted = shift(w, k)
            for n in range(1, 10):
                assert symbol_at(shifted, n) == symbol_at(w, n + k)


def test_shift_composes():
    rng = random.Random(7)
    for _ in range(30):
        pre = "".join(rng.choice("012") for _ in range(rng.randrange(3)))
        per = "".join(rng.choice("012") for _ in range(1, 4))
        w = OmegaSpec(pre, per)
        top = 3 * w.cycle_length
        for j in range(top):
            for k in range(top):
                assert shift(shift(w, j), k) == shift(w, j + k)


def test_classify_examples():
    cls = classify(parse_omega("(012)"))
    assert cls.kind is OmegaKind.OMEGA0
    assert cls.star_window == 3
    assert not cls.two_symbol

    cls = classify(parse_omega("(01)"))
    assert cls.kind is OmegaKind.OMEGA1
    assert cls.star_window == 2
    assert cls.two_symbol

    cls = classify(parse_omega("01(2)"))
    assert cls.kind is OmegaKind.OMEGA2
    assert cls.star_window is None
    assert not cls.two_symbol


def test_classify_star_window_scans_preperiod():
    # the lone 2 in the preperiod forces nothing: class is the tail's
    cls = classify(parse_omega("2(01)"))
    assert cls.kind is OmegaKind.OMEGA1
    assert cls.star_window == 2
    # a long constant run inside the period stretches the window
    cls = classify(parse_omega("(000102)"))
    assert cls.kind is OmegaKind.OMEGA0
    assert cls.star_window == 6


def test_classify_shift_invariant():
    for text in ("(012)", "(01)", "01(2)", "220(10)", "(0012)"):
        w = parse_omega(text)
        base = classify(w).kind
        for k in range(2 * w.cycle_length):
            assert classify(shift(w, k)).kind is base


def test_omega2_constant_tail():
    for text in ("01(2)", "(0)", "120(1)"):
        w = parse_omega(text)
        if classify(w).kind is not OmegaKind.OMEGA2:
            continue
        tail = symbol_at(w, len(w.preperiod) + 1)
        for n in range(len(w.preperiod) + 1, len(w.preperiod) + 10):
            assert symbol_at(w, n) == tail


def test_first_third_symbol_index():
    assert first_third_symbol_index(parse_omega("(012)")) == 3
    assert first_third_symbol_index(parse_omega("(01)")) is None
    assert first_third_symbol_index(parse_omega("2201(0)")) == 4


def test_first_positions_examples():
    w = parse_omega("(012)")
    assert first_positions(w) == {0: 1, 1: 2, 2: 3}
    assert list(first_positions(w, 1).items()) == [(1, 1), (2, 2), (0, 3)]
    # Past the preperiod only the period's symbols show.
    assert first_positions(parse_omega("01(2)"), 2) == {2: 1}
    assert list(first_positions(parse_omega("2201(0)")).items()) == [(2, 1), (0, 3), (1, 4)]
    # A shift past the preperiod reads the period from where it stands.
    assert list(first_positions(parse_omega("2(001)"), 7).items()) == [(0, 1), (1, 3)]


def test_classify_matches_the_window_search():
    # The window search and the position loop that first_positions replaced.
    specs = small_canonical_specs()
    assert len(specs) == 2835
    for w in specs:
        cls = classify(w)
        assert (cls.kind.value, cls.star_window, cls.two_symbol) == classify_by_window_search(w)
        assert first_third_symbol_index(w) == first_third_symbol_loop(w)


def test_render_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        pre = "".join(rng.choice("012") for _ in range(rng.randrange(5)))
        per = "".join(rng.choice("012") for _ in range(1, 6))
        w = OmegaSpec(pre, per)
        assert parse_omega(str(w)) == w
