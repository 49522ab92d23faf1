"""Eventually periodic defining sequences over {0,1,2}.

A sequence is stored as a finite preperiod plus a repeating period and is
indexed from 1.  Canonical form (primitive period, shortest preperiod) is
enforced at construction, so structural equality of two specs coincides
with equality of the sequences they denote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

ALPHABET = "012"


class OmegaParseError(ValueError):
    """Malformed sequence text; ``position`` is the 0-based offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


def _primitive(period: str) -> str:
    n = len(period)
    for d in range(1, n):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


@dataclass(frozen=True)
class OmegaSpec:
    """Canonical ``preperiod(period)`` presentation of an eventual period.

    Canonicalization happens in the constructor: the period is replaced by
    its primitive root and the preperiod is shortened as long as its last
    symbol matches the last symbol of the (rotated) period.

    The spec also owns the identity memo of its group, ``trivial``: the
    answers of ``elements.is_identity`` keyed by ``(shift, word)``.  It is
    not part of its value, so equal specs compare and hash equal whatever
    they have memoized.
    """

    preperiod: str
    period: str
    trivial: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        for ch in self.preperiod + self.period:
            if ch not in ALPHABET:
                raise ValueError(f"illegal symbol {ch!r}")
        if not self.period:
            raise ValueError("period must be nonempty")
        pre, per = self.preperiod, _primitive(self.period)
        while pre and pre[-1] == per[-1]:
            per = per[-1] + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @property
    def cycle_length(self) -> int:
        """Number of symbol positions after which shifts repeat."""
        return len(self.preperiod) + len(self.period)

    def __str__(self) -> str:
        return f"{self.preperiod}({self.period})"


class OmegaKind(Enum):
    OMEGA0 = "Omega0"
    OMEGA1 = "Omega1"
    OMEGA2 = "Omega2"


@dataclass(frozen=True)
class OmegaClass:
    kind: OmegaKind
    star_window: Optional[int]
    two_symbol: bool


def parse_omega(text: str) -> OmegaSpec:
    """Parse ``PRE(PER)`` text, e.g. ``"(012)"`` or ``"01(2)"``."""
    open_at = text.find("(")
    if open_at < 0:
        raise OmegaParseError("expected '(' introducing the period", len(text))
    if not text.endswith(")") or len(text) < open_at + 3:
        raise OmegaParseError("expected nonempty period closed by ')'", len(text))
    pre, per = text[:open_at], text[open_at + 1 : -1]
    for i, ch in enumerate(text[:-1]):
        if ch not in ALPHABET and i != open_at:
            raise OmegaParseError(f"illegal character {ch!r}", i)
    return OmegaSpec(pre, per)


def symbol_at(omega: OmegaSpec, n: int) -> int:
    """The n-th symbol (1-based), preperiod first, then the period cyclically."""
    if n < 1:
        raise ValueError("symbol positions are 1-based")
    i = n - 1
    if i < len(omega.preperiod):
        return int(omega.preperiod[i])
    return int(omega.period[(i - len(omega.preperiod)) % len(omega.period)])


def shift(omega: OmegaSpec, k: int) -> OmegaSpec:
    """Canonical form of the sequence with the first k symbols dropped."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    if k <= len(omega.preperiod):
        return OmegaSpec(omega.preperiod[k:], omega.period)
    r = (k - len(omega.preperiod)) % len(omega.period)
    return OmegaSpec("", omega.period[r:] + omega.period[:r])


def shift_normalize(omega: OmegaSpec, k: int) -> int:
    """Least k' with shift(omega, k') = shift(omega, k); k' < cycle_length."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    pre = len(omega.preperiod)
    if k < pre:
        return k
    return pre + (k - pre) % len(omega.period)


def classify(omega: OmegaSpec) -> OmegaClass:
    """Class by the symbols occurring infinitely often (= the period's symbols).

    ``star_window`` is the least window size M such that every length-M
    window of the sequence contains all three symbols (three-symbol case)
    or at least two (two-symbol case); absent for eventually constant
    sequences.  For an eventually periodic sequence such an M always
    exists, so the scan is bounded.
    """
    period_symbols = set(omega.period)
    if len(period_symbols) == 1:
        kind = OmegaKind.OMEGA2
    elif len(period_symbols) == 3:
        kind = OmegaKind.OMEGA0
    else:
        kind = OmegaKind.OMEGA1
    two_symbol = len(set(omega.preperiod) | period_symbols) <= 2
    star: Optional[int] = None
    if kind is not OmegaKind.OMEGA2:
        need = 3 if kind is OmegaKind.OMEGA0 else 2
        starts = range(1, omega.cycle_length + 1)
        for m in range(1, len(omega.preperiod) + 2 * len(omega.period) + 1):
            if all(
                len({symbol_at(omega, k + i) for i in range(m)}) >= need
                for k in starts
            ):
                star = m
                break
        assert star is not None
    return OmegaClass(kind, star, two_symbol)


def first_third_symbol_index(omega: OmegaSpec) -> Optional[int]:
    """Least s with {omega_1..omega_s} = {0,1,2}, or None if never."""
    seen: set[int] = set()
    for n in range(1, omega.cycle_length + 1):
        seen.add(symbol_at(omega, n))
        if len(seen) == 3:
            return n
    return None
