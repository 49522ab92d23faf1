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


def first_positions(omega: OmegaSpec, shift: int = 0) -> dict[int, int]:
    """Each symbol that shows from position shift + 1 on, mapped to the
    least n >= 1 with omega_(shift + n) equal to it, in order of n; n up to
    cycle_length covers the rest of the preperiod and a full period."""
    first: dict[int, int] = {}
    for n in range(1, omega.cycle_length + 1):
        first.setdefault(symbol_at(omega, shift + n), n)
    return first


def classify(omega: OmegaSpec) -> OmegaClass:
    """Class by the symbols occurring infinitely often (= the period's symbols).

    ``star_window`` is the least window size M such that every length-M
    window of the sequence contains all three symbols (three-symbol case)
    or at least two (two-symbol case); absent for eventually constant
    sequences.  The window from position k + 1 holds that many symbols
    once it reaches the third (or second) symbol to show there, and a
    window that starts past position cycle_length repeats one a period
    earlier.
    """
    need = len(first_positions(omega, len(omega.preperiod)))
    windows = [list(first_positions(omega, k).values()) for k in range(omega.cycle_length)]
    star = max(w[need - 1] for w in windows) if need > 1 else None
    kind = (OmegaKind.OMEGA2, OmegaKind.OMEGA1, OmegaKind.OMEGA0)[need - 1]
    return OmegaClass(kind, star, len(first_positions(omega)) <= 2)


def first_third_symbol_index(omega: OmegaSpec) -> Optional[int]:
    """Least s with {omega_1..omega_s} = {0,1,2}, or None if never."""
    first = first_positions(omega)
    return max(first.values()) if len(first) == 3 else None
