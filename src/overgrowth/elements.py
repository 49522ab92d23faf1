"""Group elements acting on the binary rooted tree.

An element is a reduced word bound to a shift of its defining sequence.
Products apply right-to-left: ``act(mul(g, h), v) == act(g, act(h, v))``.
Equality is decided by the contracting section recursion: the two child
sections of a word of length L have word length at most (L+1)/2, so the
descent terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .omega import OmegaSpec, shift_normalize, symbol_at
from .words import (
    a_count,
    extend,
    letter_label,
    parse_letters,
    reduce,
    render_letters,
    split_sections,
)


class ContextMismatch(ValueError):
    """Operands live over different sequences or shifts."""


class OddParityError(ValueError):
    """Sections requested for an element outside the level-one stabilizer."""


@dataclass(frozen=True)
class Element:
    word: bytes
    omega: OmegaSpec
    shift: int

    @staticmethod
    def identity(omega: OmegaSpec, shift: int = 0) -> "Element":
        return Element(b"", omega, shift_normalize(omega, shift))

    @staticmethod
    def from_letters(letters, omega: OmegaSpec, shift: int = 0) -> "Element":
        return Element(reduce(letters).word, omega, shift_normalize(omega, shift))

    @staticmethod
    def from_text(text: str, omega: OmegaSpec, shift: int = 0) -> "Element":
        return Element.from_letters(parse_letters(text), omega, shift)

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def in_stabilizer(self) -> bool:
        """True when the element fixes both level-one vertices (even a-count)."""
        return a_count(self.word) % 2 == 0

    def __str__(self) -> str:
        return f"{render_letters(self.word)} @ {self.shift} @ {self.omega}"


def generator(letter, omega: OmegaSpec, shift: int = 0) -> Element:
    """Single-letter element; ``letter`` is an int 0..7 or a letter name."""
    if isinstance(letter, str):
        (letter,) = parse_letters(letter)
    if not 0 <= letter <= 7:
        raise ValueError("letters are encoded as 0..7")
    return Element(bytes((letter,)), omega, shift_normalize(omega, shift))


def all_generators(omega: OmegaSpec, shift: int = 0) -> tuple[Element, ...]:
    return tuple(generator(k, omega, shift) for k in range(8))


@dataclass(frozen=True)
class WreathDecomposition:
    top_swap: bool
    left: Element
    right: Element


@dataclass(frozen=True)
class Portrait:
    """Swap/fix labels at every internal vertex of depth below ``depth``."""

    depth: int
    labels: dict


def _first_swap_level(letter: int, omega: OmegaSpec, shift: int) -> Optional[int]:
    """First level of its spine at which a spine letter swaps, or None.

    Levels 1 .. cycle_length cover the rest of the preperiod and a full
    period, so every symbol still to come: a letter that swaps at none of
    them is trivial.
    """
    for level in range(1, omega.cycle_length + 1):
        if letter_label(letter, symbol_at(omega, shift + level)):
            return level
    return None


def decompose(g: Element) -> WreathDecomposition:
    """Root swap and both sections by ``split_sections``, memoized on the
    sequence for the callers that revisit sections.  The one-pass walks
    split words themselves: ``is_identity``, ``lemma3_check`` and
    ``BallTable.split_key`` with ``split_sections``,
    ``level_section_trace`` with ``split_reduce``."""
    memo = g.omega.sections
    key = (g.shift, g.word)
    hit = memo.get(key)
    if hit is not None:
        return hit
    swap, left, right = split_sections(g.word, symbol_at(g.omega, g.shift + 1))
    down = shift_normalize(g.omega, g.shift + 1)
    dec = WreathDecomposition(
        swap, Element(left, g.omega, down), Element(right, g.omega, down)
    )
    memo[key] = dec
    return dec


def sections(g: Element) -> tuple[Element, Element]:
    if not g.in_stabilizer:
        raise OddParityError("element moves the level-one vertices")
    d = decompose(g)
    return d.left, d.right


def act(g: Element, vertex: str) -> str:
    """Image of a vertex (a binary string) under the element."""
    if any(ch not in "01" for ch in vertex):
        raise ValueError("vertices are binary strings")
    out = []
    cur = g
    for ch in vertex:
        d = decompose(cur)
        bit = ch != "0"
        out.append("01"[bit ^ d.top_swap])
        cur = d.right if bit else d.left
    return "".join(out)


def portrait(g: Element, depth: int) -> Portrait:
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    labels: dict = {}

    def fill(e: Element, prefix: str) -> None:
        if len(prefix) >= depth:
            return
        d = decompose(e)
        labels[prefix] = "P" if d.top_swap else "I"
        fill(d.left, prefix + "0")
        fill(d.right, prefix + "1")

    fill(g, "")
    return Portrait(depth, labels)


def signature(g: Element, depth: int) -> int:
    """Portrait to ``depth`` packed into an int (2^depth - 1 label bits)."""
    if depth == 0 or not g.word:
        return 0
    d = decompose(g)
    half = (1 << (depth - 1)) - 1
    return (
        int(d.top_swap)
        | signature(d.left, depth - 1) << 1
        | signature(d.right, depth - 1) << (1 + half)
    )


# Deepest level whose vertices fit the 256 entries of a bytes translation table.
TABLE_DEPTH_MAX = 8
IDENTITY_TABLE = bytes(range(256))


def level_table(g: Element, depth: int) -> bytes:
    """Action on the 2^depth vertices of level ``depth`` as a 256-byte table.

    Byte i is the image of the vertex ``format(i, f"0{depth}b")``; bytes
    from 2^depth on are the identity.  Tables compose like the elements:
    the table of ``mul(g, h)`` is ``level_table(h, d).translate(level_table(g, d))``.
    """
    if not 0 <= depth <= TABLE_DEPTH_MAX:
        raise ValueError(f"level tables cover depths 0..{TABLE_DEPTH_MAX}")
    return _leaf_images(g, depth) + IDENTITY_TABLE[1 << depth:]


# _RAISE[k] adds 2^k (mod 256) to every byte: it moves the leaf images of
# a depth-(k + 1) subtree's left half into its right half.
_RAISE = tuple(
    IDENTITY_TABLE[1 << k:] + IDENTITY_TABLE[: 1 << k] for k in range(TABLE_DEPTH_MAX)
)


def _leaf_images(g: Element, depth: int) -> bytes:
    if not g.word or depth == 0:
        return IDENTITY_TABLE[: 1 << depth]
    d = decompose(g)
    left = _leaf_images(d.left, depth - 1)
    right = _leaf_images(d.right, depth - 1)
    up = _RAISE[depth - 1]
    if d.top_swap:
        return left.translate(up) + right
    return left + right.translate(up)


def is_identity(g: Element) -> bool:
    """Word problem by contracting section descent; memoizes only the answer."""
    return _trivial(g.omega, g.shift, g.word)


def _trivial(omega: OmegaSpec, shift: int, word: bytes) -> bool:
    """``is_identity`` of ``word`` at the normalized ``shift``, recursing on
    the section words."""
    if not word:
        return True
    if a_count(word) % 2 == 1:
        return False
    memo = omega.trivial
    key = (shift, word)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if len(word) == 1:
        result = _first_swap_level(word[0], omega, shift) is None
    else:
        _, left, right = split_sections(word, symbol_at(omega, shift + 1))
        down = shift_normalize(omega, shift + 1)
        result = _trivial(omega, down, left) and _trivial(omega, down, right)
    memo[key] = result
    return result


def mul(g: Element, h: Element) -> Element:
    if g.omega != h.omega or g.shift != h.shift:
        raise ContextMismatch("operands must share sequence and shift")
    return Element(reduce(g.word + h.word).word, g.omega, g.shift)


def inverse(g: Element) -> Element:
    # Every letter is an involution, so the inverse word is the reverse,
    # which is automatically reduced.
    return Element(g.word[::-1], g.omega, g.shift)


def _common_prefix(u: bytes, v: bytes) -> int:
    """Length of the longest common prefix, by binary search over slices."""
    lo, hi = 0, min(len(u), len(v))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if u[lo:mid] == v[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def equal(g: Element, h: Element) -> bool:
    """Word problem for g = h, decided on the part where the words differ.

    With g = p u s and h = p v s for the longest common prefix p and then
    the longest common suffix s, g = h exactly when u v^-1 = 1; since every
    letter is an involution, v^-1 is v reversed.
    """
    if g.omega != h.omega or g.shift != h.shift:
        raise ContextMismatch("operands must share sequence and shift")
    u, v = g.word, h.word
    if u == v:
        return True
    p = _common_prefix(u, v)
    # Reversed, the rests after the prefix start with the suffix.
    u, v = u[p:][::-1], v[p:][::-1]
    s = _common_prefix(u, v)
    x, y = u[s:][::-1], v[s:]
    # x and y are reduced, and when both are nonempty the last letter of x
    # and the first of y differ (s is the longest common suffix): at most
    # two spine letters meet at the junction, and they merge into a
    # nontrivial one, so x y reduces by one ``extend``.
    diff = extend(x, y[0]) + y[1:] if y else x
    return _trivial(g.omega, g.shift, diff)


def power(g: Element, k: int) -> Element:
    if k < 0:
        return power(inverse(g), -k)
    acc = Element.identity(g.omega, g.shift)
    base = g
    while k:
        if k & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        k >>= 1
    return acc


def _order_rec(g: Element, bound: int, known: dict) -> Optional[int]:
    """Order of g if at most ``bound``; ``known`` holds orders by (shift, word)."""
    if is_identity(g):
        return 1
    key = (g.shift, g.word)
    hit = known.get(key)
    if hit is not None:
        return hit if hit <= bound else None
    if len(g.word) == 1:
        known[key] = 2
        return 2 if bound >= 2 else None
    if not g.in_stabilizer:
        if bound < 2:
            return None
        sub = _order_rec(mul(g, g), bound // 2, known)
        if sub is None:
            return None
        result = 2 * sub
    else:
        d = decompose(g)
        o_left = _order_rec(d.left, bound, known)
        if o_left is None:
            return None
        o_right = _order_rec(d.right, bound, known)
        if o_right is None:
            return None
        result = o_left * o_right // gcd(o_left, o_right)
        if result > bound:
            return None
    known[key] = result
    return result


def order_bounded(g: Element, max_order: int) -> Optional[int]:
    """Least k <= max_order with g^k trivial, or None when the bound is hit.

    The recursion (stabilizer elements: lcm of section orders; others:
    twice the order of the square) yields the exact order; the result is
    re-verified by explicit powering before being returned.
    """
    if max_order < 1:
        raise ValueError("max_order must be positive")
    k = _order_rec(g, max_order, {})
    if k is None:
        return None
    if not is_identity(power(g, k)):
        raise RuntimeError("order recursion disagreed with explicit powering")
    m, p = k, 2
    while p * p <= m:
        if m % p == 0:
            if is_identity(power(g, k // p)):
                raise RuntimeError("order recursion returned a non-minimal order")
            while m % p == 0:
                m //= p
        p += 1
    if m > 1 and is_identity(power(g, k // m)):
        raise RuntimeError("order recursion returned a non-minimal order")
    return k

