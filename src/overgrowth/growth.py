"""Cayley-ball enumeration, growth data, and the verification checkers.

Balls are built breadth-first over right multiplication by the eight
generators in the fixed order a < b < c < d < x < B < C < D, deduplicating
elements by their action on level 8 of the tree, kept as the 128 images of
the even leaves (half of a 256-byte table that composes by
``bytes.translate``).  Up to ``exact_radius`` the key alone decides
equality, and the enumeration loop probes the key index itself; above it
each candidate is an ``Element`` and ``BallTable.lookup`` confirms every
key hit by the word problem.  Off-ball queries also go through ``lookup``.
The ball stores no geodesic links: every letter is an involution, so the
predecessors of an element are the elements of the sphere below that its
eight right multiples hit, found from its key on demand.  The minimal words
built from them feed the frequency (F/D) classification and the
contraction checkers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .omega import (
    OmegaKind,
    OmegaSpec,
    classify,
    first_third_symbol_index,
    shift as shifted_omega,
    shift_normalize,
    symbol_at,
)
from .words import (
    A,
    SPINE_LETTERS,
    X,
    a_count,
    fixed_count,
    reduce,
    render_letters,
    split_reduce,
    split_sections,
)
from .elements import (
    IDENTITY_TABLE,
    TABLE_DEPTH_MAX,
    ContextMismatch,
    Element,
    decompose,
    equal,
    exact_radius,
    generator,
    is_identity,
    level_table,
)

DEFAULT_BUDGET = 5_000_000
# Most minimal words geodesic_words lists for one element (read at call time).
GEODESIC_CAP = 200_000

GENERATOR_LETTERS = tuple(range(8))


class BudgetExceeded(RuntimeError):
    pass


class GeodesicCapExceeded(RuntimeError):
    """An element has more minimal words than the cap; ``length`` is its length."""

    def __init__(self, message: str, length: int):
        super().__init__(message)
        self.length = length


class NotLevelStabilizer(ValueError):
    pass


def as_fraction(value) -> Fraction:
    """Exact rational from int/str/Fraction, or a float via its repr."""
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


def export_portrait_depth(radius: int) -> int:
    """Portrait depth of the ``--export-ball`` hashes for a radius, capped
    at the deepest level a 256-byte table covers (from radius 31 on)."""
    return min(math.ceil(math.log2(radius + 2)) + 3, TABLE_DEPTH_MAX)


# _FLIP[v] is the sibling leaf of leaf v.
_FLIP = bytes(v ^ 1 for v in range(256))


class BallTable:
    """Ball of a given radius as parallel sequences indexed by element id.

    ``entries[i]`` is element i's minimal word, so its length is its sphere.
    ``keys[i]`` is its half table: the images of the 128 even leaves of
    level 8, ``level_table(g, 8)[::2]``.  A tree automorphism maps the
    siblings 2j, 2j + 1 to siblings, so the odd leaf 2j + 1 goes to the
    image of 2j XOR 1 and the half decides the whole table.
    ``strata[n]`` is the range of the ids of sphere n.  ``letter_perms[k]``
    is the level-8 table of letter k.  Element i's full table is rebuilt
    from its key as the key followed by its siblings (the odd leaves'
    images), so leaf v sits at index ``v >> 1 | (v & 1) << 7``;
    ``letter_indices[k]`` is letter k's half table moved to those indices,
    and translated through i's full table it is the key of i times k.
    ``drop_sphere`` forgets a sphere's words and keys and leaves ``None``
    in their slots.
    """

    def __init__(self, omega: OmegaSpec, shift: int, radius: int):
        self.omega = omega
        self.shift = shift_normalize(omega, shift)
        self.radius = radius
        self.exact_radius = exact_radius(omega, self.shift)
        self.complete = True
        self.entries: list[Optional[bytes]] = []
        self.keys: list[Optional[bytes]] = []
        self.strata: list[range] = []
        self.letter_perms = [
            level_table(generator(k, omega, self.shift), TABLE_DEPTH_MAX)
            for k in GENERATOR_LETTERS
        ]
        self.letter_indices = [
            bytes(p >> 1 | (p & 1) << 7 for p in perm[::2]) for perm in self.letter_perms
        ]
        # A key's first id; later ids with that key, past exact_radius only.
        self._by_key: dict[bytes, int] = {}
        self._shared_keys: dict[bytes, list[int]] = {}
        self._geodesics: dict[int, tuple] = {}

    def gamma(self) -> list[int]:
        out, total = [], 0
        for stratum in self.strata:
            total += len(stratum)
            out.append(total)
        return out

    def element(self, eid: int) -> Element:
        return Element(self.entries[eid], self.omega, self.shift)

    def perm_of(self, word: bytes) -> bytes:
        """Level-8 table of a word, composed from the letter tables."""
        perm = IDENTITY_TABLE
        for letter in word:
            perm = self.letter_perms[letter].translate(perm)
        return perm

    def lookup(self, element: Element, key: Optional[bytes] = None) -> Optional[int]:
        """Id of the ball element equal to ``element``, or None.

        ``key`` is the element's half table, the even bytes of ``perm_of``
        its word when not given.  While the element's word and every stored
        word (the last stored is the longest) are at most ``exact_radius``
        long, a key match is the answer; above that it is only a candidate
        until the word problem confirms it.
        """
        if element.shift != self.shift or (
            element.omega is not self.omega and element.omega != self.omega
        ):
            raise ContextMismatch("element and ball must share sequence and shift")
        if key is None:
            key = self.perm_of(element.word)[::2]
        first = self._by_key.get(key)
        if first is None:
            return None
        exact = self.exact_radius
        if len(element.word) <= exact and len(self.entries[-1]) <= exact:
            return first
        if equal(element, self.element(first)):
            return first
        for cand in self._shared_keys.get(key, ()):
            if equal(element, self.element(cand)):
                return cand
        return None

    def predecessors(self, eid: int) -> list[tuple[int, int]]:
        """Element eid's geodesic predecessors as sorted (id, letter) pairs.

        Every letter is an involution, so j is a predecessor by the letter s
        exactly when j is eid times s and lies in the sphere below.  Up to
        ``exact_radius`` a key hit in that sphere is the answer: if j's key
        is that of eid times s, then j times s (at most |eid| letters) has
        eid's key, and both are within the radius where keys decide.  Above
        it a key hit in that sphere whose stored word is the reduced word of
        eid times s is the answer, and any other goes to ``lookup``.
        """
        words = self.entries
        word = words[eid]
        n = len(word)
        if not n:
            return []
        below = self.strata[n - 1]
        lo, hi = below.start, below.stop
        half = self.keys[eid]
        full = half + half.translate(_FLIP)
        get, shared_keys = self._by_key.get, self._shared_keys
        exact = n <= self.exact_radius
        out = []
        for letter, letter_index in enumerate(self.letter_indices):
            key = letter_index.translate(full)
            found = get(key, -1)
            if found >= 0 and not exact:
                hits = [j for j in (found, *shared_keys.get(key, ())) if lo <= j < hi]
                if not hits:
                    continue
                product = reduce(word + bytes((letter,))).word
                literal = [j for j in hits if words[j] == product]
                if literal:
                    found = literal[0]
                else:
                    found = self.lookup(Element(product, self.omega, self.shift), key)
                    if found is None:
                        continue
            if lo <= found < hi:
                out.append((found, letter))
        out.sort()
        return out

    def drop_sphere(self, n: int) -> None:
        """Forget sphere n's words and keys; its ids stay, with ``None`` in
        their slots.

        Once sphere n + 1 is complete, ``grow_ball`` reads sphere n no more.
        After the drop the table still gives ``strata`` and ``gamma``, and
        its lookups find the kept elements; nothing may read a dropped
        element's word.
        """
        by_key, shared_keys = self._by_key, self._shared_keys
        stratum = self.strata[n]
        for eid in stratum:
            key = self.keys[eid]
            later = shared_keys.pop(key, None)
            if later is None:
                del by_key[key]
                continue
            if by_key[key] == eid:
                by_key[key] = later.pop(0)
            else:
                later.remove(eid)
            if later:
                shared_keys[key] = later
        blank = [None] * len(stratum)
        self.entries[stratum.start : stratum.stop] = blank
        self.keys[stratum.start : stratum.stop] = blank
        # A dict keeps its size when entries go; refilled from a copy, it
        # is sized for the kept ones and stays the object the loop holds.
        kept = dict(by_key)
        by_key.clear()
        by_key.update(kept)

    def _drop_from(self, start: int) -> None:
        """Forget the elements with ids from ``start`` on."""
        for key in self.keys[start:]:
            kept = [i for i in self._shared_keys.pop(key, ()) if i < start]
            if kept:
                self._shared_keys[key] = kept
            if self._by_key.get(key, -1) >= start:
                del self._by_key[key]
        del self.entries[start:], self.keys[start:]


def grow_ball(table: BallTable, budget: int = DEFAULT_BUDGET) -> Iterator[range]:
    """Fill an empty table breadth-first up to its radius, yielding the id
    range of each sphere as soon as it is complete, the root's first.  On
    budget overrun the unfinished sphere is dropped, ``complete`` is unset,
    ``radius`` is the last sphere yielded, and the generator ends.

    A candidate g*s gets its key by composing level tables: s's entry of
    ``letter_indices`` translated through g's full table.  Neither
    multiplication nor ``decompose`` runs for it.  Up to ``exact_radius``
    the loop probes the key index itself and builds the candidate's word
    (g's word and the letter s) only on a miss.  The generators and every
    candidate above ``exact_radius`` are ``Element`` objects that go
    through ``BallTable.lookup``, which confirms a key hit above that
    radius by the word problem.

    A candidate built from sphere n lands in sphere n - 1, n or n + 1.  It
    lands in sphere n - 1 exactly when it is a geodesic predecessor of its
    element, and building sphere n met each of those as a key hit in
    sphere n: the loop keeps a byte per element of the last two spheres,
    with bit s set when it met the element as a product by s that way, and
    skips those candidates.  So building sphere n + 1 reads only spheres n
    and n + 1, and a caller may ``drop_sphere(n - 1)`` once sphere n is
    yielded.
    """
    omega, shift = table.omega, table.shift
    words, keys = table.entries, table.keys
    by_key, shared_keys = table._by_key, table._shared_keys
    # (letter, its one-byte word, its entry of letter_indices) per choice.
    moves = [
        (letter, bytes((letter,)), letter_index)
        for letter, letter_index in zip(GENERATOR_LETTERS, table.letter_indices)
    ]
    spine_moves = [moves[letter] for letter in SPINE_LETTERS]
    a_moves = [moves[A]]
    root = IDENTITY_TABLE[::2]
    words.append(b"")
    keys.append(root)
    by_key[root] = 0
    table.strata.append(range(1))
    yield table.strata[0]
    # down[i] has bit s set when the i-th element of the sphere being built
    # times s is a key hit in the sphere below it.
    down = bytearray(1)
    for level in range(table.radius):
        start = len(words)  # the first id of sphere level + 1
        first = table.strata[level].start
        known_down, down = down, bytearray()
        # A candidate and the longest stored word have level + 1 letters:
        # within exact_radius the key alone decides, as in ``lookup``.  The
        # generators (the root's candidates) always go through ``lookup``,
        # so every ball calls it, eight times when its radius is exact:
        # perfbench's tracer test expects a ball to call it.
        exact = 0 < level < table.exact_radius
        for eid in table.strata[level]:
            word = words[eid]
            half = keys[eid]
            full = half + half.translate(_FLIP)
            # Only a letter alternating with the last one lengthens the
            # word (so appending it is the reduced product); any other
            # product lands in an already-complete stratum.
            if level == 0:
                choices = moves
            elif word[-1] == A:
                choices = spine_moves
            else:
                choices = a_moves
            skip = known_down[eid - first]
            if skip:
                choices = [move for move in choices if not skip >> move[0] & 1]
            for letter, letter_word, letter_index in choices:
                key = letter_index.translate(full)
                if exact:
                    found = by_key.get(key)
                else:
                    found = table.lookup(Element(word + letter_word, omega, shift), key)
                if found is not None:
                    if found >= start:
                        down[found - start] |= 1 << letter
                    continue
                nid = len(words)
                words.append(word + letter_word)
                keys.append(key)
                down.append(0)
                if by_key.setdefault(key, nid) != nid:
                    shared_keys.setdefault(key, []).append(nid)
                if nid >= budget:
                    table._drop_from(start)
                    table.complete = False
                    table.radius = level
                    return
        table.strata.append(range(start, len(words)))
        yield table.strata[-1]


def enumerate_ball(
    omega: OmegaSpec,
    shift: int = 0,
    radius: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> BallTable:
    """Breadth-first ball, every sphere kept; on budget overrun returns the
    completed strata with ``complete`` unset rather than a partial stratum.
    ``grow_ball`` builds it."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if budget < 1:
        raise ValueError("budget must be positive")
    table = BallTable(omega, shift, radius)
    for _ in grow_ball(table, budget):
        pass
    return table


def geodesic_words(table: BallTable, eid: int) -> tuple:
    """All minimal words of a ball element, as ``bytes``, sorted."""
    hit = table._geodesics.get(eid)
    if hit is not None:
        return hit
    word = table.entries[eid]
    if not word:
        result: tuple = (b"",)
    else:
        acc = []
        for pred, letter in table.predecessors(eid):
            suffix = bytes((letter,))
            acc += [w + suffix for w in geodesic_words(table, pred)]
            if len(acc) > GEODESIC_CAP:
                raise GeodesicCapExceeded(
                    f"element {eid} has more than {GEODESIC_CAP} minimal words",
                    len(word),
                )
        result = tuple(sorted(acc))
    table._geodesics[eid] = result
    return result


def _max_spine_count(word: bytes) -> int:
    """Largest number of times a single non-``a`` letter occurs in a word."""
    return max(map(word.count, SPINE_LETTERS))


def _spread_epsilon(epsilon) -> Fraction:
    eps = as_fraction(epsilon)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    return eps


@dataclass(frozen=True)
class GeodesicClassification:
    F: frozenset
    D: frozenset


def classify_geodesics(table: BallTable, epsilon, n: int) -> GeodesicClassification:
    """Split sphere n by minimal-word letter frequencies.

    An element is D-type when at least one of its minimal words keeps every
    non-``a`` letter count at or below (1/2 - epsilon) * n, and F-type when
    every minimal word has some letter above that threshold.
    """
    eps = _spread_epsilon(epsilon)
    if not 0 <= n <= table.radius:
        raise ValueError("sphere radius outside the computed ball")
    # Counts are ints, so comparing with the floor of the threshold is exact.
    threshold = math.floor((Fraction(1, 2) - eps) * n)
    f_ids, d_ids = set(), set()
    for eid in table.strata[n]:
        spread = any(
            _max_spine_count(w) <= threshold for w in geodesic_words(table, eid)
        )
        (d_ids if spread else f_ids).add(eid)
    return GeodesicClassification(frozenset(f_ids), frozenset(d_ids))


def count_ftilde(delta, k: int) -> int:
    """Number of length-k words over the seven non-``a`` letters in which
    some letter occurs more than (1 - delta) * k times; exact, by an
    inclusion-exclusion over placement counts (no enumeration)."""
    d = as_fraction(delta)
    if k < 1:
        raise ValueError("word length must be positive")
    threshold = (1 - d) * k
    t_min = math.floor(threshold) + 1
    if t_min <= 0:
        return 7**k
    if t_min > k:
        return 0
    total = 0
    j_max = min(7, k // t_min)
    for j in range(1, j_max + 1):
        ways = {0: 1}  # occupied slots -> placements for j fixed letters
        for _ in range(j):
            nxt: dict[int, int] = {}
            for s, cnt in ways.items():
                for c in range(t_min, k - s + 1):
                    nxt[s + c] = nxt.get(s + c, 0) + cnt * math.comb(k - s, c)
            ways = nxt
        n_j = sum(cnt * (7 - j) ** (k - s) for s, cnt in ways.items())
        total += (-1) ** (j + 1) * math.comb(7, j) * n_j
    return total


def count_ftilde_exhaustive(delta, k: int) -> int:
    """Independent check of the same count by enumerating all 7^k words."""
    d = as_fraction(delta)
    # Counts are ints, so comparing with the floor of the threshold is exact.
    threshold = math.floor((1 - d) * k)
    total = 0
    counts = [0] * 7

    def rec(pos: int) -> None:
        nonlocal total
        if pos == k:
            if max(counts) > threshold:
                total += 1
            return
        for letter in range(7):
            counts[letter] += 1
            rec(pos + 1)
            counts[letter] -= 1

    rec(0)
    return total


def lemma9_bound(delta) -> float:
    d = as_fraction(delta)
    return float((1 - d) ** -1) * float(d / 6) ** float(-d)


def lemma9_report(delta, k_max: int) -> dict:
    """Frequency-count roots against their limiting bound.

    The ``trend`` column is the running maximum of the remaining roots
    (a nonincreasing envelope of the sawtoothed raw sequence); ``flag``
    marks raw roots exceeding the bound, expected only at small k.
    """
    d = as_fraction(delta)
    if d <= 0 or float(d) >= 6 / math.e:
        raise ValueError("delta must lie strictly between 0 and 6/e")
    if d >= 1:
        raise ValueError("delta must be below 1 for the bound to be finite")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    bound = lemma9_bound(d)
    counts = [count_ftilde(d, k) for k in range(1, k_max + 1)]
    roots = [c ** (1.0 / k) for k, c in enumerate(counts, start=1)]
    trend = list(roots)
    for i in range(len(trend) - 2, -1, -1):
        trend[i] = max(trend[i], trend[i + 1])
    rows = [
        {
            "k": k,
            "count": counts[k - 1],
            "root": roots[k - 1],
            "trend": trend[k - 1],
            "bound": bound,
            "flag": roots[k - 1] > bound,
        }
        for k in range(1, k_max + 1)
    ]
    return {
        "delta": str(d),
        "bound": bound,
        "rows": rows,
        "flagged_k": [r["k"] for r in rows if r["flag"]],
    }


@dataclass(frozen=True)
class Lemma8Result:
    mapped: bytes
    n_prime: int
    delta: Fraction


class LemmaViolation(AssertionError):
    """A checked inequality failed; the message carries the counterexample."""


def lemma8_map(letters: Iterable[int], epsilon) -> Lemma8Result:
    """Delete the ``a``'s of a reduced word of length n >= 2 and check the
    mapped word keeps a letter above the (1 - delta) frequency line with
    delta = 2 * epsilon + 3 / (n - 1)."""
    w = bytes(letters)
    n = len(w)
    if n < 2:
        raise ValueError("word must have length at least 2")
    if reduce(w).contractions != 0:
        raise ValueError("word must be reduced")
    eps = as_fraction(epsilon)
    mapped = w.replace(b"\0", b"")
    n_prime = len(mapped)
    delta = 2 * eps + Fraction(3, n - 1)
    if not Fraction(n - 1, 2) <= n_prime:
        raise LemmaViolation(f"{render_letters(w)}: n'={n_prime} below (n-1)/2")
    if not n_prime <= Fraction(n + 1, 2):
        raise LemmaViolation(f"{render_letters(w)}: n'={n_prime} above (n+1)/2")
    if n_prime and not _max_spine_count(mapped) > (1 - delta) * n_prime:
        raise LemmaViolation(
            f"{render_letters(w)}: no letter above (1-delta)n' after deletion"
        )
    return Lemma8Result(mapped, n_prime, delta)


def lemma8_check(table: BallTable, epsilon) -> dict:
    """Apply the a-deletion map to every minimal word of every F-type
    element of spheres 2..radius; collect violations verbatim.

    Each element is classified as ``classify_geodesics`` does and its
    words checked in the same pass.  The stored word is a minimal word, so
    an element whose stored word is spread is D-type and is skipped before
    any of its words are listed.  When an element has more minimal words
    than ``geodesic_words`` keeps, the check stops there: ``cap_exceeded``
    holds the message and ``radius`` the spheres checked before it (spheres
    are checked in increasing order).  ``complete`` means the ball is
    complete and the cap was not hit; ``passed`` needs it.  Once sphere n
    is checked, the ``geodesic_words`` memo drops every element below it,
    and no word of the last sphere stays in it once its element is checked,
    so a later caller recomputes those words.
    """
    eps = _spread_epsilon(epsilon)
    violations = []
    checked = 0
    report = {"epsilon": str(eps), "radius": table.radius}
    memo = table._geodesics
    try:
        for n in range(2, table.radius + 1):
            threshold = math.floor((Fraction(1, 2) - eps) * n)
            last = n == table.radius
            for eid in table.strata[n]:
                if _max_spine_count(table.entries[eid]) <= threshold:
                    continue
                words = geodesic_words(table, eid)
                # F-type: every minimal word has a letter above threshold.
                if all(_max_spine_count(w) > threshold for w in words):
                    for w in words:
                        checked += 1
                        try:
                            lemma8_map(w, eps)
                        except LemmaViolation as exc:
                            violations.append({"n": n, "eid": eid, "detail": str(exc)})
                if last:
                    del memo[eid]
            # Listing sphere n's words fills the memo below it out of order;
            # sphere n + 1's words extend sphere n's, so keep only those.
            start = table.strata[n].start
            for eid in [i for i in memo if i < start]:
                del memo[eid]
    except GeodesicCapExceeded as exc:
        report["radius"] = n - 1
        report["cap_exceeded"] = str(exc)
    report["checked_words"] = checked
    report["violations"] = violations
    report["complete"] = table.complete and "cap_exceeded" not in report
    report["passed"] = not violations and report["complete"]
    return report


@dataclass(frozen=True)
class LevelData:
    words: tuple  # bytes at shift + level, in vertex order
    alpha: int


def stabilizes_level(g: Element, s: int) -> bool:
    """True when g fixes every vertex of level s: by the section recursion,
    g has an even ``a`` count and both sections stabilize level s - 1."""
    if s == 0 or not g.word:
        return True
    if not g.in_stabilizer:
        return False
    d = decompose(g)
    return stabilizes_level(d.left, s - 1) and stabilizes_level(d.right, s - 1)


def _level_stabilizers(table: BallTable, s: int) -> list[int]:
    """Ids of the ball elements that fix every vertex of level s.

    Down to level 8 the stored keys answer: an element fixes level s
    exactly when its level-8 table keeps the top s bits of every byte.  An
    odd leaf and its image are the even ones XOR 1, so they keep those bits
    exactly when the even ones do, and the half table answers.
    """
    if s > TABLE_DEPTH_MAX:
        return [
            eid for eid in range(len(table.entries))
            if stabilizes_level(table.element(eid), s)
        ]
    mask = 0xFF << (TABLE_DEPTH_MAX - s) & 0xFF
    top = bytes(v & mask for v in range(256))
    fixed = IDENTITY_TABLE[::2].translate(top)
    return [eid for eid, key in enumerate(table.keys) if key.translate(top) == fixed]


def level_section_trace(g: Element, s: int) -> tuple:
    """``LevelData`` for levels 1..s of the iterated one-level substitution:
    the section words and their contraction counts.  Raises
    ``NotLevelStabilizer`` at the first section that swaps."""
    if s < 0:
        raise ValueError("level must be nonnegative")
    levels = []
    current = (g.word,)
    for j in range(1, s + 1):
        nxt = []
        alpha = 0
        sym = symbol_at(g.omega, g.shift + j)
        for word in current:
            swap, left, right, alpha_l, alpha_r = split_reduce(word, sym)
            if swap:
                raise NotLevelStabilizer(f"element does not stabilize level {s}")
            alpha += alpha_l + alpha_r
            nxt += (left, right)
        current = tuple(nxt)
        levels.append(LevelData(current, alpha))
    return tuple(levels)


def _second_symbol_index(omega: OmegaSpec) -> Optional[int]:
    first = symbol_at(omega, 1)
    for n in range(2, omega.cycle_length + 1):
        if symbol_at(omega, n) != first:
            return n
    return None


def lemma11_check(table: BallTable, epsilon) -> dict:
    """Two-part contraction check over level-s stabilizer elements, where s
    is the first position at which the sequence, read from the ball's shift
    on, has shown all three symbols.

    Part A (unconditional): for every minimal word W of every element of
    the ball stabilizing level s, the total length after s substitution
    levels is at most |W| + 2^s - 1 - x0 - y_{t-1} - z_{s-1} - sum(alpha_i,
    i < s), where t marks the first position of the second distinct symbol
    and the x/y/z roles follow the actual first/second/third symbols.  A
    minimal word that is not reduced is a part-A violation of its own
    (``detail: "not reduced"``), as the bound is stated for reduced words.

    Part B (gated on radius * epsilon > 5/2): every spread minimal word of
    length n = radius (no non-``a`` letter above (1/2 - epsilon) * n) of
    such an element additionally obeys (1 - epsilon/5) * n + 2^s - 1.  A
    spread word makes its element D-type, so these are the D-type witness
    words, checked in the same pass as part A.

    When an element has more minimal words than ``geodesic_words`` keeps,
    the check stops there, as ``lemma8_check`` does, and part B with it.
    ``complete`` and ``passed`` are as in ``lemma8_check``.
    """
    eps = as_fraction(epsilon)
    omega_here = table.omega
    # The ball's generators read the sequence from position shift + 1 on.
    shifted = shifted_omega(omega_here, table.shift)
    s = first_third_symbol_index(shifted)
    if s is None:
        raise ValueError("sequence never shows all three symbols")
    t = _second_symbol_index(shifted)
    assert t is not None and 2 <= t < s + 1
    sym1 = symbol_at(shifted, 1)
    sym2 = symbol_at(shifted, t)
    sym3 = symbol_at(shifted, s)
    stab_ids = _level_stabilizers(table, s)
    n = table.radius
    gated = n * eps > Fraction(5, 2)
    threshold = math.floor((Fraction(1, 2) - eps) * n)
    headline = (1 - eps / 5) * n + (1 << s) - 1
    violations_a = []
    violations_b = []
    checked = checked_b = 0
    report = {
        "s": s,
        "t": t,
        "epsilon": str(eps),
        "stabilizer_elements": len(stab_ids),
        "radius": n,
    }
    try:
        for eid in stab_ids:
            for w in geodesic_words(table, eid):
                if reduce(w).contractions:
                    violations_a.append(
                        {"eid": eid, "word": render_letters(w), "detail": "not reduced"}
                    )
                    continue
                trace = level_section_trace(Element(w, omega_here, table.shift), s)
                checked += 1
                n_w = len(w)
                total_s = sum(map(len, trace[s - 1].words))
                x0 = fixed_count(w, sym1)
                y_t1 = fixed_count(b"".join(trace[t - 2].words), sym2)
                z_s1 = fixed_count(b"".join(trace[s - 2].words), sym3)
                alpha_sum = sum(trace[j].alpha for j in range(s - 1))
                rhs = n_w + (1 << s) - 1 - x0 - y_t1 - z_s1 - alpha_sum
                if total_s > rhs:
                    violations_a.append(
                        {
                            "eid": eid,
                            "word": render_letters(w),
                            "total": total_s,
                            "rhs": rhs,
                        }
                    )
                if gated and n_w == n and _max_spine_count(w) <= threshold:
                    checked_b += 1
                    if total_s > headline:
                        violations_b.append(
                            {
                                "eid": eid,
                                "word": render_letters(w),
                                "total": total_s,
                                "bound": float(headline),
                            }
                        )
        if gated:
            part_b = {
                "bound": float(headline),
                "checked_words": checked_b,
                "violations": violations_b,
                "passed": not violations_b,
            }
        else:
            part_b = "precondition unmet, skipped"
    except GeodesicCapExceeded as exc:
        # Stabilizers are checked in order of length.
        report["radius"] = exc.length - 1
        report["cap_exceeded"] = str(exc)
        part_b = "stopped at the geodesic cap"
    report["checked_words"] = checked
    report["part_a_violations"] = violations_a
    report["part_a_passed"] = not violations_a
    report["part_b"] = part_b
    report["complete"] = table.complete and "cap_exceeded" not in report
    report["passed"] = not violations_a and not violations_b and report["complete"]
    return report


def lemma3_check(table: BallTable, budget: int = DEFAULT_BUDGET) -> dict:
    """Section-length bound and the one-step growth inequality.

    For every even-parity element g of ``table`` up to radius m, both
    sections must have geodesic length at most (|g| + 1) / 2 in the shifted
    ball, built here within ``budget``; numerically, gamma(m) <= 2 *
    gamma_shifted(ceil((m + 2) / 2)) ** 2.  Here m is the table's radius,
    or the largest radius both balls cover when either is incomplete;
    ``complete`` is unset then.  Raises ``BudgetExceeded`` if they cover none.
    A section the shifted ball does not hold is a violation of its own
    (``detail: "section not in shifted ball"``).
    """
    table_s = enumerate_ball(table.omega, table.shift + 1, (table.radius + 3) // 2, budget)
    # The largest m <= table.radius with ceil((m + 2) / 2) <= table_s.radius.
    m = min(table.radius, 2 * table_s.radius - 2)
    if m < 0:
        raise BudgetExceeded("ball enumeration hit the element budget")
    half = (m + 3) // 2
    g_here = table.gamma()[: m + 1]
    g_shift = table_s.gamma()[: half + 1]
    violations = []
    sym = symbol_at(table.omega, table.shift + 1)
    # Shifted-ball id of each section word found so far.  A miss is not
    # kept: each one is looked up, and reported, again.
    section_ids: dict[bytes, int] = {}
    for eid in range(g_here[m]):
        word = table.entries[eid]
        if a_count(word) % 2:
            continue
        # Split here, not through the sequence's section memo.
        _, left, right = split_sections(word, sym)
        for side, section in (("left", left), ("right", right)):
            found = section_ids.get(section)
            if found is None:
                found = table_s.lookup(Element(section, table.omega, table_s.shift))
                if found is None:
                    # The shifted ball's radius covers every section's length.
                    violations.append(
                        {"eid": eid, "side": side, "detail": "section not in shifted ball"}
                    )
                    continue
                section_ids[section] = found
            length = len(table_s.entries[found])
            # length > (|g| + 1) / 2, on ints.
            if 2 * length > len(word) + 1:
                violations.append(
                    {
                        "eid": eid,
                        "side": side,
                        "section_length": length,
                        "bound": (len(word) + 1) / 2,
                    }
                )
    numeric_ok = g_here[m] <= 2 * g_shift[half] ** 2
    complete = table.complete and table_s.complete
    return {
        "radius": m,
        "complete": complete,
        "gamma": g_here,
        "gamma_shifted": g_shift,
        "numeric_inequality": {
            "lhs": g_here[m],
            "rhs": 2 * g_shift[half] ** 2,
            "passed": numeric_ok,
        },
        "violations": violations,
        "passed": numeric_ok and not violations and complete,
    }


def prop6_check(
    omega: OmegaSpec,
    n: int,
    budget: int = DEFAULT_BUDGET,
    degree_radius: Optional[int] = None,
) -> dict:
    """Eventually-constant collapse: past the preperiod the distinct
    generators reduce to {identity, a, x} and growth is exactly 2n + 1;
    the unshifted ball yields a polynomial-degree estimate.  When a ball
    hits the budget, growth is checked up to the ``radius`` it completed
    and ``complete`` and ``passed`` are unset."""
    if classify(omega).kind is not OmegaKind.OMEGA2:
        raise ValueError("sequence must be eventually constant")
    pre = len(omega.preperiod)
    a_el = generator(A, omega, pre)
    x_el = generator(X, omega, pre)
    collapse = {}
    collapsed_set = set()
    for k in range(8):
        g = generator(k, omega, pre)
        if is_identity(g):
            collapse[k] = "1"
        elif equal(g, a_el):
            collapse[k] = "a"
            collapsed_set.add("a")
        elif equal(g, x_el):
            collapse[k] = "x"
            collapsed_set.add("x")
        else:
            collapse[k] = "?"
            collapsed_set.add("?")
    table = enumerate_ball(omega, pre, n, budget)
    g_shifted = table.gamma()
    dihedral_ok = g_shifted == [2 * k + 1 for k in range(table.radius + 1)]
    deg_radius = degree_radius if degree_radius is not None else n
    unshifted = table
    if pre or deg_radius != n:
        unshifted = enumerate_ball(omega, 0, deg_radius, budget)
    g_unshifted = unshifted.gamma()
    degree = (
        math.log(g_unshifted[-1]) / math.log(len(g_unshifted) - 1)
        if len(g_unshifted) > 2
        else float("nan")
    )
    complete = table.complete and unshifted.complete
    passed = dihedral_ok and collapsed_set == {"a", "x"} and complete
    return {
        "preperiod": pre,
        "collapse": collapse,
        "collapsed_set": sorted(collapsed_set),
        "gamma_shifted": g_shifted,
        "dihedral_exact": dihedral_ok,
        "degree_estimate": degree,
        "degree_radius": deg_radius,
        "radius": table.radius,
        "complete": complete,
        "passed": passed,
    }


def bound_curves(samples: Iterable[int], epsilon) -> tuple[dict, dict]:
    """Lower exp(n / log(n)^(2+eps)) and upper exp(n loglog(n) / log(n))
    reference curves (natural logs) as maps from each sample n to the log
    of the curve's value, the lower from n = 2 and the upper from n = 3."""
    eps = float(as_fraction(epsilon))
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    pts = tuple(samples)
    lower = {p: p / math.log(p) ** (2 + eps) for p in pts if p >= 2}
    upper = {p: p * math.log(math.log(p)) / math.log(p) for p in pts if p >= 3}
    return lower, upper
