"""Cayley-ball enumeration, growth data, and the verification checkers.

Balls are built breadth-first over right multiplication by the eight
generators in the fixed order a < b < c < d < x < B < C < D.  By the
contraction bound |section| <= (|g| + 1) / 2, every level-h section of an
element of length at most 2^h has at most one letter.  So a ball element is
fixed by its action on level h and the class of each of its level-h
sections, and that pair is its key: exact at every radius, so one dict
probe decides whether a candidate is new, with no word problem.  Off-ball
queries go through ``BallTable.lookup``, exact for any word.  The ball
stores no geodesic links: every letter is an involution, so the
predecessors of an element are the elements of the sphere below that its
eight right multiples hit, found from its key on demand.  The minimal words
built from them feed the frequency (F/D) classification and the
contraction checkers.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from typing import Iterable, Iterator, Optional

from .omega import (
    OmegaKind,
    OmegaSpec,
    classify,
    first_positions,
    shift_normalize,
    symbol_at,
)
from .words import (
    A,
    SPINE_LETTERS,
    X,
    a_count,
    even_section_inputs,
    extend,
    fixed_count,
    letter_label,
    reduce,
    render_letters,
    section_of,
    split_reduce,
)
from .elements import (
    IDENTITY_TABLE,
    TABLE_DEPTH_MAX,
    ContextMismatch,
    Element,
    all_generators,
    decompose,
    equal,
    generator,
    is_identity,
    level_split,
    level_table,
)

DEFAULT_BUDGET = 5_000_000
# Most minimal words geodesic_words lists for one element (read at call time).
GEODESIC_CAP = 200_000

GENERATOR_LETTERS = tuple(range(8))

# Deepest key level: a level-6 key is 128 bytes, and with the eight
# products a move reads it still fits a 256-byte translation table.
KEY_DEPTH_MAX = 6
# No class byte reaches this: as a product it marks a section with no
# class, and as a budget it caps the ids of an inner ball below it.
NO_CLASS = 255


class GeodesicCapExceeded(RuntimeError):
    """An element has more minimal words than the cap."""


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


class BallTable:
    """Ball of a given radius as parallel sequences indexed by element id.

    ``entries[i]`` is element i's minimal word, so its length is its sphere,
    and ``strata[n]`` is the range of the ids of sphere n.  ``keys[i]`` is
    its level table at level ``depth`` = ceil(log2 radius), from 1 to 6,
    then the class of its section at each of the N = 2^depth vertices
    there.  Those sections have at most ``reach`` = ceil(radius / N)
    letters.  With ``reach`` 1 a class is 0 for the identity, 8 for ``a``,
    and for a spine letter the least letter of its coset modulo the ones
    trivial at ``class_shift`` = shift + depth.  Else it is the section's
    id in ``inner``, the ball of radius ``reach`` at ``class_shift`` with at
    most 255 ids; the keys cover lengths up to N times its radius, so when
    it stops short ``radius`` is cut to that and ``complete`` unset.
    A key times a letter is one ``translate``: the letter's entry of
    ``letter_indices`` read through the key's ``_layout``, which adds the
    classes of the products that a spine letter's sections a (or 1) at
    vertex N - 2 and itself at N - 1 make; its other sections, and all of
    ``a``'s, are trivial.  A product with no class reads ``NO_CLASS``.
    ``_by_key`` maps a key to its word, and ``_id_of`` bisects for the id:
    a sphere's words come in increasing order, parents in order and each
    parent's letters in order.  ``drop_sphere`` forgets a sphere's words
    and keys and leaves ``None`` in their slots.
    """

    def __init__(self, omega: OmegaSpec, shift: int, radius: int):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.omega = omega
        self.shift = shift_normalize(omega, shift)
        self.radius = radius
        self.complete = True
        self.entries: list[Optional[bytes]] = []
        self.keys: list[Optional[bytes]] = []
        self.strata: list[range] = []
        self.depth = h = min(max(1, (radius - 1).bit_length()), KEY_DEPTH_MAX)
        n = 1 << h
        self.reach = -(-radius // n)
        self.class_shift = shift_normalize(omega, self.shift + h)
        self.inner = None
        if self.reach < 2:
            ahead = first_positions(omega, self.class_shift)
            trivial = [0] + [
                k for k in SPINE_LETTERS if not any(letter_label(k, q) for q in ahead)
            ]
            self._letter_class = bytes([8] + [min(k ^ t for t in trivial) for k in SPINE_LETTERS])
            self._class_words = {0: b"", 8: bytes((A,))}
            self._class_words.update((c, bytes((c,))) for c in self._letter_class[1:] if c)
        else:
            self.inner = inner = enumerate_ball(omega, self.class_shift, self.reach, NO_CLASS)
            self._letter_class = bytes(map(inner.lookup, all_generators(omega, self.class_shift)))
            self._class_words = dict(enumerate(inner.entries))
            if not inner.complete:
                self.radius = inner.radius << h
                self.complete = False
        # times[s][c] is the class of class c times letter s.
        times = [bytearray([NO_CLASS]) * 256 for _ in GENERATOR_LETTERS]
        for c, word in self._class_words.items():
            for letter in GENERATOR_LETTERS:
                times[letter][c] = self._class_of(extend(word, letter))
        # Slot 2N of a layout holds the class at vertex N - 2 times a, and
        # slot 2N + s the class at vertex N - 1 times spine letter s.
        self._heads = [bytes((c,)) for c in times[A]]
        pad = bytes(256 - 2 * n - 8)
        rows: dict = {}  # one object per distinct row
        self._tails = [rows.setdefault(row, row)
                       for row in (bytes(column) + pad for column in zip(*times[1:]))]
        self.root_key = IDENTITY_TABLE[:n] + bytes(n)
        self._by_key: dict[bytes, bytes] = {}
        self._geodesics: dict[int, tuple] = {}
        self._portrait_columns: dict[int, list] = {}
        root = self._layout(self.root_key)
        symbol = symbol_at(omega, self.shift + h)
        self.letter_indices = []
        for letter in GENERATOR_LETTERS:
            g = generator(letter, omega, self.shift)
            perm = level_table(g, h)[:n]
            index = bytearray(perm + bytes(n + v for v in perm))
            if letter != A:
                if letter_label(letter, symbol):
                    index[2 * n - 2] = 2 * n
                index[2 * n - 1] = 2 * n + letter
            self.letter_indices.append(bytes(index))
            # lookup raises unless the letter's move key is its split key.
            self.lookup(g, self.letter_indices[-1].translate(root))

    def _class_of(self, word: bytes) -> int:
        """Class of a reduced word at ``class_shift``, or ``NO_CLASS``; past
        one letter, by the inner ball's lookup or the word problem."""
        if len(word) <= 1:
            return self._letter_class[word[0]] if word else 0
        section = Element(word, self.omega, self.class_shift)
        if self.inner is not None:
            found = self.inner.lookup(section)
            return NO_CLASS if found is None else found
        # Of the class words only a has an odd number of a's.
        odd = a_count(word) % 2
        return next((c for c, class_word in self._class_words.items()
                     if a_count(class_word) % 2 == odd
                     and equal(section, Element(class_word, self.omega, self.class_shift))),
                    NO_CLASS)

    def _layout(self, key: bytes) -> bytes:
        return key + self._heads[key[-2]] + self._tails[key[-1]]

    def _id_of(self, word: bytes) -> int:
        stratum = self.strata[len(word)]
        return bisect_left(self.entries, word, stratum.start, stratum.stop)

    def gamma(self) -> list[int]:
        return list(accumulate(map(len, self.strata)))

    def element(self, eid: int) -> Element:
        return Element(self.entries[eid], self.omega, self.shift)

    def split_key(self, word: bytes) -> bytes:
        """Key of a reduced word: its level table at ``depth``, then the
        class of each of its sections there, both from one ``level_split``
        walk, each section classed by ``_class_of``.  Only a word longer
        than the keys cover has a section longer than one letter, and a
        section with no class reads ``NO_CLASS``, which no stored key
        holds."""
        table, sections = level_split(Element(word, self.omega, self.shift), self.depth)
        return table + bytes(map(self._class_of, sections))

    def lookup(self, element: Element, key: Optional[bytes] = None) -> Optional[int]:
        """Id of the ball element equal to ``element``, or None.

        The word is keyed by moves, as the ball loop keys its candidates: a
        ``NO_CLASS`` byte stays through later moves, and a key without one
        is exact, so only a key with one goes to ``split_key``.  A given
        ``key``, computed by a move, must be the split key.
        """
        if element.shift != self.shift or (
            element.omega is not self.omega and element.omega != self.omega
        ):
            raise ContextMismatch("element and ball must share sequence and shift")
        word = element.word
        if key is not None:
            if key != self.split_key(word):
                raise RuntimeError(f"move key and split key of {element} differ")
        else:
            key = self.root_key
            for letter in word:
                key = self.letter_indices[letter].translate(self._layout(key))
            if NO_CLASS in key:
                key = self.split_key(word)
        found = self._by_key.get(key)
        return None if found is None else self._id_of(found)

    def predecessors(self, eid: int) -> list[tuple[int, int]]:
        """Element eid's geodesic predecessors as sorted (id, letter) pairs:
        every letter is an involution, so they are the key hits of eid's
        eight products in the sphere below."""
        n = len(self.entries[eid])
        layout = self._layout(self.keys[eid])
        out = []
        for letter, index in enumerate(self.letter_indices):
            found = self._by_key.get(index.translate(layout))
            if found is not None and len(found) == n - 1:
                out.append((self._id_of(found), letter))
        out.sort()
        return out

    def portrait_records(self, keys, depth: int) -> bytes:
        """``signature(g, depth)`` for the element g of each key in
        ``keys``, as big-endian records of one width packed into one
        ``bytes``: stripped of its leading zero bytes (``b"\\0"`` for 0), a
        record is the signature's minimal bytes.

        A label above the keys' level h is bit k of the table byte of the
        depth-k vertex's leftmost descendant; a deeper one is that of the
        class at its ancestor on level h.  A record byte holds eight labels
        (in reversed preorder), and those that sit in one key byte share
        one read of it: over the keys joined into one ``bytes``, one stride
        slice and one ``translate``, through a table that moves each of
        those labels to its bit, give them for every key.  The reads,
        OR-ed as ints, make a byte column of records.  A level-h subtree
        is contiguous in preorder, so at h = 4 a call makes 35 reads for
        the 127 labels of depth 7 and 51 for the 255 of depth 8, and 74 at
        h = 5 and 117 at h = 6 for depth 8.  A table is built only at the
        values its key byte can hold: the 2^h vertex images, or the
        classes.
        """
        if not 0 <= depth <= TABLE_DEPTH_MAX:
            raise ValueError(f"portraits cover depths 0..{TABLE_DEPTH_MAX}")
        if depth not in self._portrait_columns:
            h, below = self.depth, depth - self.depth
            tables = {
                c: level_table(Element(word, self.omega, self.class_shift), below)
                for c, word in self._class_words.items()
            } if below > 0 else {}
            preorder = sorted(
                (u << (TABLE_DEPTH_MAX - 1 - k), k, u) for k in range(depth) for u in range(1 << k)
            )
            columns = [{} for _ in range(max(1, (len(preorder) + 7) // 8))]
            pad = 8 * len(columns) - len(preorder)
            for q, (_, k, u) in enumerate(reversed(preorder), start=pad):
                # sources maps each value the key byte can hold to the byte
                # that holds the label, at bit ``bit``.
                if k < h:
                    index, bit = u << (h - k), h - 1 - k
                    sources = {v: v for v in range(1 << h)}
                else:
                    index, bit = (1 << h) + (u >> (k - h)), depth - 1 - k
                    leaf = (u & ((1 << (k - h)) - 1)) << (depth - k)
                    sources = {c: table[leaf] for c, table in tables.items()}
                move = columns[q // 8].setdefault(index, bytearray(256))
                for value, source in sources.items():
                    move[value] |= (source >> bit & 1) << (7 - q % 8)
            self._portrait_columns[depth] = [
                [(index, bytes(move)) for index, move in column.items()] for column in columns
            ]
        columns = self._portrait_columns[depth]
        width, stride = len(columns), len(self.root_key)
        joined = b"".join(keys)
        n = len(keys)
        records = bytearray(n * width)
        for m, reads in enumerate(columns):
            acc = 0
            for index, move in reads:
                acc |= int.from_bytes(joined[index::stride].translate(move), "big")
            records[m::width] = acc.to_bytes(n, "big")
        return bytes(records)

    def drop_sphere(self, n: int) -> None:
        """Forget sphere n's words and keys; its ids stay, with ``None`` in
        their slots.

        Once sphere n + 1 is complete, ``grow_ball`` reads sphere n no more.
        After the drop the table still gives ``strata`` and ``gamma``, and
        its lookups find the kept elements; nothing may read a dropped
        element's word.
        """
        stratum = self.strata[n]
        blank = [None] * len(stratum)
        self.entries[stratum.start : stratum.stop] = blank
        self.keys[stratum.start : stratum.stop] = blank
        # A dict keeps its table when entries go.  Cleared, which frees
        # the table, and refilled from the kept ids' keys and words, it is
        # sized for them and stays the object the loop holds; a copy of the
        # kept entries would sit beside the old table at the peak.
        self._by_key.clear()
        for kept in (*self.strata, range(self.strata[-1].stop, len(self.entries))):
            if kept and self.keys[kept.start] is not None:
                self._by_key.update(
                    zip(self.keys[kept.start : kept.stop], self.entries[kept.start : kept.stop])
                )


def grow_ball(table: BallTable, budget: int = DEFAULT_BUDGET) -> Iterator[range]:
    """Fill an empty table breadth-first up to its radius, yielding the id
    range of each sphere as soon as it is complete, the root's first.  On
    budget overrun the unfinished sphere is dropped, ``complete`` is unset,
    ``radius`` is the last sphere yielded, and the generator ends.

    A candidate g*s gets its key by one ``translate`` and probes the key
    index: keys are exact, so a miss is a new element with g's word and s.
    A miss whose key holds ``NO_CLASS`` breaks the contraction bound and is
    an error.  ``BallTable.__init__`` has checked that the generators'
    move keys are their split keys.

    A candidate built from sphere n lands in sphere n - 1 exactly when it
    is a geodesic predecessor of its element, met building sphere n as a
    key hit there: the loop keeps those hits of the last two spheres, bit s
    for a product by s, and skips them.  So building sphere n + 1 reads
    only spheres n and n + 1, and a caller may ``drop_sphere(n - 1)`` once
    sphere n is yielded.
    """
    words, keys, by_key = table.entries, table.keys, table._by_key
    heads, tails = table._heads, table._tails
    # (letter, its one-byte word, its entry of letter_indices) per choice.
    moves = [(letter, bytes((letter,)), index) for letter, index in enumerate(table.letter_indices)]
    spine_moves, a_moves = moves[1:], moves[:1]
    words.append(b"")
    keys.append(table.root_key)
    by_key[table.root_key] = b""
    table.strata.append(range(1))
    yield table.strata[0]
    # down[w]: the hits by letter of the element of the last sphere with word w.
    down: dict[bytes, int] = {}
    for level in range(table.radius):
        start = len(words)  # the first id of sphere level + 1
        known_down, down = down, {}
        for eid in table.strata[level]:
            word = words[eid]
            key = keys[eid]
            layout = key + heads[key[-2]] + tails[key[-1]]
            # Only a letter alternating with the last one lengthens the
            # word (so appending it is the reduced product); any other
            # product lands in an already-complete stratum.
            if level == 0:
                choices = moves
            elif word[-1] == A:
                choices = spine_moves
            else:
                choices = a_moves
            skip = known_down.get(word)
            if skip:
                choices = [move for move in choices if not skip >> move[0] & 1]
            for letter, letter_word, letter_index in choices:
                key = letter_index.translate(layout)
                found = by_key.get(key)
                if found is not None:
                    if len(found) > level:
                        down[found] = down.get(found, 0) | 1 << letter
                    continue
                if NO_CLASS in key:
                    raise RuntimeError(
                        f"a section of {render_letters(word + letter_word)} has no"
                        " class: the contraction bound failed"
                    )
                nid = len(words)
                words.append(word + letter_word)
                keys.append(key)
                by_key[key] = words[-1]
                if nid >= budget:
                    for dropped in keys[start:]:
                        del by_key[dropped]
                    del words[start:], keys[start:]
                    table.complete = False
                    table.radius = level
                    return
        table.strata.append(range(start, len(words)))
        yield table.strata[-1]


def enumerate_ball(omega: OmegaSpec, shift: int = 0, radius: int = 0,
                   budget: int = DEFAULT_BUDGET) -> BallTable:
    """Breadth-first ball, every sphere kept; on budget overrun returns the
    completed strata with ``complete`` unset rather than a partial stratum.
    ``grow_ball`` builds it."""
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
                    f"element {eid} has more than {GEODESIC_CAP} minimal words"
                )
        result = tuple(sorted(acc))
    table._geodesics[eid] = result
    return result


def _max_spine_count(word: bytes) -> int:
    """Largest number of times a single non-``a`` letter occurs in a word."""
    return max(map(word.count, SPINE_LETTERS))


# A reduced word of length n has at most ceil(n / 2) non-``a`` letters, so
# up to this length a letter's count in it fits in one byte.
_COLUMN_LENGTH_MAX = 510
# Words of one sphere that a column pass (``_f_type_candidates``, and the
# section split ``lemma3_check`` reads) takes at once: a whole sphere at
# once would raise the peak by the sphere's size.
_COLUMN_CHUNK = 1024
# _INDICATORS[k - 1] maps letter k to 1 and every other byte to 0.
_INDICATORS = tuple(bytes(v == k for v in range(256)) for k in SPINE_LETTERS)


def _f_type_candidates(table: BallTable, n: int, threshold: int) -> list[int]:
    """Ids of sphere n, in order, whose stored word has a non-``a`` letter
    above ``threshold``.  The stored word is a minimal word, so only these
    can be F-type.

    A sphere's words all have length n, so over a chunk of them joined into
    one ``bytes``, column j = ``joined[j::n]`` holds letter j of every word.
    One of two neighbouring letters of a reduced word is ``a`` (0), so
    columns 2i and 2i + 1 OR-ed hold the word's i-th non-``a`` letter; for
    odd n the last column, unpaired, holds the last one or ``a``.  A letter's
    indicator columns, summed as ints, hold its count in every word, one
    byte per word; one ``translate`` marks the counts above ``threshold``,
    and the seven letters' marks OR-ed pick the ids.  Past
    ``_COLUMN_LENGTH_MAX`` letters a count may not fit in a byte, and the
    words are read one at a time.
    """
    stratum, words = table.strata[n], table.entries
    if n > _COLUMN_LENGTH_MAX:
        return [eid for eid in stratum if _max_spine_count(words[eid]) > threshold]
    above = bytes(threshold + 1).ljust(256, b"\1")
    out = []
    for start in range(stratum.start, stratum.stop, _COLUMN_CHUNK):
        stop = min(start + _COLUMN_CHUNK, stratum.stop)
        m = stop - start
        joined = b"".join(words[start:stop])
        x = int.from_bytes(joined, "big")
        # Byte i of paired is letter i OR letter i - 1.
        paired = (x | x >> 8).to_bytes(len(joined), "big")
        columns = [paired[j::n] for j in range(1, n, 2)]
        if n % 2:
            columns.append(joined[n - 1 :: n])
        marked = 0
        for indicator in _INDICATORS:
            counts = sum(int.from_bytes(column.translate(indicator), "big") for column in columns)
            marked |= int.from_bytes(counts.to_bytes(m, "big").translate(above), "big")
        out += compress(range(start, stop), marked.to_bytes(m, "big"))
    return out


def _spread_epsilon(epsilon) -> Fraction:
    eps = as_fraction(epsilon)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    return eps


def _spread_threshold(eps: Fraction, n: int) -> int:
    """floor((1/2 - eps) * n): a word of length n is spread when no non-``a``
    letter occurs more often.  Counts are ints, so comparing with the floor
    is exact."""
    return math.floor((Fraction(1, 2) - eps) * n)


def _f_type_words(table: BallTable, eid: int, threshold: int) -> tuple:
    """Element eid's minimal words if it is F-type (each has a non-``a``
    letter above ``threshold``), else ``()``; eid is one of
    ``_f_type_candidates``."""
    words = geodesic_words(table, eid)
    return words if all(_max_spine_count(w) > threshold for w in words) else ()


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
    threshold = _spread_threshold(eps, n)
    f_ids = frozenset(
        eid for eid in _f_type_candidates(table, n, threshold)
        if _f_type_words(table, eid, threshold)
    )
    return GeodesicClassification(f_ids, frozenset(table.strata[n]) - f_ids)


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
    """The ``lemma9`` suite's record for k = 1..k_max (``checks``).

    A violation is a count that differs from ``count_ftilde_exhaustive``
    (k <= 4) or that exceeds 7 * B^k for the limiting bound B, which every
    count obeys (README).  ``detail`` holds the rows: ``trend`` is the
    running maximum of the remaining roots (a nonincreasing envelope of the
    sawtoothed raw sequence), and ``flag`` marks a raw root above B: not a
    violation, as small k shows one, and for small delta much larger k too.
    """
    d = as_fraction(delta)
    if not 0 < d < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    bound = lemma9_bound(d)
    counts = [count_ftilde(d, k) for k in range(1, k_max + 1)]
    roots = [c ** (1.0 / k) if c <= sys.float_info.max else math.exp(math.log(c) / k)
             for k, c in enumerate(counts, start=1)]
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
    violations = []
    for k in range(1, min(4, k_max) + 1):
        ex = count_ftilde_exhaustive(d, k)
        if counts[k - 1] != ex:
            violations.append({"k": k, "dp": counts[k - 1], "exhaustive": ex})
    # In logs: the counts leave float range at k = 621.
    for k, c in enumerate(counts, start=1):
        if math.log(c) > (math.log(7) + k * math.log(bound)) * (1 + 1e-12):
            violations.append({"k": k, "count": c, "detail": "above 7 * bound^k"})
    return {
        "checks": k_max,
        "violations": violations,
        "detail": {
            "delta": str(d),
            "bound": bound,
            "rows": rows,
            "flagged_k": [r["k"] for r in rows if r["flag"]],
        },
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
    an element whose stored word is spread is D-type: each sphere's
    ``_f_type_candidates`` drops those before any word is listed.  When an
    element has more minimal words than ``geodesic_words`` keeps, the
    check stops there: ``detail`` holds the message and ``radius`` the
    spheres checked before it (spheres are checked in increasing order).
    ``checks`` counts the words checked, and ``complete`` means the ball is
    complete and the cap was not hit.  Once sphere n is checked, the
    ``geodesic_words`` memo drops every element below it, and no word of
    the last sphere stays in it once its element is checked, nor once that
    sphere is, so a later caller recomputes those words.
    """
    eps = _spread_epsilon(epsilon)
    violations = []
    checked = 0
    report = {"radius": table.radius}
    memo = table._geodesics
    try:
        for n in range(2, table.radius + 1):
            threshold = _spread_threshold(eps, n)
            last = n == table.radius
            for eid in _f_type_candidates(table, n, threshold):
                for w in _f_type_words(table, eid, threshold):
                    checked += 1
                    try:
                        lemma8_map(w, eps)
                    except LemmaViolation as exc:
                        violations.append({"n": n, "eid": eid, "detail": str(exc)})
                if last:
                    memo.pop(eid, None)
            # Listing sphere n's words fills the memo below it out of order;
            # sphere n + 1's words extend sphere n's, so keep only those,
            # and none of the last sphere.
            end = table.strata[n].stop if last else table.strata[n].start
            for eid in [i for i in memo if i < end]:
                del memo[eid]
    except GeodesicCapExceeded as exc:
        report["radius"] = n - 1
        report["detail"] = str(exc)
    report["checks"] = checked
    report["violations"] = violations
    report["complete"] = table.complete and "detail" not in report
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
    """Ids of the ball elements that fix every vertex of level s: their
    level table keeps the top min(s, h) bits of every byte, for the keys'
    level h, and the words of their sections' classes stabilize level
    s - h (every class does when s <= h)."""
    h = table.depth
    n = 1 << h
    top = bytes(v >> (h - min(s, h)) for v in range(256))
    fixed = IDENTITY_TABLE[:n].translate(top)
    fixing = bytes(
        c for c, word in table._class_words.items()
        if stabilizes_level(Element(word, table.omega, table.class_shift), max(s - h, 0))
    )
    return [
        eid for eid, key in enumerate(table.keys)
        if key[:n].translate(top) == fixed and not key[n:].translate(None, fixing)
    ]


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
    ``checks`` counts the part-A words, ``violations`` lists part A's, then
    part B's, and ``detail`` is the cap message, or else s and part B's
    report.  ``radius`` and ``complete`` are as in ``lemma8_check``: after a
    cap stop, ``radius`` is the length of the stabilizer being listed, less 1.
    """
    eps = _spread_epsilon(epsilon)
    omega_here = table.omega
    # The ball's generators read the sequence from position shift + 1 on.
    first = first_positions(omega_here, table.shift)
    if len(first) < 3:
        raise ValueError("sequence never shows all three symbols")
    (sym1, _), (sym2, t), (sym3, s) = first.items()
    stab_ids = _level_stabilizers(table, s)
    n = table.radius
    gated = n * eps > Fraction(5, 2)
    threshold = _spread_threshold(eps, n)
    headline = (1 - eps / 5) * n + (1 << s) - 1
    violations_a = []
    violations_b = []
    checked = checked_b = 0
    report = {"t": t, "radius": n, "complete": table.complete}
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
        report["detail"] = {"s": s, "part_b": part_b}
    except GeodesicCapExceeded as exc:
        # Stabilizers are checked in order of length: the cap may stop a
        # predecessor, but every shorter stabilizer is checked.
        report["radius"] = len(table.entries[eid]) - 1
        report["complete"] = False
        report["detail"] = str(exc)
    report["checks"] = checked
    report["violations"] = violations_a + violations_b
    return report


def lemma3_check(table: BallTable, budget: int = DEFAULT_BUDGET) -> dict:
    """Section-length bound and the one-step growth inequality.

    For every even-parity element g of ``table`` up to radius m, both
    sections must have geodesic length at most (|g| + 1) / 2 in the shifted
    ball, built here within ``budget``; numerically, gamma(m) <= 2 *
    gamma_shifted(ceil((m + 2) / 2)) ** 2.  Here m is the table's radius,
    or the largest radius both balls cover when either is incomplete;
    ``complete`` is unset then.  ``checks`` is gamma(m), ``detail`` the
    numeric inequality, and ``violations`` lists the section violations,
    then the inequality when it fails.  A section the shifted ball does not
    hold is a violation of its own (``detail: "section not in shifted
    ball"``).  When the balls cover no radius, nothing is checked and
    ``radius`` is None.

    Sphere by sphere, one chunk of at most ``_COLUMN_CHUNK`` words at a
    time, ``even_section_inputs`` gives the raw inputs of the even words'
    sections in a few column passes.  Equal raw inputs reduce to one
    section word, so a raw input is decoded (``section_of``) and its word
    looked up in the shifted ball only the first time: that is one lookup
    per distinct section word.  A miss is kept in no cache, so it is looked
    up, and reported, again at each occurrence.  All words of a sphere have
    one length, so one ``max`` over a chunk's section lengths decides if
    any breaks the bound; only then are the chunk's violations listed, in
    id order, left before right.
    """
    table_s = enumerate_ball(table.omega, table.shift + 1, (table.radius + 3) // 2, budget)
    # The largest m <= table.radius with ceil((m + 2) / 2) <= table_s.radius.
    m = min(table.radius, 2 * table_s.radius - 2)
    if m < 0:
        return {
            "checks": 0,
            "violations": [],
            "radius": None,
            "complete": False,
            "detail": "ball enumeration hit the element budget",
        }
    gamma_m = table.gamma()[m]
    sym = symbol_at(table.omega, table.shift + 1)
    # Geodesic length in the shifted ball (that of the stored word of the id
    # ``lookup`` returns) of each section word, and of each raw input,
    # found so far.
    word_lengths: dict[bytes, int] = {}
    input_lengths: dict[bytes, int] = {}

    def length_of(raw: bytes) -> Optional[int]:
        section = section_of(raw)
        length = word_lengths.get(section)
        if length is None:
            found = table_s.lookup(Element(section, table.omega, table_s.shift))
            if found is None:
                return None
            length = word_lengths[section] = len(table_s.entries[found])
        input_lengths[raw] = length
        return length

    def chunk_violations(n: int, start: int, stop: int) -> list:
        """Violations of ids start..stop - 1 of sphere n, in order."""
        offsets, inputs = even_section_inputs(table.entries[start:stop], sym)
        lengths = list(map(input_lengths.get, inputs))
        if None in lengths:
            # In order; a found raw input is cached, a miss looked up again
            # at each later occurrence.
            lengths = [input_lengths[r] if r in input_lengths else length_of(r) for r in inputs]
        # A section violates when its length exceeds (n + 1) / 2, on ints.
        if None not in lengths and 2 * max(lengths, default=0) <= n + 1:
            return []
        out = []
        for i, length in enumerate(lengths):
            eid, side = start + offsets[i >> 1], ("left", "right")[i & 1]
            if length is None:
                # The shifted ball's radius covers every section's length.
                out.append({"eid": eid, "side": side, "detail": "section not in shifted ball"})
            elif 2 * length > n + 1:
                out.append(
                    {"eid": eid, "side": side, "section_length": length, "bound": (n + 1) / 2}
                )
        return out

    violations = []
    for n in range(m + 1):
        stratum = table.strata[n]
        for start in range(stratum.start, stratum.stop, _COLUMN_CHUNK):
            # The chunk's inputs are dropped when the call returns.
            violations += chunk_violations(n, start, min(start + _COLUMN_CHUNK, stratum.stop))
    rhs = 2 * table_s.gamma()[(m + 3) // 2] ** 2
    numeric = {"lhs": gamma_m, "rhs": rhs, "passed": gamma_m <= rhs}
    return {
        "checks": gamma_m,
        "radius": m,
        "complete": table.complete and table_s.complete,
        "violations": violations + ([] if numeric["passed"] else [numeric]),
        "detail": numeric,
    }


def prop6_check(
    omega: OmegaSpec,
    n: int,
    budget: int = DEFAULT_BUDGET,
    degree_radius: Optional[int] = None,
) -> dict:
    """Eventually-constant collapse: past the preperiod the distinct
    generators reduce to {identity, a, x} and growth is exactly 2n + 1;
    the unshifted ball yields a polynomial-degree estimate (None when that
    ball has fewer than 3 spheres).  A failed collapse or growth check is
    one violation, the generators' collapse its detail.  When a ball hits
    the budget, growth is checked up to the ``radius`` it completed and
    ``complete`` is unset."""
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
        else None
    )
    violations = []
    if not dihedral_ok or collapsed_set != {"a", "x"}:
        violations.append({"omega": str(omega), "detail": collapse})
    return {
        "violations": violations,
        "radius": table.radius,
        "complete": table.complete and unshifted.complete,
        "collapsed_set": sorted(collapsed_set),
        "degree_estimate": degree,
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
