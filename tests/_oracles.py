"""Independent reference computations used to cross-check the library.

Everything here is deliberately built from first principles (letterwise
vertex actions, randomized rewriting, exhaustive enumeration) and shares
no code path with the implementations under test, except the loops at the
end: ``ball_links`` reads the links a table derives, and the rest are the
loops that a fast path replaced (the link-storing ball loop, the whole-ball
export and the checkers), kept to compare outputs with.  Those read the
ball only through public functions: ``level_table``, ``equal`` and
``decompose``; only ``class_products``, the class arithmetic that
``BallTable._class_of`` replaced, reads an inner ball's key index.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from contextlib import ExitStack
from fractions import Fraction
from hashlib import sha256
from types import SimpleNamespace
from typing import Optional

from overgrowth import cli, growth
from overgrowth.elements import (
    IDENTITY_TABLE,
    Element,
    decompose,
    equal,
    generator,
    level_table,
)
from overgrowth.omega import OmegaSpec, parse_omega, shift_normalize, symbol_at
from overgrowth.words import render_letters, split_sections

A = 0

# swap parity data for letters 1..7 = (b, c, d, x, B, C, D) at symbols 0,1,2,
# hand-copied from the generator definitions: b swaps unless 2, c unless 1,
# d unless 0, x always, and B, C, D are the x-twists of b, c, d.
SWAPS = {
    1: {0: True, 1: True, 2: False},
    2: {0: True, 1: False, 2: True},
    3: {0: False, 1: True, 2: True},
    4: {0: True, 1: True, 2: True},
    5: {0: False, 1: False, 2: True},
    6: {0: False, 1: True, 2: False},
    7: {0: True, 1: False, 2: False},
}


def act_one_letter(letter: int, omega: OmegaSpec, shift: int, vertex: str) -> str:
    """Closed-form action of a single generator on a vertex string.

    ``a`` flips the first bit.  A non-``a`` letter walks down the all-ones
    path and flips the bit just after the first 0, when its swap parity at
    that depth says so.
    """
    if not vertex:
        return vertex
    if letter == A:
        return ("1" if vertex[0] == "0" else "0") + vertex[1:]
    i = vertex.find("0")
    if i < 0 or i + 1 >= len(vertex):
        return vertex
    if SWAPS[letter][symbol_at(omega, shift + i + 1)]:
        j = i + 1
        return vertex[:j] + ("1" if vertex[j] == "0" else "0") + vertex[j + 1 :]
    return vertex


def act_word(letters, omega: OmegaSpec, shift: int, vertex: str) -> str:
    """Action of a word, rightmost letter applied first."""
    out = vertex
    for let in reversed(tuple(letters)):
        out = act_one_letter(let, omega, shift, out)
    return out


def split_letters(letters, omega: OmegaSpec, shift: int):
    """Raw one-level substitution: (top_swap, left letters, right letters).

    Scanning left to right, a spine letter whose remaining suffix contains
    r ``a``'s (mod 2) sends its swap contribution (an ``a`` when it swaps
    at this level) to child r and a copy of itself to the other child; the
    children are returned unreduced.
    """
    total_a = sum(1 for v in letters if v == A)
    sym = symbol_at(omega, shift + 1)
    kids = ([], [])
    seen_a = 0
    for let in letters:
        if let == A:
            seen_a += 1
        else:
            r = (total_a + seen_a) & 1
            if SWAPS[let][sym]:
                kids[r].append(A)
            kids[1 - r].append(let)
    return bool(total_a & 1), kids[0], kids[1]


def word_from_parts(leading_a: bool, spine, trailing_a: bool) -> bytes:
    """The reduced word [a] s1 a s2 ... a sm [a], appended letter by letter;
    with an empty spine either flag gives the one-letter word ``a``."""
    out = [A] if leading_a else []
    for i, k in enumerate(spine):
        if i:
            out.append(A)
        out.append(k)
    if trailing_a and (spine or not leading_a):
        out.append(A)
    return bytes(out)


def portrait_via_act(letters, omega: OmegaSpec, shift: int, depth: int) -> dict:
    labels = {}
    for d in range(depth):
        for i in range(1 << d):
            v = format(i, f"0{d}b") if d else ""
            image = act_word(letters, omega, shift, v + "0")
            labels[v] = "P" if image[len(v)] == "1" else "I"
    return labels


def identity_to_depth(letters, omega: OmegaSpec, shift: int, depth: int) -> bool:
    return all(
        act_word(letters, omega, shift, format(i, f"0{depth}b"))
        == format(i, f"0{depth}b")
        for i in range(1 << depth)
    )


def reduce_stack_pass(raw) -> tuple[bytes, int]:
    """Reduction one letter at a time: the reference for ``words.reduce``.

    Returns the reduced word and the contractions under the same
    convention (``a a`` cancelling, a spine merge and a trivial merge each
    count one).
    """
    stack: list[int] = []
    alpha = 0
    for let in raw:
        if not 0 <= let <= 7:
            raise ValueError("letters are encoded as 0..7")
        while True:
            if not stack:
                stack.append(let)
                break
            top = stack[-1]
            if top == A and let == A:
                stack.pop()
                alpha += 1
                break
            if top != A and let != A:
                stack.pop()
                alpha += 1
                let ^= top
                if let == 0:
                    break
                continue
            stack.append(let)
            break
    return bytes(stack), alpha


def reducible_positions(word: list[int]) -> list[int]:
    return [
        i
        for i in range(len(word) - 1)
        if (word[i] == A) == (word[i + 1] == A)
    ]


def apply_rewrite(word: list[int], i: int) -> tuple[list[int], int]:
    """One rewrite at position i; returns the new word and letters removed."""
    if word[i] == A:
        return word[:i] + word[i + 2 :], 2
    merged = word[i] ^ word[i + 1]
    if merged == 0:
        return word[:i] + word[i + 2 :], 2
    return word[:i] + [merged] + word[i + 2 :], 1


def reduce_random_order(letters, rng) -> tuple[tuple[int, ...], int]:
    """Reduce by applying rewrites at randomly chosen positions."""
    word = list(letters)
    steps = 0
    while True:
        pos = reducible_positions(word)
        if not pos:
            return tuple(word), steps
        word, _ = apply_rewrite(word, rng.choice(pos))
        steps += 1


def min_contractions(letters) -> int:
    """Smallest number of rewrites reaching the irreducible word (BFS)."""
    start = tuple(letters)
    frontier = {start}
    steps = 0
    while True:
        if any(not reducible_positions(list(w)) for w in frontier):
            return steps
        nxt = set()
        for w in frontier:
            wl = list(w)
            for i in reducible_positions(wl):
                nxt.add(tuple(apply_rewrite(wl, i)[0]))
        frontier = nxt
        steps += 1


def ftilde_count_exhaustive(delta, k: int) -> int:
    """Third, fully naive route: Counter over itertools.product."""
    d = Fraction(delta)
    total = 0
    for word in itertools.product(range(7), repeat=k):
        if any(c > (1 - d) * k for c in Counter(word).values()):
            total += 1
    return total


def signature_bytes(sig: int) -> bytes:
    """Minimal big-endian bytes of a packed portrait, ``b"\\0"`` for 0."""
    return sig.to_bytes((sig.bit_length() + 7) // 8 or 1, "big")


def portrait_signs(table, keys, depth: int) -> list[bytes]:
    """``table.portrait_records(keys, depth)`` cut into one record per key,
    each stripped to minimal bytes, after checking that the records have
    the width of 2^depth - 1 label bits."""
    records = table.portrait_records(keys, depth)
    width = max(1, -(-((1 << depth) - 1) // 8))
    assert len(records) == width * len(keys)
    return [records[i : i + width].lstrip(b"\0") or b"\0"
            for i in range(0, len(records), width)]


def random_raw_word(rng, max_len: int) -> tuple[int, ...]:
    return tuple(rng.randrange(8) for _ in range(rng.randrange(max_len + 1)))


def parse_element(text: str, omega: Optional[OmegaSpec] = None) -> Element:
    """Parse ``word @ shift @ omega`` text (omega part optional if given)."""
    parts = [p.strip() for p in text.split("@")]
    if len(parts) == 3:
        word_text, shift_text, omega_text = parts
        omega = parse_omega(omega_text)
    elif len(parts) == 2 and omega is not None:
        word_text, shift_text = parts
    elif len(parts) == 1 and omega is not None:
        word_text, shift_text = parts[0], "0"
    else:
        raise ValueError("expected 'word @ shift @ omega'")
    return Element.from_text(word_text, omega, int(shift_text))


def ball_links(table) -> list[list[tuple[int, int]]]:
    """Each ball element's geodesic predecessors as (id, letter) pairs,
    derived from the table's key index."""
    return [table.predecessors(eid) for eid in range(len(table.entries))]


def ball_with_stored_links(omega, shift=0, radius=0, budget=growth.DEFAULT_BUDGET):
    """The ball loop storing every geodesic link, deduplicated on its own:
    a candidate's level-8 table, composed from the letters' tables, picks
    the earlier elements it may equal, and ``equal`` decides.  Returns the
    ball (``entries``, ``strata``, ``radius`` and ``complete``, stopped on
    the budget as ``enumerate_ball`` stops) and each element's predecessors
    as (id, letter) pairs, in the order the loop found them."""
    shift = shift_normalize(omega, shift)
    letter_tables = [level_table(generator(k, omega, shift), 8) for k in range(8)]
    ball = SimpleNamespace(entries=[b""], strata=[range(1)], radius=radius, complete=True)
    words, tables, links = ball.entries, [IDENTITY_TABLE], [[]]
    buckets = {IDENTITY_TABLE: [0]}
    for level in range(radius):
        start = len(words)
        for eid in ball.strata[level]:
            word = words[eid]
            for letter in range(8):
                # Any other letter shortens the word or keeps its length.
                if level and (word[-1] == A) == (letter == A):
                    continue
                cand = Element(word + bytes((letter,)), omega, shift)
                table = letter_tables[letter].translate(tables[eid])
                bucket = buckets.setdefault(table, [])
                found = next(
                    (i for i in bucket if equal(cand, Element(words[i], omega, shift))),
                    None,
                )
                if found is None:
                    found = len(words)
                    if found >= budget:
                        del words[start:], links[start:]
                        ball.complete = False
                        ball.radius = level
                        return ball, links
                    words.append(cand.word)
                    tables.append(table)
                    links.append([])
                    bucket.append(found)
                if found >= start:
                    links[found].append((eid, letter))
        ball.strata.append(range(start, len(words)))
    return ball, links


def class_products(table) -> list[bytearray]:
    """``times[s][c]``, the class of class c of ``table`` times letter s,
    as the table once computed it.  With an inner ball it is the inner id
    that the move key of inner element c times s finds in the inner key
    index, or ``NO_CLASS`` on a miss.  With one-letter classes it is coset
    arithmetic: 0 is the identity, 8 is ``a``, and a spine letter's class
    is the least letter of its coset modulo the spine letters trivial at
    ``class_shift``; a spine letter times ``a`` has no class."""
    times = [bytearray([growth.NO_CLASS]) * 256 for _ in range(8)]
    inner = table.inner
    if inner is not None:
        for c, key in enumerate(inner.keys):
            layout = inner._layout(key)
            for letter, index in enumerate(inner.letter_indices):
                found = inner._by_key.get(index.translate(layout))
                if found is not None:
                    times[letter][c] = inner._id_of(found)
        return times
    trivial = [0] + [
        k for k in range(1, 8)
        if first_swap_level_loop(k, table.omega, table.class_shift) is None
    ]
    spine = [min(k ^ t for t in trivial) for k in range(8)]
    for c in {0, 8, *spine}:
        for letter, d in enumerate([8] + spine[1:]):
            if not c or not d:
                times[letter][c] = c | d
            elif (c == 8) == (d == 8):
                times[letter][c] = spine[(c ^ d) & 7]
    return times


def memo_signature(g: Element, depth: int, memo: dict) -> int:
    """``signature(g, depth)``, memoized over the sections it meets."""
    key = (g.shift, g.word, depth)
    if key not in memo:
        if depth == 0 or not g.word:
            memo[key] = 0
        else:
            d = decompose(g)
            half = (1 << (depth - 1)) - 1
            memo[key] = (
                int(d.top_swap)
                | memo_signature(d.left, depth - 1, memo) << 1
                | memo_signature(d.right, depth - 1, memo) << (1 + half)
            )
    return memo[key]


def growth_whole_ball(args) -> int:
    """``cli.cmd_growth`` as it was when it built the whole ball and then
    exported it, for the parsed arguments ``args``, with each portrait
    hashed from its sections' signatures."""
    cfg = cli._config(args)
    with ExitStack() as files:
        export = (
            files.enter_context(open(args.export_ball, "w", encoding="utf-8"))
            if args.export_ball
            else None
        )
        out = (
            files.enter_context(open(args.output, "w", encoding="utf-8"))
            if args.output
            else sys.stdout
        )
        table = growth.enumerate_ball(cfg.omega, args.shift, args.radius, cfg.budget)
        rows = cli._growth_rows(table, Fraction(args.curve_epsilon))
        header = cfg.header()
        header["radius"] = table.radius
        header["complete"] = table.complete
        if export:
            depth = growth.export_portrait_depth(args.radius)
            memo: dict = {}
            export.writelines(
                f'{{"id": {eid}, "length": {len(word)}, '
                f'"portrait_hash": "{sha256(sig).hexdigest()[:16]}", '
                f'"word": "{render_letters(word)}"}}\n'
                for eid, word in enumerate(table.entries)
                for sig in [signature_bytes(memo_signature(table.element(eid), depth, memo))]
            )
        if args.format == "json":
            out.write(cli._json_text({"header": header, "rows": rows}))
        else:
            lines = [f"# {k}: {v}" for k, v in sorted(header.items())]
            lines.append("n,sphere,gamma,gamma_root,lower_curve,upper_curve")
            for r in rows:
                lines.append(
                    f"{r['n']},{r['sphere']},{r['gamma']},{r['gamma_root']},"
                    f"{r['lower_curve']},{r['upper_curve']}"
                )
            out.write("\n".join(lines) + "\n")
    return 0 if table.complete else 3


def lemma8_every_word(table, epsilon) -> dict:
    """``growth.lemma8_check`` listing every element's minimal words before
    classifying it, with the memo drops it made then."""
    eps = Fraction(epsilon)
    violations = []
    checked = first_kept = 0
    report = {"radius": table.radius}
    try:
        for n in range(2, table.radius + 1):
            threshold = math.floor((Fraction(1, 2) - eps) * n)
            last = n == table.radius
            for eid in table.strata[n]:
                words = growth.geodesic_words(table, eid)
                if all(growth._max_spine_count(w) > threshold for w in words):
                    for w in words:
                        checked += 1
                        try:
                            growth.lemma8_map(w, eps)
                        except growth.LemmaViolation as exc:
                            violations.append({"n": n, "eid": eid, "detail": str(exc)})
                if last:
                    del table._geodesics[eid]
            for eid in range(first_kept, table.strata[n].start):
                table._geodesics.pop(eid, None)
            first_kept = table.strata[n].start
    except growth.GeodesicCapExceeded as exc:
        # Sphere n - 1's words are listed, so the cap stopped this sphere.
        report["radius"] = n - 1
        report["detail"] = str(exc)
    report["checks"] = checked
    report["violations"] = violations
    report["complete"] = table.complete and "detail" not in report
    return report


def lemma3_every_lookup(table, budget: int = growth.DEFAULT_BUDGET) -> dict:
    """``growth.lemma3_check`` looking every section up in the shifted ball,
    however often the same section word recurs."""
    table_s = growth.enumerate_ball(
        table.omega, table.shift + 1, (table.radius + 3) // 2, budget
    )
    m = min(table.radius, 2 * table_s.radius - 2)
    if m < 0:
        return {
            "checks": 0,
            "violations": [],
            "radius": None,
            "complete": False,
            "detail": "ball enumeration hit the element budget",
        }
    half = (m + 3) // 2
    g_here = table.gamma()[: m + 1]
    g_shift = table_s.gamma()[: half + 1]
    violations = []
    sym = symbol_at(table.omega, table.shift + 1)
    for eid in range(g_here[m]):
        word = table.entries[eid]
        if word.count(A) % 2:
            continue
        _, left, right = split_sections(word, sym)
        for side, section in (("left", left), ("right", right)):
            found = table_s.lookup(Element(section, table.omega, table_s.shift))
            if found is None:
                violations.append(
                    {"eid": eid, "side": side, "detail": "section not in shifted ball"}
                )
                continue
            length = len(table_s.entries[found])
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
    numeric = {"lhs": g_here[m], "rhs": 2 * g_shift[half] ** 2, "passed": numeric_ok}
    return {
        "checks": g_here[m],
        "radius": m,
        "complete": table.complete and table_s.complete,
        "violations": violations + ([] if numeric_ok else [numeric]),
        "detail": numeric,
    }


def small_canonical_specs() -> list[OmegaSpec]:
    """Every canonical spec with preperiod at most 3 and period at most 4
    symbols (from the 4,800 raw pairs), in order of their text."""
    raw = (
        OmegaSpec("".join(pre), "".join(per))
        for pre_len in range(4)
        for pre in itertools.product("012", repeat=pre_len)
        for per_len in range(1, 5)
        for per in itertools.product("012", repeat=per_len)
    )
    return sorted(set(raw), key=str)


def first_swap_level_loop(letter: int, omega: OmegaSpec, shift: int) -> Optional[int]:
    """First level 1 .. cycle_length below ``shift`` at which a spine letter
    swaps, or None, level by level."""
    for level in range(1, omega.cycle_length + 1):
        if SWAPS[letter][symbol_at(omega, shift + level)]:
            return level
    return None


def first_third_symbol_loop(omega: OmegaSpec) -> Optional[int]:
    """Least s with {omega_1..omega_s} = {0,1,2}, or None, position by position."""
    seen = set()
    for n in range(1, omega.cycle_length + 1):
        seen.add(symbol_at(omega, n))
        if len(seen) == 3:
            return n
    return None


def classify_by_window_search(omega: OmegaSpec) -> tuple[str, Optional[int], bool]:
    """``classify``'s (kind value, star window, two_symbol) from the period's
    symbols and a search over window sizes m up to pre + 2 per: the least m
    such that every length-m window from positions 1 .. cycle_length holds
    as many symbols as the period."""
    period_symbols = set(omega.period)
    need = len(period_symbols)
    kind = {1: "Omega2", 2: "Omega1", 3: "Omega0"}[need]
    two_symbol = len(set(omega.preperiod) | period_symbols) <= 2
    if need == 1:
        return kind, None, two_symbol
    starts = range(1, omega.cycle_length + 1)
    for m in range(1, len(omega.preperiod) + 2 * len(omega.period) + 1):
        if all(len({symbol_at(omega, k + i) for i in range(m)}) >= need for k in starts):
            return kind, m, two_symbol
    raise AssertionError(f"no star window for {omega} up to pre + 2 per")
