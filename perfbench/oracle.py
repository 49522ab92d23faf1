"""Independent answer oracle for the word-problem workload.

Everything here is built from first principles -- the letterwise action of
each generator on a vertex string -- and shares no code path with the
``overgrowth`` package, so it can certify the package's answers.

Letters are the integers 0..7 for ``a b c d x B C D``; words are applied
right to left, and every letter is an involution.
"""

from __future__ import annotations

A = 0

# Swap parity of letters 1..7 = (b, c, d, x, B, C, D) at a level carrying the
# symbol 0, 1 or 2: b swaps unless 2, c unless 1, d unless 0, x always, and
# B, C, D are the x-twists of b, c, d.
SWAPS = {
    1: (True, True, False),
    2: (True, False, True),
    3: (False, True, True),
    4: (True, True, True),
    5: (False, False, True),
    6: (False, True, False),
    7: (True, False, False),
}


def omega_symbols(omega: str, count: int) -> list[int]:
    """The first ``count`` symbols of ``PRE(PER)`` text, 1-based as a list
    whose index 0 holds symbol 1."""
    open_at = omega.index("(")
    pre, per = omega[:open_at], omega[open_at + 1 : -1]
    out = [int(ch) for ch in pre[:count]]
    while len(out) < count:
        out.append(int(per[(len(out) - len(pre)) % len(per)]))
    return out


def act_one_letter(letter: int, symbols: list[int], vertex: str) -> str:
    """Image of a vertex under one generator.

    ``a`` flips the first bit.  A non-``a`` letter walks the all-ones path
    and flips the bit just after the first 0, when it swaps at that level.
    """
    if not vertex:
        return vertex
    if letter == A:
        return ("1" if vertex[0] == "0" else "0") + vertex[1:]
    i = vertex.find("0")
    if i < 0 or i + 1 >= len(vertex):
        return vertex
    if SWAPS[letter][symbols[i]]:
        j = i + 1
        return vertex[:j] + ("1" if vertex[j] == "0" else "0") + vertex[j + 1 :]
    return vertex


class LevelAction:
    """Letterwise action on the vertices of one level, tabulated.

    Vertices of length ``depth`` are the integers 0..2^depth - 1 (the binary
    string read most significant bit first); ``table[k][v]`` is the image of
    vertex v under letter k, filled by ``act_one_letter``.
    """

    def __init__(self, omega: str, depth: int):
        self.depth = depth
        symbols = omega_symbols(omega, depth)
        size = 1 << depth
        self.table = [
            [
                int(act_one_letter(k, symbols, format(v, f"0{depth}b")), 2)
                for v in range(size)
            ]
            for k in range(8)
        ]

    def apply(self, letters, vertex: int) -> int:
        """Image of a vertex under a word, rightmost letter first."""
        table = self.table
        for k in reversed(letters):
            vertex = table[k][vertex]
        return vertex

    def is_identity(self, letters) -> bool:
        """True when the word fixes every vertex of this level."""
        return all(self.apply(letters, v) == v for v in range(1 << self.depth))


def swap_level(letter: int, omega: str, max_level: int) -> int | None:
    """Least level i <= max_level at which a non-``a`` letter swaps below the
    vertex 1^(i-1) 0, or None when it acts trivially down to max_level."""
    for i, sym in enumerate(omega_symbols(omega, max_level), start=1):
        if SWAPS[letter][sym]:
            return i
    return None


def reduce_letters(letters) -> list[int]:
    """Reduction to alternating form: ``a a`` cancels, and adjacent non-``a``
    letters merge by XOR of their 3-bit codes (dropped when the product is 1)."""
    stack: list[int] = []
    for let in letters:
        while True:
            if not stack:
                stack.append(let)
                break
            top = stack[-1]
            if top == A and let == A:
                stack.pop()
                break
            if top != A and let != A:
                stack.pop()
                let ^= top
                if let == 0:
                    break
                continue
            stack.append(let)
            break
    return stack
