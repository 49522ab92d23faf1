"""The eight-letter alphabet and stack-pass word reduction.

Letters are small integers: ``a`` is 0, the seven remaining letters are
1..7 read as 3-bit vectors over the basis (b, c, x), so that the product
of two non-``a`` letters is bitwise XOR.  Text I/O uses ``a b c d x B C D``
where B, C, D are the x-twisted partners of b, c, d.

A reduced word is the ``bytes`` of its letters: ``a`` alternating with
the spine letters 1..7, as [a] s1 a s2 a ... a sm [a].  Letters are
checked where they enter (``reduce``, ``extend``, ``parse_letters``), so
a reduced word is never checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

A = 0
X = 4

LETTER_NAMES = "abcdxBCD"
_NAME_TO_LETTER = {ch: i for i, ch in enumerate(LETTER_NAMES)}

SPINE_LETTERS = (1, 2, 3, 4, 5, 6, 7)

# Full multiplication table among the seven nontrivial non-`a` letters,
# kept as explicit data (independent of the XOR rule) for verification.
REFERENCE_PRODUCTS = (
    ("b", "c", "d"), ("c", "d", "b"), ("d", "b", "c"),
    ("B", "C", "d"), ("C", "D", "b"), ("D", "B", "c"),
    ("b", "C", "D"), ("c", "D", "B"), ("d", "B", "C"),
    ("B", "c", "D"), ("C", "d", "B"), ("D", "b", "C"),
    ("b", "B", "x"), ("c", "C", "x"), ("d", "D", "x"),
    ("b", "x", "B"), ("c", "x", "C"), ("d", "x", "D"),
    ("B", "x", "b"), ("C", "x", "c"), ("D", "x", "d"),
)


class WordParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


def spine_mul(k1: int, k2: int) -> int:
    """Product of two non-``a`` letters (0 = the trivial letter)."""
    if not (0 <= k1 <= 7 and 0 <= k2 <= 7):
        raise ValueError("letters are encoded as 0..7")
    return k1 ^ k2


def letter_label(k: int, symbol: int) -> bool:
    """True when letter k swaps the two children at a level carrying ``symbol``.

    b swaps unless the symbol is 2, c unless it is 1, d unless it is 0,
    and x always; composite letters combine these parities.
    """
    bit = (k & 1) * (symbol != 2) + ((k >> 1) & 1) * (symbol != 1) + ((k >> 2) & 1)
    return bit % 2 == 1


# SWAPS[q][k] is letter_label(k, q); the entry for ``a`` is unused.
SWAPS = tuple(tuple(letter_label(k, q) for k in range(8)) for q in (0, 1, 2))


def parse_letters(text: str) -> tuple[int, ...]:
    """Letter list from text; whitespace is optional separator."""
    out = []
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch not in _NAME_TO_LETTER:
            raise WordParseError(f"unknown letter {ch!r}", i)
        out.append(_NAME_TO_LETTER[ch])
    return tuple(out)


_LETTER_TEXT = bytes.maketrans(bytes(range(8)), LETTER_NAMES.encode())


def render_letters(letters: Iterable[int]) -> str:
    return " ".join(bytes(letters).translate(_LETTER_TEXT).decode())


def render_words(words: Sequence[bytes]) -> list[str]:
    """``[render_letters(w) for w in words]``, rendered together.

    The words, joined by newlines, are named by one ``translate``, a space
    goes between every two bytes by one slice assignment, the spaces next
    to a newline come off again, and one decode and split give the texts.
    An empty word leaves two newlines side by side.
    """
    if not words:
        return []
    joined = b"\n".join(words).translate(_LETTER_TEXT)
    spaced = bytearray(b" ") * (2 * len(joined) - 1)
    spaced[::2] = joined
    return spaced.replace(b" \n", b"\n").replace(b"\n ", b"\n").decode().split("\n")


def a_count(word: bytes) -> int:
    """Number of ``a`` letters of a reduced word: every other letter,
    counting from the first when the word starts with ``a``."""
    return (len(word) + (word[:1] == b"\0")) // 2


@dataclass(frozen=True)
class ReductionReceipt:
    word: bytes
    contractions: int


# _PHASE[p][k] is 1 when letter k, at an index of parity p, has the kind
# (``a`` or spine letter) that an alternating word starting with ``a`` has
# there, 2 when it has the other kind, and 0 when k is not a letter.
_PHASE = (bytes([1] + [2] * 7 + [0] * 248), bytes([2] + [1] * 7 + [0] * 248))


def reduce(raw: Iterable[int]) -> ReductionReceipt:
    """Reduce a letter list to alternating form by a single stack pass.

    Contraction count convention: cancelling ``a a``, merging two adjacent
    spine letters, and a merge that yields the trivial letter (which is
    then dropped) each count as one contraction.

    The letters' phases (``_PHASE``) are constant along an alternating run
    and change exactly where two adjacent letters of one kind clash.  So
    one ``in`` test finds a reduced word, returned as it is, and one
    ``find`` finds where each run ends; a run that does not clash with the
    top of the stack goes on it as one slice.  Only a clashing letter is
    stacked on its own: ``a a`` cancels, two spine letters merge by XOR and
    the merge drops out when trivial.  The stack alternates, so a letter
    clashes with its top at most once.
    """
    if isinstance(raw, int):
        raise TypeError("letters must be an iterable of ints")
    try:
        word = raw if type(raw) is bytes else bytes(raw)
    except ValueError:
        raise ValueError("letters are encoded as 0..7") from None
    n = len(word)
    phase = bytearray(n)
    phase[::2] = word[::2].translate(_PHASE[0])
    phase[1::2] = word[1::2].translate(_PHASE[1])
    if 0 in phase:
        raise ValueError("letters are encoded as 0..7")
    if not n or 3 - phase[0] not in phase:
        return ReductionReceipt(word, 0)
    stack = bytearray()
    alpha = 0
    i = 0
    while i < n:
        let = word[i]
        if stack and (stack[-1] == A) == (let == A):
            let ^= stack.pop()
            alpha += 1
            if let:
                stack.append(let)
            i += 1
        else:
            end = phase.find(3 - phase[i], i)
            if end < 0:
                end = n
            stack += word[i:end]
            i = end
    return ReductionReceipt(bytes(stack), alpha)


def extend(word: bytes, letter: int) -> bytes:
    """Right product of a reduced word by one letter, in reduced form.

    Equal to ``reduce(word + bytes((letter,))).word`` but touches only the
    last letter: a letter of the other kind (``a`` against a spine letter)
    is appended; one of the same kind merges with it by XOR, and the merge
    drops out when trivial (as ``a a`` always does).
    """
    if not 0 <= letter <= 7:
        raise ValueError("letters are encoded as 0..7")
    if not word or (word[-1] == A) != (letter == A):
        return word + bytes((letter,))
    merged = word[-1] ^ letter
    return word[:-1] + bytes((merged,)) if merged else word[:-1]


def split_reduce(word: bytes, symbol: int):
    """One-level substitution at a level carrying ``symbol``, reduced.

    Returns ``(top_swap, left, right, left_alpha, right_alpha)``: whether
    the word swaps the two children, the two child words in reduced form,
    and the contractions ``reduce`` counts on each child's raw letters.
    A spine letter followed by r ``a``'s (mod 2) goes to child 1 - r and,
    when it swaps at this level, sends an ``a`` to child r; since spine
    letters are separated by ``a``'s, the receiving child alternates.  Each
    letter is pushed onto its child's alternating stack by the one-step
    rule of ``reduce``: ``a a`` cancels, two spine letters merge by XOR and
    the merge drops out when trivial.
    """
    swaps = SWAPS[symbol]
    stacks: tuple[list[int], list[int]] = ([], [])
    alphas = [0, 0]
    lead = word[:1] == b"\0"
    top_swap = a_count(word) & 1
    take = (top_swap ^ lead) ^ 1  # child receiving the first spine letter
    for k in word[lead::2]:
        stack = stacks[take]
        if stack and stack[-1]:
            alphas[take] += 1
            merged = stack.pop() ^ k
            if merged:
                stack.append(merged)
        else:
            stack.append(k)
        take ^= 1
        if swaps[k]:
            stack = stacks[take]
            if stack and not stack[-1]:
                stack.pop()
                alphas[take] += 1
            else:
                stack.append(A)
    return (
        bool(top_swap),
        bytes(stacks[0]),
        bytes(stacks[1]),
        alphas[0],
        alphas[1],
    )


def xyz_profile(word: bytes) -> tuple[int, int, int]:
    """(x, y, z) letter-frequency aggregates of a word.

    x counts d, B, C; y counts c, B, D; z counts b, C, D -- i.e. for each
    symbol q in 0,1,2 the letters that act trivially at a level carrying q.
    """
    return tuple(
        sum(word.count(k) for k in SPINE_LETTERS if not SWAPS[q][k]) for q in (0, 1, 2)
    )
