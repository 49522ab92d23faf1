"""Seeded inputs for the word-problem workload, certified by the oracle.

Each query is a pair of reduced words of about 1,000 letters over one of
four sequences.  Half the pairs are equal: the second word is the first
with conjugated relators inserted and the result reduced.  The other half
differ in one spine letter, which keeps the parity of ``a`` letters, so
deciding them needs the full section descent rather than the odd-parity
shortcut.  Every answer is certified before any timing starts: relators by
the oracle to a fixed depth and by the package's ``is_identity``, and each
"different" answer by a witness vertex that the two words move apart.
Pairs that cannot be certified are dropped and counted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import A, LevelAction, reduce_letters, swap_level

OMEGAS = ("(012)", "(01)", "01(2)", "(0012)")
QUERIES = 4000
SPINE_LETTERS = 500  # spine letters of the first word: about 1,000 letters
INSERTS = 2  # conjugated relators inserted into an equal pair
CONJUGATOR_SPINE = 8  # spine letters of a conjugator, at most
RELATOR_DEPTH = 10  # levels on which the oracle checks each relator
MAX_POWER = 64  # relators are (a t)^n for n a power of two up to this
MAX_SWAP_LEVEL = 8  # deepest level searched for a witness vertex


@dataclass(frozen=True)
class Query:
    omega: str
    left: tuple[int, ...]
    right: tuple[int, ...]
    equal: bool


@dataclass(frozen=True)
class QuerySet:
    seed: int
    queries: tuple[Query, ...]
    dropped: int  # generated pairs that could not be certified


def relators(omega: str, package_is_identity) -> list[list[int]]:
    """Shortest certified relator (a t)^n for each spine letter t that has one.

    ``package_is_identity(omega, letters)`` is the package's own decision;
    a relator is kept only when it and the oracle agree it is trivial.
    """
    level = LevelAction(omega, RELATOR_DEPTH)
    out = []
    for t in range(1, 8):
        n = 2
        while n <= MAX_POWER:
            word = [A, t] * n
            if level.is_identity(word) and package_is_identity(omega, word):
                out.append(word)
                break
            n *= 2
    if not out:
        raise RuntimeError(f"no certified relator over {omega}")
    return out


def random_word(rng: random.Random, spine_letters: int) -> list[int]:
    """A reduced word: spine letters 1..7 separated by ``a``, with optional
    leading and trailing ``a``."""
    out = [A] if rng.random() < 0.5 else []
    for i in range(spine_letters):
        if i:
            out.append(A)
        out.append(rng.randrange(1, 8))
    if spine_letters and rng.random() < 0.5:
        out.append(A)
    return out


def equal_partner(rng: random.Random, word: list[int], rels: list[list[int]]) -> list[int]:
    """The word with INSERTS conjugated, rotated relators inserted, reduced."""
    raw = list(word)
    for _ in range(INSERTS):
        rel = rng.choice(rels)
        turn = rng.randrange(len(rel))
        rel = rel[turn:] + rel[:turn]
        conj = random_word(rng, rng.randrange(CONJUGATOR_SPINE + 1))
        at = rng.randrange(len(raw) + 1)
        raw[at:at] = conj + rel + conj[::-1]
    return reduce_letters(raw)


def different_partner(rng: random.Random, word: list[int], omega: str, levels: dict):
    """The word with one spine letter changed, or None when the change
    cannot be certified by a witness vertex."""
    spots = [i for i, k in enumerate(word) if k != A]
    at = rng.choice(spots)
    old = word[at]
    new = rng.choice([k for k in range(1, 8) if k != old])
    level = swap_level(old ^ new, omega, MAX_SWAP_LEVEL)
    if level is None:
        return None
    # old and new differ by the letter t = old ^ new, which moves the vertex
    # 1^(level-1) 0 0; pull that vertex back through the common suffix.
    depth = level + 1
    action = levels.get((omega, depth))
    if action is None:
        action = levels[(omega, depth)] = LevelAction(omega, depth)
    target = int("1" * (level - 1) + "00", 2)
    witness = action.apply(word[at + 1 :][::-1], target)
    partner = list(word)
    partner[at] = new
    if action.apply(word, witness) == action.apply(partner, witness):
        return None
    return partner


def generate(seed: int, package_is_identity, queries: int = QUERIES) -> QuerySet:
    """Certified query set for a seed; the same seed gives the same set."""
    rng = random.Random(seed)
    rels = {omega: relators(omega, package_is_identity) for omega in OMEGAS}
    plan = [
        (OMEGAS[i % len(OMEGAS)], (i // len(OMEGAS)) % 2 == 0)
        for i in range(queries)
    ]
    rng.shuffle(plan)
    levels: dict = {}
    out = []
    dropped = 0
    for omega, same in plan:
        word = random_word(rng, SPINE_LETTERS)
        if same:
            partner = equal_partner(rng, word, rels[omega])
        else:
            partner = different_partner(rng, word, omega, levels)
            if partner is None:
                dropped += 1
                continue
        out.append(Query(omega, tuple(word), tuple(partner), same))
    return QuerySet(seed, tuple(out), dropped)
