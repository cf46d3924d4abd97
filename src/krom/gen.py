"""Deterministic Krom program generators for sweeps and property tests.

Random generation is reproducible from the config alone; exhaustive
enumeration is guarded so nobody accidentally asks for billions of
programs.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import namedtuple
from typing import Iterator

from .algebra import Alphabet, Atom, Program, Rule

__all__ = ["GenConfig", "random_program", "enumerate_programs"]

_MAX_ENUM_ATOMS = 3
_MAX_ENUM_RULES = 4


class GenConfig(namedtuple("GenConfig", "atom_count rule_count fact_ratio seed")):
    """Parameters of one random program draw, as a named tuple.

    The rule universe over ``atom_count`` atoms has ``atom_count`` facts and
    ``atom_count ** 2`` proper rules; ``rule_count`` may not exceed their
    sum. Equal configs always produce equal programs.
    """

    __slots__ = ()

    def __new__(cls, atom_count: int, rule_count: int, fact_ratio: float = 0.5, seed: int = 0):
        for name, value in ("atom_count", atom_count), ("rule_count", rule_count), ("seed", seed):
            if not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if atom_count < 1:
            raise ValueError(f"atom_count must be positive, got {atom_count}")
        if rule_count < 0:
            raise ValueError(f"rule_count must be non-negative, got {rule_count}")
        universe = atom_count + atom_count**2
        if rule_count > universe:
            raise ValueError(
                f"rule_count {rule_count} exceeds the rule universe "
                f"({universe}) over {atom_count} atoms"
            )
        if not 0 <= fact_ratio <= 1:
            raise ValueError(f"fact_ratio must lie in [0, 1], got {fact_ratio}")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        return super().__new__(cls, atom_count, rule_count, fact_ratio, seed)

    # ``_replace`` builds through ``_make``; route it through the checks.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def random_program(config: GenConfig) -> Program:
    """Draw ``config.rule_count`` distinct rules over atoms x1..xN.

    Generator algorithm (fixed as part of the contract, so any failure is
    replayable from the config alone): a Mersenne Twister stream seeded
    with ``config.seed`` (``random.Random``) drives the draw. Each step
    flips a coin that picks the fact pool with probability ``fact_ratio``
    (falling back to the other pool when one is empty, so a saturating
    ``rule_count`` always fills the whole universe), then removes the rule
    at a uniformly drawn index of the chosen pool, swapping the last
    element into the hole. The fact pool starts as ``x1 .. xN``, the proper
    pool as ``xh :- xb`` ordered by head, then body.

    Neither pool is built: an index stands for its rule until a swap
    displaces it, so memory is O(rule_count), whatever ``atom_count``.
    """
    n = config.atom_count
    sizes = [n, n * n]
    displaced = ({}, {})
    atom = functools.cache(lambda i: Atom(f"x{i + 1}"))
    rng = random.Random(config.seed)
    chosen = []
    while len(chosen) < config.rule_count:
        pool = 0 if rng.random() < config.fact_ratio else 1
        if not sizes[pool]:
            pool = 1 - pool
        i = rng.randrange(sizes[pool])
        sizes[pool] -= 1
        last = sizes[pool]
        index = displaced[pool].get(i, i)
        displaced[pool][i] = displaced[pool].pop(last, last)
        if pool == 0:
            chosen.append(Rule(atom(index)))
        else:
            head, body = divmod(index, n)
            chosen.append(Rule(atom(head), atom(body)))
    return Program._wrap(frozenset(chosen))


def enumerate_programs(alphabet: Alphabet, max_rules: int) -> Iterator[Program]:
    """Yield every program over the alphabet with at most ``max_rules``
    rules, each exactly once, in a deterministic order.

    Guarded to ``len(alphabet) <= 3`` and ``max_rules <= 4``; the universe
    grows as C(n + n**2, k) summed over k, which explodes fast.
    """
    if len(alphabet) > _MAX_ENUM_ATOMS:
        raise ValueError(
            f"enumeration supports at most {_MAX_ENUM_ATOMS} atoms, got {len(alphabet)}"
        )
    if not 0 <= max_rules <= _MAX_ENUM_RULES:
        raise ValueError(
            f"enumeration supports 0..{_MAX_ENUM_RULES} rules per program, got {max_rules}"
        )
    names = sorted(alphabet.atoms)
    universe = [Rule(a) for a in names]
    universe.extend(Rule(h, b) for h in names for b in names)
    for size in range(min(max_rules, len(universe)) + 1):
        for combo in itertools.combinations(universe, size):
            yield Program._wrap(frozenset(combo))
