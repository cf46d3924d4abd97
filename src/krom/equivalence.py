"""Equivalence deciders for Krom programs, with brute-force oracles.

Three notions, from finest to coarsest:

* subsumption equivalence: the programs compose identically with every
  interpretation; for Krom programs this collapses to rule-set equality,
* uniform equivalence: the programs have the same least model under every
  extension by extra facts,
* least-model equivalence: the programs have the same least model.

Each decider has an independent enumeration-based oracle next to it; the
oracles refuse alphabets larger than a configurable bound instead of
sampling silently.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

from .algebra import (
    InternalError,
    Interpretation,
    Program,
    _canonical,
    _closure,
    _graph,
    _reaches,
    atoms,
    compose,
    heads,
    models,
    omega,
)

__all__ = [
    "EquivVerdict",
    "AlphabetTooLargeError",
    "DEFAULT_ORACLE_BOUND",
    "lm_equiv",
    "ss_equiv",
    "ss_equiv_semantic",
    "uniform_equiv",
    "uniform_equiv_oracle",
    "lm_oracle",
    "minimize",
]

DEFAULT_ORACLE_BOUND = 20


class AlphabetTooLargeError(ValueError):
    """The joint alphabet exceeds the exhaustive-enumeration bound."""


class EquivVerdict(NamedTuple):
    """Outcome of an equivalence query; truthy iff ``equal``.

    ``witness`` is a distinguishing interpretation when ``equal`` is False
    and the decider is semantic; syntactic and least-model verdicts carry
    no witness.
    """

    equal: bool
    witness: Interpretation | None = None

    def __bool__(self) -> bool:
        return self.equal


def _check_bound(universe: list, max_atoms: int) -> None:
    if len(universe) > max_atoms:
        raise AlphabetTooLargeError(
            f"{len(universe)} atoms exceed the enumeration bound of {max_atoms}"
        )


def _first_difference(
    k: Program, l: Program, max_atoms: int, differ: Callable[[Program], bool]
) -> EquivVerdict:
    # An oracle's verdict: the first interpretation I over the joint
    # alphabet for which `differ` tells the programs apart, given I as a
    # program of facts, is the witness. Interpretations come smallest
    # first, lexicographic within a size, so witnesses are minimal and
    # reproducible.
    universe = sorted((atoms(k) | atoms(l)).atoms)
    _check_bound(universe, max_atoms)
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            interp = Interpretation(combo)
            if differ(interp.as_program()):
                return EquivVerdict(False, interp)
    return EquivVerdict(True)


def lm_equiv(k: Program, l: Program) -> EquivVerdict:
    """Decide whether two programs have the same least model.

    ``omega`` is monotone: if K's rules are a subset of L's, then
    ``omega(K) <= omega(L)``, and as ``omega(L)`` is the least model of L,
    the two are equal exactly when ``omega(K)`` is a model of L. So a pair
    where one rule set contains the other takes one least model and one
    :func:`models` check; every other pair computes both least models and
    compares them.
    """
    small, large = (k, l) if len(k) <= len(l) else (l, k)
    if not small - large:
        return EquivVerdict(models(omega(small), large))
    return EquivVerdict(omega(k) == omega(l))


def ss_equiv(k: Program, l: Program) -> EquivVerdict:
    """Decide subsumption equivalence as rule-set equality.

    Caveat: composing with an interpretation cannot observe a proper rule
    whose head the program already states as a fact (firing it only
    re-produces that fact, and interpretations carry no rules to chain
    into). ``{a}`` and ``{a, a :- a}`` therefore compose identically with
    every interpretation although their rule sets differ, so this decider
    is strictly finer than :func:`ss_equiv_semantic` on such programs; the
    two notions coincide exactly on programs with no fact-subsumed rules.
    """
    return EquivVerdict(k == l)


def ss_equiv_semantic(
    k: Program, l: Program, max_atoms: int = DEFAULT_ORACLE_BOUND
) -> EquivVerdict:
    """Subsumption equivalence by enumeration: compare ``K . I`` and ``L . I``
    for every interpretation I over the joint alphabet.

    The empty and singleton interpretations already decide the answer, but
    this checker does not rely on that and enumerates everything. It is
    blind to proper rules whose head is a fact of the same program; see the
    :func:`ss_equiv` caveat.
    """
    return _first_difference(k, l, max_atoms, lambda i: compose(k, i) != compose(l, i))


def uniform_equiv(k: Program, l: Program) -> EquivVerdict:
    """Decide whether the programs stay least-model equivalent under every
    extension by extra facts.

    It suffices to compare the least models themselves (the empty
    extension) and the extensions by one atom at a time: reachability from
    a set of seed atoms is the union of reachability from each seed, so
    agreement on singletons lifts to agreement on every interpretation.
    Atoms outside both programs extend both sides by exactly themselves.

    The least models B are compared first. Where they are equal, only the
    atoms of T need a look: the heads of the rules that one program has
    and the other lacks, less B. For every atom x, ``B | reach_K(x)``
    equals ``B | reach_L(x)`` exactly when the two reaches agree on T.
    Suppose h is in ``B | reach_L(x)`` but not in ``B | reach_K(x)``, and
    follow an L-path from x to h. The first of its edges that leaves
    ``B | reach_K(x)``, a set closed under K's edges, is not a rule of K,
    so it is a rule of L alone, and its head is in T (a fact of one
    program alone has its head in B). This is the uniform counterpart of
    Sagiv's containment test: each rule of one program must be derivable
    in the other (Sagiv, "Optimizing Datalog programs", 1988). So a pair
    with T empty is equal, and otherwise ``algebra._reaches`` gives each
    program's reach rows over T, one block of T at a time.

    The witness on a negative verdict is the first failing interpretation
    in sorted order, the empty one first: the empty one if the least
    models differ, and otherwise the least atom whose rows differ in any
    block.
    """
    edges_k, edges_l = k._edges, l._edges
    base = _closure(edges_k, ())
    if base != _closure(edges_l, ()):
        return EquivVerdict(False, Interpretation())
    targets = (heads(k - l) | heads(l - k)).atoms - base
    if not targets:
        return EquivVerdict(True)
    differ = [
        min(x for x, _ in rows_k.items() ^ rows_l.items())
        for (_, rows_k), (_, rows_l) in zip(
            _reaches(edges_k, targets, False), _reaches(edges_l, targets, False)
        )
        if rows_k != rows_l
    ]
    return EquivVerdict(False, Interpretation([min(differ)])) if differ else EquivVerdict(True)


def uniform_equiv_oracle(
    k: Program, l: Program, max_atoms: int = DEFAULT_ORACLE_BOUND
) -> EquivVerdict:
    """Uniform equivalence by brute force: compare the least models of
    ``K | I`` and ``L | I`` for every interpretation I over the joint
    alphabet."""
    return _first_difference(k, l, max_atoms, lambda i: omega(k | i) != omega(l | i))


def lm_oracle(program: Program, max_atoms: int = DEFAULT_ORACLE_BOUND) -> Interpretation:
    """Least model by exhaustive enumeration of interpretations.

    Enumerates every subset of the program's atoms, keeps the models, and
    returns their intersection after verifying that it is itself a model
    contained in every model. (A model contained in every model is the
    unique least one, and any least model equals the intersection, so the
    two verifications pin it down exactly.)
    """
    universe = sorted(atoms(program).atoms)
    _check_bound(universe, max_atoms)
    n = len(universe)
    index = {a: i for i, a in enumerate(universe)}
    fact_mask = 0
    implications = []
    for r in program.rules:
        if r.body is None:
            fact_mask |= 1 << index[r.head]
        else:
            implications.append((1 << index[r.body], 1 << index[r.head]))
    model_masks = []
    for bits in range(1 << n):
        if bits & fact_mask != fact_mask:
            continue
        if all(not bits & b or bits & h for b, h in implications):
            model_masks.append(bits)
    if not model_masks:
        raise InternalError("no model found; the full atom set always models a Krom program")
    least_bits = model_masks[0]
    for m in model_masks[1:]:
        least_bits &= m
    least = Interpretation(universe[i] for i in range(n) if least_bits >> i & 1)
    if not models(least, program):
        raise InternalError("model intersection is not itself a model")
    if any(least_bits & m != least_bits for m in model_masks):
        raise InternalError("least model candidate not contained in every model")
    return least


def minimize(k: Program) -> Program:
    """Drop redundant rules while preserving uniform equivalence.

    Greedy single pass in sorted rule order: a rule is deleted iff the
    program without it is still uniformly equivalent to the input. One pass
    is enough for 1-minimality because extensions' least models only shrink
    when rules are removed: a rule that later became removable would have
    been removable at its own turn already.

    Each deletion is decided by one derivability query. The kept rules C
    stay uniformly equivalent to the input, so comparing with the input is
    comparing with C. As ``C - {r}`` is a subset of C, the least model of
    each of its extensions lies inside that of C's, and the two are equal
    iff it satisfies ``r``. For a fact ``h`` that holds iff ``h`` is in the
    least model of ``C - {r}``. For ``h :- b`` every extension whose least
    model holds ``b`` contains the least model of ``C - {r}`` extended by
    ``b``, so it holds iff ``h`` is in the latter. Either way the query is
    one search of the digraph of ``C - {r}`` from the root and from the
    rule's body, which for a fact is the root itself.
    """
    # The rules in sorted order, made once.
    current = set(order := list(k))
    for r in order:
        current.discard(r)
        if r.head not in _closure(_graph(current), (r.body,)):
            current.add(r)
    return Program._wrap(_canonical(_graph(current)))
