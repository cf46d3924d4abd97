"""Differential sweep of the reachability kernel behind ``star``, ``plus`` and
``uniform_equiv``, and a scale guard on its depth-first search.

The programs are drawn to give the condensation something to do: atoms
split into blocks joined by cycles (several strongly connected components),
edges between and back across blocks, self-loops, facts, and alphabets
wider than the program, down to the empty program and the empty alphabet.
The kernel builds its reach rows one block of targets at a time; blocks
narrower than the targets must give the same answers on the same sweep.
``uniform_equiv`` looks only at the heads of the rules one program lacks;
larger programs than the oracles admit check that against one least-model
search per atom, and ``star`` and ``plus`` against one search from every
atom.
"""

import random
from itertools import islice

import pytest

from krom import (
    Alphabet,
    Atom,
    EquivVerdict,
    GenConfig,
    Interpretation,
    atoms,
    compose,
    extend_omega,
    minimize,
    Program,
    Rule,
    plus,
    proper,
    random_program,
    rule,
    ss_equiv_semantic,
    star,
    uniform_equiv,
    uniform_equiv_oracle,
    unit,
)
from krom import algebra
from oracles import closure_oracle, compose_oracle, consequences_oracle, plus_oracle, star_oracle

NAMES = [Atom(f"a{i}") for i in range(9)]


def shaped_program(rng):
    """A program over 1-7 atoms, and an alphabet covering it that may hold
    up to two atoms more."""
    names = rng.sample(NAMES, rng.randint(1, 7))
    cuts = sorted(rng.sample(range(1, len(names)), rng.randint(0, len(names) - 1)))
    blocks = [names[i:j] for i, j in zip([0, *cuts], [*cuts, len(names)])]
    rules = set()
    for block in blocks:
        if len(block) > 1 and rng.random() < 0.7:
            rules.update(Rule(h, b) for b, h in zip(block, block[1:] + block[:1]))
    for _ in range(rng.randint(0, len(names))):
        i, j = sorted(rng.sample(range(len(blocks)), 2)) if len(blocks) > 1 else (0, 0)
        rules.add(Rule(rng.choice(blocks[j]), rng.choice(blocks[i])))
    if rng.random() < 0.3:
        rules.add(Rule(rng.choice(names), rng.choice(names)))
    rules.update(Rule(a, a) for a in names if rng.random() < 0.15)
    rules.update(Rule(a) for a in names if rng.random() < 0.2)
    extra = [a for a in NAMES if a not in names][: rng.randint(0, 2)]
    return Program(rules), Alphabet(names + extra)


def partner(rng, p, alphabet):
    """A second program for the uniform decider: the same one, one rule
    fewer, one shortcut more, or an unrelated draw."""
    roll = rng.random()
    if roll < 0.2 or not p:
        return p
    if roll < 0.45:
        return Program(p.rules - {rng.choice(list(p))})
    if roll < 0.7:
        return p | Program([rule(rng.choice(sorted(alphabet)), rng.choice(sorted(alphabet)))])
    return shaped_program(rng)[0]


def check(p, alphabet, q):
    assert star(p, alphabet) == star_oracle(p, alphabet)
    assert star(proper(p), alphabet) == closure_oracle(proper(p), alphabet)
    assert plus(p, alphabet) == plus_oracle(p, alphabet)
    assert uniform_equiv(p, q) == uniform_equiv_oracle(p, q)
    assert uniform_equiv(q, p) == uniform_equiv_oracle(q, p)


def test_empty_program_and_alphabet():
    check(Program(), Alphabet(), Program())
    check(Program(), Alphabet(["a"]), Program([rule("a", "a")]))


def test_sweep_against_oracles():
    rng = random.Random(1072)
    for _ in range(2000):
        p, alphabet = shaped_program(rng)
        check(p, alphabet, partner(rng, p, alphabet))


def test_uniform_equivalence_is_equal_stars():
    """K and L are uniformly equivalent iff K* and L* compose identically
    with every interpretation, and the first interpretation that tells
    them apart is the same: the empty one, or the least single atom."""
    rng = random.Random(1129)
    negative = 0
    for _ in range(600):
        p, alphabet = shaped_program(rng)
        q = partner(rng, p, alphabet)
        a = alphabet | atoms(q)
        verdict = uniform_equiv(p, q)
        assert verdict == ss_equiv_semantic(star(p, a), star(q, a))
        negative += not verdict
    assert 100 < negative < 500


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_sweep_in_narrow_blocks(monkeypatch, width):
    monkeypatch.setattr(algebra, "_WIDTH", width)
    rng = random.Random(1072)
    for _ in range(500):
        p, alphabet = shaped_program(rng)
        check(p, alphabet, partner(rng, p, alphabet))


NAMES_1000 = [Atom(f"x{i:04d}") for i in range(1000)]
CHAIN = Program(Rule(h, b) for b, h in zip(NAMES_1000, NAMES_1000[1:]))
HUB = Program(Rule(NAMES_1000[0], b) for b in NAMES_1000[1:])


def naive_uniform(k, l):
    """The singleton test of ``uniform_equiv``, one ``extend_omega`` at a time."""
    for interp in [Interpretation(), *(Interpretation([x]) for x in sorted(atoms(k | l)))]:
        if extend_omega(k, interp) != extend_omega(l, interp):
            return EquivVerdict(False, interp)
    return EquivVerdict(True)


def test_wide_sparse_inputs():
    alphabet = Alphabet(NAMES_1000)
    assert star(Program(), alphabet) == unit(alphabet)
    assert plus(Program(), alphabet) == Program()
    assert star(HUB, alphabet) == HUB | unit(alphabet)
    assert plus(HUB, alphabet) == HUB
    late = HUB | Program([Rule(NAMES_1000[-1], NAMES_1000[-2])])
    for k, l in [(HUB, late), (late, HUB), (CHAIN, HUB), (CHAIN, CHAIN | late), (HUB, HUB)]:
        assert uniform_equiv(k, l) == naive_uniform(k, l)
    assert uniform_equiv(HUB, late) == EquivVerdict(False, Interpretation([NAMES_1000[-2]]))


def test_different_least_models_need_no_rows(monkeypatch):
    """No reach rows where the least models differ, nor where every rule
    that one program lacks has its head in the shared least model."""
    blocks = []
    rows = algebra._rows

    def spy(edges, parents, block, strict):
        blocks.append(block)
        return rows(edges, parents, block, strict)

    monkeypatch.setattr(algebra, "_rows", spy)
    first, middle, last = NAMES_1000[0], NAMES_1000[500], NAMES_1000[-1]
    with_fact = CHAIN | Program([Rule(middle)])
    assert uniform_equiv(CHAIN, with_fact) == EquivVerdict(False, Interpretation())
    founded = with_fact | Program([Rule(last)])
    inside = founded | Program([Rule(middle, last), Rule(last, first)])
    for k, l in [(CHAIN, CHAIN), (founded, inside), (inside, founded)]:
        assert uniform_equiv(k, l) == EquivVerdict(True)
    assert not blocks
    assert uniform_equiv(CHAIN, CHAIN | Program([Rule(last, first)])) == EquivVerdict(True)
    assert blocks == [[last], [last]]


def naive_pairs(rng):
    """30-150-atom ``random_program`` pairs that differ a lot: half of K
    plus a draw, ``K | K.K``, ``minimize(K)``, K less one rule, and an
    unrelated draw."""
    for _ in range(80):
        n = rng.randint(30, 150)

        def draw():
            rules, facts = rng.randint(n // 2, 3 * n), rng.choice([0, 0, 0.01, 0.05])
            return random_program(GenConfig(n, rules, facts, rng.getrandbits(64)))

        k = draw()
        half = Program(rng.sample(list(k), len(k) // 2)) | draw()
        less = Program(k.rules - {rng.choice(list(k))})
        for l in (half, k | compose(k, k), minimize(k), less, draw()):
            yield k, l


@pytest.mark.parametrize("width", [3, algebra._WIDTH], ids=["narrow", "default"])
def test_heads_of_unshared_rules_decide_beyond_the_oracles(monkeypatch, width):
    monkeypatch.setattr(algebra, "_WIDTH", width)
    rng = random.Random(1741)
    negative = singleton = 0
    for k, l in naive_pairs(rng):
        for a, b in ((k, l), (l, k)):
            expected = naive_uniform(a, b)
            assert uniform_equiv(a, b) == expected
            negative += not expected
            singleton += bool(expected.witness)
    assert 300 < negative < 500 and singleton > 150


@pytest.mark.parametrize("width", [3, algebra._WIDTH], ids=["narrow", "default"])
def test_star_and_plus_beyond_the_oracles(monkeypatch, width):
    """``star`` and ``plus`` of the first 20 programs K of ``naive_pairs``,
    over the atoms of K and its first partner, against a search from every
    atom for the paths and fixpoint iteration for the facts."""
    monkeypatch.setattr(algebra, "_WIDTH", width)
    for k, l in islice(naive_pairs(random.Random(1741)), 0, 100, 5):
        alphabet = atoms(k | l)
        paths = closure_oracle(proper(k), alphabet)
        least = consequences_oracle(k).as_program()
        assert star(k, alphabet) == paths | least
        assert plus(k, alphabet) == compose_oracle(paths, proper(k)) | least


def test_long_chain_needs_no_recursion():
    names = [Atom(f"x{i:05d}") for i in range(20000)]
    chain = Program(Rule(h, b) for b, h in zip(names, names[1:]))
    reverse = Program(Rule(b, h) for b, h in zip(names, names[1:]))
    assert uniform_equiv(chain, chain) == EquivVerdict(True)
    assert uniform_equiv(chain, reverse) == EquivVerdict(False, Interpretation([names[0]]))
