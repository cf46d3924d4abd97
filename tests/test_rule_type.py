"""Every rule the library hands out is a ``Rule``.

A bare ``(head, body)`` tuple hashes and compares equal to the ``Rule`` with
the same fields, so a program holding one passes every equality test in
the suite while ``str(r)``, ``render`` and ``r.is_fact`` break on it. These
tests look at the type of each member of the outputs of the operations
that build programs, over the hypothesis strategies of ``test_algebra``,
the seeded shapes of ``test_kernel`` (with reach rows in narrow blocks and
in blocks of the default width) and seeded ``random_program`` draws. The
same sweeps check that every output agrees with the program the public
constructor builds from its rules.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from krom import (
    Alphabet,
    GenConfig,
    Program,
    Rule,
    compose,
    minimize,
    omega,
    parse,
    plus,
    power,
    proper,
    random_program,
    render,
    star,
    unit,
)
from krom import algebra
from test_algebra import FULL5, programs_st
from test_kernel import NAMES_1000, partner, shaped_program


def assert_rules(program: Program) -> None:
    bad = [r for r in program.rules if type(r) is not Rule]
    assert not bad, bad[:3]


def assert_consistent(program: Program) -> None:
    """A program equals, hashes like and is as long as the one the public
    constructor builds from its rules, whichever path built it."""
    rules = program.rules
    assert program == Program(rules)
    assert hash(program) == hash(Program(rules))
    assert len(program) == len(rules)
    again = program.rules
    assert again == rules and all(type(r) is Rule for r in again)


def assert_outputs(p: Program, q: Program, alphabet: Alphabet) -> None:
    for out in (
        compose(p, q),
        compose(q, p),
        compose(unit(alphabet), p),
        power(p, 3, alphabet),
        star(p, alphabet),
        plus(p, alphabet),
        unit(alphabet),
        omega(p).as_program(),
        minimize(p),
        parse(render(p)),
        p | q,
        p - q,
        proper(p),
    ):
        assert_rules(out)
        assert_consistent(out)


@given(programs_st, programs_st, st.integers(min_value=0, max_value=4))
def test_hypothesis_sweep(k, l, n):
    assert_outputs(k, l, FULL5)
    assert_rules(power(k, n, FULL5))


@pytest.mark.parametrize("width", [3, algebra._WIDTH], ids=["narrow", "default"])
def test_seeded_sweep_in_blocks_of_reach_rows(monkeypatch, width):
    monkeypatch.setattr(algebra, "_WIDTH", width)
    rng = random.Random(1072)
    for _ in range(300):
        p, alphabet = shaped_program(rng)
        assert_outputs(p, partner(rng, p, alphabet), alphabet)


def test_wide_sparse_outputs():
    alphabet = Alphabet(NAMES_1000)
    hub = Program(Rule(NAMES_1000[0], b) for b in NAMES_1000[1:])
    for out in (star(hub, alphabet), plus(hub, alphabet), star(Program(), alphabet)):
        assert_rules(out)
        assert_consistent(out)


def test_random_program_and_parse():
    rng = random.Random(1603)
    for _ in range(100):
        n = rng.randint(1, 8)
        config = GenConfig(n, rng.randint(0, n + n * n), rng.random(), rng.randrange(2**32))
        p = random_program(config)
        for out in (p, parse(render(p)), compose(p, p)):
            assert_rules(out)
            assert_consistent(out)
    assert_rules(parse("a. b :- a. % comment\nc :- c."))
