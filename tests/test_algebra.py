import itertools
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from krom import (
    Alphabet,
    Atom,
    GenConfig,
    Interpretation,
    Program,
    Rule,
    atoms,
    compose,
    enumerate_programs,
    extend_omega,
    fact,
    facts,
    heads,
    models,
    omega,
    plus,
    power,
    proper,
    random_program,
    reach,
    rule,
    star,
    unit,
)
from oracles import (
    closure_oracle,
    compose_oracle,
    consequences_oracle,
    omega_powers_oracle,
    plus_oracle,
    power_oracle,
    reach_oracle,
    star_oracle,
)

ATOMS5 = [Atom(c) for c in "abcde"]
atoms_st = st.sampled_from(ATOMS5)
rules_st = st.one_of(
    atoms_st.map(Rule),
    st.tuples(atoms_st, atoms_st).map(lambda t: Rule(*t)),
)
programs_st = st.frozensets(rules_st, max_size=8).map(Program)
interps_st = st.frozensets(atoms_st, max_size=5).map(Interpretation)

FULL5 = Alphabet(ATOMS5)


def prog(*pieces):
    """Build a program from compact specs: 'a' is a fact, 'a<-b' a rule."""
    out = []
    for s in pieces:
        if "<-" in s:
            h, b = s.split("<-")
            out.append(rule(h, b))
        else:
            out.append(fact(s))
    return Program(out)


def interp(*names):
    return Interpretation(names)


# ---------------------------------------------------------------- Atom


class TestAtom:
    def test_valid_names(self):
        for name in ["a", "zz", "a1", "aB_2", "x_"]:
            assert Atom(name) == name

    @pytest.mark.parametrize("bad", ["", "A", "1a", "_a", "a-b", "a b", "a.", "ä"])
    def test_invalid_names(self, bad):
        with pytest.raises(ValueError):
            Atom(bad)

    def test_equality_is_by_name(self):
        assert Atom("a") == Atom("a")
        assert Atom("a") != Atom("b")

    def test_lexicographic_order(self):
        assert sorted([Atom("b"), Atom("a"), Atom("ab")]) == ["a", "ab", "b"]

    def test_idempotent_construction(self):
        a = Atom("a")
        assert Atom(a) is a


# ---------------------------------------------------------------- Rule


class TestRule:
    def test_fact_xor_proper(self):
        assert fact("a").is_fact
        assert not rule("a", "b").is_fact

    def test_self_loop_is_legal(self):
        r = rule("a", "a")
        assert r.head == r.body == "a"

    def test_str_forms(self):
        assert str(fact("a")) == "a"
        assert str(rule("a", "b")) == "a :- b"


# ---------------------------------------------------------------- Program


class TestProgram:
    def test_set_semantics(self):
        p = Program([fact("a"), fact("a"), rule("b", "a")])
        assert len(p) == 2
        assert p == Program([rule("b", "a"), fact("a")])

    def test_iteration_sorted_facts_first(self):
        p = Program([rule("b", "a"), rule("a", "c"), fact("c"), fact("a")])
        assert [str(r) for r in p] == ["a", "c", "a :- c", "b :- a"]

    def test_union_and_difference(self):
        k = prog("a", "b<-a")
        l = prog("b<-a", "c")
        assert k | l == prog("a", "c", "b<-a")
        assert k - l == prog("a")

    def test_rejects_non_rules(self):
        with pytest.raises(TypeError, match=r"^not a Rule: 'a'$"):
            Program(["a"])

    def test_rejects_invalid_atoms_inside_rules(self):
        with pytest.raises(ValueError, match=r"^invalid atom name: 'A'$"):
            Program([Rule("A")])
        with pytest.raises(ValueError, match=r"^invalid atom name: 'B'$"):
            Program([Rule("a", "B")])

    def test_hashable(self):
        assert len({prog("a"), prog("a"), prog("b")}) == 2

    def test_contains(self):
        assert fact("a") in prog("a", "b<-a")
        assert rule("a", "b") not in prog("a")

    def test_repr_is_str(self):
        p = prog("b<-a", "a")
        assert str(p) == repr(p) == "Program({a, b :- a})"

    def test_operators_stay_among_programs(self):
        assert Program() != Interpretation()
        p, i = prog("a"), interp("a")
        with pytest.raises(TypeError):
            p | i
        with pytest.raises(TypeError):
            i | p
        with pytest.raises(TypeError):
            p - i
        with pytest.raises(TypeError):
            p <= p
        with pytest.raises(TypeError):
            p & p


# -------------------------------------------- Interpretation / Alphabet


class TestAtomSets:
    def test_program_round_trip(self):
        i = interp("b", "a")
        assert i.as_program() == prog("a", "b")
        assert Interpretation.from_program(prog("a", "b")) == i

    def test_from_program_rejects_proper_rules(self):
        with pytest.raises(ValueError) as err:
            Interpretation.from_program(prog("a", "d<-a", "c<-a", "b<-a"))
        assert str(err.value) == "not a facts-only program: contains b :- a"

    def test_sorted_iteration_and_str(self):
        i = interp("c", "a", "b")
        assert list(i) == ["a", "b", "c"]
        assert str(i) == "{a, b, c}"
        assert str(Interpretation()) == "{}"
        assert repr(interp("b", "a")) == "Interpretation(['a', 'b'])"

    def test_set_operators(self):
        assert interp("a") | interp("b") == interp("a", "b")
        assert interp("a", "b") - interp("b") == interp("a")
        assert interp("a", "b") & interp("b", "c") == interp("b")
        assert interp("a") <= interp("a", "b")
        assert not interp("c") <= interp("a", "b")

    def test_alphabet_and_interpretation_share_behavior(self):
        assert Alphabet(["a"]) | Alphabet(["b"]) == Alphabet(["a", "b"])
        assert interp("a") == Alphabet(["a"])
        assert hash(interp("a")) == hash(Alphabet(["a"]))
        i, a = interp("a"), Alphabet(["b"])
        assert type(i | a) is Interpretation
        assert type(a | i) is Alphabet
        assert type(a - i) is Alphabet
        assert type(i & a) is Interpretation


# ------------------------------------------------- structural partition


def test_atoms_examples():
    assert atoms(prog("a", "b<-c")) == Alphabet(["a", "b", "c"])
    assert atoms(Program()) == Alphabet()
    assert atoms(prog("a<-a")) == Alphabet(["a"])


def test_facts_examples():
    assert facts(prog("a", "b<-c")) == interp("a")
    assert facts(prog("a<-b", "b<-c")) == interp()


def test_facts_equals_composition_with_empty(subtests=None):
    for p in enumerate_programs(Alphabet(["a", "b", "c"]), 3):
        assert facts(p).as_program() == compose(p, Program())


def test_proper_examples():
    assert proper(prog("a", "b<-c")) == prog("b<-c")
    assert proper(prog("a")) == Program()
    assert proper(prog("a<-a")) == prog("a<-a")


def test_heads_examples():
    assert heads(prog("a", "b<-c")) == interp("a", "b")
    assert heads(Program()) == interp()
    assert heads(prog("a<-b", "a<-c")) == interp("a")


def test_partition_covers_program():
    for p in enumerate_programs(Alphabet(["a", "b"]), 3):
        assert facts(p).as_program() | proper(p) == p
        assert facts(p).as_program() - proper(p) == facts(p).as_program()


# ----------------------------------------------------------- compose


class TestCompose:
    def test_rule_fires_on_fact(self):
        assert compose(prog("a<-b"), prog("b")) == prog("a")

    def test_interpretation_absorbs_right_factor(self):
        assert compose(prog("a"), prog("b<-c")) == prog("a")

    def test_empty_right_factor_keeps_facts(self):
        assert compose(prog("a", "b<-c"), Program()) == prog("a")

    def test_rules_chain(self):
        assert compose(prog("a<-b"), prog("b<-c")) == prog("a<-c")

    @given(programs_st, programs_st)
    def test_matches_pairwise_enumeration_oracle(self, k, l):
        assert compose(k, l) == compose_oracle(k, l)

    def test_matches_oracle_where_many_joins_meet(self):
        # Pairs where many join paths reach one output rule: complete
        # digraphs, dense draws, facts on both sides, self-loops and the
        # unit on either side.
        rng = random.Random(1604)
        for n in range(3, 7):
            names = [Atom(f"v{i}") for i in range(n)]
            alphabet = Alphabet(names)
            complete = Program(Rule(h, b) for h in names for b in names)
            facts_k = Program(Rule(a) for a in names[::2])
            facts_l = Program(Rule(a) for a in names[1:])
            loops = Program(Rule(a, a) for a in names)
            dense = [
                random_program(GenConfig(n, rng.randint(n * n // 2, n + n * n),
                                         rng.random(), rng.randrange(2**32)))
                for _ in range(6)
            ]
            # random_program names its atoms x1..xn.
            dense_alphabet = Alphabet(f"x{i}" for i in range(1, n + 1))
            pairs = [
                (complete, complete),
                (complete | facts_k, complete | facts_l),
                (complete | facts_l, loops | facts_k),
                (loops, complete | facts_k),
                (unit(alphabet), complete | facts_l),
                (complete | facts_k, unit(alphabet)),
            ]
            pairs += [(k, l) for k in dense for l in dense]
            pairs += [(unit(dense_alphabet), d) for d in dense]
            pairs += [(d, unit(dense_alphabet)) for d in dense]
            for k, l in pairs:
                got = compose(k, l)
                assert got == compose_oracle(k, l), (k, l)
                assert all(type(r) is Rule for r in got.rules)
            assert compose(complete, complete) == complete


# ----------------------------------------------------------- unit


class TestUnit:
    def test_definition(self):
        assert unit(Alphabet(["a", "b"])) == prog("a<-a", "b<-b")
        assert unit(Alphabet()) == Program()

    def test_left_identity_example(self):
        assert compose(unit(Alphabet(["a", "b"])), prog("a<-b")) == prog("a<-b")

    def test_right_identity_example(self):
        assert compose(prog("a"), unit(Alphabet(["a"]))) == prog("a")

    @given(programs_st)
    def test_two_sided_identity_law(self, p):
        one = unit(FULL5)
        assert compose(one, p) == p
        assert compose(p, one) == p


# ----------------------------------------------------------- power


class TestPower:
    def test_square_of_chain(self):
        assert power(prog("a<-b", "b<-c"), 2, Alphabet(["a", "b", "c"])) == prog("a<-c")

    def test_first_power_is_the_program(self):
        for p in enumerate_programs(Alphabet(["a", "b"]), 2):
            assert power(p, 1, Alphabet(["a", "b"])) == p

    def test_zeroth_power_is_unit(self):
        a = Alphabet(["a", "b"])
        assert power(prog("a<-b"), 0, a) == unit(a)

    def test_square_expansion(self):
        # K . K = facts(K) | proper(K) . facts(K) | proper(K)^2
        a = Alphabet(["a", "b", "c"])
        for p in enumerate_programs(a, 3):
            f = facts(p).as_program()
            expected = f | compose(proper(p), f) | power(proper(p), 2, a)
            assert power(p, 2, a) == expected

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            power(prog("a"), -1, Alphabet(["a"]))

    @pytest.mark.parametrize("n", [sys.maxsize + 1, 2**64, 10**20])
    def test_rejects_exponent_past_maxsize(self, n):
        # itertools.repeat takes no count past sys.maxsize; the error names
        # the exponent instead of raising OverflowError.
        with pytest.raises(ValueError) as exc:
            power(prog("a"), n, Alphabet(["a"]))
        assert str(exc.value) == f"exponent must be at most {sys.maxsize}, got {n}"

    @pytest.mark.parametrize(
        "n, message",
        [
            (0.0, "exponent must be an int, got 0.0"),
            (1.0, "exponent must be an int, got 1.0"),
            ("3", "exponent must be an int, got '3'"),
            (None, "exponent must be an int, got None"),
        ],
    )
    def test_rejects_non_int_exponent(self, n, message):
        with pytest.raises(TypeError) as exc:
            power(prog("a<-b"), n, Alphabet(["a", "b"]))
        assert str(exc.value) == message

    def test_bool_exponent_is_an_int(self):
        a = Alphabet(["a", "b"])
        assert power(prog("a<-b"), False, a) == unit(a)
        assert power(prog("a<-b"), True, a) == prog("a<-b")

    def test_exponent_law(self):
        # P^(m+n) = P^m . P^n, with the unit P^0 on either side.
        rng = random.Random(1401)
        universe = [(h, b) for h in ATOMS5 for b in [None, *ATOMS5]]
        for _ in range(40):
            p = Program(Rule(*r) for r in rng.sample(universe, rng.randint(0, 8)))
            powers = [power(p, n, FULL5) for n in range(11)]
            for m in range(6):
                for n in range(6):
                    assert powers[m + n] == compose(powers[m], powers[n]), (p, m, n)

    def test_rejects_uncovered_atoms(self):
        with pytest.raises(ValueError, match=r"^program atoms not in the alphabet: b$"):
            power(prog("a<-b"), 2, Alphabet(["a"]))
        with pytest.raises(ValueError, match=r"^program atoms not in the alphabet: a, c, d$"):
            power(prog("c", "a<-b", "b<-d"), 2, Alphabet(["b"]))

    @given(programs_st, st.integers(min_value=0, max_value=4))
    def test_matches_iterated_oracle(self, p, n):
        assert power(p, n, FULL5) == power_oracle(p, n, FULL5)


# ----------------------------------------------------------- star / plus


class TestStar:
    def test_chain_closure(self):
        got = star(prog("a<-b", "b<-c"), Alphabet(["a", "b", "c"]))
        assert got == prog("a<-a", "b<-b", "c<-c", "a<-b", "b<-c", "a<-c")

    def test_empty_program_gives_unit(self):
        assert star(Program(), Alphabet(["a"])) == prog("a<-a")

    def test_fact_program(self):
        assert star(prog("a"), Alphabet(["a", "b"])) == prog("a<-a", "b<-b", "a")

    def test_rejects_uncovered_atoms(self):
        with pytest.raises(ValueError, match=r"^program atoms not in the alphabet: a$"):
            star(prog("a<-b"), Alphabet(["b"]))
        with pytest.raises(ValueError, match=r"^program atoms not in the alphabet: a, c, d$"):
            star(prog("c", "a<-b", "b<-d"), Alphabet(["b"]))

    def test_matches_reflexive_transitive_closure_on_proper_programs(self):
        rng = random.Random(4217)
        names = [Atom(c) for c in "abcd"]
        a = Alphabet(names)
        for _ in range(300):
            p = Program(
                rule(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 6))
            )
            assert star(p, a) == closure_oracle(p, a)

    @given(programs_st)
    def test_matches_power_union_oracle(self, p):
        assert star(p, FULL5) == star_oracle(p, FULL5)

    @given(programs_st)
    def test_idempotent_as_closure(self, p):
        once = star(p, FULL5)
        assert star(once, FULL5) == once


class TestPlus:
    def test_chain(self):
        got = plus(prog("a<-b", "b<-c"), Alphabet(["a", "b", "c"]))
        assert got == prog("a<-b", "b<-c", "a<-c")

    def test_empty_program(self):
        assert plus(Program(), Alphabet(["a"])) == Program()

    def test_fact_program(self):
        assert plus(prog("a"), Alphabet(["a"])) == prog("a")

    def test_rejects_uncovered_atoms(self):
        with pytest.raises(ValueError, match=r"^program atoms not in the alphabet: a$"):
            plus(prog("a<-b"), Alphabet(["b"]))
        with pytest.raises(ValueError, match=r"^program atoms not in the alphabet: a, c, d$"):
            plus(prog("c", "a<-b", "b<-d"), Alphabet(["b"]))

    @given(programs_st)
    def test_matches_oracle(self, p):
        assert plus(p, FULL5) == plus_oracle(p, FULL5)


# ----------------------------------------------------------- omega


class TestOmega:
    def test_chain_from_fact(self):
        assert omega(prog("a", "b<-a", "c<-b")) == interp("a", "b", "c")

    def test_cycle_without_facts_is_empty(self):
        assert omega(prog("a<-b", "b<-a")) == interp()

    def test_facts_only(self):
        assert omega(prog("a")) == interp("a")

    @given(programs_st)
    def test_matches_consequence_iteration(self, p):
        assert omega(p) == consequences_oracle(p)

    @given(programs_st)
    def test_matches_union_of_power_facts(self, p):
        assert omega(p) == omega_powers_oracle(p)

    def test_is_the_unique_least_model_exhaustively(self):
        # Full 2^|A| model enumeration over every small program.
        universe = [Atom(c) for c in "abc"]
        for p in enumerate_programs(Alphabet(universe), 3):
            mods = []
            for size in range(4):
                for combo in itertools.combinations(universe, size):
                    i = Interpretation(combo)
                    if models(i, p):
                        mods.append(i)
            least = omega(p)
            assert models(least, p)
            assert all(least <= m for m in mods)
            assert least in mods


# ----------------------------------------------------------- models


class TestModels:
    def test_satisfied_program(self):
        assert models(interp("a", "b"), prog("a", "b<-a"))

    def test_missing_fact(self):
        assert not models(interp(), prog("a"))

    def test_rule_clause(self):
        assert not models(interp("b"), prog("a<-b"))
        assert models(interp("a", "b"), prog("a<-b"))
        assert models(interp(), prog("a<-b"))

    def test_models_are_the_fixpoints_of_extend_omega(self):
        # I models P iff adding I to P as facts derives nothing outside I,
        # iff the heads of P . I lie in I; an Alphabet gets the answer of
        # the equal Interpretation.
        universe = Alphabet("abc")
        interps = [
            Interpretation(combo)
            for size in range(4)
            for combo in itertools.combinations(universe, size)
        ]
        for p in enumerate_programs(universe, 3):
            for i in interps:
                expected = extend_omega(p, i) == i
                assert models(i, p) == expected, (p, i)
                assert models(i, p) == (heads(compose(p, i.as_program())) <= i), (p, i)
                assert models(Alphabet(i), p) == expected, (p, i)


# ----------------------------------------------------------- reach


class TestReach:
    def test_chain(self):
        assert reach(prog("a<-b", "b<-c"), interp("c")) == interp("a", "b", "c")

    def test_empty_seed(self):
        assert reach(prog("a<-b"), interp()) == interp()

    def test_foreign_atom_is_isolated(self):
        assert reach(prog("a<-b"), interp("x")) == interp("x")

    def test_rejects_facts(self):
        with pytest.raises(ValueError) as err:
            reach(prog("c", "b", "a", "d<-a"), interp("a"))
        assert str(err.value) == "expected a proper-rules-only program, found fact a"

    @given(programs_st, interps_st)
    def test_monotone_and_idempotent(self, p, i):
        pp = proper(p)
        r = reach(pp, i)
        assert i <= r
        assert reach(pp, r) == r

    @given(programs_st, interps_st)
    def test_matches_fixpoint_oracle(self, p, i):
        pp = proper(p)
        assert reach(pp, i) == reach_oracle(pp, i)

    @given(programs_st, interps_st)
    def test_equals_star_composed_with_seed(self, p, i):
        pp = proper(p)
        a = atoms(pp) | Alphabet(i.atoms)
        via_star = compose(star(pp, Alphabet(a.atoms)), i.as_program())
        assert reach(pp, i) == Interpretation.from_program(via_star)


# ----------------------------------------------------------- extend_omega


class TestExtendOmega:
    def test_bridge_through_added_fact(self):
        assert extend_omega(prog("a", "c<-b"), interp("b")) == interp("a", "b", "c")

    def test_empty_extension_is_omega(self):
        for p in enumerate_programs(Alphabet(["a", "b"]), 2):
            assert extend_omega(p, interp()) == omega(p)

    def test_single_edge(self):
        assert extend_omega(prog("b<-a"), interp("a")) == interp("a", "b")

    @given(programs_st, interps_st)
    def test_equals_omega_of_union(self, p, i):
        assert extend_omega(p, i) == omega(p | i.as_program())


# ------------------------------------------------------ algebraic laws


class TestAlgebraicLaws:
    def test_right_absorption_exhaustive(self):
        # composing an interpretation with anything returns the interpretation
        universe = [Atom(c) for c in "abc"]
        seeds = [Interpretation(c) for size in range(4)
                 for c in itertools.combinations(universe, size)]
        for i in seeds:
            for k in enumerate_programs(Alphabet(universe), 2):
                assert compose(i.as_program(), k) == i.as_program()

    @given(programs_st, programs_st, programs_st)
    def test_composition_distributes_over_union(self, k, l, m):
        assert compose(k | l, m) == compose(k, m) | compose(l, m)
        assert compose(m, k | l) == compose(m, k) | compose(m, l)

    def test_associativity_exhaustive_two_atoms(self):
        ps = list(enumerate_programs(Alphabet(["a", "b"]), 2))
        for k in ps:
            for l in ps:
                for m in ps:
                    assert compose(compose(k, l), m) == compose(k, compose(l, m))

    @given(programs_st, programs_st, programs_st)
    def test_associativity_randomized(self, k, l, m):
        assert compose(compose(k, l), m) == compose(k, compose(l, m))

    def test_power_closed_form(self):
        # K^n = facts | proper^n | union of proper^i . facts for 0 < i < n
        rng = random.Random(91)
        names = [Atom(c) for c in "abcd"]
        a = Alphabet(names)
        for _ in range(120):
            p = Program(
                rule(rng.choice(names), rng.choice(names))
                if rng.random() < 0.7
                else fact(rng.choice(names))
                for _ in range(rng.randint(0, 7))
            )
            f = facts(p).as_program()
            pp = proper(p)
            for n in range(1, 7):
                expected = f | power(pp, n, a)
                for i in range(1, n):
                    expected = expected | compose(power(pp, i, a), f)
                assert power(p, n, a) == expected

    def test_union_extension_power_expansion(self):
        # (K | I)^n = K^n | union of K^j . I for 0 <= j < n
        universe = [Atom(c) for c in "ab"]
        a = Alphabet(universe)
        seeds = [Interpretation(c) for size in range(3)
                 for c in itertools.combinations(universe, size)]
        for k in enumerate_programs(a, 2):
            for i in seeds:
                for n in range(1, 6):
                    lhs = power(k | i.as_program(), n, a)
                    rhs = power(k, n, a)
                    for j in range(n):
                        rhs = rhs | compose(power(k, j, a), i.as_program())
                    assert lhs == rhs
