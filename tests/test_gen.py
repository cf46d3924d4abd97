import math
import random

import pytest

from krom import (
    Alphabet,
    GenConfig,
    Program,
    enumerate_programs,
    fact,
    parse,
    random_program,
    render,
    rule,
)
from oracles import admitted, random_program_oracle


class TestGenConfig:
    def test_accepts_reasonable_values(self):
        GenConfig(atom_count=3, rule_count=12, fact_ratio=0.25, seed=99)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(atom_count=0, rule_count=0), "atom_count must be positive, got 0"),
            (dict(atom_count=-1, rule_count=0), "atom_count must be positive, got -1"),
            (dict(atom_count=2, rule_count=-1), "rule_count must be non-negative, got -1"),
            (dict(atom_count=2, rule_count=7),  # universe over 2 atoms is 6
             "rule_count 7 exceeds the rule universe (6) over 2 atoms"),
            (dict(atom_count=2, rule_count=2, fact_ratio=-0.1),
             "fact_ratio must lie in [0, 1], got -0.1"),
            (dict(atom_count=2, rule_count=2, fact_ratio=1.5),
             "fact_ratio must lie in [0, 1], got 1.5"),
            (dict(atom_count=2, rule_count=2, seed=-1),
             "seed must be a 64-bit unsigned integer"),
            (dict(atom_count=2, rule_count=2, seed=2**64),
             "seed must be a 64-bit unsigned integer"),
        ],
        ids=[f"kwargs{i}" for i in range(8)],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError) as excinfo:
            GenConfig(**kwargs)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "args, message",
        [
            ((2, 1.5), "rule_count must be an int, got 1.5"),
            ((2.5, 1), "atom_count must be an int, got 2.5"),
            (("3", 1), "atom_count must be an int, got '3'"),
            ((2, 1, 0.5, 1.0), "seed must be an int, got 1.0"),
            ((2, None), "rule_count must be an int, got None"),
        ],
    )
    def test_rejects_non_int_counts_and_seed(self, args, message):
        with pytest.raises(TypeError) as excinfo:
            GenConfig(*args)
        assert str(excinfo.value) == message

    def test_positional_construction_and_repr(self):
        assert GenConfig(3, 4) == GenConfig(atom_count=3, rule_count=4, fact_ratio=0.5, seed=0)
        assert repr(GenConfig(3, 4)) == (
            "GenConfig(atom_count=3, rule_count=4, fact_ratio=0.5, seed=0)"
        )

    def test_equal_configs_hash_equal(self):
        assert GenConfig(3, 4, 0.25, 9) == GenConfig(3, 4, 0.25, 9)
        assert hash(GenConfig(3, 4, 0.25, 9)) == hash(GenConfig(3, 4, 0.25, 9))
        assert GenConfig(3, 4) != GenConfig(3, 5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            GenConfig(3, 4).seed = 1

    def test_replace_validates(self):
        assert GenConfig(3, 4)._replace(seed=5) == GenConfig(3, 4, seed=5)
        with pytest.raises(ValueError, match="atom_count must be positive, got 0"):
            GenConfig(3, 4)._replace(atom_count=0)


class TestRandomProgram:
    def test_zero_rules(self):
        assert random_program(GenConfig(atom_count=3, rule_count=0, seed=7)) == Program()

    def test_same_config_same_program(self):
        cfg = GenConfig(atom_count=5, rule_count=12, fact_ratio=0.3, seed=123)
        assert random_program(cfg) == random_program(cfg)
        assert render(random_program(cfg)) == render(random_program(cfg))

    def test_different_seeds_usually_differ(self):
        outputs = {
            random_program(GenConfig(atom_count=4, rule_count=8, seed=s)) for s in range(20)
        }
        assert len(outputs) > 10

    @pytest.mark.parametrize("fact_ratio,seed", [(0.0, 1), (0.5, 2), (1.0, 3)])
    def test_saturating_rule_count_fills_the_universe(self, fact_ratio, seed):
        cfg = GenConfig(atom_count=2, rule_count=6, fact_ratio=fact_ratio, seed=seed)
        expected = Program(
            [fact("x1"), fact("x2"),
             rule("x1", "x1"), rule("x1", "x2"), rule("x2", "x1"), rule("x2", "x2")]
        )
        assert random_program(cfg) == expected

    def test_rule_count_is_exact(self):
        for m in range(0, 13):
            p = random_program(GenConfig(atom_count=3, rule_count=m, seed=5))
            assert len(p) == m

    def test_fact_ratio_one_draws_facts_first(self):
        p = random_program(GenConfig(atom_count=4, rule_count=4, fact_ratio=1.0, seed=9))
        assert all(r.is_fact for r in p)

    def test_fact_ratio_zero_draws_proper_rules_only(self):
        p = random_program(GenConfig(atom_count=4, rule_count=16, fact_ratio=0.0, seed=9))
        assert not any(r.is_fact for r in p)

    def test_matches_the_eager_pool_oracle(self):
        rng = random.Random(17)
        for _ in range(2500):
            n = rng.randint(1, 12)
            universe = n + n * n
            cfg = GenConfig(
                atom_count=n,
                rule_count=rng.choice([universe, rng.randint(0, universe)]),
                fact_ratio=rng.choice([0.0, 1.0, rng.random()]),
                seed=rng.getrandbits(64),
            )
            got = random_program(cfg)
            assert got == random_program_oracle(cfg), cfg
            assert admitted(got), cfg

    def test_outputs_round_trip(self):
        for seed in range(30):
            p = random_program(GenConfig(atom_count=4, rule_count=10, seed=seed))
            assert parse(render(p)) == p


class TestEnumeratePrograms:
    def test_single_atom_universe(self):
        got = list(enumerate_programs(Alphabet(["a"]), 1))
        assert got == [Program(), Program([fact("a")]), Program([rule("a", "a")])]

    def test_empty_alphabet(self):
        assert list(enumerate_programs(Alphabet(), 4)) == [Program()]

    def test_zero_rules(self):
        assert list(enumerate_programs(Alphabet(["a", "b"]), 0)) == [Program()]

    @pytest.mark.parametrize("n,max_rules", [(1, 2), (2, 3), (3, 4)])
    def test_count_matches_binomial_sum(self, n, max_rules):
        u = n + n * n
        expected = sum(math.comb(u, k) for k in range(max_rules + 1))
        programs = list(enumerate_programs(Alphabet(f"x{i}" for i in range(n)), max_rules))
        assert len(programs) == expected
        assert all(admitted(p) for p in programs)

    def test_programs_are_unique_and_deterministic(self):
        a = Alphabet(["a", "b"])
        first = list(enumerate_programs(a, 2))
        second = list(enumerate_programs(a, 2))
        assert first == second
        assert len(set(first)) == len(first)

    def test_guards(self):
        with pytest.raises(ValueError):
            next(enumerate_programs(Alphabet(["a", "b", "c", "d"]), 2))
        with pytest.raises(ValueError):
            next(enumerate_programs(Alphabet(["a"]), 5))
        with pytest.raises(ValueError):
            next(enumerate_programs(Alphabet(["a"]), -1))
