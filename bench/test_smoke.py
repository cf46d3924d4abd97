"""The benchmark's own tests.

    python -m pytest -q bench

The smoke run executes every workload at tiny sizes with all output checks
and two traced passes. The reference tests pin the benchmark's independent
answers to krom and to the naive oracles in ``tests/oracles.py`` on small
random programs, so a wrong reference cannot hide a wrong krom.
"""

import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), ROOT]

import krom  # noqa: E402
import reference as ref  # noqa: E402
from tests import oracles  # noqa: E402


def _rules(program):
    return frozenset((r.head, r.body) for r in program.rules)


def _small_programs(count=60):
    rng = random.Random(7)
    for _ in range(count):
        n = rng.randint(1, 5)
        config = krom.GenConfig(n, rng.randint(0, n + n * n), rng.random(), rng.getrandbits(32))
        yield config, krom.random_program(config)


def test_smoke_run_passes():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "minimize", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_generator_replays_random_program():
    for config, program in _small_programs():
        expected = ref.random_program(config.atom_count, config.rule_count, config.fact_ratio, config.seed)
        assert expected == _rules(program)
        assert ref.render(expected) == krom.render(program)


def test_reference_closures_match_oracles():
    for _, program in _small_programs():
        rules, alphabet = _rules(program), krom.atoms(program)
        assert ref.star(rules, alphabet) == _rules(oracles.star_oracle(program, alphabet))
        assert ref.plus(rules, alphabet) == _rules(oracles.plus_oracle(program, alphabet))
        assert ref.least_model(rules) == oracles.consequences_oracle(program).atoms
        assert ref.compose(rules, rules) == _rules(oracles.compose_oracle(program, program))
        assert ref.dot(rules) == krom.to_dot(program)


def test_reference_minimize_matches_krom_and_oracle():
    for _, program in _small_programs():
        kept = ref.minimize(_rules(program))
        assert kept == _rules(krom.minimize(program))
        assert krom.uniform_equiv_oracle(program, krom.Program(krom.Rule(*r) for r in kept)).equal


def test_closed_forms_match_oracles():
    names = ref.chain_names("a", 5)
    chain, cycle = ref.chain(names), ref.cycle(names)
    alphabet = krom.Alphabet(names)

    def prog(rules):
        return krom.Program(krom.Rule(*r) for r in rules)

    assert ref.chain_closure(names, True) == _rules(oracles.star_oracle(prog(chain), alphabet))
    assert ref.chain_closure(names, False) == _rules(oracles.plus_oracle(prog(chain), alphabet))
    assert ref.cycle_closure(names) == _rules(oracles.star_oracle(prog(cycle), alphabet))
    assert ref.cycle_closure(names) == _rules(oracles.plus_oracle(prog(cycle), alphabet))
    for n in range(8):
        assert ref.cycle_power(names, n) == _rules(oracles.power_oracle(prog(cycle), n, alphabet))
