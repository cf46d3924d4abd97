"""Memory and time budgets for wide inputs to the reachability kernel and for
the entry points that read, write or enumerate many atoms.

Each case runs in its own child interpreter, one at a time, that caps its
address space at 256 MiB before it imports ``krom``; the parent waits at
most 15 s. The kernel builds reach rows one block of at most 8,192
targets at a time, over just the atoms that reach the block: the alphabet
for ``star`` and ``plus``, and for ``uniform_equiv`` the heads of the rules
that one program has and the other lacks, less the shared least model. A
program compared with itself has no such heads and needs no rows at all;
the pairs that differ, from one rule up to every atom, pin the memory of
the blocks. ``compose`` of a dense program with itself is linear in its
join results, and its peak memory pins that each distinct output rule is
made once, as the join reaches it. The rest are linear in their input or
refuse it before they enumerate anything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LIMIT = 256 * 2**20
SECONDS = 15
PRELUDE = f"""\
import resource
resource.setrlimit(resource.RLIMIT_AS, ({LIMIT}, {LIMIT}))
from krom import *
names = [Atom(f"x{{i:06d}}") for i in range(100000)]
"""


def run_within_budget(code, returncode=0):
    """Run ``code`` after the prelude in a capped child that must exit with
    ``returncode``; return the finished process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        done = subprocess.run(
            [sys.executable, "-c", PRELUDE + code],
            env=env,
            capture_output=True,
            text=True,
            timeout=SECONDS,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"over {SECONDS} s")
    assert done.returncode == returncode, done.stderr
    return done


def run_cli_within_budget(*argv, returncode=0):
    """Run ``krom *argv`` in a capped child; return the finished process."""
    code = f"import sys\nfrom krom.cli import main\nsys.exit(main({list(argv)!r}))\n"
    return run_within_budget(code, returncode)


def test_star_of_the_empty_program_over_50k_atoms():
    code = """
alphabet = Alphabet(names[:50000])
print(star(Program(), alphabet) == unit(alphabet))
"""
    assert run_within_budget(code).stdout == "True\n"


def test_uniform_equiv_of_50k_disjoint_pairs():
    code = """
pairs = Program(Rule(h, b) for b, h in zip(names[::2], names[1::2]))
print(len(pairs), uniform_equiv(pairs, pairs))
"""
    assert run_within_budget(code).stdout == "50000 EquivVerdict(equal=True, witness=None)\n"


def test_uniform_equiv_of_a_50k_atom_sink_fan_in():
    code = """
sink = Program(Rule(names[0], b) for b in names[1:50000])
print(len(sink), uniform_equiv(sink, sink))
"""
    assert run_within_budget(code).stdout == "49999 EquivVerdict(equal=True, witness=None)\n"


PAIRS = "pairs = Program(Rule(h, b) for b, h in zip(names[::2], names[1::2]))\n"
SINK = "sink = Program(Rule(names[0], b) for b in names[1:50000])\n"
BOTH_ORDERS = "print(uniform_equiv(k, l))\nprint(uniform_equiv(l, k))\n"


def verdicts(witness):
    line = "EquivVerdict(equal=True, witness=None)\n" if witness is None else (
        f"EquivVerdict(equal=False, witness=Interpretation(['{witness}']))\n"
    )
    return line * 2


def test_uniform_equiv_of_50k_disjoint_pairs_less_one_rule():
    code = PAIRS + "k, l = pairs, pairs - Program([Rule(names[99999], names[99998])])\n"
    assert run_within_budget(code + BOTH_ORDERS).stdout == verdicts("x099998")


def test_uniform_equiv_of_a_50k_atom_sink_plus_one_edge():
    code = SINK + "k, l = sink, sink | Program([Rule(names[1], names[0])])\n"
    assert run_within_budget(code + BOTH_ORDERS).stdout == verdicts("x000000")


def test_uniform_equiv_of_a_100k_chain_and_far_shortcuts():
    # The shortcuts all lead into the chain's last atom, so the rows hold
    # one bit each; rows over the whole universe would take about 1.25 GB.
    code = """
k = Program(Rule(h, b) for b, h in zip(names, names[1:]))
l = k | Program(Rule(names[-1], b) for b in names[:-2])
"""
    assert run_within_budget(code + BOTH_ORDERS).stdout == verdicts(None)


def test_star_and_plus_of_a_50k_atom_sink():
    code = SINK + """
alphabet = Alphabet(names[:50000])
print(star(sink, alphabet) == sink | unit(alphabet), plus(sink, alphabet) == sink)
"""
    assert run_within_budget(code).stdout == "True True\n"


def test_uniform_equiv_of_50k_disjoint_pairs_and_their_reverse():
    # Every atom is the head of a rule only one program has.
    code = PAIRS + "k, l = pairs, Program(Rule(b, h) for h, b in pairs)\n"
    assert run_within_budget(code + BOTH_ORDERS).stdout == verdicts("x000000")


def test_compose_of_100k_dense_rules_with_itself():
    # 9,906,316 join results meet in 1,000,935 output rules. A Rule is made
    # for each distinct one as the join runs: the child peaks at about
    # 168 MiB, where collecting plain pairs first and making the Rules
    # afterwards peaks at about 251 MiB.
    code = """
p = random_program(GenConfig(1000, 100000, 0.01, 5))
q = compose(p, p)
print(len(p), len(q), len(facts(q)))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024 < 200)
"""
    assert run_within_budget(code).stdout == "100000 1000935 1000\nTrue\n"


def test_gen_of_one_rule_over_100k_atoms():
    done = run_cli_within_budget("gen", "--atoms", "100000", "--rules", "1")
    assert done.stdout.count("\n") == 1 and done.stdout.endswith(".\n")


def test_parse_and_render_of_100k_rules():
    code = """
p = Program([Rule(names[0]), *(Rule(h, b) for b, h in zip(names, names[1:]))])
print(len(p), parse(render(p)) == p)
"""
    assert run_within_budget(code).stdout == "100000 True\n"


def test_oracle_refuses_30k_atoms(tmp_path):
    wide = tmp_path / "wide.lp"
    wide.write_text("".join(f"b{i} :- a{i}.\n" for i in range(15000)))
    other = tmp_path / "other.lp"
    other.write_text("c.\n")
    done = run_cli_within_budget(
        "equiv", "--mode", "uniform", "--oracle", str(wide), str(other), returncode=2
    )
    assert done.stdout == ""
    assert done.stderr == "error: 30001 atoms exceed the enumeration bound of 20\n"


@pytest.mark.parametrize(
    ("extra", "returncode"), [("zz :- zy.\n", 0), ("zz.\n", 1)], ids=["fresh-rule", "fresh-fact"]
)
def test_lm_equiv_of_100k_rules_and_one_more(tmp_path, extra, returncode):
    chain = "x000000.\n" + "".join(f"x{i + 1:06d} :- x{i:06d}.\n" for i in range(99999))
    base, more = tmp_path / "base.lp", tmp_path / "more.lp"
    base.write_text(chain)
    more.write_text(chain + extra)
    expected = "equivalent\n" if returncode == 0 else "not equivalent\n"
    for pair in ((base, more), (more, base)):
        argv = ("equiv", "--mode", "lm", *map(str, pair))
        done = run_cli_within_budget(*argv, returncode=returncode)
        assert (done.stdout, done.stderr) == (expected, "")
