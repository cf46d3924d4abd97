"""Memory and time budgets for wide, sparse inputs to the reachability kernel.

Each case runs in its own child interpreter, one at a time, that caps its
address space at 256 MiB before it imports ``krom``; the parent waits at
most 15 s. Reach rows over these inputs would be mostly empty: ``star`` of
the empty program would build 50,000 rows of up to 50,000 bits, and both
``uniform_equiv`` cases run out of memory under the cap. One search per
atom answers each in linear time and memory, so these cases pin the
choice between the two.
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


def run_within_budget(code):
    """Run ``code`` after the prelude in a capped child; return its stdout."""
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
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_star_of_the_empty_program_over_50k_atoms():
    code = """
alphabet = Alphabet(names[:50000])
print(star(Program(), alphabet) == unit(alphabet))
"""
    assert run_within_budget(code) == "True\n"


def test_uniform_equiv_of_50k_disjoint_pairs():
    code = """
pairs = Program(Rule(h, b) for b, h in zip(names[::2], names[1::2]))
print(len(pairs), uniform_equiv(pairs, pairs))
"""
    assert run_within_budget(code) == "50000 EquivVerdict(equal=True, witness=None)\n"


def test_uniform_equiv_of_a_50k_atom_sink_fan_in():
    code = """
sink = Program(Rule(names[0], b) for b in names[1:50000])
print(len(sink), uniform_equiv(sink, sink))
"""
    assert run_within_budget(code) == "49999 EquivVerdict(equal=True, witness=None)\n"
