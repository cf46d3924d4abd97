"""Golden corpus for the ``krom`` command line.

A seeded corpus of a few hundred argv runs in-process through
``krom.cli.main`` with captured streams. It covers all ten subcommands:
``--alphabet`` wider than the program and missing some of its atoms,
``--oracle``, ``-`` for stdin, and missing, unparsable and non-UTF-8 files.
Exit codes 0 to 2 come from the inputs, and 3 from a library function
rebound on ``krom.cli`` to raise ``InternalError``. Each subcommand's
records, (argv, stdin, rebound function, exit code, stdout, stderr) in
corpus order, hash to one SHA-256 pinned in ``cli_pins.json``. Paths are
written as ``<tmp>`` there, so the pins do not depend on the directory the
files land in.

Every output that ``tests/oracles.py`` can predict is checked against it
as well, on inputs read by ``parse_oracle``, so the pins hold outputs that
are right and not only outputs that were seen once. A deliberate change
of the CLI's bytes re-records the pins:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

import krom.cli as cli
from krom import Alphabet, GenConfig, InternalError, Interpretation, Program, Rule
from oracles import (
    compose_oracle,
    consequences_oracle,
    minimize_oracle,
    parse_oracle,
    plus_oracle,
    power_oracle,
    random_program_oracle,
    star_oracle,
)

PINS = Path(__file__).with_name("cli_pins.json")
TMP = "<tmp>"
SEED = 1603
COMMANDS = ["lm", "compose", "power", "star", "plus", "equiv", "minimize", "gen", "dot", "check"]
NAMES = ["a", "b", "c", "d", "e", "f", "n_1", "x10", "x2", "zA9"]
UNPARSABLE = [
    b"a :- b, c.\n",
    b"a.\nb :- .\n",
    b"a\n",
    b"A.\n",
    b"a :- b\n",
    b"a. ?\n",
    b"  .\n",
    b"a :- b :- c.\n",
    b"% only a comment\nb :- a,\n",
]
NOT_UTF8 = [b"a.\n\xff\xfe\n", b"b :- a.\n\xc3\x28.\n"]
# Library functions each subcommand calls, as bound on krom.cli; rebinding
# one to raise InternalError takes the exit-3 route.
BREAKABLE = {
    "lm": ["omega", "parse"],
    "compose": ["compose", "render"],
    "power": ["power", "atoms"],
    "star": ["star", "render"],
    "plus": ["plus", "atoms"],
    "equiv": ["lm_equiv", "ss_equiv", "uniform_equiv", "uniform_equiv_oracle"],
    "minimize": ["minimize", "parse"],
    "gen": ["random_program", "render"],
    "dot": ["to_dot", "parse"],
    "check": ["parse"],
}


def program_text(rng: random.Random, rules: list[tuple[str, str | None]]) -> bytes:
    """The rules as text, with varied spacing, comments and duplicates."""
    out = []
    for head, body in rules:
        if rng.random() < 0.1:
            out.append("% a comment\n")
        gap = rng.choice(["", " ", "  ", "\n", "\t"])
        if body is None:
            out.append(f"{head}{gap}.")
        else:
            out.append(f"{head}{gap}:-{rng.choice([' ', '', chr(10)])}{body}{gap}.")
        out.append(rng.choice(["\n", " ", "\n\n"]))
        if rng.random() < 0.05:
            out.append(f"{head}.\n" if body is None else f"{head} :- {body}.\n")
    return "".join(out).encode()


def draw_rules(rng: random.Random) -> list[tuple[str, str | None]]:
    """A random rule list over up to six atoms: a free draw, a complete
    digraph, a chain or a cycle, with facts and self-loops mixed in."""
    names = rng.sample(NAMES, rng.randint(1, 6))
    shape = rng.random()
    if shape < 0.5:
        rules = [
            (rng.choice(names), None if rng.random() < 0.3 else rng.choice(names))
            for _ in range(rng.randint(0, 8))
        ]
    elif shape < 0.65:
        rules = [(h, b) for h in names[:4] for b in names[:4]]
    else:
        ring = list(zip(names[1:], names))
        rules = ring + ([(names[0], names[-1])] if shape < 0.85 else [])
    rules += [(a, None) for a in names if rng.random() < 0.15]
    rules += [(a, a) for a in names if rng.random() < 0.1]
    rng.shuffle(rules)
    return rules


def partner_rules(rng, rules):
    """A second program for equiv: the same rules, one fewer, one more, or
    an unrelated draw."""
    roll = rng.random()
    if roll < 0.25 or not rules:
        return list(rules)
    if roll < 0.45:
        dropped = rng.choice(rules)
        return [r for r in rules if r != dropped]
    if roll < 0.75:
        names = sorted({a for r in rules for a in r if a})
        return rules + [(rng.choice(names), rng.choice([None, *names]))]
    return draw_rules(rng)


def build_corpus(seed: int = SEED) -> list[dict]:
    """The corpus: per case its argv with ``<tmp>`` paths, the files to
    write first (name -> bytes), the stdin bytes and the function to
    rebind, if any."""
    rng = random.Random(seed)
    cases = []
    counter = itertools.count()

    def add(argv, files=(), stdin=b"", broken=None):
        cases.append({"argv": argv, "files": dict(files), "stdin": stdin, "broken": broken})

    def new_file(data: bytes) -> tuple[str, tuple[str, bytes]]:
        name = f"p{next(counter)}.lp"
        return f"{TMP}/{name}", (name, data)

    def operand(weird: float = 0.15):
        # One program operand: (argv word, files to write, stdin bytes).
        roll = rng.random()
        if roll < weird * 0.3:
            return f"{TMP}/missing.lp", [], b""
        if roll < weird * 0.7:
            path, f = new_file(rng.choice(UNPARSABLE))
            return path, [f], b""
        if roll < weird:
            path, f = new_file(rng.choice(NOT_UTF8))
            return path, [f], b""
        text = program_text(rng, draw_rules(rng))
        if roll < weird + 0.1:
            return "-", [], text
        path, f = new_file(text)
        return path, [f], b""

    def single(command, extra=lambda: [], count=30):
        for _ in range(count):
            word, files, stdin = operand()
            add([command, word, *extra()], files, stdin)

    def alphabet_flag():
        roll = rng.random()
        if roll < 0.5:
            return []
        if roll < 0.75:
            return ["--alphabet", ",".join(NAMES)]  # wider than any program
        if roll < 0.9:
            return ["--alphabet", ",".join(rng.sample(NAMES, 2))]  # may miss atoms
        return ["--alphabet", rng.choice(["a,B", "a,,b", " b , a "])]

    single("lm")
    for _ in range(36):
        if rng.random() < 0.1:
            text = program_text(rng, draw_rules(rng))
            add(["compose", "-", "-"], stdin=text)
            continue
        (w1, f1, s1), (w2, f2, s2) = operand(0.1), operand(0.1)
        if w1 == w2 == "-":
            w2, f2, s2 = f"{TMP}/missing.lp", [], b""
        add(["compose", w1, w2], f1 + f2, s1 or s2)
    single("power", lambda: [str(rng.choice([0, 1, 2, 3, 5, 8, 13, -1])), *alphabet_flag()], 40)
    single("star", alphabet_flag, 40)
    single("plus", alphabet_flag, 40)
    for _ in range(60):
        rules = draw_rules(rng)
        mode = rng.choice(["lm", "ss", "uniform", "uniform"])
        oracle = ["--oracle"] if rng.random() < (0.5 if mode == "uniform" else 0.15) else []
        k, fk = new_file(program_text(rng, rules))
        if rng.random() < 0.1:
            l, fl = operand(1.0)[:2]
            files = [fk, *fl]
        else:
            l, f = new_file(program_text(rng, partner_rules(rng, rules)))
            files = [fk, f]
        add(["equiv", "--mode", mode, *oracle, k, l], files)
    wide = "".join(f"w{i + 1} :- w{i}.\n" for i in range(21)).encode()
    path, f = new_file(wide)
    add(["equiv", "--mode", "uniform", "--oracle", path, path], [f])
    text = program_text(rng, draw_rules(rng))
    add(["equiv", "--mode", "uniform", "-", "-"], stdin=text)
    single("minimize")
    for _ in range(30):
        atoms_n, rules_n = rng.randint(1, 5), rng.randint(0, 12)
        ratio, gen_seed = rng.choice(["0", "0.3", "0.5", "1"]), rng.randint(0, 99)
        add(["gen", "--atoms", str(atoms_n), "--rules", str(rules_n),
             "--fact-ratio", ratio, "--seed", str(gen_seed)])
    for argv in (["--atoms", "2", "--rules", "7"], ["--atoms", "0", "--rules", "0"],
                 ["--atoms", "3", "--rules", "2", "--fact-ratio", "1.5"],
                 ["--atoms", "3", "--rules", "2", "--seed", "-1"]):
        add(["gen", *argv])
    single("dot")
    single("check")
    for data in NOT_UTF8:
        add(["check", "-"], stdin=data)
    for command, names in BREAKABLE.items():
        for name in names:
            text = program_text(rng, draw_rules(rng))
            path, f = new_file(text)
            argv = {
                "compose": ["compose", path, path],
                "power": ["power", path, "2"],
                "equiv": ["equiv", "--mode", {"lm_equiv": "lm", "ss_equiv": "ss"}.get(
                    name, "uniform"), *(["--oracle"] if name.endswith("oracle") else []),
                    path, path],
                "gen": ["gen", "--atoms", "3", "--rules", "4"],
            }.get(command, [command, path])
            add(argv, [f], broken=name)
    return cases


def _boom(*_):
    raise InternalError("invariant broken")


def run_case(case: dict, directory: str) -> dict:
    """Run one case through ``cli.main`` in-process; return its record."""
    for name, data in case["files"].items():
        Path(directory, name).write_bytes(data)
    argv = [a.replace(TMP, directory) for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    stdin = type("Stdin", (), {"buffer": io.BytesIO(case["stdin"])})()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(sys, "stdin", stdin))
        if case["broken"]:
            stack.enter_context(mock.patch.object(cli, case["broken"], _boom))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(argv)
    return {
        "argv": case["argv"],
        "stdin": case["stdin"].decode("latin-1"),
        "broken": case["broken"],
        "code": code,
        "stdout": out.getvalue().replace(directory, TMP),
        "stderr": err.getvalue().replace(directory, TMP),
    }


def digests(records: list[dict]) -> dict[str, str]:
    """One SHA-256 per subcommand over its records in corpus order."""
    return {
        command: hashlib.sha256(json.dumps(
            [r for r in records if r["argv"][0] == command], sort_keys=True
        ).encode()).hexdigest()
        for command in COMMANDS
    }


def run_corpus(directory: str) -> tuple[list[dict], list[dict]]:
    cases = build_corpus()
    return cases, [run_case(case, directory) for case in cases]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run_corpus(str(tmp_path_factory.mktemp("corpus")))


def test_corpus_covers_every_subcommand_and_route(corpus):
    cases, records = corpus
    assert 300 <= len(records) <= 500
    codes = {}
    for r in records:
        codes.setdefault(r["argv"][0], set()).add(r["code"])
    assert set(codes) == set(COMMANDS)
    for command, seen in codes.items():
        assert seen >= ({0, 1, 2, 3} if command == "equiv" else {0, 2, 3}), command
    argvs = [" ".join(r["argv"]) for r in records]
    for needle in [f"--alphabet {','.join(NAMES)}", "--oracle", " - ", "missing.lp"]:
        assert any(needle in a + " " for a in argvs), needle
    errors = "".join(r["stderr"] for r in records)
    for message in ["not in the alphabet", "input is not valid UTF-8",
                    "at most one body atom", "cannot read", "exceed the enumeration bound"]:
        assert message in errors, message


@pytest.mark.parametrize("command", COMMANDS)
def test_pinned_outputs(corpus, command):
    assert digests(corpus[1])[command] == json.loads(PINS.read_text())[command]


def render_oracle(rules) -> str:
    facts = sorted(r.head for r in rules if r.body is None)
    proper = sorted((r.head, r.body) for r in rules if r.body is not None)
    return "".join(f"{h}.\n" for h in facts) + "".join(f"{h} :- {b}.\n" for h, b in proper)


def atoms_of(program: Program) -> list[str]:
    return sorted({a for r in program.rules for a in r if a is not None})


def uniform_oracle(k: Program, l: Program) -> str:
    """Least models under every extension, smallest extension first."""
    universe = sorted(set(atoms_of(k)) | set(atoms_of(l)))
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            ext = {Rule(a) for a in combo}
            if consequences_oracle(Program(k.rules | ext)) != consequences_oracle(
                Program(l.rules | ext)
            ):
                return f"not equivalent\nwitness: {Interpretation(combo)}\n"
    return "equivalent\n"


def expected_stdout(record: dict, inputs: list[Program], flags: dict) -> str | None:
    """What the oracles say the record's stdout is; None where none applies."""
    command = record["argv"][0]
    if command == "lm":
        return "".join(f"{a}\n" for a in sorted(consequences_oracle(inputs[0]).atoms))
    if command == "compose":
        return render_oracle(compose_oracle(*inputs).rules)
    if command in ("power", "star", "plus"):
        p = inputs[0]
        names = flags["--alphabet"].split(",") if "--alphabet" in flags else atoms_of(p)
        alphabet = Alphabet(name.strip() for name in names)
        if command == "power":
            return render_oracle(power_oracle(p, int(flags["n"]), alphabet).rules)
        oracle = star_oracle if command == "star" else plus_oracle
        return render_oracle(oracle(p, alphabet).rules)
    if command == "equiv":
        k, l = inputs
        if flags["--mode"] == "uniform":
            return uniform_oracle(k, l)
        same = (consequences_oracle(k) == consequences_oracle(l) if flags["--mode"] == "lm"
                else k.rules == l.rules)
        return "equivalent\n" if same else "not equivalent\n"
    if command == "minimize":
        return render_oracle(minimize_oracle(inputs[0]).rules)
    if command == "gen":
        config = GenConfig(int(flags["--atoms"]), int(flags["--rules"]),
                           float(flags["--fact-ratio"]), int(flags["--seed"]))
        return render_oracle(random_program_oracle(config).rules)
    if command == "check":
        return ""
    return None


def read_operands(case: dict, argv: list[str]) -> tuple[list[Program], str | None]:
    """The program operands as ``parse_oracle`` reads them, in argv order,
    and the start of the error message for the first one that cannot be
    read or parsed (None if every one can)."""
    inputs = []
    for word in argv[1:]:
        if word != "-" and not word.startswith(TMP):
            continue
        data = case["stdin"] if word == "-" else case["files"].get(word[len(TMP) + 1:])
        if data is None:
            return inputs, f"error: cannot read {word}: "
        try:
            program = parse_oracle(data.decode("utf-8"))
        except UnicodeDecodeError:
            program = None
        if program is None:
            return inputs, "<stdin>:" if word == "-" else f"{word}:"
        inputs.append(program)
    return inputs, None


def test_outputs_match_oracles(corpus):
    checked = 0
    for case, record in zip(*corpus):
        argv, code, out, err = (record[k] for k in ("argv", "code", "stdout", "stderr"))
        if record["broken"]:
            assert (code, out, err) == (3, "", "internal error: invariant broken\n"), argv
            continue
        inputs, error = read_operands(case, argv)
        if error or code == 2:
            # An operand that cannot be read or parsed, a bad --alphabet, a
            # negative exponent, an infeasible draw or the oracle's atom
            # bound: a message and no output.
            assert (code, out) == (2, ""), argv
            assert err.startswith(error or "error: "), argv
            continue
        flags = dict(zip(argv[1:], argv[2:]))
        if argv[0] == "power":
            flags["n"] = next(a for a in argv[2:] if not a.startswith("--"))
        expected = expected_stdout(record, inputs, flags)
        if expected is not None:
            assert (out, err) == (expected, ""), argv
            checked += 1
        assert code == (argv[0] == "equiv" and out != "equivalent\n"), argv
    assert checked >= 250


# The first unbroken case of each kind also runs through ``python -m krom``.
SUBPROCESS_CASES = {
    "stdin": lambda argv, record: "-" in argv,
    "not-equivalent": lambda argv, record: record["code"] == 1,
    "wider-alphabet": lambda argv, record: argv[0] == "star" and ",".join(NAMES) in argv,
    "gen": lambda argv, record: argv[0] == "gen" and record["code"] == 0,
    "missing-file": lambda argv, record: "cannot read" in record["stderr"],
    "not-utf8": lambda argv, record: "not valid UTF-8" in record["stderr"],
}


@pytest.mark.parametrize("kind", SUBPROCESS_CASES)
def test_python_dash_m_krom_matches_main(corpus, tmp_path, kind):
    """The entry point ``python -m krom`` gives the bytes and the exit code
    that ``main`` gives in-process."""
    case, record = next(
        (c, r) for c, r in zip(*corpus)
        if not c["broken"] and SUBPROCESS_CASES[kind](c["argv"], r)
    )
    for name, data in case["files"].items():
        (tmp_path / name).write_bytes(data)
    argv = [a.replace(TMP, str(tmp_path)) for a in case["argv"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "krom", *argv],
        input=case["stdin"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == record["code"]
    assert done.stdout.decode().replace(str(tmp_path), TMP) == record["stdout"]
    assert done.stderr.decode().replace(str(tmp_path), TMP) == record["stderr"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        pins = digests(run_corpus(directory)[1])
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}")
