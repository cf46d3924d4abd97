"""Command-line front end for the Krom program algebra.

Exit codes: 0 success (and "equivalent" for equiv), 1 "not equivalent"
(equiv only), 2 usage or parse error, 3 internal invariant violation.
Results go to stdout, diagnostics to stderr. ``-`` as a file argument
reads the program from stdin.
"""

from __future__ import annotations

import argparse
import enum
import functools
import sys

from .algebra import (
    Alphabet,
    InternalError,
    Program,
    atoms,
    compose,
    omega,
    plus,
    power,
    star,
)
from .equivalence import (
    lm_equiv,
    minimize,
    ss_equiv,
    uniform_equiv,
    uniform_equiv_oracle,
)
from .gen import GenConfig, random_program
from .textio import ParseError, parse, render, to_dot

__all__ = ["ExitStatus", "main"]


class ExitStatus(enum.IntEnum):
    OK = 0
    NOT_EQUIVALENT = 1
    USAGE = 2
    INTERNAL = 3


class _CliError(Exception):
    """A usage error whose message is printed as is, with exit status USAGE."""


def _load(path: str, read_stdin) -> Program:
    name = path
    if path == "-":
        name, data = "<stdin>", read_stdin()
    else:
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as exc:
            raise _CliError(f"error: cannot read {path}: {exc.strerror}") from None
    try:
        return parse(data)
    except ParseError as err:
        raise _CliError(f"{name}:{err.line}:{err.column}: {err.message}") from None


def _alphabet_for(program: Program, flag_value: str | None) -> Alphabet:
    if flag_value is None:
        return atoms(program)
    try:
        return Alphabet(name.strip() for name in flag_value.split(","))
    except ValueError as exc:
        raise _CliError(f"error: bad --alphabet value: {exc}") from None


def _equiv(args, k: Program, l: Program) -> str:
    # One decider per (mode, --oracle) pair, looked up when the call runs.
    decide = {
        ("lm", False): lm_equiv,
        ("ss", False): ss_equiv,
        ("uniform", False): uniform_equiv,
        ("uniform", True): uniform_equiv_oracle,
    }.get((args.mode, args.oracle))
    if decide is None:
        raise _CliError("error: --oracle is only available with --mode uniform")
    verdict = decide(k, l)
    if verdict.equal:
        return "equivalent\n"
    if verdict.witness is None:
        return "not equivalent\n"
    return f"not equivalent\nwitness: {verdict.witness}\n"


_ALPHABET = ("--alphabet", {"help": "comma-separated atoms (default: atoms of the program)"})

# Each subcommand once: name -> (help, arguments, action). An argument is
# either a bare name, a program operand that main loads in order and passes
# to the action after the parsed namespace, or a (flag, add_argument
# keywords) pair. Arguments are declared in the order argparse lists them in
# errors. An action returns the text for stdout, and looks library functions
# up when it runs, so a test or a tracer can rebind them on this module.
_COMMANDS = {
    "lm": ("print the least model, one atom per line", ["file"],
           lambda args, p: "".join(f"{a}\n" for a in omega(p))),
    "compose": ("print the sequential composition of two programs", ["file1", "file2"],
                lambda args, k, l: render(compose(k, l))),
    "power": ("print the n-fold composition of a program",
              ["file", ("n", {"type": int}), _ALPHABET],
              lambda args, p: render(power(p, args.n, _alphabet_for(p, args.alphabet)))),
    "star": ("print the union of all composition powers", ["file", _ALPHABET],
             lambda args, p: render(star(p, _alphabet_for(p, args.alphabet)))),
    "plus": ("print the union of all positive composition powers", ["file", _ALPHABET],
             lambda args, p: render(plus(p, _alphabet_for(p, args.alphabet)))),
    "equiv": ("decide program equivalence (exit 0 equal, 1 not)",
              [("--mode", {"choices": ["lm", "ss", "uniform"], "required": True}),
               ("--oracle", {"action": "store_true",
                             "help": "use the brute-force oracle (uniform mode only)"}),
               "file1", "file2"],
              _equiv),
    "minimize": ("drop redundant rules, preserving uniform equivalence", ["file"],
                 lambda args, p: render(minimize(p))),
    "gen": ("print a reproducible random program",
            [("--atoms", {"type": int, "required": True}),
             ("--rules", {"type": int, "required": True}),
             ("--fact-ratio", {"type": float, "default": 0.5}),
             ("--seed", {"type": int, "default": 0})],
            lambda args: render(random_program(
                GenConfig(args.atoms, args.rules, args.fact_ratio, args.seed)))),
    "dot": ("print the rule digraph in DOT format", ["file"],
            lambda args, p: to_dot(p)),
    "check": ("validate program syntax only", ["file"],
              lambda args, p: ""),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krom",
        description="Algebra and equivalence tools for propositional Krom logic programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for arg in arguments:
            if isinstance(arg, str):
                p.add_argument(arg)
            else:
                p.add_argument(arg[0], **arg[1])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(ExitStatus.USAGE)
    _, arguments, action = _COMMANDS[args.command]
    read_stdin = functools.cache(lambda: sys.stdin.buffer.read())
    try:
        programs = [_load(getattr(args, a), read_stdin) for a in arguments if isinstance(a, str)]
        out = action(args, *programs)
    except _CliError as err:
        print(err, file=sys.stderr)
        return int(ExitStatus.USAGE)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return int(ExitStatus.USAGE)
    except InternalError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return int(ExitStatus.INTERNAL)
    sys.stdout.write(out)
    # equiv is the one command whose exit status carries its answer.
    if args.command == "equiv" and out != "equivalent\n":
        return int(ExitStatus.NOT_EQUIVALENT)
    return int(ExitStatus.OK)
