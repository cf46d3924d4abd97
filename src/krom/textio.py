"""Text format for Krom programs, plus a digraph export.

Grammar of the on-disk format:

    program   : statement*
    statement : atom "."            (fact)
              | atom ":-" atom "."  (proper rule)
    atom      : [a-z][A-Za-z0-9_]*

Whitespace between tokens is insignificant; ``%`` starts a comment that
runs to the end of the line. Duplicate statements collapse (programs are
sets). A syntax error is reported at the 1-based ``line:column`` of the
first offending byte, whatever follows it; a comma after a rule body gets
the message "Krom programs admit at most one body atom". Rendering is
byte-stable: facts first in lexicographic order, then proper rules ordered
by head and body, one statement per line, one space on each side of
``:-``.
"""

from __future__ import annotations

import functools
import re

from .algebra import _ATOM, Atom, Program, _canonical

__all__ = ["ParseError", "parse", "render", "to_dot"]

_SKIP = r"(?:[ \t\r\n]|%[^\n]*)*"

# One statement, from whitespace and comments up to its final dot. Every
# part is optional, so the match always succeeds and stops right before the
# first byte that cannot continue the statement.
_STATEMENT_RE = re.compile(
    rf"""{_SKIP}
    (?: (?P<head>{_ATOM}) {_SKIP}
        (?: (?P<fact>\.)
          | (?P<arrow>:-) {_SKIP} (?: (?P<body>{_ATOM}) {_SKIP} (?P<dot>\.)? )?
        )?
    )?""",
    re.VERBOSE,
)

# A byte that starts a token other than whitespace or a comment.
_TOKEN_START_RE = re.compile(r":-|[.,a-z]")

_KROM_BODY_MESSAGE = "Krom programs admit at most one body atom"


class ParseError(Exception):
    """Syntax error with the 1-based line and column of the offending byte."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


def _error(text: str, m: re.Match) -> ParseError:
    pos = m.end()
    token = _TOKEN_START_RE.match(text, pos)
    if token is None and pos < len(text):
        message = f"unexpected character {text[pos]!r}"
    elif m["head"] is None:
        message = f"expected an atom, got {token.group()!r}"
    elif m["arrow"] is None:
        message = "expected '.' or ':-' after the head atom"
    elif m["body"] is None:
        message = "expected a body atom after ':-'"
    elif text.startswith(",", pos):
        message = _KROM_BODY_MESSAGE
    else:
        message = "expected '.' after the body atom"
    line = text.count("\n", 0, pos) + 1
    return ParseError(line, pos - text.rfind("\n", 0, pos), message)


def parse(source: bytes | str) -> Program:
    """Parse program text into a :class:`Program`.

    Accepts bytes (must be valid UTF-8) or an already-decoded string.
    Raises :class:`ParseError` with the position of the first offending
    byte on any syntax error; a comma after a rule body gets the dedicated
    multi-atom-body message, since that is the most common Datalog habit
    this format rejects.
    """
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = source[: exc.start]
            line = before.count(b"\n") + 1
            column = exc.start - (before.rfind(b"\n") + 1) + 1
            raise ParseError(line, column, "input is not valid UTF-8") from None
    else:
        text = source

    # Each distinct name becomes one shared Atom, validated once. The heads
    # are kept by body, a fact's under None, as a Program stores them.
    atom = functools.cache(Atom)
    edges: dict = {}
    pos = 0
    while pos < len(text):
        m = _STATEMENT_RE.match(text, pos)
        if m["fact"] or m["dot"]:
            edges.setdefault(m["body"] and atom(m["body"]), set()).add(atom(m["head"]))
        elif m["head"] or m.end() < len(text):
            raise _error(text, m)
        pos = m.end()

    return Program._wrap(_canonical(edges))


def render(program: Program) -> str:
    """Render a program in the canonical on-disk form.

    The output re-parses to an equal program, and equal programs render to
    identical bytes.
    """
    return "".join(f"{r}.\n" for r in program)


def to_dot(program: Program) -> str:
    """Export the program's rule digraph in DOT format.

    One node per atom; a proper rule ``a :- b`` becomes the edge ``b -> a``.
    Fact atoms get a doubled border (``peripheries=2``). Nodes and edges are
    emitted in sorted order, so the output is deterministic.
    """
    edges = dict(program._edges)
    fact_atoms = set(edges.pop(None, ()))
    lines = ["digraph program {"]
    lines.extend(
        f'  "{a}" [peripheries=2];' if a in fact_atoms else f'  "{a}";'
        for a in sorted(fact_atoms.union(edges, *edges.values()))
    )
    lines.extend(f'  "{src}" -> "{dst}";' for src in sorted(edges) for dst in edges[src])
    lines.append("}")
    return "\n".join(lines) + "\n"
