"""Brute-force reference implementations used to cross-check the library.

Everything here is written as naively as possible: raw double loops over
rule pairs, fixpoint iteration, per-node graph searches. None of it shares
code with the operations it checks.
"""

from __future__ import annotations

import itertools
import random
import re

from krom import Alphabet, Atom, GenConfig, Interpretation, Program, Rule, atoms


def admitted(program: Program) -> bool:
    """True iff every head and body is an ``Atom`` and the public
    constructor, given the program's rules, accepts them and rebuilds it.

    Guards the paths that build programs without that constructor
    (``parse``, ``random_program``, ``enumerate_programs``).
    """
    for r in program.rules:
        if not isinstance(r.head, Atom) or not (r.body is None or isinstance(r.body, Atom)):
            return False
    return Program(program.rules) == program


def unit_oracle(alphabet: Alphabet) -> Program:
    return Program(Rule(a, a) for a in alphabet.atoms)


def compose_oracle(k: Program, l: Program) -> Program:
    """The three definition clauses, enumerated over all rule pairs."""
    out = set()
    for rk in k.rules:
        if rk.body is None:
            out.add(rk)
    for rk in k.rules:
        if rk.body is None:
            continue
        for rl in l.rules:
            if rl.body is None and rl.head == rk.body:
                out.add(Rule(rk.head))
            if rl.body is not None and rl.head == rk.body:
                out.add(Rule(rk.head, rl.body))
    return Program(out)


def power_oracle(program: Program, n: int, alphabet: Alphabet) -> Program:
    result = unit_oracle(alphabet)
    for _ in range(n):
        result = compose_oracle(result, program)
    return result


def star_oracle(program: Program, alphabet: Alphabet) -> Program:
    """Union of all powers, accumulated power by power up to the size of
    the rule universe over the alphabet (one extra pass for slack)."""
    u = len(alphabet) + len(alphabet) ** 2
    total = unit_oracle(alphabet)
    pw = unit_oracle(alphabet)
    for _ in range(u + 1):
        pw = compose_oracle(pw, program)
        total = total | pw
    return total


def plus_oracle(program: Program, alphabet: Alphabet) -> Program:
    return compose_oracle(star_oracle(program, alphabet), program)


def closure_oracle(program: Program, alphabet: Alphabet) -> Program:
    """Reflexive-transitive closure of the edge relation of a proper-rules
    program: one rule ``dst :- src`` per path src to dst (length 0 allowed),
    found by a search from every node."""
    nodes = sorted(alphabet.atoms)
    edges = {n: set() for n in nodes}
    for r in program.rules:
        assert r.body is not None
        edges[r.body].add(r.head)
    out = set()
    for src in nodes:
        seen = {src}
        stack = [src]
        while stack:
            cur = stack.pop()
            for nxt in edges[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        for dst in seen:
            out.add(Rule(dst, src))
    return Program(out)


def consequences_oracle(program: Program) -> Interpretation:
    """Least model by iterating immediate consequences from the facts."""
    current = frozenset(r.head for r in program.rules if r.body is None)
    while True:
        grown = current | {
            r.head for r in program.rules if r.body is not None and r.body in current
        }
        if grown == current:
            return Interpretation(current)
        current = grown


def reach_oracle(program: Program, interp: Interpretation) -> Interpretation:
    """One-edge-at-a-time fixpoint expansion of the seed set."""
    current = frozenset(interp.atoms)
    while True:
        grown = current | {
            r.head for r in program.rules if r.body is not None and r.body in current
        }
        if grown == current:
            return Interpretation(current)
        current = grown


def omega_powers_oracle(program: Program) -> Interpretation:
    """Least model as the union of the fact parts of all positive powers."""
    alphabet = atoms(program)
    u = len(alphabet) + len(alphabet) ** 2
    total: frozenset = frozenset()
    pw = program
    for _ in range(u + 1):
        total = total | frozenset(r.head for r in pw.rules if r.body is None)
        pw = compose_oracle(pw, program)
    return Interpretation(total)


def minimize_oracle(k: Program) -> Program:
    """The sorted greedy pass (facts first by head, then proper rules by head
    and body), deleting a rule iff the least model, by immediate
    consequences, stays the same under every extension of the kept rules
    by an interpretation over the input's atoms."""
    alphabet = sorted({r.head for r in k.rules} | {r.body for r in k.rules if r.body is not None})
    extensions = [
        {Rule(a) for a in combo}
        for size in range(len(alphabet) + 1)
        for combo in itertools.combinations(alphabet, size)
    ]
    current = set(k.rules)
    for r in sorted(k.rules, key=lambda r: (r.body is not None, r.head, r.body or "")):
        candidate = current - {r}
        if all(
            consequences_oracle(Program(candidate | ext))
            == consequences_oracle(Program(k.rules | ext))
            for ext in extensions
        ):
            current = candidate
    return Program(current)


def random_program_oracle(config: GenConfig) -> Program:
    """The documented draw, on both rule pools built in full: the fact pool
    x1..xN and the proper pool ordered by head, then body."""
    names = [Atom(f"x{i}") for i in range(1, config.atom_count + 1)]
    fact_pool = [Rule(a) for a in names]
    proper_pool = [Rule(h, b) for h in names for b in names]
    rng = random.Random(config.seed)
    chosen = []
    while len(chosen) < config.rule_count:
        pick_fact = rng.random() < config.fact_ratio
        pool = fact_pool if pick_fact else proper_pool
        if not pool:
            pool = proper_pool if pick_fact else fact_pool
        i = rng.randrange(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        chosen.append(pool.pop())
    return Program(chosen)


_ORACLE_ATOM = r"[a-z][A-Za-z0-9_]*"
_ORACLE_PROGRAM_RE = re.compile(
    rf"(?:[ \t\r\n]*{_ORACLE_ATOM}[ \t\r\n]*(?:\.|:-[ \t\r\n]*{_ORACLE_ATOM}[ \t\r\n]*\.))*[ \t\r\n]*"
)
_ORACLE_STATEMENT_RE = re.compile(
    rf"({_ORACLE_ATOM})[ \t\r\n]*(?::-[ \t\r\n]*({_ORACLE_ATOM})[ \t\r\n]*)?\."
)


def parse_oracle(text: str) -> Program | None:
    """The program a text denotes, or None if it is not one: comments
    become spaces, the whole text must match the program grammar, and then
    every statement match is a rule."""
    text = re.sub(r"%[^\n]*", " ", text)
    if _ORACLE_PROGRAM_RE.fullmatch(text) is None:
        return None
    return Program(
        Rule(Atom(head), Atom(body) if body else None)
        for head, body in _ORACLE_STATEMENT_RE.findall(text)
    )
