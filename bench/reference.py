"""Independent reference answers for the benchmark's output checks.

Nothing here imports krom: rules are plain ``(head, body)`` tuples with
``body`` None for a fact, so a krom ``Rule`` (a NamedTuple) and a
reference rule compare and hash alike. The code is deliberately naive
(fixpoint iteration, one search per atom, closed forms for fixed shapes)
so that it shares no algorithm with the library it checks.
"""

from __future__ import annotations

import hashlib
import random


def render(rules) -> str:
    """Canonical text: facts sorted by head, then proper rules by (head, body)."""
    facts = sorted(h for h, b in rules if b is None)
    proper = sorted((h, b) for h, b in rules if b is not None)
    return "".join([f"{h}.\n" for h in facts] + [f"{h} :- {b}.\n" for h, b in proper])


def digest(rules) -> str:
    return hashlib.sha256(render(rules).encode()).hexdigest()


def atoms_of(rules) -> set:
    out = set()
    for h, b in rules:
        out.add(h)
        if b is not None:
            out.add(b)
    return out


def least_model(rules, extra=()) -> frozenset:
    """Least model by iterating immediate consequences to a fixpoint."""
    current = {h for h, b in rules if b is None} | set(extra)
    proper = [(h, b) for h, b in rules if b is not None]
    while True:
        grown = {h for h, b in proper if b in current and h not in current}
        if not grown:
            return frozenset(current)
        current |= grown


def _successors(rules) -> dict:
    succ: dict = {}
    for h, b in rules:
        if b is not None:
            succ.setdefault(b, set()).add(h)
    return succ


def _search(succ, start, proper_only: bool) -> set:
    """Atoms reachable from ``start`` by paths of length >= 0 (or >= 1)."""
    frontier = list(succ.get(start, ())) if proper_only else [start]
    seen = set(frontier)
    while frontier:
        cur = frontier.pop()
        for nxt in succ.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def star(rules, alphabet) -> frozenset:
    """Union of all composition powers: one search per alphabet atom, plus
    the least model as facts."""
    succ = _successors(rules)
    out = {(h, None) for h in least_model(rules)}
    for b in alphabet:
        out.update((h, b) for h in _search(succ, b, proper_only=False))
    return frozenset(out)


def plus(rules, alphabet) -> frozenset:
    """Union of all positive powers: paths of length >= 1, plus the least model."""
    succ = _successors(rules)
    out = {(h, None) for h in least_model(rules)}
    for b in alphabet:
        out.update((h, b) for h in _search(succ, b, proper_only=True))
    return frozenset(out)


def chain_names(prefix: str, length: int) -> list:
    return [f"{prefix}{i:04d}" for i in range(length)]


def chain(names) -> frozenset:
    """Edges names[i] -> names[i+1], i.e. rules ``names[i+1] :- names[i]``."""
    return frozenset((names[i + 1], names[i]) for i in range(len(names) - 1))


def cycle(names) -> frozenset:
    return chain(names) | {(names[0], names[-1])}


def chain_closure(names, reflexive: bool) -> frozenset:
    """star (reflexive) or plus of a chain: ``names[j] :- names[i]`` for i <= j (i < j)."""
    n = len(names)
    return frozenset(
        (names[j], names[i]) for i in range(n) for j in range(i if reflexive else i + 1, n)
    )


def cycle_closure(names) -> frozenset:
    """star and plus of a cycle are both the complete relation on its atoms."""
    return frozenset((h, b) for h in names for b in names)


def cycle_power(names, n: int) -> frozenset:
    """n-fold composition of a cycle: every atom moves n steps along it."""
    k = len(names)
    return frozenset((names[(i + n) % k], names[i]) for i in range(k))


def compose(k_rules, l_rules) -> frozenset:
    """The three clauses of sequential composition, straight from the definition."""
    l_facts = {h for h, b in l_rules if b is None}
    l_by_head: dict = {}
    for h, b in l_rules:
        if b is not None:
            l_by_head.setdefault(h, []).append(b)
    out = set()
    for h, b in k_rules:
        if b is None:
            out.add((h, None))
            continue
        if b in l_facts:
            out.add((h, None))
        out.update((h, c) for c in l_by_head.get(b, ()))
    return frozenset(out)


def minimize(rules) -> frozenset:
    """Greedy pass in canonical order; a rule goes iff the rest still derives
    its head from its body (from nothing, for a fact). This is the same
    decision as "the rest is uniformly equivalent to the input", by
    monotonicity of the least model."""
    current = set(rules)
    order = sorted((r for r in rules if r[1] is None), key=lambda r: r[0]) + sorted(
        r for r in rules if r[1] is not None
    )
    for r in order:
        current.discard(r)
        h, b = r
        if h not in least_model(current, () if b is None else (b,)):
            current.add(r)
    return frozenset(current)


def dot(rules) -> str:
    """The DOT export format, written out from its documented shape."""
    fact_atoms = {h for h, b in rules if b is None}
    lines = ["digraph program {"]
    for a in sorted(atoms_of(rules)):
        lines.append(f'  "{a}" [peripheries=2];' if a in fact_atoms else f'  "{a}";')
    lines.extend(f'  "{b}" -> "{h}";' for b, h in sorted((b, h) for h, b in rules if b is not None))
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_program(atom_count: int, rule_count: int, fact_ratio: float, seed: int) -> frozenset:
    """The documented generator contract (a ``random.Random(seed)`` coin per
    draw, then a swap-pop at a uniform index of the chosen pool), replayed
    with lazily materialised pools so memory is O(rule_count)."""
    names = [f"x{i}" for i in range(1, atom_count + 1)]
    pools = {
        True: [atom_count, {}, lambda i: (names[i], None)],
        False: [atom_count * atom_count, {}, lambda i: (names[i // atom_count], names[i % atom_count])],
    }
    rng = random.Random(seed)
    chosen = []
    while len(chosen) < rule_count:
        pick_fact = rng.random() < fact_ratio
        if pools[pick_fact][0] == 0:
            pick_fact = not pick_fact
        pool = pools[pick_fact]
        size, moved, default = pool
        i = rng.randrange(size)
        last = size - 1
        chosen.append(moved.get(i) or default(i))
        moved[i] = moved.get(last) or default(last)
        moved.pop(last, None)
        pool[0] = last
    return frozenset(chosen)
