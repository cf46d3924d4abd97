"""Core algebra of propositional Krom logic programs.

A Krom program is a finite set of rules over propositional atoms, where
every rule is either a fact ``a`` or a proper rule ``a :- b`` with exactly
one body atom. Programs form an algebra under sequential composition:
``compose(K, L)`` keeps the facts of K, fires K's proper rules on the facts
of L, and chains K's proper rules through L's proper rules. Iterating
composition yields the closure operators ``power``, ``star``, and ``plus``;
``omega`` computes the least model.

A program is also the edge set of a digraph with one vertex per atom and a
root standing for the empty body: a proper rule ``a :- b`` is an edge from b
to a, and a fact ``a`` an edge from the root to a. Most questions about a
program are reachability questions. ``omega``, ``reach`` and
``extend_omega`` ask what the root and one set of seeds reach, and run one
search from them. ``star``, ``plus`` and ``equivalence.uniform_equiv`` ask
which of a set of target atoms every vertex reaches: the alphabet for
``star`` and ``plus``, whose facts are the root's reach, and for
``uniform_equiv`` the heads of the rules that one program has and the other
lacks. They read it off reach rows, one bitset per vertex over a block of
targets at a time. Each block takes two searches over the vertices that
reach it: one up the rules finds them, and one down the rules condenses
them and builds their rows.
All values are immutable after construction and safe to share between
threads; every operation is a pure function of its inputs.

Validation happens once, where input enters: the public constructors of
``Atom``, ``Program``, ``Interpretation`` and ``Alphabet`` check every
value. Library results, ``textio.parse`` (one ``Atom`` per distinct name)
and the ``gen`` functions build their values from atoms that are already
valid, through the unchecked ``_wrap``.
"""

from __future__ import annotations

import re
import sys
from functools import partial, reduce
from itertools import chain, compress, repeat
from operator import or_
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Atom",
    "Rule",
    "Program",
    "Interpretation",
    "Alphabet",
    "InternalError",
    "fact",
    "rule",
    "atoms",
    "facts",
    "proper",
    "heads",
    "compose",
    "unit",
    "power",
    "star",
    "plus",
    "omega",
    "models",
    "reach",
    "extend_omega",
]

# Atom syntax, shared with the statement regex in textio.
_ATOM = r"[a-z][A-Za-z0-9_]*"
_ATOM_RE = re.compile(_ATOM + r"\Z")


class InternalError(RuntimeError):
    """A library invariant failed; indicates a bug, not bad input."""


class Atom(str):
    """A propositional symbol: a lowercase-initial identifier.

    Atoms compare and sort as their names, so all set output in this
    package is deterministically ordered.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Atom":
        if isinstance(name, Atom):
            return name
        if not isinstance(name, str) or not _ATOM_RE.match(name):
            raise ValueError(f"invalid atom name: {name!r}")
        return super().__new__(cls, name)


class Rule(NamedTuple):
    """A fact (``body is None``) or a proper rule ``head :- body``.

    A self-loop ``a :- a`` is a legal proper rule; identity programs are
    made of them.
    """

    head: Atom
    body: Atom | None = None

    @property
    def is_fact(self) -> bool:
        return self.body is None

    def __str__(self) -> str:
        if self.body is None:
            return self.head
        return f"{self.head} :- {self.body}"


# A Rule from a (head, body) pair, for the programs the algebra builds from
# pairs. The generated Rule.__new__ does nothing more than tuple.__new__, so
# this skips only its Python frame. A fact's pair is (head, None).
_rule = partial(tuple.__new__, Rule)


def fact(name: str) -> Rule:
    """Build a fact rule from an atom name."""
    return Rule(Atom(name))


def rule(head: str, body: str) -> Rule:
    """Build a proper rule ``head :- body`` from atom names."""
    return Rule(Atom(head), Atom(body))


def _rule_key(r: Rule) -> tuple:
    # Facts sort before proper rules; ties break on (head, body).
    return (r.body is not None, r.head, r.body or "")


class _SortedSet:
    """An immutable finite set whose iteration is sorted.

    The storage and the set behaviour shared by :class:`Program` (a set of
    rules) and :class:`AtomSet` (a set of atoms). Each direct subclass
    founds a family: ``==``, ``|`` and ``-`` combine members of one family
    only (anything else gets ``NotImplemented``), and results take the type
    of the left operand.
    """

    __slots__ = ("_items",)
    # Sort key for iteration; None sorts the items themselves.
    _key = None

    def __init_subclass__(cls):
        if _SortedSet in cls.__bases__:
            cls._family = cls

    @classmethod
    def _wrap(cls, items: frozenset):
        # Trusted fast path: the caller guarantees every item is one the
        # public constructor would accept.
        s = object.__new__(cls)
        s._items = items
        return s

    def __iter__(self) -> Iterator:
        return iter(sorted(self._items, key=self._key))

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, self._family):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __or__(self, other):
        if not isinstance(other, self._family):
            return NotImplemented
        return self._wrap(self._items | other._items)

    def __sub__(self, other):
        if not isinstance(other, self._family):
            return NotImplemented
        return self._wrap(self._items - other._items)


class Program(_SortedSet):
    """An immutable, duplicate-free set of rules.

    Iteration is sorted (facts first by head, then proper rules by head and
    body), so rendering and witnesses never depend on insertion order.
    ``|`` and ``-`` give rule-set union and difference.
    """

    __slots__ = ()
    _key = staticmethod(_rule_key)

    def __init__(self, rules: Iterable[Rule] = ()):
        rs = frozenset(rules)
        for r in rs:
            if not isinstance(r, Rule):
                raise TypeError(f"not a Rule: {r!r}")
            Atom(r.head)
            if r.body is not None:
                Atom(r.body)
        self._items = rs

    @property
    def rules(self) -> frozenset[Rule]:
        return self._items

    def __repr__(self) -> str:
        return f"Program({{{', '.join(str(r) for r in self)}}})"


class AtomSet(_SortedSet):
    """A set of atoms: the base of :class:`Interpretation` and :class:`Alphabet`.

    The two compare equal when they hold the same atoms, and mix freely
    under ``|``, ``&``, ``-``, ``<=`` and ``<``. Iteration is in atom order.
    """

    __slots__ = ()

    def __init__(self, atoms: Iterable[str] = ()):
        self._items = frozenset(Atom(a) for a in atoms)

    @property
    def atoms(self) -> frozenset[Atom]:
        return self._items

    def __and__(self, other: "AtomSet"):
        if not isinstance(other, AtomSet):
            return NotImplemented
        return self._wrap(self._items & other._items)

    def __le__(self, other: "AtomSet") -> bool:
        if not isinstance(other, AtomSet):
            return NotImplemented
        return self._items <= other._items

    def __lt__(self, other: "AtomSet") -> bool:
        if not isinstance(other, AtomSet):
            return NotImplemented
        return self._items < other._items

    def __str__(self) -> str:
        return "{" + ", ".join(self) + "}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}([{', '.join(map(repr, self))}])"


class Interpretation(AtomSet):
    """A set of atoms, identified with the facts-only program over it."""

    def as_program(self) -> Program:
        return Program._wrap(frozenset(map(_rule, zip(self._items, repeat(None)))))

    @classmethod
    def from_program(cls, program: Program) -> "Interpretation":
        """Inverse of :meth:`as_program`; rejects programs with proper rules."""
        bad = [r for r in program.rules if r.body is not None]
        if bad:
            raise ValueError(f"not a facts-only program: contains {min(bad, key=_rule_key)}")
        return cls._wrap(frozenset(r.head for r in program.rules))


class Alphabet(AtomSet):
    """The ambient universe of atoms; parameterizes the identity program."""


def atoms(program: Program) -> Alphabet:
    """Every atom occurring in the program, as head, body, or fact.

    The union of every rule's fields, less the ``None`` body of a fact.
    """
    return Alphabet._wrap(frozenset(chain.from_iterable(program.rules)) - {None})


def facts(program: Program) -> Interpretation:
    """The fact atoms of the program."""
    return Interpretation._wrap(
        frozenset(r.head for r in program.rules if r.body is None)
    )


def proper(program: Program) -> Program:
    """The subset of proper rules of the program."""
    return Program._wrap(frozenset(r for r in program.rules if r.body is not None))


def heads(program: Program) -> Interpretation:
    """All rule heads; a fact counts as its own head."""
    return Interpretation._wrap(frozenset(r.head for r in program.rules))


def compose(k: Program, l: Program) -> Program:
    """Sequential composition of two programs.

    The result is the union of three clause sets:

    * every fact of ``k``,
    * the fact ``a`` for every proper rule ``a :- b`` of ``k`` whose body
      ``b`` is a fact of ``l``,
    * the proper rule ``a :- c`` for every ``a :- b`` in ``k`` chained with
      ``b :- c`` in ``l``.

    A fact ``b`` is the rule ``b`` with an empty body, so the last two sets
    are one join of ``k``'s bodies with ``l``'s heads: each ``a :- b`` of
    ``k`` meets every rule of ``l`` with head ``b``, and gives ``a :- c``
    where that rule is ``b :- c``, or the fact ``a`` where it is the fact
    ``b``. The first set joins the same way: the empty body of a fact of
    ``k`` meets the one entry ``None`` that ``l``'s index holds for it, so
    the fact gives itself. Many join results can be one output rule; each
    distinct ``(head, body)`` pair becomes one :class:`Rule`, made when the
    join first reaches it.
    """
    # l's rule bodies keyed by their head; a fact's body is None, and the
    # pair (a, None) is the fact a. The key None, which no head takes, maps
    # to that one body, so each fact of k joins to itself.
    l_bodies: dict[Atom | None, list[Atom | None]] = {None: [None]}
    for head, body in l.rules:
        l_bodies.setdefault(head, []).append(body)
    # A Rule hashes and compares as its tuple, so a pair already in `out`
    # is found without making a Rule for it.
    out = set()
    for head, body in k.rules:
        for c in l_bodies.get(body, ()):
            pair = (head, c)
            if pair not in out:
                out.add(_rule(pair))
    return Program._wrap(frozenset(out))


def unit(alphabet: Alphabet) -> Program:
    """The identity program over the alphabet: one self-loop per atom.

    It is the two-sided identity of :func:`compose` for every program whose
    atoms lie inside the alphabet.
    """
    # A set iterates in one order, so zip pairs each atom with itself.
    return Program._wrap(frozenset(map(_rule, zip(alphabet.atoms, alphabet.atoms))))


def _require_covers(program_atoms: set | frozenset, alphabet: Alphabet) -> None:
    extra = program_atoms - alphabet.atoms
    if extra:
        missing = ", ".join(sorted(extra))
        raise ValueError(f"program atoms not in the alphabet: {missing}")


def power(program: Program, n: int, alphabet: Alphabet) -> Program:
    """The n-fold composition of the program with itself.

    By definition ``P^0`` is the identity program ``1_A`` over the alphabet
    and ``P^(n+1) = P^n . P``, so the result is the left fold
    ``(..((1_A . P) . P) .. P)`` of n compositions: its time is linear in n.
    The exponent must be an ``int`` (``bool`` included) from 0 to
    ``sys.maxsize``.
    """
    if not isinstance(n, int):
        raise TypeError(f"exponent must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"exponent must be non-negative, got {n}")
    if n > sys.maxsize:
        raise ValueError(f"exponent must be at most {sys.maxsize}, got {n}")
    _require_covers(atoms(program).atoms, alphabet)
    return reduce(compose, repeat(program, n), unit(alphabet))


def star(program: Program, alphabet: Alphabet) -> Program:
    """The union of all composition powers of the program, 0-fold included.

    Closed form: the rule ``h :- b`` for every ``b`` in the alphabet and
    every ``h`` reachable from ``b`` along proper-rule edges, ``b`` itself
    included, and the fact ``h`` for every ``h`` the root reaches, that is
    for every ``h`` in ``omega(P)``. The proper rules of the n-th power are
    the paths of length n (length 0 being the identity program), and the
    union of the facts of the positive powers is the least model. All of
    them are read off reach rows over the alphabet, one block of it at a
    time (see ``_reaches``): the facts are the root's row.
    """
    return _paths(program, alphabet, strict=False)


def plus(program: Program, alphabet: Alphabet) -> Program:
    """The union of all positive composition powers: ``star(P) . P``.

    Closed form: the proper rule ``h :- b`` for every ``h`` reachable by a
    path of length at least one from ``b``, that is from a successor of
    ``b``, and the fact ``h`` for every ``h`` in ``omega(P)``, which the
    root reaches by such paths. Computed over the same blocks of the
    alphabet as :func:`star`, without building the star: the row of a
    vertex, the root's included, is the OR of its successors' rows.
    """
    return _paths(program, alphabet, strict=True)


def _paths(program: Program, alphabet: Alphabet, strict: bool) -> Program:
    # h :- b for every vertex b and every atom h of the alphabet reachable
    # from b by a path of at least one edge if strict, of any length
    # otherwise. The root b = None reaches no atom by a path of no edges,
    # so its pairs (h, None) are the least model as facts either way.
    _require_covers(atoms(program).atoms, alphabet)
    return Program._wrap(frozenset(map(_rule, chain.from_iterable(
        zip(_members(row, block), repeat(b))
        for block, rows in _reaches(_graph(program.rules), alphabet.atoms, strict)
        for b, row in rows.items()
    ))))


# Targets per block of reach rows: a row holds at most this many bits.
_WIDTH = 1 << 13


def _reaches(
    edges: dict[Atom | None, list[Atom]], targets: Iterable[Atom], strict: bool
) -> Iterator[tuple[list[Atom], dict[Atom | None, int]]]:
    # Which targets each vertex reaches along `edges` (the digraph of
    # `_graph`, the root included): by a path of at least one edge if
    # strict, of any length otherwise. The sorted targets are cut into
    # blocks of `_WIDTH`, and per block this yields the block and its rows
    # from `_rows`. Every call with the same targets cuts the same blocks.
    parents: dict[Atom, list[Atom | None]] = {}
    for b, hs in edges.items():
        for h in hs:
            parents.setdefault(h, []).append(b)
    targets = sorted(targets)
    for start in range(0, len(targets), _WIDTH):
        block = targets[start:start + _WIDTH]
        yield block, _rows(edges, parents, block, strict)


def _rows(
    edges: dict[Atom | None, list[Atom]],
    parents: dict[Atom, list[Atom | None]],
    block: list[Atom],
    strict: bool,
) -> dict[Atom | None, int]:
    # The reach rows over one block of targets, {vertex: row}, of the
    # vertices whose row is not empty: bit i of a row stands for block[i].
    # `parents` is `edges` reversed.
    #
    # Kosaraju's two searches condense the digraph on the vertices that
    # reach the block (Sharir, Comput. Math. Appl. 1981). The first, a
    # depth-first search up `parents` from the block, finds exactly those
    # vertices, `seen`, and lists each in `order` once the search above it
    # is done, so every component ends in `order` after all the vertices of
    # the components above it. The second takes `order` backwards: each
    # vertex still in `seen` starts a search down `edges` through the
    # vertices still in `seen`, taking each out as it goes, and that search
    # finds exactly the vertex's component, with every component below it
    # already done. The component's row is the bits of its own targets ORed
    # with the rows of the done vertices it meets (Purdom, BIT 1970); an
    # edge to a vertex the first search did not find leads to no target.
    # Each search costs O(n + m) steps over the vertices and rules that
    # reach the block, the second each an OR of rows of at most `_WIDTH`
    # bits.
    bit = {a: 1 << i for i, a in enumerate(block)}
    seen = set()
    order: list[Atom | None] = []
    # The first search starts at `...`, a sentinel that is neither an atom
    # nor the root and whose parents are the block's atoms, and drops it
    # from `order` once it is done.
    work = [(..., iter(block))]
    while work:
        v, todo = work[-1]
        for w in todo:
            if w not in seen:
                seen.add(w)
                work.append((w, iter(parents.get(w, ()))))
                break
        else:
            work.pop()
            order.append(v)
    order.pop()
    row: dict[Atom | None, int] = {}  # the row of a vertex's component, once it is done
    for top in reversed(order):
        if top not in seen:
            continue
        seen.remove(top)
        members = [top]
        r = 0
        for v in members:
            r |= bit.get(v, 0)
            for w in edges.get(v, ()):
                if w in seen:
                    seen.remove(w)
                    members.append(w)
                else:
                    r |= row.get(w, 0)
        row.update(zip(members, repeat(r)))
    if strict:
        return {
            v: r for v in order if (r := reduce(or_, map(row.get, edges.get(v, ()), repeat(0)), 0))
        }
    return row


def _graph(rules: Iterable[Rule]) -> dict[Atom | None, list[Atom]]:
    # The heads of the rules keyed by their body: the digraph with an edge
    # body -> head per rule. A fact's body is None, the root, so the key
    # None lists the facts.
    edges: dict[Atom | None, list[Atom]] = {}
    for head, body in rules:
        edges.setdefault(body, []).append(head)
    return edges


def _closure(edges: dict[Atom | None, list[Atom]], seeds: Iterable[Atom | None]) -> set:
    # Every atom reachable from the root or from the seeds, the seeds
    # included and the root left out.
    seen = {None, *seeds}
    stack = list(seen)
    while stack:
        for h in edges.get(stack.pop(), ()):
            if h not in seen:
                seen.add(h)
                stack.append(h)
    seen.discard(None)
    return seen


_BITS = bytes.maketrans(b"01", b"\0\1")


def _members(bits: int, block: list[Atom]) -> Iterator[Atom]:
    # The atoms of a non-empty row over a block, in block order. It starts
    # at the lowest set bit, so it costs the span of the row's bits.
    low = (bits & -bits).bit_length() - 1
    flags = bin(bits >> low)[:1:-1].encode().translate(_BITS)
    return compress(block[low:bits.bit_length()], flags)


def omega(program: Program) -> Interpretation:
    """The least model: every atom derivable from the facts.

    Computed as graph reachability: everything the root reaches along the
    edge ``root -> a`` of every fact ``a`` and the edge ``body -> head`` of
    every proper rule. Equals the union of the fact parts of all positive
    composition powers.
    """
    return Interpretation._wrap(frozenset(_closure(_graph(program.rules), ())))


def models(interp: AtomSet, program: Program) -> bool:
    """True iff the interpretation satisfies every rule of the program.

    Composing with an interpretation ``I`` (as facts) is the
    immediate-consequence step, so ``I`` is a model of ``P`` iff the heads
    of ``P . I`` lie in ``I``: every fact of ``P``, and the head of every
    rule of ``P`` whose body is in ``I``. This checks that rule by rule,
    without building ``P . I``. Any atom set serves as ``I``, an
    :class:`Alphabet` included.
    """
    held = interp.atoms
    return all(r.head in held for r in program.rules if r.body is None or r.body in held)


def reach(program: Program, interp: Interpretation) -> Interpretation:
    """Atoms reachable from the interpretation along proper-rule edges.

    The input atoms themselves are always included. Atoms foreign to the
    program are isolated vertices and map to themselves. Rejects programs
    containing facts, naming the least one; reachability is an edge-set
    notion.
    """
    edges = _graph(program.rules)
    if None in edges:
        raise ValueError(f"expected a proper-rules-only program, found fact {min(edges[None])}")
    return Interpretation._wrap(frozenset(_closure(edges, interp.atoms)))


def extend_omega(k: Program, interp: Interpretation) -> Interpretation:
    """Least model of the program extended with the interpretation as facts.

    Equals ``omega(k | interp.as_program())`` but never materializes the
    union: one search runs from the root, which reaches the facts, and
    from the interpretation's atoms.
    """
    return Interpretation._wrap(frozenset(_closure(_graph(k.rules), interp.atoms)))
