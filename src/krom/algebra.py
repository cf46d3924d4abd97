"""Core algebra of propositional Krom logic programs.

A Krom program is a finite set of rules over propositional atoms, where
every rule is either a fact ``a`` or a proper rule ``a :- b`` with exactly
one body atom. Programs form an algebra under sequential composition:
``compose(K, L)`` keeps the facts of K, fires K's proper rules on the facts
of L, and chains K's proper rules through L's proper rules. Iterating
composition yields the closure operators ``power``, ``star``, and ``plus``;
``omega`` computes the least model.

A program is a digraph with one vertex per atom and a root standing for
the empty body: a proper rule ``a :- b`` is an edge from b to a, and a fact
``a`` an edge from the root to a. A ``Program`` is stored as that digraph,
the heads of its rules keyed by their body and the facts under the root
``None``, and makes ``Rule`` objects only when it is iterated or asked for
its ``rules``. Most questions about a program are reachability questions,
and they read the stored digraph as it is. ``omega``, ``reach`` and
``extend_omega`` ask what the root and one set of seeds reach, and run one
search from them. ``star``, ``plus`` and ``equivalence.uniform_equiv`` ask
which of a set of target atoms every vertex reaches: the alphabet for
``star`` and ``plus``, whose facts are the root's reach, and for
``uniform_equiv`` the heads of the rules that one program has and the other
lacks. They read it off reach rows, one bitset per vertex over a block of
targets at a time. Each block takes two searches over the vertices that
reach it: one up the rules finds them, and one down the rules condenses
them and builds their rows. ``star`` and ``plus`` keep one tuple of heads
per row, and ``compose`` joins the two digraphs body by body.
All values are immutable after construction and safe to share between
threads; every operation is a pure function of its inputs.

Validation happens once, where input enters: the public constructors of
``Atom``, ``Program``, ``Interpretation`` and ``Alphabet`` check every
value, ``Program`` each distinct atom once. Library results,
``textio.parse`` (one ``Atom`` per distinct name) and the ``gen`` functions
build their values from atoms that are already valid, through the
unchecked ``_wrap``.
"""

from __future__ import annotations

import re
import sys
from functools import partial, reduce
from itertools import chain, compress, filterfalse, repeat
from operator import and_, eq, le, lt, or_, sub
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
        return self.head if self.body is None else f"{self.head} :- {self.body}"


# A Rule from a (head, body) pair, for the programs the algebra builds from
# pairs. The generated Rule.__new__ does nothing more than tuple.__new__, so
# this skips only its Python frame. A fact's pair is (head, None).
_rule = partial(tuple.__new__, Rule)


def _pairs(items: Iterable[tuple]) -> Iterator[tuple]:
    # The (head, body) pair of every rule, from (body, heads) items.
    return chain.from_iterable(zip(hs, repeat(b)) for b, hs in items)


def fact(name: str) -> Rule:
    """Build a fact rule from an atom name."""
    return Rule(Atom(name))


def rule(head: str, body: str) -> Rule:
    """Build a proper rule ``head :- body`` from atom names."""
    return Rule(Atom(head), Atom(body))


def _canonical(edges: dict) -> dict:
    # The stored form of a Program from heads keyed by body: each body's
    # distinct heads as a sorted tuple, and no body without heads.
    return {b: tuple(sorted(hs)) for b, hs in edges.items() if hs}


class Program:
    """An immutable, duplicate-free set of rules, stored as its digraph.

    A program keeps the heads of its rules keyed by their body, with the
    facts under the root ``None``: each body maps to the sorted tuple of
    its heads, and no body maps to an empty one. That is one canonical
    form per rule set, so ``len``, ``==``, ``hash``, ``in``, ``|`` and
    ``-`` work body by body, and the graph questions of this module read
    it as it is. :attr:`rules` and iteration make :class:`Rule` objects on
    demand. Iteration is sorted (facts first by head, then proper rules by
    head and body), so rendering and witnesses never depend on insertion
    order. ``|`` and ``-`` give rule-set union and difference, and combine
    programs only.
    """

    __slots__ = ("_edges",)

    def __init__(self, rules: Iterable[Rule] = ()):
        rs = frozenset(rules)
        if not all(map(isinstance, rs, repeat(Rule))):
            raise TypeError(f"not a Rule: {next(r for r in rs if not isinstance(r, Rule))!r}")
        edges = _graph(rs)
        # Each distinct atom is checked once; a head of None is checked too.
        for a in edges.keys() - {None} | set(chain.from_iterable(edges.values())):
            Atom(a)
        self._edges = _canonical(edges)

    @classmethod
    def _wrap(cls, edges: dict[Atom | None, tuple[Atom, ...]]) -> "Program":
        # Trusted fast path: the caller guarantees that `edges` is in the
        # stored form and holds only atoms the public constructor accepts.
        p = object.__new__(cls)
        p._edges = edges
        return p

    @property
    def rules(self) -> frozenset[Rule]:
        return frozenset(map(_rule, _pairs(self._edges.items())))

    def __iter__(self) -> Iterator[Rule]:
        # The facts are sorted already; the proper rules sort as plain pairs.
        return map(_rule, chain(
            zip(self._edges.get(None, ()), repeat(None)),
            sorted(_pairs((b, hs) for b, hs in self._edges.items() if b is not None)),
        ))

    def __len__(self) -> int:
        return sum(map(len, self._edges.values()))

    def __contains__(self, item: object) -> bool:
        return isinstance(item, tuple) and len(item) == 2 and item[0] in self._edges.get(item[1], ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._edges == other._edges

    def __hash__(self) -> int:
        return hash(frozenset(self._edges.items()))

    def __or__(self, other: "Program") -> "Program":
        if not isinstance(other, Program):
            return NotImplemented
        mine, theirs = self._edges, other._edges
        return Program._wrap(_canonical({
            b: {*mine.get(b, ()), *theirs.get(b, ())} for b in mine.keys() | theirs.keys()
        }))

    def __sub__(self, other: "Program") -> "Program":
        if not isinstance(other, Program):
            return NotImplemented
        # A body under which both programs keep the same heads keeps none.
        theirs = other._edges
        return Program._wrap({
            b: kept for b, hs in self._edges.items()
            if hs != (drop := theirs.get(b, ()))
            and (kept := tuple(filterfalse(set(drop).__contains__, hs)))
        })

    def __repr__(self) -> str:
        return f"Program({{{', '.join(map(str, self))}}})"


def _atom_set_operator(op, wrap: bool):
    # An AtomSet operator: `op` on the two operands' frozensets of atoms,
    # with a set result wrapped in the type of the left operand. Any other
    # right operand gets NotImplemented.
    def operator(self, other):
        if not isinstance(other, AtomSet):
            return NotImplemented
        out = op(self._items, other._items)
        return self._wrap(out) if wrap else out

    return operator


class AtomSet:
    """A set of atoms: the base of :class:`Interpretation` and :class:`Alphabet`.

    An immutable finite set whose iteration is in atom order. The two
    compare equal when they hold the same atoms, and mix freely under
    ``|``, ``&``, ``-``, ``<=`` and ``<``; results take the type of the
    left operand, and anything but an atom set gets ``NotImplemented``.
    """

    __slots__ = ("_items",)

    def __init__(self, atoms: Iterable[str] = ()):
        self._items = frozenset(Atom(a) for a in atoms)

    @classmethod
    def _wrap(cls, items: frozenset):
        # Trusted fast path: the caller guarantees every item is an Atom.
        s = object.__new__(cls)
        s._items = items
        return s

    @property
    def atoms(self) -> frozenset[Atom]:
        return self._items

    def __iter__(self) -> Iterator[Atom]:
        return iter(sorted(self._items))

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __hash__(self) -> int:
        return hash(self._items)

    __eq__ = _atom_set_operator(eq, wrap=False)
    __le__ = _atom_set_operator(le, wrap=False)
    __lt__ = _atom_set_operator(lt, wrap=False)
    __or__ = _atom_set_operator(or_, wrap=True)
    __sub__ = _atom_set_operator(sub, wrap=True)
    __and__ = _atom_set_operator(and_, wrap=True)

    def __str__(self) -> str:
        return "{" + ", ".join(self) + "}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}([{', '.join(map(repr, self))}])"


class Interpretation(AtomSet):
    """A set of atoms, identified with the facts-only program over it."""

    def as_program(self) -> Program:
        return Program._wrap(_canonical({None: self._items}))

    @classmethod
    def from_program(cls, program: Program) -> "Interpretation":
        """Inverse of :meth:`as_program`; rejects programs with proper rules."""
        bad = proper(program)
        if bad:
            raise ValueError(f"not a facts-only program: contains {next(iter(bad))}")
        return cls._wrap(frozenset(program._edges.get(None, ())))


class Alphabet(AtomSet):
    """The ambient universe of atoms; parameterizes the identity program."""


def atoms(program: Program) -> Alphabet:
    """Every atom occurring in the program, as head, body, or fact.

    The bodies and the heads of the stored digraph, less the root ``None``
    under which the facts are kept.
    """
    return Alphabet._wrap(frozenset(chain(program._edges, heads(program).atoms)) - {None})


def facts(program: Program) -> Interpretation:
    """The fact atoms of the program."""
    return Interpretation._wrap(frozenset(program._edges.get(None, ())))


def proper(program: Program) -> Program:
    """The subset of proper rules of the program."""
    return Program._wrap({b: hs for b, hs in program._edges.items() if b is not None})


def heads(program: Program) -> Interpretation:
    """All rule heads; a fact counts as its own head."""
    return Interpretation._wrap(frozenset(chain.from_iterable(program._edges.values())))


def compose(k: Program, l: Program) -> Program:
    """Sequential composition of two programs.

    The result is the union of three clause sets:

    * every fact of ``k``,
    * the fact ``a`` for every proper rule ``a :- b`` of ``k`` whose body
      ``b`` is a fact of ``l``,
    * the proper rule ``a :- c`` for every ``a :- b`` in ``k`` chained with
      ``b :- c`` in ``l``.

    A fact ``b`` is the rule ``b`` with an empty body, so the last two sets
    are one product of the two digraphs: the heads of the result under a
    body ``c`` of ``l``, the root included, are the heads that ``k`` keeps
    under the heads ``l`` keeps under ``c``. The first set is the heads
    ``k`` keeps under the root itself.
    """
    get = k._edges.get
    out = {}
    for c, bs in l._edges.items():
        out[c] = hs = set()
        for b in bs:
            hs.update(get(b, ()))
    if None in k._edges:
        out[None] = out.get(None, set()).union(get(None))
    return Program._wrap(_canonical(out))


def unit(alphabet: Alphabet) -> Program:
    """The identity program over the alphabet: one self-loop per atom.

    It is the two-sided identity of :func:`compose` for every program whose
    atoms lie inside the alphabet.
    """
    return Program._wrap({a: (a,) for a in alphabet.atoms})


def _require_covers(program_atoms: set | frozenset, alphabet: Alphabet) -> None:
    extra = program_atoms - alphabet.atoms
    if extra:
        raise ValueError(f"program atoms not in the alphabet: {', '.join(sorted(extra))}")


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
    # Each block's row of b adds b's heads in that block, after those of
    # the blocks before it, so every head tuple comes out sorted.
    _require_covers(atoms(program).atoms, alphabet)
    edges: dict[Atom | None, tuple[Atom, ...]] = {}
    for block, rows in _reaches(program._edges, alphabet.atoms, strict):
        for b, row in rows.items():
            edges[b] = (*edges.get(b, ()), *_members(row, block))
    return Program._wrap(edges)


# Targets per block of reach rows: a row holds at most this many bits.
_WIDTH = 1 << 13


def _reaches(
    edges: dict[Atom | None, Iterable[Atom]], targets: Iterable[Atom], strict: bool
) -> Iterator[tuple[list[Atom], dict[Atom | None, int]]]:
    # Which targets each vertex reaches along `edges` (a program's stored
    # digraph, the root included): by a path of at least one edge if
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
    edges: dict[Atom | None, Iterable[Atom]],
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


def _graph(rules: Iterable[Rule]) -> dict[Atom | None, Iterable[Atom]]:
    # The heads of the rules keyed by their body: the digraph with an edge
    # body -> head per rule. A fact's body is None, the root, so the key
    # None lists the facts.
    edges: dict[Atom | None, Iterable[Atom]] = {}
    for head, body in rules:
        edges.setdefault(body, []).append(head)
    return edges


def _closure(edges: dict[Atom | None, Iterable[Atom]], seeds: Iterable[Atom | None]) -> set:
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
    return Interpretation._wrap(frozenset(_closure(program._edges, ())))


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
    return all(held.issuperset(hs) for b, hs in program._edges.items() if b is None or b in held)


def reach(program: Program, interp: Interpretation) -> Interpretation:
    """Atoms reachable from the interpretation along proper-rule edges.

    The input atoms themselves are always included. Atoms foreign to the
    program are isolated vertices and map to themselves. Rejects programs
    containing facts, naming the least one; reachability is an edge-set
    notion.
    """
    edges = program._edges
    if None in edges:
        raise ValueError(f"expected a proper-rules-only program, found fact {edges[None][0]}")
    return Interpretation._wrap(frozenset(_closure(edges, interp.atoms)))


def extend_omega(k: Program, interp: Interpretation) -> Interpretation:
    """Least model of the program extended with the interpretation as facts.

    Equals ``omega(k | interp.as_program())`` but never materializes the
    union: one search runs from the root, which reaches the facts, and
    from the interpretation's atoms.
    """
    return Interpretation._wrap(frozenset(_closure(k._edges, interp.atoms)))
