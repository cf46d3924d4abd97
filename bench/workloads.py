"""The benchmark's workloads: inputs built from a seed, and a fixed job list.

A workload's ``build`` is its set-up (it is what ``setup_s`` times): it draws
random programs with ``krom.gen.random_program``, builds chain and cycle
shapes itself, and, for ``cli``, writes the input files. It returns the job
list of one pass. A job is either an in-process call (``call``) or a
``krom`` command line (``argv``); ``check`` turns the job's output into an
error message, or None when it is right. Checks run after the timed loop
and compute their reference answers with ``reference`` (never with krom),
or compare with a SHA-256 pinned in ``pins.json``.

``smoke`` selects tiny sizes with the same job mix.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import krom
import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "pins.json")) as _f:
    PINS = json.load(_f)

# Seed-independent inputs whose outputs are pinned in pins.json, keyed by
# ``smoke``: the exponent N of the 3-cycle a -> b -> c -> a (not a multiple
# of 3, so the result is a proper rotation), and the redundant shapes given
# to minimize (see ``minimize_shape``).
POWER_N = {False: 30_001, True: 301}
MIN_SHAPES = {
    False: [("cycle", 24, (2, 3)), ("closed_chain", 16, ())],
    True: [("cycle", 6, (2,)), ("closed_chain", 5, ())],
}
CYCLE3 = ["a", "b", "c"]


def power_pin(n: int) -> str:
    return f"power/cycle3/N={n}"


# Atom names that sort after every generated ``x<i>`` atom, so a decider
# scanning atoms in sorted order reaches the difference last.
LATE_BODY, LATE_HEAD = "zy", "zz"


@dataclass
class Job:
    name: str
    check: Callable[[object], "str | None"]
    call: Callable[[], object] | None = None
    argv: list | None = None


@dataclass
class Workload:
    jobs: list
    limit_s: float
    shape: dict


def _sizes(smoke: bool):
    """``s(full, tiny)`` picks the full-size or the smoke-size value."""
    return (lambda full, tiny: tiny) if smoke else (lambda full, tiny: full)


def _rules(program) -> frozenset:
    return frozenset((r.head, r.body) for r in program.rules)


def _program(rules) -> "krom.Program":
    return krom.Program(krom.Rule(krom.Atom(h), None if b is None else krom.Atom(b)) for h, b in rules)


def _draw(rng, atoms: int, rules: int, fact_ratio: float) -> frozenset:
    config = krom.GenConfig(atoms, rules, fact_ratio, rng.getrandbits(32))
    return _rules(krom.random_program(config))


def _shortcuts(rules, limit: int, rng) -> frozenset:
    """Rules ``a :- c`` for two-step paths ``a :- b, b :- c`` not already in
    ``rules``: adding them keeps every least model under every extension."""
    proper = sorted(r for r in rules if r[1] is not None)
    by_head: dict = {}
    for h, b in proper:
        by_head.setdefault(h, []).append(b)
    rng.shuffle(proper)
    found: set = set()
    for h, b in proper:
        found.update((h, c) for c in by_head.get(b, ()) if (h, c) not in rules)
        if len(found) >= limit:
            break
    return frozenset(sorted(found)[:limit])


def equiv_pair_variants(rules, rng) -> dict:
    """Partners of ``rules`` whose verdicts are known by construction.

    ``eq`` adds derivable shortcuts (uniformly and least-model equivalent);
    ``neq_uniform`` adds ``zz :- zy`` over two fresh late atoms (same least
    model, and the uniform decider must scan every atom before the witness
    ``{zy}``); ``neq_lm`` adds the fresh fact ``zz`` (least models differ).
    """
    return {
        "eq": rules | _shortcuts(rules, 50, rng),
        "neq_uniform": rules | {(LATE_HEAD, LATE_BODY)},
        "neq_lm": rules | {(LATE_HEAD, None)},
    }


def _expect_equal(expected, actual_rules) -> "str | None":
    if actual_rules == expected:
        return None
    return f"{len(actual_rules ^ expected)} rules differ from the reference"


def _program_check(reference_fn, pin: str | None = None):
    """Check a Program result against ``reference_fn()`` and an optional pin."""
    def check(result):
        actual = _rules(result)
        if pin is not None and ref.digest(actual) != PINS[pin]:
            return f"output digest differs from pin {pin}"
        return _expect_equal(reference_fn(), actual)
    return check


def _verdict_check(equal: bool, witness=None):
    def check(verdict):
        if verdict.equal != equal:
            return f"verdict {verdict.equal}, expected {equal}"
        if witness is not None and (verdict.witness is None or set(verdict.witness) != witness):
            return f"witness {verdict.witness}, expected {witness}"
        return None
    return check


def _set_check(reference_fn):
    def check(result):
        return None if set(result) == reference_fn() else "atom set differs from the reference"
    return check


# ---------------------------------------------------------------- pass layout
#
# The latency metrics are read off the per-job best times of a pass (see
# run.py), so each workload lays out its pass for them: the median and the
# tenth-slowest job each fall well inside a group of identical copies of one
# job whose cost hardly moves with the seed, and every other job is clearly
# lighter or heavier than that group whatever the seed. A median or tail that sat on the
# boundary of two groups would jump between them from run to run.

def _copies(jobs: list, count: int, name: str, check, call=None, argv=None) -> None:
    """``count`` copies of one job; they share the name, and with it one best time."""
    jobs.extend(Job(name, check, call=call, argv=argv) for _ in range(count))


# ---------------------------------------------------------------- closure_equiv

def build_closure_equiv(seed: int, workdir: str, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    s = _sizes(smoke)
    shape = {
        "sparse": s((150, 600), (30, 60)),
        "dense": s((80, 1600), (12, 80)),
        # Light jobs below the median group: lm_equiv on the sparse pairs
        # and extend_omega from seed atoms of the sparse program.
        "extend_sparse": s(26, 26),
        # The median group: copies of lm_equiv on the dense equal pair.
        "lm_dense_copies": s(12, 12),
        "extend_dense": s(6, 6),
        "extend_seeds": 3,
        "closure_random": s((60, 180), (10, 25)),
        "cycle_len": s(40, 6),
        # The tail group: copies of star of a chain, lighter only than
        # plus of that chain and the three powers.
        "chain_len": s(60, 8),
        "chain_star_copies": s(12, 12),
        "power_n": POWER_N[smoke],
    }
    jobs = []
    for kind in ("sparse", "dense"):
        n, m = shape[kind]
        base = _draw(rng, n, m, 0.02)
        variants = equiv_pair_variants(base, rng)
        k = _program(base)
        progs = {key: _program(v) for key, v in variants.items()}
        jobs.append(Job(f"uniform_equiv/{kind}/eq", _verdict_check(True),
                        call=lambda k=k, l=progs["eq"]: krom.uniform_equiv(k, l)))
        jobs.append(Job(f"uniform_equiv/{kind}/neq", _verdict_check(False, {LATE_BODY}),
                        call=lambda k=k, l=progs["neq_uniform"]: krom.uniform_equiv(k, l)))
        if kind == "sparse":
            for rep in range(2):
                for key, equal in (("eq", True), ("neq_uniform", True), ("neq_lm", False)):
                    jobs.append(Job(f"lm_equiv/{kind}/{key}/{rep}", _verdict_check(equal),
                                    call=lambda k=k, l=progs[key]: krom.lm_equiv(k, l)))
        else:
            _copies(jobs, shape["lm_dense_copies"], "lm_equiv/dense/eq", _verdict_check(True),
                    call=lambda k=k, l=progs["eq"]: krom.lm_equiv(k, l))
        names = sorted(ref.atoms_of(base))
        for i in range(shape[f"extend_{kind}"]):
            seeds = frozenset(rng.sample(names, shape["extend_seeds"]))
            interp = krom.Interpretation(seeds)
            jobs.append(Job(f"extend_omega/{kind}/{i}",
                            _set_check(lambda b=base, x=seeds: set(ref.least_model(b, x))),
                            call=lambda k=k, i=interp: krom.extend_omega(k, i)))

    n, m = shape["closure_random"]
    for i in range(2):
        rules = _draw(rng, n, m, 0.05)
        p = _program(rules)
        alphabet = krom.atoms(p)
        names = sorted(ref.atoms_of(rules))
        jobs.append(Job(f"star/random/{i}", _program_check(lambda r=rules, a=names: ref.star(r, a)),
                        call=lambda p=p, a=alphabet: krom.star(p, a)))
        jobs.append(Job(f"plus/random/{i}", _program_check(lambda r=rules, a=names: ref.plus(r, a)),
                        call=lambda p=p, a=alphabet: krom.plus(p, a)))

    names = ref.chain_names("r", shape["cycle_len"])
    p, alphabet = _program(ref.cycle(names)), krom.Alphabet(names)
    closure = lambda: ref.cycle_closure(names)  # noqa: E731
    jobs.append(Job("star/cycle", _program_check(closure), call=lambda: krom.star(p, alphabet)))
    jobs.append(Job("plus/cycle", _program_check(closure), call=lambda: krom.plus(p, alphabet)))

    chain_names = ref.chain_names("c", shape["chain_len"] + 1)
    chain, chain_alphabet = _program(ref.chain(chain_names)), krom.Alphabet(chain_names)
    _copies(jobs, shape["chain_star_copies"], "star/chain",
            _program_check(lambda: ref.chain_closure(chain_names, True)),
            call=lambda: krom.star(chain, chain_alphabet))
    jobs.append(Job("plus/chain", _program_check(lambda: ref.chain_closure(chain_names, False)),
                    call=lambda: krom.plus(chain, chain_alphabet)))

    p3 = _program(ref.cycle(CYCLE3))
    a3 = krom.Alphabet(CYCLE3)
    n = shape["power_n"]
    _copies(jobs, 3, power_pin(n), _program_check(lambda: ref.cycle_power(CYCLE3, n), pin=power_pin(n)),
            call=lambda: krom.power(p3, n, a3))
    return Workload(_interleave(jobs), limit_s=30.0, shape=shape)


# ---------------------------------------------------------------- minimize

def minimize_shape(kind: str, length: int, spans) -> tuple:
    """A seed-independent program with many redundant rules, and its pin name.

    ``cycle``: a cycle plus chords ``names[i+k] :- names[i]`` for each k in
    ``spans``; every chord is derivable along the cycle, and so are some
    cycle edges once chords are kept, so the greedy order decides what
    survives. ``closed_chain``: every edge ``names[j] :- names[i]``, i < j,
    which minimizes to the chain itself.
    """
    names = ref.chain_names("m", length)
    if kind == "cycle":
        chords = {(names[(i + k) % length], names[i]) for i in range(length) for k in spans}
        return f"minimize/cycle/L={length}/spans={','.join(map(str, spans))}", ref.cycle(names) | chords
    return f"minimize/closed_chain/L={length}", ref.chain_closure(names, reflexive=False)


def build_minimize(seed: int, workdir: str, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    s = _sizes(smoke)
    shape = {
        # The random programs vary the input with the seed and stay lighter
        # than the fixed shapes; the first shape (a chorded cycle) is the
        # median group and the second (the closed chain, heavier) holds the
        # tail.
        "random": s([(12, 4), (14, 4), (16, 4)], [(6, 3), (8, 3), (10, 3)]),
        "rules_per_atom": 3.5,
        "shapes": MIN_SHAPES[smoke],
        "copies_per_shape": s([12, 14], [6, 12]),
    }
    jobs = []
    for n, count in shape["random"]:
        for i in range(count):
            rules = _draw(rng, n, int(n * shape["rules_per_atom"]), 0.1)
            p = _program(rules)
            jobs.append(Job(f"minimize/random/n={n}/{i}", _program_check(lambda r=rules: ref.minimize(r)),
                            call=lambda p=p: krom.minimize(p)))
    for (kind, length, spans), copies in zip(shape["shapes"], shape["copies_per_shape"]):
        name, rules = minimize_shape(kind, length, spans)
        p = _program(rules)
        _copies(jobs, copies, name, _program_check(lambda r=rules: ref.minimize(r), pin=name),
                call=lambda p=p: krom.minimize(p))
    return Workload(_interleave(jobs), limit_s=60.0, shape=shape)


# ---------------------------------------------------------------- cli

def _write(path: str, rules) -> None:
    with open(path, "w") as f:
        f.write(ref.render(rules))


def _text_check(code: int, expected_fn):
    def check(output):
        got_code, stdout = output
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        if stdout != expected_fn().encode():
            return "stdout differs from the reference"
        return None
    return check


def build_cli(seed: int, workdir: str, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    s = _sizes(smoke)
    shape = {
        # The tail group: copies of ``check`` on the big file; ``lm`` on it
        # costs about the same, and five jobs are clearly heavier.
        "big": s((600, 10_000), (40, 200)),
        "check_copies": s(10, 10),
        "mid": s((250, 3_000), (15, 60)),
        "gen": s((500, 1000), (20, 30)),
        # The median group: copies of ``check`` on a tiny file, the job that
        # is process start and ``import krom`` and next to nothing else.
        "tiny": s((6, 6), (3, 3)),
        "tiny_copies": s(36, 36),
        # Small enough that process start dominates, but each does a little
        # more than the tiny ``check``, so they sort above the median group.
        "small_atoms": s([10, 14], [4, 6]),
        "small_rules_per_atom": 3,
        "power": s((30, 300), (4, 7)),
    }
    os.makedirs(workdir, exist_ok=True)

    def path(name):
        return os.path.join(workdir, name)

    jobs = []
    n, m = shape["big"]
    big = _draw(rng, n, m, 0.01)
    big_variants = equiv_pair_variants(big, rng)
    _write(path("big.krom"), big)
    _write(path("big_eq.krom"), big_variants["eq"])
    _write(path("big_neq.krom"), big_variants["neq_lm"])
    big_file = path("big.krom")
    _copies(jobs, shape["check_copies"], "check", _text_check(0, lambda: ""), argv=["check", big_file])
    jobs.append(Job("lm", _text_check(0, lambda: "".join(f"{a}\n" for a in sorted(ref.least_model(big)))),
                    argv=["lm", big_file]))
    jobs.append(Job("dot", _text_check(0, lambda: ref.dot(big)), argv=["dot", big_file]))
    jobs.append(Job("equiv-lm/eq", _text_check(0, lambda: "equivalent\n"),
                    argv=["equiv", "--mode", "lm", big_file, path("big_eq.krom")]))
    jobs.append(Job("equiv-lm/neq", _text_check(1, lambda: "not equivalent\n"),
                    argv=["equiv", "--mode", "lm", big_file, path("big_neq.krom")]))

    gen_atoms, gen_rules = shape["gen"]
    gseed = rng.getrandbits(32)
    jobs.append(Job("gen", _text_check(0, lambda: ref.render(ref.random_program(gen_atoms, gen_rules, 0.1, gseed))),
                    argv=["gen", "--atoms", str(gen_atoms), "--rules", str(gen_rules),
                          "--fact-ratio", "0.1", "--seed", str(gseed)]))

    n, m = shape["mid"]
    mids = [_draw(rng, n, m, 0.02) for _ in range(2)]
    _write(path("mid_a.krom"), mids[0])
    _write(path("mid_b.krom"), mids[1])
    jobs.append(Job("compose", _text_check(0, lambda: ref.render(ref.compose(mids[0], mids[1]))),
                    argv=["compose", path("mid_a.krom"), path("mid_b.krom")]))

    n, m = shape["tiny"]
    _write(path("tiny.krom"), _draw(rng, n, m, 0.2))
    _copies(jobs, shape["tiny_copies"], "check-tiny", _text_check(0, lambda: ""),
            argv=["check", path("tiny.krom")])

    for n in shape["small_atoms"]:
        rules = _draw(rng, n, n * shape["small_rules_per_atom"], 0.1)
        variants = equiv_pair_variants(rules, rng)
        f = path(f"small{n}.krom")
        _write(f, rules)
        _write(path(f"small{n}_eq.krom"), variants["eq"])
        _write(path(f"small{n}_neq.krom"), variants["neq_uniform"])
        names = sorted(ref.atoms_of(rules))
        jobs.append(Job(f"star/n={n}", _text_check(0, lambda r=rules, a=names: ref.render(ref.star(r, a))),
                        argv=["star", f]))
        jobs.append(Job(f"plus/n={n}", _text_check(0, lambda r=rules, a=names: ref.render(ref.plus(r, a))),
                        argv=["plus", f]))
        jobs.append(Job(f"minimize/n={n}", _text_check(0, lambda r=rules: ref.render(ref.minimize(r))),
                        argv=["minimize", f]))
        jobs.append(Job(f"equiv-uniform/n={n}/eq", _text_check(0, lambda: "equivalent\n"),
                        argv=["equiv", "--mode", "uniform", f, path(f"small{n}_eq.krom")]))
        jobs.append(Job(f"equiv-uniform/n={n}/neq",
                        _text_check(1, lambda: f"not equivalent\nwitness: {{{LATE_BODY}}}\n"),
                        argv=["equiv", "--mode", "uniform", f, path(f"small{n}_neq.krom")]))

    length, power_n = shape["power"]
    names = ref.chain_names("p", length)
    _write(path("cycle.krom"), ref.cycle(names))
    for n in range(power_n, power_n + 3):
        jobs.append(Job(f"power/N={n}", _text_check(0, lambda n=n: ref.render(ref.cycle_power(names, n))),
                        argv=["power", path("cycle.krom"), str(n)]))
    return Workload(_interleave(jobs), limit_s=60.0, shape=shape)


def _interleave(jobs: list) -> list:
    """Spread job kinds evenly over the pass, so a fast or slow stretch of
    the machine during a pass falls on every kind of job alike; the order
    is fixed by the job names alone."""
    groups: dict = {}
    for job in jobs:
        groups.setdefault(job.name.split("/", 1)[0], []).append(job)
    keyed = []
    for members in groups.values():
        for i, job in enumerate(members):
            keyed.append(((i + 0.5) / len(members), job.name, job))
    return [job for _, _, job in sorted(keyed, key=lambda t: t[:2])]


BUILDERS = {"cli": build_cli, "closure_equiv": build_closure_equiv, "minimize": build_minimize}
