#!/usr/bin/env python3
"""Planted faults that the tier-1 suite must catch.

    python3 tests/mutants.py            # every entry that is not equivalent
    python3 tests/mutants.py NAME ...   # the named entries only
    python3 tests/mutants.py --list     # the catalogue, one line per entry

Each entry of ``CATALOGUE`` is one exact text replacement in one module of
``src/krom``: a fault that a plausible edit could make. The script copies
``src``, ``tests``, ``bench`` and ``pyproject.toml`` to a temporary
directory, checks that the suite passes there as it is, and then applies
one entry at a time and runs the suite with ``-x``, so the first failing
test ends the run and is named as the mutant's killer. Acceptance
criterion 8 is left out of every run: it fails on purpose (see README).

An entry whose text no longer occurs exactly once is stale and counts as a
failure, so the catalogue moves with the code. ``EQUIVALENT`` lists faults
that change the code but not its answers, with the reason; they are listed
and not run. The exit status is 1 if a mutant survives, an entry is stale,
or the unmutated copy fails, and 0 otherwise. Uses the standard library
only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOWN_RED = "tests/test_acceptance.py::test_criterion_08_subsumption_collapse_to_rule_set_equality"

# name -> (module, exact old text, new text)
CATALOGUE = {
    # Deciders.
    "witness-max": (
        "equivalence.py",
        "Interpretation([min(differ)])",
        "Interpretation([max(differ)])",
    ),
    "lm-nested-wrong-model": (
        "equivalence.py",
        "models(omega(small), large)",
        "models(omega(large), large)",
    ),
    "lm-by-size": (
        "equivalence.py",
        "EquivVerdict(omega(k) == omega(l))",
        "EquivVerdict(len(omega(k)) == len(omega(l)))",
    ),
    "targets-keep-base": (
        "equivalence.py",
        "(heads(k - l) | heads(l - k)).atoms - base",
        "(heads(k - l) | heads(l - k)).atoms",
    ),
    "targets-one-side": (
        "equivalence.py",
        "(heads(k - l) | heads(l - k)).atoms - base",
        "heads(k - l).atoms - base",
    ),
    "witness-from-row-owners": (
        "equivalence.py",
        "rows_k.items() ^ rows_l.items()",
        "rows_k.keys() ^ rows_l.keys()",
    ),
    "minimize-seeds-fact-head": (
        "equivalence.py",
        "_closure(_graph(current), (r.body,))",
        "_closure(_graph(current), (r.body or r.head,))",
    ),
    "minimize-head-order": (
        "equivalence.py",
        "    for r in order:\n",
        "    for r in sorted(order, key=lambda r: r.head):\n",
    ),
    # The graph kernel.
    "closure-keeps-root": (
        "algebra.py",
        "    seen.discard(None)\n    return seen",
        "    if seeds:\n        seen.discard(None)\n    return seen",
    ),
    "paths-last-block-only": (
        "algebra.py",
        "edges[b] = (*edges.get(b, ()), *_members(row, block))",
        "edges[b] = tuple(_members(row, block))",
    ),
    "compose-drops-facts": (
        "algebra.py",
        "out.get(None, set()).union(get(None))",
        "out.get(None, set())",
    ),
    # The stored form of a Program.
    "program-skips-bodies": (
        "algebra.py",
        "for a in edges.keys() - {None} | set(chain.from_iterable(edges.values())):",
        "for a in set(chain.from_iterable(edges.values())):",
    ),
    "canonical-unsorted": (
        "algebra.py",
        "{b: tuple(sorted(hs)) for b, hs in edges.items() if hs}",
        "{b: tuple(hs) for b, hs in edges.items() if hs}",
    ),
    "eq-keys-only": (
        "algebra.py",
        "return self._edges == other._edges",
        "return self._edges.keys() == other._edges.keys()",
    ),
    "sub-keeps-empty-tuples": (
        "algebra.py",
        "if hs != (drop := theirs.get(b, ()))\n"
        "            and (kept := tuple(filterfalse(set(drop).__contains__, hs)))",
        "if (kept := tuple(filterfalse(set(theirs.get(b, ())).__contains__, hs))) or True",
    ),
    "or-left-bodies-only": (
        "algebra.py",
        "for b in mine.keys() | theirs.keys()",
        "for b in mine.keys()",
    ),
    "len-skips-facts": (
        "algebra.py",
        "return sum(map(len, self._edges.values()))",
        "return sum(len(hs) for b, hs in self._edges.items() if b is not None)",
    ),
    "rules-drop-facts": (
        "algebra.py",
        "frozenset(map(_rule, _pairs(self._edges.items())))",
        "frozenset(map(_rule, _pairs((b, hs) for b, hs in self._edges.items() if b is not None)))",
    ),
    "contains-swapped": (
        "algebra.py",
        "item[0] in self._edges.get(item[1], ())",
        "item[1] in self._edges.get(item[0], ())",
    ),
}

# name -> (module, old, new, why the answers cannot change)
EQUIVALENT = {
    "strict-row-ors-own-self-loop": (
        "algebra.py",
        "map(row.get, edges.get(v, ()), repeat(0)), 0)",
        "map(row.get, edges.get(v, ()), repeat(0)), row.get(v, 0) if v in edges.get(v, ()) else 0)",
        "a vertex with a self-loop is its own successor, so its row is ORed in already",
    ),
    "hash-of-bodies-only": (
        "algebra.py",
        "hash(frozenset(self._edges.items()))",
        "hash(frozenset(self._edges))",
        "equal programs keep heads under the same bodies, so the hash still agrees with ==",
    ),
}


def run_suite(copy: Path) -> tuple[bool, str, float]:
    """Run tier-1 with -x in ``copy``; return (passed, first failing test, seconds)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    shutil.rmtree(copy / "src" / "krom" / "__pycache__", ignore_errors=True)
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--deselect", KNOWN_RED]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    if done.returncode == 0:
        return True, "", seconds
    return False, failed.group(1) if failed else f"exit status {done.returncode}", seconds


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for name, (module, *_) in CATALOGUE.items():
            print(f"{name}: {module}")
        for name, (module, _, _, why) in EQUIVALENT.items():
            print(f"{name}: {module} (equivalent: {why})")
        return 0
    unknown = [name for name in argv if name not in CATALOGUE]
    if unknown:
        print(f"unknown entries: {', '.join(unknown)}", file=sys.stderr)
        return 2
    names = argv or list(CATALOGUE)
    bad = 0
    with tempfile.TemporaryDirectory(prefix="krom-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".work", ".hypothesis")
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        passed, killer, seconds = run_suite(copy)
        if not passed:
            print(f"unmutated copy fails at {killer} ({seconds:.0f} s); no mutant can be judged")
            return 1
        print(f"unmutated copy passes ({seconds:.0f} s)")
        for name in names:
            module, old, new = CATALOGUE[name]
            path = copy / "src" / "krom" / module
            source = path.read_text()
            if source.count(old) != 1:
                print(f"{name}: STALE, its text occurs {source.count(old)} times in {module}")
                bad += 1
                continue
            path.write_text(source.replace(old, new))
            try:
                passed, killer, seconds = run_suite(copy)
            finally:
                path.write_text(source)
            if passed:
                print(f"{name}: SURVIVED the suite ({seconds:.0f} s)")
                bad += 1
            else:
                print(f"{name}: killed by {killer} ({seconds:.0f} s)")
    for name, (module, old, _, why) in EQUIVALENT.items():
        if (ROOT / "src" / "krom" / module).read_text().count(old) != 1:
            print(f"{name}: STALE equivalent entry in {module}")
            bad += 1
        else:
            print(f"{name}: equivalent, not run: {why}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
