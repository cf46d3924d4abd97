"""Span tracing of krom's public functions, installed from outside the library.

``install`` rebinds every public function of every krom module, and every
name that another krom module pulled in with ``from ... import``, to one
wrapper per function. Each call records a span: name, start, end, parent
span, job id, and the rule counts of its first argument and its result.
Spans stay in memory; ``layer_metrics`` turns them into the per-layer
numbers.
"""

from __future__ import annotations

import importlib
import time
import types

MODULES = ("algebra", "equivalence", "textio", "gen", "cli")


class Tracer:
    """Collects spans as tuples ``(name, start, end, parent, job, size_in, size_out)``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.job = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job,
                              _rule_count(args[0] if args else None), _rule_count(result))

        return traced


def _rule_count(value) -> int:
    rules = getattr(value, "rules", None)
    return len(rules) if isinstance(rules, frozenset) else -1


def install(tracer: Tracer):
    """Wrap krom's public functions for ``tracer``; returns an undo callable."""
    package = importlib.import_module("krom")
    modules = [package] + [importlib.import_module(f"krom.{m}") for m in MODULES]
    wrappers = {}
    for mod in modules[1:]:
        for name in mod.__all__:
            fn = getattr(mod, name)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                label = f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
                wrappers[fn] = tracer.wrap(label, fn)
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                undo.append((mod, attr, value))

    def restore():
        for mod, attr, value in undo:
            setattr(mod, attr, value)

    return restore


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, child_walls=()) -> dict:
    """Per-layer numbers from one traced pass.

    ``child_walls`` holds, for traced CLI jobs, the wall time the parent
    saw for each child process; the part not spent inside ``cli.main`` is
    interpreter start plus ``import krom`` (``cli.spawn_s``).
    """
    own = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    size_in: dict = {}
    size_out: dict = {}
    for s, t in zip(spans, own):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        size_in[name] = size_in.get(name, 0) + max(s[5], 0)
        size_out[name] = size_out.get(name, 0) + max(s[6], 0)

    def parent_is(child: str, parent: str) -> int:
        return sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    main_wall = sum(s[2] - s[1] for s in spans if s[0] == "cli.main")
    ue_calls = calls.get("equivalence.uniform_equiv", 0)
    candidates = parent_is("equivalence.uniform_equiv", "equivalence.minimize")
    removed = size_in.get("equivalence.minimize", 0) - size_out.get("equivalence.minimize", 0)
    out = {
        "cli.spawn_s": sum(child_walls) - main_wall if child_walls else 0.0,
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "textio.parse.self_s": self_s.get("textio.parse", 0.0),
        "textio.parse.calls": calls.get("textio.parse", 0),
        "textio.parse.rules_per_s": rate(size_out.get("textio.parse", 0), self_s.get("textio.parse", 0.0)),
        "textio.render.self_s": self_s.get("textio.render", 0.0),
        "textio.render.rules_per_s": rate(size_in.get("textio.render", 0), self_s.get("textio.render", 0.0)),
        "textio.to_dot.self_s": self_s.get("textio.to_dot", 0.0),
        "gen.random_program.self_s": self_s.get("gen.random_program", 0.0),
        "gen.random_program.calls": calls.get("gen.random_program", 0),
        "algebra.omega.self_s": self_s.get("algebra.omega", 0.0),
        "algebra.omega.calls": calls.get("algebra.omega", 0),
        "algebra.reach.self_s": self_s.get("algebra.reach", 0.0),
        "algebra.reach.calls": calls.get("algebra.reach", 0),
        "algebra.extend_omega.self_s": self_s.get("algebra.extend_omega", 0.0),
        "equivalence.uniform_equiv.self_s": self_s.get("equivalence.uniform_equiv", 0.0),
        "equivalence.uniform_equiv.calls": ue_calls,
        "equivalence.uniform_equiv.reach_per_call":
            parent_is("algebra.reach", "equivalence.uniform_equiv") / ue_calls if ue_calls else 0.0,
        "equivalence.lm_equiv.self_s": self_s.get("equivalence.lm_equiv", 0.0),
        "algebra.compose.calls": calls.get("algebra.compose", 0),
        "algebra.compose.self_s": self_s.get("algebra.compose", 0.0),
        "algebra.compose.rules_out": size_out.get("algebra.compose", 0),
        "algebra.star.self_s": self_s.get("algebra.star", 0.0),
        "algebra.plus.self_s": self_s.get("algebra.plus", 0.0),
        "algebra.power.self_s": self_s.get("algebra.power", 0.0),
        "equivalence.minimize.self_s": self_s.get("equivalence.minimize", 0.0),
        "equivalence.minimize.candidates": candidates,
        "equivalence.minimize.removed_ratio": removed / candidates if candidates else 0.0,
    }
    return out
