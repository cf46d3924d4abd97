#!/usr/bin/env python3
"""Record the SHA-256 pins of the seed-independent power and minimize jobs.

    python3 bench/pins.py    # rewrites bench/pins.json

Each pinned output is computed with the benchmark's own reference code and
verified, before it is written, against the naive oracles in
``tests/oracles.py``: ``power_oracle`` for powers of the 3-cycle, and for
minimize, ``closure_oracle`` (the minimized program must keep the input's
reflexive-transitive closure, and dropping any further rule must change it;
krom's own minimize must agree).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
with open(os.path.join(HERE, "pins.json"), "a"):
    pass  # workloads reads pins.json at import

import krom  # noqa: E402
from tests import oracles  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def program(rules):
    return workloads._program(rules)


def verified_power(n: int) -> frozenset:
    rules = ref.cycle_power(workloads.CYCLE3, n)
    cycle = program(ref.cycle(workloads.CYCLE3))
    if program(rules) != oracles.power_oracle(cycle, n, krom.Alphabet(workloads.CYCLE3)):
        raise SystemExit(f"power N={n}: reference disagrees with power_oracle")
    return rules


def verified_minimize(rules) -> frozenset:
    kept = ref.minimize(rules)
    alphabet = krom.Alphabet(ref.atoms_of(rules))

    def closure(rs):
        return oracles.closure_oracle(program(rs), alphabet)

    full = closure(rules)
    if not kept <= rules or closure(kept) != full:
        raise SystemExit("minimize: result is not an equivalent subset")
    for r in kept:
        if closure(kept - {r}) == full:
            raise SystemExit(f"minimize: {r} is still redundant")
    if program(kept) != krom.minimize(program(rules)):
        raise SystemExit("minimize: krom disagrees with the reference")
    return kept


def main() -> int:
    pins = {}
    for smoke in (False, True):
        n = workloads.POWER_N[smoke]
        pins[workloads.power_pin(n)] = ref.digest(verified_power(n))
        for shape in workloads.MIN_SHAPES[smoke]:
            name, rules = workloads.minimize_shape(*shape)
            pins[name] = ref.digest(verified_minimize(rules))
    with open(os.path.join(HERE, "pins.json"), "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
