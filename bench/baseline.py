"""On-demand report: time each row of the ROADMAP baseline table once.

    python3 bench/run.py --baseline-report

Ungated and not part of any workload. Each row draws its program with
``random_program`` (default fact ratio 0.5, seed 0) outside the timed
call, times one call with ``time.perf_counter``, and prints one JSON line
with the seconds measured next to the table's figure. The whole report
takes several minutes on the seed code (the ``uniform_equiv`` row alone
is about three), and the n=2000 draw holds a four-million-rule pool.
"""

import json
import time

import krom


def _draw(atoms: int, rules: int):
    return krom.random_program(krom.GenConfig(atoms, rules))


def _cycle3():
    return krom.parse("a :- b. b :- c. c :- a.")


# (operation, workload, seconds in the ROADMAP table, make the input, timed call)
ROWS = [
    ("minimize", "n=200, m=800", 53.0, lambda: _draw(200, 800), krom.minimize),
    ("uniform_equiv(p, p)", "n=2000, m=100k", 189.0, lambda: _draw(2000, 100_000),
     lambda p: krom.uniform_equiv(p, p)),
    ("star", "n=200, m=800", 1.2, lambda: _draw(200, 800), lambda p: krom.star(p, krom.atoms(p))),
    ("power of a 3-rule program", "N=3,000,000", 14.0, _cycle3,
     lambda p: krom.power(p, 3_000_000, krom.atoms(p))),
    ("parse", "100k rules", 1.4, lambda: krom.render(_draw(1000, 100_000)), krom.parse),
    ("render", "100k rules", 0.26, lambda: _draw(1000, 100_000), krom.render),
    ("omega", "100k rules", 0.06, lambda: _draw(1000, 100_000), krom.omega),
]


def report() -> int:
    for operation, workload, roadmap_s, make, call in ROWS:
        arg = make()
        start = time.perf_counter()
        call(arg)
        seconds = time.perf_counter() - start
        print(json.dumps({"operation": operation, "workload": workload, "seconds": seconds,
                          "roadmap_seconds": roadmap_s}), flush=True)
    return 0
