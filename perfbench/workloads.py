"""Seeded query streams for the three workloads.

A stream is an endless sequence of blocks.  Each block holds a fixed number
of queries from every stratum, shuffled, so every run of whole blocks has
the same mix whatever the seed; the seed only picks the parameters and the
order.  The strata whose cost varies most with their parameters (Kirchhoff
counts, `--method all`, full listings, `count --method enumerate`) deal
their whole grid in every block, so the body's cost per block does not
depend on the seed either.  Strata marked `tail`
hold sizes the program is expected to struggle with; the rest (the body)
stays well under the 1 s limit at the seed.

Strata with a finite `grid` are pinned: every query they can produce has its
stdout digest recorded in seed_digests.json (see record_digests.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import oracle


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    spec: dict
    stratum: str
    tail: bool
    pinned: bool

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def count(n, m, method="combinatorial", breakdown=False):
    argv = ["count", "--n", n, "--m", m]
    if method != "combinatorial":
        argv += ["--method", method]
    if breakdown:
        argv.append("--breakdown")
    return argv, {"cmd": "count", "n": n, "m": m, "method": method, "breakdown": breakdown}


def coeffs(m):
    return ["coeffs", "--m", m], {"cmd": "coeffs", "m": m}


def table(n, m_max, fmt):
    return (["table", "--n", n, "--m-max", m_max, "--format", fmt],
            {"cmd": "table", "n": n, "m_max": m_max, "format": fmt})


def ratios(n, m_max, precision, comma):
    argv = ["ratios", "--n", n, "--m-max", m_max, "--precision", precision]
    if comma:
        argv.append("--decimal-comma")
    return argv, {"cmd": "ratios", "n": n, "m_max": m_max, "precision": precision,
                  "decimal_comma": comma}


def graph(n, m, fmt):
    return (["graph", "--n", n, "--m", m, "--format", fmt],
            {"cmd": "graph", "n": n, "m": m, "format": fmt})


def cycles(m):
    return ["cycles", "--m", m], {"cmd": "cycles", "m": m}


def listing(n, m, limit=None, fmt="json"):
    argv = ["enumerate", "--n", n, "--m", m]
    if limit is not None:
        argv += ["--limit", limit]
    if fmt != "json":
        argv += ["--format", fmt]
    return argv, {"cmd": "enumerate", "n": n, "m": m, "limit": limit, "format": fmt}


@dataclass(frozen=True)
class Stratum:
    name: str
    per_block: int
    choices: tuple  # argument tuples for `make`
    make: Callable
    tail: bool = False
    pinned: bool = True  # False: the seed cannot finish these, no digest exists

    def build(self, args, rng: Optional[random.Random] = None) -> Query:
        argv, spec = self.make(*args)
        spec["exit"] = oracle.expected_exit(spec)
        if spec["cmd"] == "enumerate":
            spec["sample"] = rng.randrange(1 << 30) if rng else 0
        return Query(tuple(str(a) for a in argv), spec, self.name, self.tail, self.pinned)


def _grid(*axes):
    out = [()]
    for axis in axes:
        out = [t + (v,) for t in out for v in axis]
    return tuple(out)


BODY_N = range(2, 10)
BODY_M = range(3, 17)  # sigma by the spoke census stays well under 1 s here
TAIL_M = (20, 24, 30, 40, 50, 64, 80, 100, 128, 160, 200, 256, 320, 400)
PRECISIONS = (3, 9, 20)

# |V| = nm + 1 = 21, 41, ..., 241; Bareiss costs about |V|^3
KIRCHHOFF_BODY = ((2, 10), (4, 10), (2, 30), (8, 10), (4, 25), (6, 20),
                  (2, 70), (8, 20), (6, 30), (4, 50), (2, 110), (3, 80))
KIRCHHOFF_TAIL = ((2, 200), (2, 250), (2, 300), (4, 100), (4, 125), (4, 150),
                  (5, 80), (5, 100), (5, 120), (8, 50), (8, 60), (8, 75),
                  (10, 40), (10, 50), (10, 60), (20, 20), (20, 25), (20, 30))
SMALL_J = _grid((2, 3, 4), range(3, 9))  # J(2..4, 3..8)
# Full listings stop at 13k trees: J(2, 8) and J(4, 6), near 4e4 trees, take
# 0.55-0.9 s at the seed, too near the 1 s limit to miss or pass steadily.
LISTABLE = tuple(p for p in SMALL_J if oracle.sigma(*p) <= 13_000)
OVER_CAP = ((2, 13), (2, 14), (3, 11), (3, 12), (4, 10), (4, 11))
FEW_TREES = tuple(p for p in SMALL_J if oracle.sigma(*p) <= 3000)  # cheap to list


def _counts_tail(cmd, m, n, precision):
    if cmd == "count":
        return count(n, m)
    if cmd == "breakdown":
        return count(n, m, breakdown=True)
    if cmd == "coeffs":
        return coeffs(m)
    if cmd == "table":
        return table(n, m, "csv")
    return ratios(n, m, precision, False)


def _over_cap(cmd, n, m):
    return listing(n, m) if cmd == "enumerate" else count(n, m, method="enumerate")


WORKLOADS: dict[str, tuple[Stratum, ...]] = {
    "counts": (
        Stratum("count", 18, _grid(BODY_N, BODY_M), count),
        Stratum("count_breakdown", 9, _grid(BODY_N, BODY_M, ("combinatorial",), (True,)), count),
        Stratum("coeffs", 6, _grid(BODY_M), coeffs),
        Stratum("table_csv", 6, _grid(BODY_N, BODY_M, ("csv",)), table),
        Stratum("table_json", 6, _grid(BODY_N, BODY_M, ("json",)), table),
        Stratum("ratios", 6, _grid(BODY_N, BODY_M[1:], PRECISIONS, (False,)), ratios),
        Stratum("ratios_comma", 6, _grid(BODY_N, BODY_M[1:], PRECISIONS, (True,)), ratios),
        Stratum("tail", 1, _grid(("count", "breakdown", "coeffs", "table", "ratios"),
                                 TAIL_M, BODY_N, PRECISIONS),
                _counts_tail, tail=True, pinned=False),
    ),
    "engines": (
        Stratum("kirchhoff", len(KIRCHHOFF_BODY), _grid(KIRCHHOFF_BODY, ("kirchhoff",)),
                lambda nm, method: count(*nm, method=method)),
        Stratum("all", len(FEW_TREES), _grid(FEW_TREES, ("all",)),
                lambda nm, method: count(*nm, method=method)),
        Stratum("graph", 4, _grid(KIRCHHOFF_BODY + KIRCHHOFF_TAIL, ("dot", "json")),
                lambda nm, fmt: graph(*nm, fmt)),
        Stratum("cycles", 2, _grid(range(3, 25)), cycles),
        Stratum("tail", 1, _grid(KIRCHHOFF_TAIL, ("kirchhoff",)),
                lambda nm, method: count(*nm, method=method), tail=True),
    ),
    "enumerate": (
        Stratum("full", len(LISTABLE), LISTABLE, listing),
        Stratum("limit", 6, _grid(SMALL_J, (1, 10, 100, 1000)), lambda nm, lim: listing(*nm, lim)),
        Stratum("dot", 6, _grid(SMALL_J, (1, 5, 20)), lambda nm, lim: listing(*nm, lim, "dot")),
        Stratum("count_enumerate", len(FEW_TREES), _grid(FEW_TREES, ("enumerate",)),
                lambda nm, method: count(*nm, method=method)),
        Stratum("over_cap", 4, _grid(("enumerate", "count"), OVER_CAP),
                lambda cmd, nm: _over_cap(cmd, *nm)),
        Stratum("tail", 1,
                _grid((2, 3, 4), (25, 40, 64, 100, 160, 200), (1, 2, 5), ("json", "dot")),
                listing, tail=True, pinned=False),
    ),
}

# Cold-start probe: one small JSON answer, so set-up includes the envelope's imports.
PROBE = Stratum("probe", 0, ((2, 4),), count)


def blocks(name: str, seed: int) -> Iterator[list[Query]]:
    """Each stratum deals its choices like a shuffled deck, reshuffled when
    empty, so runs of any seed cover the grid evenly and differ in order."""
    rng = random.Random(f"{name}:{seed}")
    strata = WORKLOADS[name]
    decks = {s.name: [] for s in strata}

    def deal(s: Stratum):
        deck = decks[s.name]
        if not deck:
            deck.extend(s.choices)
            rng.shuffle(deck)
        return s.build(deck.pop(), rng)

    while True:
        block = [deal(s) for s in strata for _ in range(s.per_block)]
        rng.shuffle(block)
        yield block


def pinned_queries() -> Iterator[Query]:
    """Every query a pinned stratum can produce, plus the probe."""
    yield PROBE.build(PROBE.choices[0])
    for strata in WORKLOADS.values():
        for s in strata:
            if s.pinned:
                for args in s.choices:
                    yield s.build(args)
