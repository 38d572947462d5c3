"""One-shot per-layer sweep that re-measures the ROADMAP baseline table.

    python3 perfbench/sweep.py

Each row times one layer directly (in this process) or one CLI call in a
fresh interpreter, once, as the baseline did, and prints it beside the
baseline figure.  A row more than 2x off the baseline either way is
flagged; so is a row recorded as a hang that now finishes, or the reverse.
Single runs follow the machine's speed, so confirm a flag by running again.
Takes 75-100 s at the seed, mostly the two hangs and the table.  The last
line is JSON.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

HANG_S = 20.0  # the baseline killed these calls after 20 s
ENV = dict(os.environ, PYTHONPATH=SRC)


def timed(fn):
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def cli_seconds(argv, timeout=None):
    """Wall time of one CLI call in a fresh interpreter; None past timeout."""
    cmd = [sys.executable, "-m", "jahangir.cli", *argv]
    t0 = perf_counter()
    try:
        subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=timeout, check=True)
    except subprocess.TimeoutExpired:
        return None
    return perf_counter() - t0


def package(module: str, name: str):
    """A package function, looked up when a row runs, so that a row whose
    function a later refactor removed reports itself unavailable."""
    return getattr(importlib.import_module(f"jahangir.{module}"), name)


def graph(n, m):
    return package("graph_core", "build_jahangir")(package("graph_core", "JahangirParams")(n, m))


def rate(make):
    t0 = perf_counter()
    trees = sum(1 for _ in make())
    return trees / (perf_counter() - t0)


def rows():
    """(layer, params, baseline, unit, measure); None as a baseline or a
    result means "still running after HANG_S"."""
    for m, base in ((16, 0.15), (18, 0.66), (20, 2.8), (21, 6.1)):
        yield ("sigma census", f"n=2 m={m}", base, "s",
               lambda m=m: timed(lambda: package("combinatorics", "sigma")(2, m)))
    yield ("cli table", "--n 2 --m-max 22", 21.6, "s",
           lambda: cli_seconds(["table", "--n", "2", "--m-max", "22"]))
    for argv in (["enumerate", "--n", "2", "--m", "40", "--limit", "1"],
                 ["ratios", "--n", "2", "--m-max", "30"]):
        yield ("cli hang", " ".join(argv), None, "s",
               lambda argv=argv: cli_seconds(argv, timeout=HANG_S))
    for m, base in ((50, 0.04), (100, 0.26), (200, 2.1), (300, 6.2)):
        yield ("bareiss det", f"|V|={2 * m + 1}", base, "s",
               lambda m=m: (lambda g, det: timed(lambda: det(g)))(
                   graph(2, m), package("matrix_tree", "count_spanning_trees_det")))
    for n, m in ((2, 7), (3, 6)):
        yield ("structured enumeration", f"J({n},{m})", 5e5, "trees/s",
               lambda n=n, m=m: rate(lambda: package("enumeration", "enumerate_jahangir")(
                   package("graph_core", "JahangirParams")(n, m))))
        yield ("generic enumeration", f"J({n},{m})", 4e4, "trees/s",
               lambda n=n, m=m: rate(lambda: package("enumeration", "enumerate_all")(graph(n, m))))
    for cmd, base in (("count", 0.29), ("graph", 0.13)):
        argv = [cmd, "--n", "2", "--m", "4"]
        yield ("cli cold start", " ".join(argv), base, "s",
               lambda argv=argv: statistics.median(cli_seconds(argv) for _ in range(5)))


def main():
    out = []
    print(f"{'layer':24} {'params':38} {'baseline':>12} {'now':>12}  unit     flag")
    for layer, params, base, unit, measure in rows():
        try:
            now = measure()
        except Exception as exc:  # a later refactor may remove what a row calls
            now, flag = None, f"unavailable: {type(exc).__name__}: {exc}"
        else:
            if base is None or now is None:
                flag = "" if base is None and now is None else "OFF: hang status changed"
            else:
                flag = "" if 0.5 <= now / base <= 2 else f"OFF: {now / base:.2f}x baseline"
        show = lambda v: "hang" if v is None else f"{v:.4g}"
        print(f"{layer:24} {params:38} {show(base):>12} {show(now):>12}  {unit:8} {flag}")
        out.append({"layer": layer, "params": params, "baseline": base, "now": now,
                    "unit": unit, "flag": flag})
    print(json.dumps({"python": sys.version.split()[0], "cpus": os.cpu_count(), "rows": out}))


if __name__ == "__main__":
    main()
