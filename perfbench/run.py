"""jahangir benchmark: seeded, closed-loop CLI query streams with checked answers.

Usage (from the repository root):

    python3 perfbench/run.py --workload counts|engines|enumerate \
        --seed N --seconds S --trace 0|1

One worker process answers one query at a time (a closed loop with a
single client, no threads).  Each query is a real CLI argv passed to
`jahangir.cli.main`; stdout is checked as it streams against the oracle
(oracle.py) and its sha256 is compared with the digest recorded at the seed
commit (seed_digests.json).  A query past the 1 s limit is abandoned and
its worker replaced, so it leaves no state behind.

The machine's speed changes by up to half within a minute (other work on
the host), and every time moves with it.  So the worker also times a fixed
piece of pure-Python work, the gauge (worker.gauge_s), every GAUGE_EVERY_S
of stream time and around each cold start.  The end-to-end times are
reported at a nominal speed: each is scaled by GAUGE_NOMINAL_S over the
median of the five gauge readings around it (a median, since a single
reading can catch a moment when another process had the CPU).  A change
in the program's speed passes through unchanged, since the gauge runs none
of its code.  The report lines give the unscaled figures too.

--trace 0 measures the end-to-end metrics for S seconds.  --trace 1 runs
the stream untraced for S/2 seconds, then replays the same queries in a
traced worker (tracer.py) for the per-layer metrics; the difference in
query time is the tracing overhead.  Either way the report lines above the
last line name every metric measured, with its unit; the last line is one
JSON object with the metrics BENCHMARK.json lists for that mode.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import statistics
import subprocess
import sys
from time import perf_counter, sleep

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_STARTS = 15  # cold starts per run; setup_s is their median
GRACE_S = 10.0  # past the worker's own 1 s abort, the harness kills it
GAUGE_EVERY_S = 0.25  # a gauge reading (about 5 ms) at least this often
GAUGE_NOMINAL_S = 0.005  # the gauge's time at the speed figures are scaled to
LAYERS = ("cli", "graph_core", "combinatorics", "matrix_tree", "enumeration", "cycles",
          "asymptotics")
# the two layers expected to dominate self time on each workload at the seed
PREDICTED = {"counts": ("combinatorics", "asymptotics"),
             "engines": ("matrix_tree", "graph_core"),
             "enumerate": ("enumeration", "cli")}
GRAPH_COMMANDS = {"graph", "cycles", "enumerate"}


class Worker:
    """One worker process and the request/reply protocol with it."""

    def __init__(self, trace: bool):
        env = dict(os.environ, PYTHONPATH=SRC)
        cmd = [sys.executable, os.path.join(HERE, "worker.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, cwd=ROOT, env=env, text=True)

    def ask(self, q: workloads.Query) -> dict:
        t0 = perf_counter()
        ready = None
        try:
            self.proc.stdin.write(json.dumps({"argv": q.argv, "spec": q.spec}) + "\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0 + GRACE_S)
            line = self.proc.stdout.readline() if ready else ""
        except BrokenPipeError:
            line = ""
        if line:
            return json.loads(line)
        # the worker died or ignored its alarm: count the query as abandoned
        return {"outcome": "timeout" if ready == [] else "crash", "seconds": perf_counter() - t0,
                "problems": ["worker gave no reply"], "bytes": 0, "trees": 0, "sha256": ""}

    def gauge(self) -> float:
        self.proc.stdin.write('{"gauge": true}\n')
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], GRACE_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise SystemExit("benchmark: the worker gave no gauge reading")
        return json.loads(line)["gauge_s"]

    def close(self) -> float:
        """Stop the worker; return its peak RSS in MB."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        # reap it here rather than with Popen.wait: wait4 also gives peak RSS
        deadline = perf_counter() + 5
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            sleep(0.002)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024


class Digests:
    def __init__(self):
        with open(os.path.join(HERE, "seed_digests.json")) as f:
            data = json.load(f)
        self.table = data["digests"]

    def problem(self, q: workloads.Query, reply: dict):
        if reply["outcome"] != "done":
            return None
        want = self.table.get(q.key)
        if want is None:
            return "no seed digest recorded" if q.pinned else None
        if reply["sha256"] != want:
            return "stdout differs from the seed's (sha256)"
        return None


class Session:
    def __init__(self, digests: Digests, trace: bool):
        self.digests = digests
        self.trace = trace
        self.rss_mb = 0.0
        self.restarts = 0
        self.worker = None
        self.records: list[tuple[workloads.Query, dict]] = []
        self.gauges: list[float] = []
        self.gauged_at = float("-inf")

    def start(self):
        """A fresh worker, warmed with the probe so the lazy imports of the
        first answer are not charged to a measured query."""
        self.worker, _ = start_worker(self.trace, self.digests)

    def stop(self):
        if self.worker is not None:
            self.rss_mb = max(self.rss_mb, self.worker.close())
            self.worker = None

    def gauge(self):
        if self.worker is None:
            self.start()
        self.gauges.append(self.worker.gauge())
        self.gauged_at = perf_counter()

    def ask(self, q: workloads.Query) -> dict:
        if self.worker is None:
            self.start()
        if perf_counter() - self.gauged_at > GAUGE_EVERY_S:
            self.gauge()
        reply = self.worker.ask(q)
        reply["gauge"] = len(self.gauges) - 1
        digest_problem = self.digests.problem(q, reply)
        if digest_problem:
            reply["problems"].append(digest_problem)
        self.records.append((q, reply))
        if reply["outcome"] != "done":
            self.stop()
            self.restarts += 1
        return reply


PROBE = workloads.PROBE.build(workloads.PROBE.choices[0])


def start_worker(trace: bool, digests: Digests):
    """Start a worker and have it answer the probe; a wrong answer here
    means the program is broken, and the run stops without a result."""
    w = Worker(trace)
    reply = w.ask(PROBE)
    problem = digests.problem(PROBE, reply)
    if reply["outcome"] != "done" or reply["problems"] or problem:
        w.close()
        raise SystemExit(f"benchmark: probe query failed: {reply['problems']} {problem or ''}")
    return w, reply


class ColdStarts:
    """setup_s samples: process start to the probe's checked answer.

    One cold start varies by about +-20% and slow spells last seconds, so
    the samples are spread over the run (between blocks) and reduced to
    their median."""

    def __init__(self, digests: Digests, n: int, seconds: float, session: Session):
        self.digests = digests
        self.n = n
        self.spacing = seconds / n
        self.next_due = 0.0
        self.session = session  # its worker takes the gauge readings around each start
        self.setup, self.gauge_at, self.imports, self.first = [], [], [], []

    def take(self):
        self.session.gauge()
        self.gauge_at.append(len(self.session.gauges) - 1)
        t0 = perf_counter()
        w, reply = start_worker(False, self.digests)
        t1 = perf_counter()
        w.close()
        self.session.gauge()
        self.setup.append(t1 - t0)
        self.imports.append(reply["import_s"])
        self.first.append(reply["seconds"])

    def between_blocks(self, elapsed: float):
        if len(self.setup) < self.n and elapsed >= self.next_due:
            self.take()
            self.next_due += self.spacing

    def finish(self):
        while len(self.setup) < self.n:
            self.take()


def numpy_import_s() -> float:
    """numpy's cumulative import time in a cold CLI run, from -X importtime."""
    code = ("import jahangir.cli as c, sys; sys.stdout = open('/dev/null', 'w'); "
            f"c.main({list(PROBE.argv)!r})")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60)
    for line in out.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*numpy\s*$", line)
        if m:
            return int(m.group(1)) / 1e6
    return 0.0  # numpy was not imported


def run_stream(session: Session, name: str, seed: int, seconds: float, cold: ColdStarts):
    """Whole blocks until `seconds` of stream time have passed; cold starts
    taken between blocks do not count against it."""
    stream = workloads.blocks(name, seed)
    elapsed = 0.0
    while elapsed < seconds:
        t0 = perf_counter()
        for q in next(stream):
            session.ask(q)
        elapsed += perf_counter() - t0
        cold.between_blocks(elapsed)
    session.gauge()
    cold.finish()
    session.stop()


def slowness(gauges, i):
    """How much slower than nominal the machine ran around gauge reading i."""
    return statistics.median(gauges[max(0, i - 2):i + 3]) / GAUGE_NOMINAL_S


def scale(session: Session, cold: ColdStarts) -> list[float]:
    """Each answered query's time at the nominal speed, as `scaled_s`, and
    the cold starts' times likewise.  A timeout keeps its time: it is the
    1 s limit, not the program's speed."""
    g = session.gauges
    for _, r in session.records:
        r["scaled_s"] = r["seconds"] / slowness(g, r["gauge"]) if r["outcome"] == "done" \
            else r["seconds"]
    return [t / slowness(g, i) for t, i in zip(cold.setup, cold.gauge_at)]


def replay(session: Session, queries):
    for q in queries:
        session.ask(q)
    session.stop()


def tail_latency(values):
    """Mean of the slowest 5%.  A single order statistic (the 95th
    percentile, the 11th-largest) falls on a few queries whose times depend
    on the run's order: a listing's time varies by +-30% from one block to
    the next, and on `counts` the cache misses after each worker restart
    fall on whichever queries come first."""
    v = sorted(values)
    return statistics.fmean(v[-max(1, len(v) // 20):]) if v else 0.0


def m_key(spec):
    return spec.get("m", spec.get("m_max"))


def m_touched(spec):
    if spec["cmd"] in ("table", "ratios"):
        return range(3, spec["m_max"] + 1)
    return (spec["m"],)


def workload_properties(records):
    seen, warm, repeats, warm_repeats = set(), set(), 0, 0
    vertices, trees = [], []
    for q, r in records:
        key = m_key(q.spec)
        repeats += key in seen
        warm_repeats += key in warm
        seen.update(m_touched(q.spec))
        warm.update(m_touched(q.spec))
        if r["outcome"] != "done":
            warm = set()  # the worker was replaced, its caches are gone
        builds_graph = q.spec.get("method", "combinatorial") != "combinatorial"
        if builds_graph or q.spec["cmd"] in GRAPH_COMMANDS:
            vertices.append(q.spec.get("n", 2) * q.spec["m"] + 1)
        if q.spec["cmd"] == "enumerate":
            trees.append(r.get("trees", 0))
    n = len(records)
    return {
        "repeat_m_share": repeats / n,
        "warm_repeat_m_share": warm_repeats / n,
        "tail_share": sum(q.tail for q, _ in records) / n,
        "largest_vertices": max(vertices, default=0),
        "trees_per_enumerate_query": statistics.mean(trees) if trees else 0.0,
        "most_trees_in_a_query": max(trees, default=0),
    }


def answered(r) -> bool:
    return r["outcome"] == "done" and not r["problems"]


def end_to_end(records, setup, rss_mb, key="scaled_s"):
    """A timeout lasts the 1 s limit however slow the program is, so the
    figures meant to follow its speed leave timeouts out: body_queries_per_s
    takes the body only (sizes the seed answers) and latency_tail_ms the
    answered queries only.  miss_rate counts the timeouts.  Times are read
    from `key`: scaled to the nominal speed, or as measured ("seconds")."""
    lat = [r[key] for _, r in records]
    ok = [r for _, r in records if answered(r)]
    body = [r for q, r in records if not q.tail]
    enum = [r for q, r in records if q.spec["cmd"] == "enumerate" and r["outcome"] == "done"]
    tail = tail_latency([r[key] for r in ok])
    enum_s = sum(r[key] for r in enum)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "queries_per_s": (len(ok) / sum(lat), "1/s"),
        "body_queries_per_s": (sum(map(answered, body)) / sum(r[key] for r in body), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "miss_rate": (1 - len(ok) / len(records), "share"),
        "tail_samples": (len(ok), "count"),
        "trees_per_s": (sum(r["trees"] for r in enum) / enum_s if enum_s else 0.0, "1/s"),
    }


def per_layer(traced, untraced, setup_imports, setup_first, numpy_s):
    layers = {name: [0.0, 0, 0] for name in LAYERS}
    counters: dict[str, float] = {}
    for _, r in traced:
        t = r.get("trace")
        if not t:
            continue
        for name, (self_s, calls, errors) in t["layers"].items():
            rec = layers.setdefault(name, [0.0, 0, 0])
            rec[0] += self_s
            rec[1] += calls
            rec[2] += errors
        for name, v in t["counters"].items():
            counters[name] = counters.get(name, 0) + v
    out = {}
    for name, (self_s, calls, errors) in layers.items():
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.errors"] = (errors, "count")
    c = counters.get
    out["cli.bytes_out"] = (sum(r.get("bytes", 0) for _, r in traced), "B")
    out["graph_core.vertices_built"] = (c("graph_core.vertices_built", 0), "count")
    calls_m = c("combinatorics.m_calls", 0)
    out["combinatorics.repeat_m_share"] = (
        c("combinatorics.m_repeats", 0) / calls_m if calls_m else 0.0, "share")
    out["matrix_tree.minor_order_sum"] = (c("matrix_tree.minor_order_sum", 0), "count")
    structured, generic = c("enumeration.structured_trees", 0), c("enumeration.generic_trees", 0)
    out["enumeration.trees"] = (structured + generic, "count")
    s_s, g_s = c("enumeration.structured_s", 0), c("enumeration.generic_s", 0)
    out["enumeration.structured_trees_per_s"] = (structured / s_s if s_s else 0.0, "1/s")
    out["enumeration.generic_trees_per_s"] = (generic / g_s if g_s else 0.0, "1/s")
    out["cycles.records"] = (c("cycles.records", 0), "count")
    out["setup.import_s"] = (statistics.median(setup_imports), "s")
    out["setup.numpy_import_s"] = (numpy_s, "s")
    out["setup.first_query_s"] = (statistics.median(setup_first), "s")
    both = [(a["seconds"], b["seconds"]) for (_, a), (_, b) in zip(untraced, traced)
            if a["outcome"] == b["outcome"] == "done"]
    base = sum(a for a, _ in both)
    out["trace.overhead"] = (sum(b for _, b in both) / base - 1 if base else 0.0, "ratio")
    return out


def dominance(name, traced, label):
    """Do the predicted layers hold most of the self time?"""
    totals: dict[str, float] = {}
    for _, r in traced:
        for layer, (self_s, _, _) in (r.get("trace") or {}).get("layers", {}).items():
            totals[layer] = totals.get(layer, 0) + self_s
    whole = sum(totals.values()) or 1.0
    top = sorted(totals, key=totals.get, reverse=True)[:3]
    predicted = sum(totals.get(layer, 0) for layer in PREDICTED[name]) / whole
    verdict = "as predicted" if predicted > 0.5 else "NOT as predicted"
    return (f"# dominant layers ({label}): {', '.join(f'{k} {totals[k] / whole:.0%}' for k in top)}"
            f"; predicted {' + '.join(PREDICTED[name])} hold {predicted:.0%}: {verdict}")


def query_lines(records, misses=True):
    """Every miss (when asked) and every wrong answer, by its argv."""
    lines = []
    for q, r in records:
        if r["outcome"] != "done":
            if misses:
                lines.append(f"# miss ({r['outcome']}, {'tail' if q.tail else 'body'}, "
                             f"{r['seconds']:.3f} s): jahangir {q.key}")
        elif r["problems"]:
            lines.append(f"# WRONG: jahangir {q.key}: {'; '.join(r['problems'])}")
    return lines


def listed_metrics(section: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[section]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jahangir", "cli.py")):
        print(f"benchmark: no jahangir package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = listed_metrics("per_layer" if args.trace else "end_to_end")

    digests = Digests()
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = Session(digests, trace=False)
    cold = ColdStarts(digests, SETUP_STARTS, budget, plain)
    traced = Session(digests, trace=True)
    try:
        run_stream(plain, args.workload, args.seed, budget, cold)
        if args.trace:
            replay(traced, [q for q, _ in plain.records])
    finally:
        plain.stop()
        traced.stop()
    records = plain.records

    metrics = end_to_end(records, scale(plain, cold), plain.rss_mb)
    measured = end_to_end(records, cold.setup, plain.rss_mb, key="seconds")
    lines = [f"# workload {args.workload}, seed {args.seed}, {len(records)} queries in "
             f"{budget:g} s of stream, closed loop, 1 worker"]
    lines += query_lines(records)
    pinned = sum(q.key in digests.table for q, _ in records)
    lines.append(f"# digests: {pinned} of {len(records)} queries pinned to the seed's stdout")
    lines.append(f"# worker restarts after abandoned queries: {plain.restarts}")
    lines += [f"# property {k} = {v:.4g}" for k, v in workload_properties(records).items()]
    if args.trace:
        numpy_s = statistics.median(numpy_import_s() for _ in range(3))
        metrics.update(per_layer(traced.records, records, cold.imports, cold.first, numpy_s))
        lines += query_lines(traced.records, misses=False)
        lines.append(dominance(args.workload, traced.records, "all queries"))
        lines.append(dominance(args.workload,
                               [(q, r) for q, r in traced.records if not q.tail], "body only"))
    g = plain.gauges
    lines.append(f"# gauge: {len(g)} readings, median {statistics.median(g) * 1000:.3f} ms, "
                 f"{min(g) * 1000:.3f}-{max(g) * 1000:.3f} ms; times below are scaled to "
                 f"{GAUGE_NOMINAL_S * 1000:g} ms")
    lines += [f"# as measured: {k} {v:.6g} {unit}" for k, (v, unit) in measured.items()]
    ok = sorted(r["scaled_s"] for _, r in records if answered(r))
    if len(ok) > 10:
        lines.append(f"# highest percentile with ten answered queries beyond it: "
                     f"p{100 * (len(ok) - 10) / len(ok):.4g} = {ok[-11] * 1000:.6g} ms")
    lines += [f"{k} {v:.6g} {unit}" for k, (v, unit) in metrics.items()]

    failed = sum(1 for _, r in records if r["outcome"] != "done" or r["problems"])
    wrong = any(r["problems"] and r["outcome"] != "timeout"
                for _, r in records + traced.records)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
