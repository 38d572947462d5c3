"""Byte-identical CLI stdout for every pinned query, and oracle-checked
answers past them.

perfbench/seed_digests.json maps each pinned argv (joined with spaces) to
the sha256 of the stdout the seed program printed for it, with the Python
and numpy versions in the JSON envelope masked as "*".  This test replays
every one of those argv through cli.main, all seven commands and the
Kirchhoff counts included, and compares digests.  After the replay the
envelope templates number one per shape of result, however many argv drew
them.  Past that grid, a Hypothesis property draws argv from the
benchmark's own builders over wider ranges and checks each answer as it
streams with the benchmark's engine-free oracle, and a listing's first trees
against their closed form.
"""

import hashlib
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jahangir import cli
from jahangir.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = PERFBENCH / "seed_digests.json"
COMMANDS = ("count", "coeffs", "enumerate", "cycles", "table", "ratios", "graph")

# the benchmark's oracle, which masks the digests it records, and its argv
# builders, both stdlib alone; perfbench is no package, and workloads
# imports oracle by name
sys.path.insert(0, str(PERFBENCH))
try:
    import oracle
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))


def pinned():
    return json.loads(DIGESTS.read_text())["digests"]


def test_pinned_queries_cover_every_command():
    assert {key.split()[0] for key in pinned()} == set(COMMANDS)


def test_stdout_matches_seed_digests():
    mismatched = []
    for key, digest in pinned().items():
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            main(key.split())
        got = hashlib.sha256(oracle.mask_versions(out.getvalue().encode())).hexdigest()
        if got != digest:
            mismatched.append(key)
    assert mismatched == []


def test_one_template_per_result_shape():
    # count: one engine, or --method all agreed or disagreed, each with and
    # without --breakdown; one each for the six other JSON outputs
    for key in [*pinned(), *[f"cycles --m {m}" for m in range(3, 41)]]:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            main(key.split())
    assert len(cli._TEMPLATES) <= 12
    assert {key[0] for key in cli._TEMPLATES} <= set(COMMANDS)


# about the most lines of trees a listing with a limit lists: a JSON tree
# of J(n, m) takes nm + 1 lines, a DOT drawing one per vertex and edge and 3 more
LISTED_LINES = 2 * 10**5
REFUSAL = re.compile(r"error: enumeration would yield (more than )?\d+ trees, "
                     r"above the cap of 10000000\n")
N, M = st.integers(2, 60), st.integers(3, 60)


def first_m_above(n: int, bound: int) -> int:
    """The least m >= 3 with sigma(n, m) > bound."""
    return next(m for m, s in oracle.sigmas(n, 10**9) if m >= 3 and s > bound)


@st.composite
def walked(draw):
    """(n, m) of a J(n, m) whose every tree a query walks: at most 3000
    trees, or more than the cap, which refuses it."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 12))  # sigma(13, 3) > 3000 already
        return n, draw(st.integers(3, first_m_above(n, 3000) - 1))
    n = draw(N)
    return n, draw(st.integers(first_m_above(n, oracle.TREE_CAP), 60))


@st.composite
def count_query(draw):
    method = draw(st.sampled_from([*cli.ENGINES, "all"]))
    n, m = draw(walked() if method in ("enumerate", "all") else st.tuples(N, M))
    return workloads.count(n, m, method, draw(st.booleans()))


@st.composite
def listing_query(draw, fmt: str):
    """A listing, of every tree or of a prefix of up to 10^4 trees, cut to
    LISTED_LINES."""
    limit = draw(st.none() | st.integers(0, 10**4))
    if limit is None:
        return workloads.listing(*draw(walked()), None, fmt)
    n, m = draw(N), draw(M)
    per_tree = n * m + 1 if fmt == "json" else 2 * n * m + m + 3
    return workloads.listing(n, m, min(limit, LISTED_LINES // per_tree), fmt)


def first_trees(fmt: str, n: int, m: int, count: int) -> list:
    """The first min(count, nm) trees of every listing of J(n, m): tree i
    keeps every rim edge but i, and spoke edge nm, as spoke subset {1},
    whose one arc is the whole rim, comes first.  A JSON tree lists the
    edges it keeps; a DOT drawing dashes the others, rim edge i and the
    spokes nm + 1 .. nm + m - 1."""
    nm = n * m
    if fmt == "json":
        return [[*range(i), *range(i + 1, nm), nm] for i in range(min(count, nm))]
    return [[i, *range(nm + 1, nm + m)] for i in range(min(count, nm))]


def listed_trees(fmt: str, text: str, count: int) -> list:
    """The first count trees of a listing's stdout: a JSON tree's edge
    indices, or the edges a DOT drawing dashes, its edge lines in index order."""
    if fmt == "json":
        return json.loads(text)["result"]["trees"][:count]
    trees = []
    for drawing in text.split("\n\n", count)[:count]:
        dashed, at, edge = [], 0, -1
        for match in re.finditer("dashed", drawing):
            edge += drawing.count(" -- ", at, match.start())
            at = match.start()
            dashed.append(edge)
        trees.append(dashed)
    return trees


class Copied(StringIO):
    """Stand-in for sys.stdout that keeps the text it hands on to sink."""

    def __init__(self, sink):
        super().__init__()
        self.sink = sink

    def write(self, s: str) -> int:
        self.sink.write(s)
        return super().write(s)


# (argv, spec) from each of workloads' builders, past the pinned grid
QUERIES = {
    "count": count_query(),
    "coeffs": st.builds(workloads.coeffs, M),
    "table": st.builds(workloads.table, N, M, st.sampled_from(["csv", "json"])),
    "ratios": st.builds(workloads.ratios, N, st.integers(4, 60), st.integers(0, 60),
                        st.booleans()),
    "graph": st.builds(workloads.graph, N, M, st.sampled_from(["dot", "json"])),
    "cycles": st.builds(workloads.cycles, st.integers(3, 30)),
    "listing-json": listing_query("json"),
    "listing-dot": listing_query("dot"),
}


@pytest.mark.parametrize("builder", QUERIES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_answers_past_the_grid_pass_the_oracle(builder, data):
    argv, spec = data.draw(QUERIES[builder])
    spec["exit"] = oracle.expected_exit(spec)
    spec["sample"] = data.draw(st.integers(0, (1 << 30) - 1))  # which trees are split out
    if spec.get("method") == "all" and oracle.sigma(spec["n"], spec["m"]) > oracle.TREE_CAP:
        # the CLI refuses it, as its capped enumerate engine would run, but
        # expected_exit gives 0 (an open FOUND line, ROADMAP item 15)
        spec["exit"] = 3
    checker = oracle.EmptyChecker(spec) if spec["exit"] else oracle.checker_for(spec)
    sink, err = oracle.Sink(checker), StringIO()
    out = Copied(sink)
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    sink.close_stream()
    assert code == spec["exit"]
    assert checker.finish() == []
    assert REFUSAL.fullmatch(err.getvalue()) if code == 3 else err.getvalue() == ""
    if spec["cmd"] == "enumerate" and code == 0:
        # the checker cannot tell a cut listing from another run of distinct
        # valid trees; the closed form of the first trees can, with no engine
        n, m, limit = spec["n"], spec["m"], spec["limit"]
        expected = first_trees(spec["format"], n, m, n * m if limit is None else limit)
        assert listed_trees(spec["format"], out.getvalue(), len(expected)) == expected
