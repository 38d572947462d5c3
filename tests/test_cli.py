import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from functools import cache
from itertools import chain, islice
from pathlib import Path
from time import perf_counter

import pytest

from jahangir import (JahangirParams, SpanningTree, build_jahangir, count_spanning_trees_det,
                      sigma, verify_spanning_tree)
from jahangir.cli import COMMANDS, main


def refuse(*args, **kwargs):
    raise AssertionError("off the path of this command")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCount:
    def test_breakdown(self, capsys):
        code, payload = run_json(capsys, ["count", "--n", "2", "--m", "4", "--breakdown"])
        assert code == 0
        assert payload["command"] == "count"
        assert payload["result"]["total"] == "192"
        assert payload["result"]["per_k"] == ["32", "80", "64", "16"]

    def test_large_total_as_string(self, capsys):
        code, payload = run_json(capsys, ["count", "--n", "3", "--m", "16"])
        assert code == 0
        assert payload["result"]["total"] == "77132286525"

    def test_total_needs_no_breakdown(self, capsys, monkeypatch):
        import jahangir.cli as cli_mod

        monkeypatch.setattr(cli_mod, "sigma", refuse)
        code, payload = run_json(capsys, ["count", "--n", "2", "--m", "40"])
        assert code == 0
        assert payload["result"]["total"] == str(sigma(2, 40).total)

    def test_method_kirchhoff(self, capsys):
        code, payload = run_json(capsys, ["count", "--n", "2", "--m", "4",
                                          "--method", "kirchhoff"])
        assert code == 0
        assert payload["result"]["total"] == "192"

    def test_method_kirchhoff_large(self, capsys):
        code, payload = run_json(capsys, ["count", "--n", "100", "--m", "100",
                                          "--method", "kirchhoff"])
        assert code == 0
        assert payload["result"]["total"] == str(sigma(100, 100).total)

    def test_parser_built_once(self, capsys):
        from jahangir.cli import build_parser

        build_parser.cache_clear()
        # "--m=3" is outside the strict form, so argparse parses it
        assert main(["coeffs", "--m=3"]) == 0
        assert main(["coeffs", "--m=4"]) == 0
        assert build_parser.cache_info().misses == 1

    def test_method_enumerate(self, capsys):
        code, payload = run_json(capsys, ["count", "--n", "2", "--m", "4",
                                          "--method", "enumerate"])
        assert code == 0
        assert payload["result"]["total"] == "192"

    def test_method_all_agrees(self, capsys):
        code, payload = run_json(capsys, ["count", "--n", "2", "--m", "3",
                                          "--method", "all"])
        assert code == 0
        engines = payload["result"]["engines"]
        assert engines == {"combinatorial": "50", "kirchhoff": "50", "enumerate": "50"}
        assert payload["result"]["agreement"] is True
        assert payload["result"]["total"] == "50"

    def test_method_all_disagreement_exits_4(self, capsys, monkeypatch):
        import jahangir.cli as cli_mod

        monkeypatch.setattr(cli_mod, "count_spanning_trees_det", lambda g: 49)
        code = main(["count", "--n", "2", "--m", "3", "--method", "all"])
        captured = capsys.readouterr()
        assert code == 4
        payload = json.loads(captured.out)
        assert payload["result"]["agreement"] is False
        assert "total" not in payload["result"]
        assert "disagreement" in captured.err

    def test_method_all_counts_kirchhoff_once(self, capsys, monkeypatch):
        import jahangir.cli as cli_mod

        calls = []

        def counted(g, *args, **kwargs):
            calls.append(g)
            return count_spanning_trees_det(g, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "count_spanning_trees_det", counted)
        code, payload = run_json(capsys, ["count", "--n", "2", "--m", "4", "--method", "all"])
        assert code == 0
        assert payload["result"]["total"] == "192"
        assert len(calls) == 1

    def test_method_all_cap_exits_3(self, capsys):
        code = main(["count", "--n", "2", "--m", "13", "--method", "all"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("error: enumeration would yield 27246962 trees, above the cap "
                                "of 10000000; raise or disable the cap to proceed\n")

    def test_method_enumerate_refused_before_any_graph(self, capsys, monkeypatch):
        import jahangir.cli as cli_mod

        monkeypatch.setattr(cli_mod, "build_jahangir", refuse)
        code = main(["count", "--n", "2", "--m", "13", "--method", "enumerate"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("error: enumeration would yield 27246962 trees, above the cap "
                                "of 10000000; raise or disable the cap to proceed\n")

    def test_parameter_error_exits_2(self, capsys):
        # refused before any output, also by the streamed cycles listing
        for argv, reason in [(["count", "--n", "1", "--m", "4"], "n must be >= 2"),
                             (["cycles", "--m", "2"], "m must be >= 3 (got 2)")]:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert reason in captured.err and captured.err.count("\n") == 1

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        import jahangir.cli as cli_mod

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "sigma_total", interrupt)
        assert main(["count", "--n", "2", "--m", "4"]) == 130
        assert capsys.readouterr().out == ""

    def test_enumerate_cap_exits_3(self, capsys):
        code = main(["count", "--n", "3", "--m", "16", "--method", "enumerate"])
        captured = capsys.readouterr()
        assert code == 3
        assert "cap" in captured.err

    def test_deterministic_output(self, capsys):
        main(["count", "--n", "2", "--m", "5", "--breakdown"])
        first = capsys.readouterr().out
        main(["count", "--n", "2", "--m", "5", "--breakdown"])
        second = capsys.readouterr().out
        assert first == second

    def test_timestamp_flag_adds_field(self, capsys):
        code, payload = run_json(capsys, ["--timestamp", "count", "--n", "2", "--m", "3"])
        assert code == 0
        assert "timestamp" in payload
        code, payload = run_json(capsys, ["count", "--n", "2", "--m", "3"])
        assert "timestamp" not in payload


class TestCoeffs:
    def test_m3(self, capsys):
        code, payload = run_json(capsys, ["coeffs", "--m", "3"])
        assert code == 0
        assert payload["result"]["coefficients"] == ["9", "6", "1"]

    def test_m5(self, capsys):
        code, payload = run_json(capsys, ["coeffs", "--m", "5"])
        assert code == 0
        assert payload["result"]["coefficients"] == ["25", "50", "35", "10", "1"]

    def test_bad_m(self, capsys):
        assert main(["coeffs", "--m", "2"]) == 2
        capsys.readouterr()


class TestEnumerate:
    def test_full_json(self, capsys):
        code, payload = run_json(capsys, ["enumerate", "--n", "2", "--m", "3"])
        assert code == 0
        result = payload["result"]
        assert result["count"] == 50
        trees = [tuple(t) for t in result["trees"]]
        assert len(set(trees)) == 50
        assert all(list(t) == sorted(t) and len(t) == 6 for t in trees)

    def test_192_distinct_trees(self, capsys):
        code, payload = run_json(capsys, ["enumerate", "--n", "2", "--m", "4"])
        assert code == 0
        trees = [tuple(t) for t in payload["result"]["trees"]]
        assert len(trees) == 192
        assert len(set(trees)) == 192

    def test_limit(self, capsys):
        code, payload = run_json(capsys, ["enumerate", "--n", "2", "--m", "3",
                                          "--limit", "5"])
        assert code == 0
        assert payload["result"]["count"] == 5

    def test_limit_past_sigma_lists_every_tree(self, capsys):
        # a limit that does not bind cuts nothing, however far past sys.maxsize
        argv = ["enumerate", "--n", "2", "--m", "3", "--limit", "99999999999999999999999"]
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload["result"]["count"] == 50
        assert len(payload["result"]["trees"]) == 50
        assert main(argv + ["--format", "dot"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("graph tree_") == 50
        assert captured.err == ""

    def test_limit_one(self, capsys):
        code, payload = run_json(capsys, ["enumerate", "--n", "2", "--m", "3",
                                          "--limit", "1"])
        assert code == 0
        assert payload["result"]["count"] == 1
        assert len(payload["result"]["trees"]) == 1

    def test_dot_stream(self, capsys):
        code = main(["enumerate", "--n", "2", "--m", "3", "--limit", "2",
                     "--format", "dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("graph tree_0 {") == 1
        assert out.count("graph tree_1 {") == 1
        # each tree drawing dashes the m edges it leaves out
        assert out.count("style=dashed") == 6

    def test_cap_exits_3(self, capsys):
        code = main(["enumerate", "--n", "3", "--m", "16"])
        captured = capsys.readouterr()
        assert code == 3
        assert "cap" in captured.err

    def test_limit_within_one_spoke_trees_needs_no_count(self, capsys, monkeypatch):
        # J(2, 3000) has 2 * 3000^2 trees that keep one spoke, so a limit of
        # 1 is the announced count and sigma is never taken
        import jahangir.cli as cli_mod

        monkeypatch.setattr(cli_mod, "sigma", refuse)
        monkeypatch.setattr(cli_mod, "sigma_table", refuse)
        monkeypatch.setattr(cli_mod, "sigma_total", refuse)
        code, payload = run_json(capsys, ["enumerate", "--n", "2", "--m", "3000",
                                          "--limit", "1"])
        assert code == 0
        assert payload["result"]["count"] == 1
        assert payload["result"]["trees"] == [list(range(1, 6001))]

    def test_short_listing_exits_4(self, capsys, monkeypatch):
        # count is printed before the trees, so a listing that falls short
        # of it is reported after the fact
        import jahangir.cli as cli_mod

        real = cli_mod.jahangir_tree_texts
        monkeypatch.setattr(cli_mod, "jahangir_tree_texts",
                            lambda *a, **kw: islice(real(*a, **kw), 1, None))
        code = main(["enumerate", "--n", "2", "--m", "3"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        payload = json.loads(captured.out)
        assert payload["result"]["count"] == 50
        assert len(payload["result"]["trees"]) == 49

    def test_long_listing_exits_4(self, capsys, monkeypatch):
        # with no limit given, nothing cuts a listing at its announced count:
        # one tree too many is reported as well
        import jahangir.cli as cli_mod

        real = cli_mod.jahangir_tree_texts
        monkeypatch.setattr(cli_mod, "jahangir_tree_texts",
                            lambda *a, **kw: chain(real(*a, **kw), islice(real(*a, **kw), 1)))
        code = main(["enumerate", "--n", "2", "--m", "3"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == "error: listed 51 trees, announced 50\n"

    def test_listing_memory_flat_in_tree_count(self):
        class Discard:
            def write(self, s):
                return len(s)

        argv = ["enumerate", "--n", "2", "--m", "7"]  # 10 082 trees, 1.8 MB of JSON
        with redirect_stdout(Discard()):
            assert main(argv) == 0  # warm-up: parser, engine versions
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_builds_no_tree_object(self, capsys, monkeypatch):
        # listings and counts draw the producers' index tuples, never a SpanningTree
        import jahangir.enumeration as enumeration

        argvs = [["enumerate", "--n", "3", "--m", "5"],
                 ["enumerate", "--n", "3", "--m", "5", "--format", "dot"],
                 ["count", "--method", "all", "--n", "3", "--m", "4"],
                 ["count", "--method", "enumerate", "--n", "3", "--m", "4"]]
        expected = []
        for argv in argvs:
            assert main(argv) == 0
            expected.append(capsys.readouterr().out)
        monkeypatch.setattr(enumeration, "_tree", refuse)
        for argv, out in zip(argvs, expected):
            assert main(argv) == 0
            assert capsys.readouterr().out == out

    def test_dot_stream_survives_closed_pipe(self):
        # a consumer that stops reading early (head, a pager) must not
        # provoke a BrokenPipeError traceback
        with subprocess.Popen(
                [sys.executable, "-m", "jahangir.cli",
                 "enumerate", "--n", "2", "--m", "5", "--format", "dot"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.read(64)
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 0
        assert err == b""


    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
    def test_closed_pipe_leaves_no_descriptor_open(self):
        # an in-process caller writing into a pipe whose reader is gone: stdout
        # is parked on devnull, with no descriptor left behind on any call
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        for _ in range(5):
            read_end, write_end = os.pipe()
            os.close(read_end)
            with open(write_end, "w") as stream, redirect_stdout(stream):
                assert main(["enumerate", "--n", "2", "--m", "6"]) == 0
        assert open_fds() == before


# sigma above 10^7 with no limit: every listing of these is refused
OVER_CAP = [(2, 13), (2, 14), (3, 11), (3, 12), (4, 10), (4, 11), (3, 16)]


@pytest.mark.parametrize("n, m", OVER_CAP)
@pytest.mark.parametrize("command", [["enumerate"], ["enumerate", "--format", "dot"],
                                     ["count", "--method", "enumerate"]])
def test_cap_refusal_line(capsys, command, n, m):
    code = main(command + ["--n", str(n), "--m", str(m)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"error: enumeration would yield {sigma(n, m).total} trees, above "
                            "the cap of 10000000; raise or disable the cap to proceed\n")


@pytest.mark.parametrize("m", [3000, 8000, 20000])
@pytest.mark.parametrize("command", [["enumerate"], ["enumerate", "--format", "dot"],
                                     ["count", "--method", "enumerate"]])
def test_one_spoke_trees_over_cap_refuse_with_no_count(capsys, monkeypatch, command, m):
    # sigma exceeds the 2 * m^2 trees that keep one spoke, already above the
    # cap; from m = 7500 or so sigma has too many digits to print at all
    import jahangir.cli as cli_mod

    monkeypatch.setattr(cli_mod, "sigma_total", refuse)
    code = main(command + ["--n", "2", "--m", str(m)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"error: enumeration would yield more than {2 * m * m} trees, "
                            "above the cap of 10000000; raise or disable the cap to proceed\n")


def test_limit_over_cap_within_one_spoke_trees(capsys, monkeypatch):
    import jahangir.cli as cli_mod

    monkeypatch.setattr(cli_mod, "sigma_total", refuse)
    assert main(["enumerate", "--n", "3", "--m", "2000", "--limit", "10000001"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "would yield 10000001 trees" in captured.err


def test_admission_memory_flat_in_m():
    import jahangir.cli as cli_mod

    tracemalloc.start()
    try:
        cli_mod._planned(2, 20000, None, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_refusal_order(capsys):
    # parameters first, then a negative limit, then the cap
    for argv, code, reason in [
            (["--n", "1", "--m", "16", "--limit", "-1"], 2, "n must be >= 2"),
            (["--n", "3", "--m", "16", "--limit", "-1"], 2, "limit must be >= 0"),
            (["--n", "3", "--m", "16", "--limit", "10000001"], 3, "10000001")]:
        assert main(["enumerate", *argv]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and reason in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_negative_limit_refused_in_one_line(capsys, fmt):
    assert main(["enumerate", "--n", "2", "--m", "3", "--limit", "-1", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: limit must be >= 0 (got -1)\n")


@cache
def built(n, m):
    return build_jahangir(JahangirParams(n, m))


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("limit", [1, 2, 5])
@pytest.mark.parametrize("m", [25, 40, 64, 100, 160, 200, 400])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_short_listing_of_a_long_rim_is_quick(capsys, n, m, limit, fmt):
    # the benchmark's tail of --limit listings, up to 1601 vertices: the
    # listing's setup is linear in the edges, so each takes milliseconds
    argv = ["enumerate", "--n", str(n), "--m", str(m), "--limit", str(limit), "--format", fmt]
    start = perf_counter()
    code = main(argv)
    seconds = perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert seconds < 0.5
    g = built(n, m)
    if fmt == "json":
        trees = json.loads(out)["result"]["trees"]
    else:  # a tree's edges are the lines it draws solid, one line an edge in index order
        trees = []
        for drawing in out.split("graph tree_")[1:]:
            ends = re.findall(r"^  v\d+ -- v\d+(;| \[style=dashed\];)$", drawing, re.M)
            assert len(ends) == g.edge_count
            trees.append([i for i, end in enumerate(ends) if end == ";"])
    assert len(trees) == limit
    assert all(verify_spanning_tree(g, SpanningTree(t)) for t in trees)


def test_allow_huge_lifts_the_cap(capsys, monkeypatch):
    import jahangir.cli as cli_mod

    monkeypatch.setattr(cli_mod, "TREE_CAP", 49)
    for argv, key, value in ((["enumerate", "--n", "2", "--m", "3"], "count", 50),
                             (["count", "--n", "2", "--m", "3", "--method", "all"], "total", "50")):
        assert main(argv) == 3
        assert "would yield 50 trees, above the cap of 49" in capsys.readouterr().err
        code, payload = run_json(capsys, argv + ["--allow-huge"])
        assert code == 0
        assert payload["result"][key] == value


class TestCycles:
    def test_m3(self, capsys):
        code, payload = run_json(capsys, ["cycles", "--m", "3"])
        assert code == 0
        result = payload["result"]
        assert result["record_count"] == 9
        assert result["simple_cycle_count"] == 6
        assert result["length_histogram"] == {"4": 3, "6": 3, "8": 3}
        assert len(result["records"]) == 9

    def test_m6_record_count(self, capsys):
        code, payload = run_json(capsys, ["cycles", "--m", "6"])
        assert code == 0
        assert payload["result"]["record_count"] == 36

    def test_builds_no_graph_and_checks_no_record(self, capsys, monkeypatch):
        import jahangir.cycles as cycles_mod

        def refuse(*args, **kwargs):
            raise AssertionError("off the production path")

        monkeypatch.setattr(cycles_mod, "_edge_set_is_simple_cycle", refuse)
        monkeypatch.setattr(cycles_mod, "build_jahangir", refuse)
        code, payload = run_json(capsys, ["cycles", "--m", "30"])
        assert code == 0
        assert payload["result"]["record_count"] == len(payload["result"]["records"]) == 900

    def test_degenerate_records_flagged(self, capsys):
        code, payload = run_json(capsys, ["cycles", "--m", "4"])
        records = payload["result"]["records"]
        flags = [r["is_simple_cycle"] for r in records]
        assert flags.count(False) == 4
        assert all(len(r["spoke_span"]) == 4 for r in records if not r["is_simple_cycle"])


class TestTableAndRatios:
    def test_table_csv(self, capsys):
        code = main(["table", "--n", "2", "--m-max", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "m,sigma\n3,50\n4,192\n5,722\n6,2700\n"

    def test_table_json(self, capsys):
        code, payload = run_json(capsys, ["table", "--n", "3", "--m-max", "9",
                                          "--format", "json"])
        assert code == 0
        rows = payload["result"]["rows"]
        assert rows[-1] == {"m": 9, "sigma": "1330668"}

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter prints ints of any length")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_past_the_digit_limit_refused_before_any_output(self, capsys, fmt):
        # sigma(2, 20000) has about 11 000 digits, past CPython's default 4300
        code = main(["table", "--n", "2", "--m-max", "20000", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter prints ints of any length")
    @pytest.mark.parametrize("argv", [
        # the row of m = 617 is refused inside its template: its ratio's
        # numerator has 641 digits, its denominator 640
        ["ratios", "--n", "9", "--m-max", "700", "--precision", "0"],
        ["ratios", "--n", "2", "--m-max", "10", "--precision", "700"],
        ["table", "--n", "9", "--m-max", "700", "--format", "json"],
        ["count", "--n", "9", "--m", "700", "--breakdown"],
    ], ids=["ratio-row", "ratio-decimal", "table-row", "count-per-k"])
    def test_refused_while_rendering_writes_nothing(self, capsys, argv):
        # the rows of table and ratios are rendered whole before any is written
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(argv)
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_ratios_first_entry(self, capsys):
        code, payload = run_json(capsys, ["ratios", "--n", "2", "--m-max", "5",
                                          "--precision", "2"])
        assert code == 0
        entry = payload["result"]["entries"][0]
        assert entry == {"m": 3, "ratio": "96/25", "decimal": "3.84"}

    def test_ratios_default_precision(self, capsys):
        code, payload = run_json(capsys, ["ratios", "--n", "2", "--m-max", "5"])
        assert payload["result"]["precision"] == 9
        assert payload["result"]["entries"][0]["decimal"] == "3.840000000"

    def test_ratios_tenth_digit(self, capsys):
        code, payload = run_json(capsys, ["ratios", "--n", "3", "--m-max", "15",
                                          "--precision", "10"])
        by_m = {e["m"]: e["decimal"] for e in payload["result"]["entries"]}
        assert by_m[14] == "4.7912878497"

    def test_ratios_decimal_comma(self, capsys):
        code, payload = run_json(capsys, ["ratios", "--n", "2", "--m-max", "5",
                                          "--precision", "2", "--decimal-comma"])
        assert payload["result"]["entries"][0]["decimal"] == "3,84"


class TestGraph:
    def test_dot(self, capsys):
        code = main(["graph", "--n", "2", "--m", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("graph jahangir_2_4 {")
        assert out.count(" -- ") == 12
        assert out.count(";") == 9 + 12

    def test_json(self, capsys):
        code, payload = run_json(capsys, ["graph", "--n", "2", "--m", "4",
                                          "--format", "json"])
        assert code == 0
        result = payload["result"]
        assert result["vertex_count"] == 9
        assert result["edge_count"] == 12
        assert result["edges"][0] == [1, 2]

    def test_bad_params(self, capsys):
        assert main(["graph", "--n", "0", "--m", "4"]) == 2
        capsys.readouterr()


class TestParsing:
    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_subcommand_help_names_every_declared_flag(self, capsys, command):
        assert main([command, "--help"]) == 0
        named = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        _, _, *flags = COMMANDS[command]
        assert {option for option, _ in flags} <= named

    def test_method_choices_are_the_engines(self):
        import argparse

        from jahangir.cli import ENGINES, build_parser

        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in commands.choices["count"]._actions if a.dest == "method")
        assert method.choices == [*ENGINES, "all"]
        assert method.default == "combinatorial"

    def test_well_formed_argv_builds_no_parser(self, capsys):
        from jahangir.cli import build_parser

        build_parser.cache_clear()
        assert main(["count", "--n", "2", "--m", "4"]) == 0
        assert build_parser.cache_info().misses == 0

    def test_every_pinned_argv_takes_the_fast_path(self):
        # the benchmark's pinned queries: a COMMANDS edit that sends one back
        # to argparse fails here
        from jahangir.cli import _fast

        digests = Path(__file__).resolve().parents[1] / "perfbench" / "seed_digests.json"
        pinned = json.loads(digests.read_text())["digests"]
        assert [key for key in pinned if _fast(key.split()) is None] == []

    @pytest.mark.parametrize("argv", [["count", "--n", "2", "--m", "4", "--breakdown"],
                                      ["coeffs", "--m", "2"]])
    def test_console_script_and_tuple_argv_take_the_fast_path(self, capsys, monkeypatch, argv):
        from jahangir.cli import build_parser

        want = main(argv), capsys.readouterr()
        build_parser.cache_clear()
        monkeypatch.setattr(sys, "argv", ["jahangir", *argv])
        assert (main(), capsys.readouterr()) == want
        assert (main(tuple(argv)), capsys.readouterr()) == want
        assert build_parser.cache_info().misses == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        # the strict-form reader passes it on, and argparse refuses it
        from jahangir.cli import _fast

        assert _fast(["count", "--n", "2"]) is None
        assert main(["count", "--n", "2"]) == 2
        assert capsys.readouterr().err.startswith("usage: jahangir count")

    def test_envelope_shape(self, capsys):
        code, payload = run_json(capsys, ["count", "--n", "2", "--m", "3"])
        assert set(payload) == {"command", "parameters", "result", "engine_versions"}
        assert set(payload["engine_versions"]) == {"jahangir", "python", "numpy"}

    def test_engine_versions_are_platform_and_metadata_ones(self):
        # the sys.version and sys.path reads stand in for platform and
        # importlib.metadata, and must give what they give
        import platform
        from importlib import metadata

        import jahangir
        from jahangir.cli import _engine_versions

        try:
            numpy = metadata.version("numpy")
        except metadata.PackageNotFoundError:
            numpy = "not installed"
        assert _engine_versions() == {"jahangir": jahangir.__version__,
                                      "python": platform.python_version(), "numpy": numpy}

    def test_numpy_metadata_absent(self, capsys, monkeypatch, tmp_path):
        # numpy is an optional extra: with no metadata to read, every JSON
        # command still answers, with a placeholder for its version
        import jahangir.cli as cli_mod

        monkeypatch.setattr(sys, "path", [str(tmp_path)])
        cli_mod._versions_member.cache_clear()
        try:
            for argv in (["count", "--n", "2", "--m", "3"],
                         ["graph", "--n", "2", "--m", "3", "--format", "json"]):
                code, payload = run_json(capsys, argv)
                assert code == 0
                assert payload["engine_versions"]["numpy"] == "not installed"
        finally:  # later tests read the real metadata again
            cli_mod._versions_member.cache_clear()

    @pytest.mark.parametrize("info, file", [("numpy-9.9.9.dist-info", "METADATA"),
                                            ("NumPy-9.9.9-py3.egg-info", "PKG-INFO")])
    def test_numpy_version_from_the_first_metadata_on_sys_path(self, monkeypatch, tmp_path,
                                                                 info, file):
        # ahead of any installed numpy, after an entry that is no directory
        from importlib import metadata

        import jahangir.cli as cli_mod

        (tmp_path / info).mkdir()
        (tmp_path / info / file).write_text("Metadata-Version: 2.1\nName: numpy\n"
                                            "Version: 9.9.9\n")
        monkeypatch.setattr(sys, "path", [str(tmp_path / "absent"), str(tmp_path), *sys.path])
        cli_mod._versions_member.cache_clear()
        try:
            assert cli_mod._engine_versions()["numpy"] == metadata.version("numpy") == "9.9.9"
            assert '"numpy": "9.9.9"' in cli_mod._versions_member()
        finally:  # later tests read the real metadata again
            cli_mod._versions_member.cache_clear()
