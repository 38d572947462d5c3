"""The CLI run in fresh interpreters: `count --method all`, the listing
admission and its refusals, two streamed listings in bounded memory, a
listing of a few very large trees in memory bounded by about one tree, a
Kirchhoff count in memory bounded per vertex, a CLI that never imports
numpy, and a `count` that imports only what it runs.

Each check runs in a fresh interpreter of its own (this file run as a
script, with the check's name as its argument), which starts the CLI
children and reads their peak RSS from RUSAGE_CHILDREN, or runs the CLI
in-process and reads sys.modules.  A child's peak
includes the memory of the process that started it, so children started
from the test session itself would carry its heap into the 64 MB bounds.
"""

import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "jahangir.cli", *argv],
                          stdout=subprocess.PIPE, **kwargs)


def largest_child_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def check_count_all_and_listing_admission():
    # J(25, 3): a long rim, where the generic listing must be bound by its output
    for n, m, total in ((3, 6, "12096"), (4, 5, "6724"), (25, 3, "19600")):
        run = cli("count", "--n", str(n), "--m", str(m), "--method", "all")
        result = json.loads(run.stdout)["result"]
        print(n, m, run.returncode, result)
        assert run.returncode == 0
        assert result["agreement"] is True and result["total"] == total
    # a limit within the n * m^2 one-spoke trees is announced with no count taken
    run = cli("enumerate", "--n", "2", "--m", "3000", "--limit", "1")
    result = json.loads(run.stdout)["result"]
    print(run.returncode, result["count"], len(result["trees"]))
    assert run.returncode == 0 and result["count"] == len(result["trees"]) == 1
    # the first tree is spliced in O(nm) memory; holding every tree of a
    # whole-rim arc would take about 280 MB (the children so far are small)
    rss_mb = largest_child_mb()
    print(f"largest child: {rss_mb:.1f} MB")
    assert rss_mb < 64
    # sigma(2, 13) = 27246962 is above the cap: refused before any output
    run = cli("count", "--method", "enumerate", "--n", "2", "--m", "13")
    print(run.returncode, run.stdout)
    assert run.returncode == 3 and run.stdout == b""
    # an n * m^2 above the cap is refused with no count taken, while
    # sigma itself has too many digits to print
    for argv in (("count", "--method", "enumerate", "--n", "2", "--m", "20000"),
                 ("enumerate", "--n", "2", "--m", "40000")):
        run = cli(*argv, stderr=subprocess.PIPE)
        print(run.returncode, run.stderr)
        assert run.returncode == 3 and run.stdout == b""
        assert run.stderr.count(b"\n") == 1 and b"more than" in run.stderr


def check_streamed_listings_in_bounded_memory():
    # both children start before any output is parsed: a child spawned
    # later would count the parsed JSON of the parent in its peak RSS
    runs = {("enumerate", "--n", "2", "--m", "9"): ("count", "trees", 140450),
            ("cycles", "--m", "150"): ("record_count", "records", 22500)}
    procs = [subprocess.Popen([sys.executable, "-m", "jahangir.cli", *argv],
                              stdout=subprocess.PIPE) for argv in runs]
    for proc, (count, rows, expected) in zip(procs, runs.values()):
        result = json.load(proc.stdout)["result"]
        assert proc.wait() == 0
        print(result[count], len(result[rows]))
        assert result[count] == len(result[rows]) == expected
        del result
    rss_mb = largest_child_mb()
    print(f"largest child: {rss_mb:.1f} MB")
    assert rss_mb < 64


def check_large_trees_stream_in_bounded_memory():
    # 20 trees of J(100000, 3), 4.7 MB of text each: a chunk of rows holds
    # about 1 MB of text or one row, so the peak holds about one tree, not 20
    proc = subprocess.Popen([sys.executable, "-m", "jahangir.cli", "enumerate", "--n", "100000",
                             "--m", "3", "--limit", "20"], stdout=subprocess.PIPE)
    closer, carry, trees = b"\n      ]", b"", 0
    while block := proc.stdout.read(1 << 20):
        trees += (carry + block).count(closer)
        carry = block[1 - len(closer):]
    assert proc.wait() == 0
    rss_mb = largest_child_mb()
    print(f"{trees} trees, largest child: {rss_mb:.1f} MB")
    assert trees == 20 and carry.endswith(b"\n}\n")
    assert rss_mb < 100


def check_kirchhoff_count_in_bounded_memory():
    # the cycle-minor count of J(20000, 3) holds the graph, its edges less the
    # hub's and the walk's two flat lists: 180 to 192 bytes a vertex on CPython
    # 3.10 to 3.13, where a list per vertex in the walk reads 269 to 281
    from jahangir.cli import main

    vertices = 20000 * 3 + 1
    with redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(["count", "--method", "kirchhoff", "--n", "20000", "--m", "3"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    print(f"peak: {peak / vertices:.0f} bytes per vertex")
    assert peak < 250 * vertices


def check_cli_imports_no_numpy():
    # numpy is for the float cross-check only; the CLI's startup stays Python's own
    import jahangir
    from jahangir.cli import main

    with redirect_stdout(io.StringIO()):
        assert main(["count", "--n", "2", "--m", "4"]) == 0
        assert main(["enumerate", "--n", "2", "--m", "3", "--limit", "2"]) == 0
    print(jahangir.__file__, sorted(name for name in sys.modules if "numpy" in name))
    assert "numpy" not in sys.modules


def check_count_imports_only_what_it_runs():
    # the strict-form count reads no metadata machinery, platform, datetime
    # or argparse; --timestamp and a non-strict argv load theirs when run
    from jahangir.cli import build_parser, main

    unused = ("importlib.metadata", "platform", "datetime", "argparse")
    with redirect_stdout(io.StringIO()):
        assert main(["count", "--n", "2", "--m", "4"]) == 0
    print(sorted(name for name in unused if name in sys.modules))
    assert not any(name in sys.modules for name in unused)
    with redirect_stdout(io.StringIO()):
        assert main(["--timestamp", "count", "--n", "2", "--m", "4"]) == 0
        assert build_parser.cache_info().misses == 0
        assert main(["count", "--n=2", "--m", "4"]) == 0
    assert build_parser.cache_info().misses == 1 and "argparse" in sys.modules


def in_fresh_interpreter(check):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, os.path.abspath(__file__), check.__name__],
                         env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True, timeout=300)
    assert run.returncode == 0, run.stdout


def test_count_all_and_listing_admission():
    in_fresh_interpreter(check_count_all_and_listing_admission)


def test_streamed_listings_in_bounded_memory():
    in_fresh_interpreter(check_streamed_listings_in_bounded_memory)


def test_large_trees_stream_in_bounded_memory():
    in_fresh_interpreter(check_large_trees_stream_in_bounded_memory)


def test_kirchhoff_count_in_bounded_memory():
    in_fresh_interpreter(check_kirchhoff_count_in_bounded_memory)


def test_cli_imports_no_numpy():
    in_fresh_interpreter(check_cli_imports_no_numpy)


def test_count_imports_only_what_it_runs():
    in_fresh_interpreter(check_count_imports_only_what_it_runs)


if __name__ == "__main__":
    globals()[sys.argv[1]]()
