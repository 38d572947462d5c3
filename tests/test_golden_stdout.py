"""Byte-identical CLI stdout for every pinned query.

perfbench/seed_digests.json maps each pinned argv (joined with spaces) to
the sha256 of the stdout the seed program printed for it, with the Python
and numpy versions in the JSON envelope masked as "*".  This test replays
every one of those argv through cli.main, all seven commands and the
Kirchhoff counts included, and compares digests.  After the replay the
envelope templates number one per shape of result, however many argv drew
them.
"""

import hashlib
import importlib.util
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from jahangir import cli
from jahangir.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = PERFBENCH / "seed_digests.json"
COMMANDS = ("count", "coeffs", "enumerate", "cycles", "table", "ratios", "graph")

# the benchmark's oracle, which imports the stdlib alone, masks the digests
# it records; loaded from its file, since perfbench is no package
_spec = importlib.util.spec_from_file_location("oracle", PERFBENCH / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


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
