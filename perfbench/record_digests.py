"""Record the sha256 of the CLI's stdout for every pinned benchmark query.

Run once, at the commit whose output is the reference (the seed):

    python3 perfbench/record_digests.py

Each answer is first checked against the oracle; a wrong answer stops the
recording.  The table is written to perfbench/seed_digests.json.  The
Python and numpy versions in the CLI's JSON envelope are masked before
hashing (oracle.mask_versions), so the digests hold in any environment.
Re-recording at a later commit would defeat the byte-identical check, so
do not.
"""

import contextlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def main():
    import jahangir.cli as cli

    digests = {}
    for q in workloads.pinned_queries():
        if q.key in digests:
            continue
        checker = oracle.checker_for(q.spec)
        sink = oracle.Sink(checker)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(oracle.StderrTail()):
            code = cli.main(list(q.argv))
        sink.close_stream()
        problems = checker.finish()
        if code != q.spec["exit"] or problems:
            raise SystemExit(f"wrong answer for {q.key}: exit {code}, {problems}")
        digests[q.key] = sink.hash.hexdigest()
    with open(os.path.join(HERE, "seed_digests.json"), "w") as f:
        json.dump({"digests": digests}, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(digests)} digests")


if __name__ == "__main__":
    main()
