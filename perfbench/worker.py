"""One benchmark worker: answers CLI queries one at a time, in-process.

Reads one JSON request per line, runs `jahangir.cli.main(argv)` with
stdout going to a checking sink, and writes one JSON reply per line.  The
protocol uses copies of the original stdin/stdout; fds 0 and 1 are pointed
at /dev/null so nothing the program prints can corrupt it.

A request {"gauge": true} instead times `gauge_s`, fixed pure-Python work
that uses nothing of the package; the harness divides query times by it to
take out the machine's own changes of speed.

A query still running after LIMIT_S is aborted from a SIGALRM handler.
The worker then replies and exits, so no state the aborted query left
behind (a half-filled cache, say) can reach later queries; the harness
starts a fresh worker.  The same happens after an unexpected exception.

Usage: python3 worker.py [--trace]   (with the package on PYTHONPATH)
"""

import json
import os
import signal
import sys
import traceback
from time import perf_counter

import oracle

LIMIT_S = 1.0  # ROADMAP: every count the CLI accepts finishes well under a second
GAUGE_MOD = (1 << 521) - 1


def gauge_s() -> float:
    """Time of a fixed mix of small-int, big-int, dict, list and string
    work, about 5 ms: the kinds of work the package does, none of its code."""
    t0 = perf_counter()
    x, big, counts, pairs = 1, 1, {}, []
    for i in range(4000):
        x = (x * 1103515245 + 12345) % (1 << 61)
        counts[x & 1023] = counts.get(x & 1023, 0) + i
        pairs.append((x & 255, i))
        if not i & 7:
            big = big * (x | 1) % GAUGE_MOD
    pairs.sort()
    ",".join(map(str, counts.values()))
    return perf_counter() - t0


class QueryTimeout(BaseException):
    """Raised into the program when its query passes the limit."""


def main():
    requests = os.fdopen(os.dup(0), "r")
    replies = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_RDWR)
    os.dup2(devnull, 0)
    os.dup2(devnull, 1)

    t0 = perf_counter()
    import jahangir.cli as cli
    import_s = perf_counter() - t0

    run = cli.main
    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.span("cli", cli.main)

    running = [False]

    def on_alarm(signum, frame):
        if running[0]:
            running[0] = False
            raise QueryTimeout

    def on_busy(seconds):
        # checking time is not the program's: push the deadline back by it
        remaining = signal.getitimer(signal.ITIMER_REAL)[0]
        if remaining > 0:
            signal.setitimer(signal.ITIMER_REAL, remaining + seconds)
        if tracer is not None:
            tracer.exclude(seconds)

    signal.signal(signal.SIGALRM, on_alarm)

    for line in requests:
        req = json.loads(line)
        if req.get("gauge"):
            replies.write(json.dumps({"gauge_s": gauge_s()}) + "\n")
            replies.flush()
            continue
        spec = req["spec"]
        checker = oracle.checker_for(spec)
        sink = oracle.Sink(checker, on_busy)
        err = oracle.StderrTail()
        reply = {"import_s": import_s, "problems": []}
        sys.stdout, sys.stderr = sink, err
        running[0] = True
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        t0 = perf_counter()
        try:
            code = run(list(req["argv"]))
            running[0] = False
            outcome = "done"
        except QueryTimeout:
            outcome = "timeout"
        except Exception:
            running[0] = False
            outcome = "crash"
            reply["problems"].append("uncaught: " + traceback.format_exc(limit=-1).strip()[-300:])
        elapsed = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__

        if outcome == "done":
            sink.close_stream()
            reply["problems"] += checker.finish()
            if code != spec["exit"]:
                reply["problems"].append(f"exit {code}, want {spec['exit']}: {err.first}")
            elif code == 3 and not (err.first or "").startswith("error: enumeration would yield"):
                reply["problems"].append(f"refusal message {err.first!r}")
        reply.update(outcome=outcome, seconds=elapsed - sink.busy, check_s=sink.busy,
                     bytes=sink.bytes, sha256=sink.hash.hexdigest(), trees=checker.trees)
        if tracer is not None:
            reply["trace"] = tracer.take()
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if outcome != "done":
            break


if __name__ == "__main__":
    main()
