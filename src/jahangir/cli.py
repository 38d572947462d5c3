"""Command-line front end.

Every JSON-producing command wraps its payload in one envelope document:
command name, echoed parameters, result, engine versions.  Counts that can
exceed JSON's safe integer range are serialized as decimal strings.  Output
is deterministic; an optional timestamp field is off by default.  One
writer, _json, gives every envelope the json module's indent=2 bytes with
its C string encoder: given an indent, CPython 3.10/3.11 encode in Python.

Three listings stream: the trees of `enumerate`, the edges of `graph` and
the records of `cycles` are written in chunks as they are produced, inside
an envelope rendered once, byte-identical to the whole.  `enumerate
--format dot` draws each tree with one DOT renderer built once per graph.

The tree cap and --limit live here, not in the lazy enumerators: _planned
checks the limit and sizes a listing of J(n, m) from its parameters alone,
and `enumerate` and `count --method enumerate|all` are refused by it before
any graph is built or any output written; islice then cuts the listing.

Exit codes: 0 success, 2 parameter or validation problem, 3 enumeration cap
exceeded, 4 counting engines disagree under --method all, or a listing's
length differs from the count announced before it.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone
from itertools import islice
from json.encoder import encode_basestring_ascii as _string  # C, where CPython has it
from platform import python_version

from . import __version__
from .asymptotics import ratio_series
from .combinatorics import polynomial_coefficients, sigma, sigma_table, sigma_total
from .cycles import census_records
from .enumeration import jahangir_tree_edge_indices, tree_edge_indices
from .errors import EnumerationCapError, require_int
from .graph_core import JahangirParams, build_jahangir, dot_renderer, to_dot
from .matrix_tree import count_spanning_trees_det


_ENGINE_VERSIONS: dict = {}


def _engine_versions() -> dict:
    # from numpy's metadata, as importing numpy costs more than a JSON command
    if not _ENGINE_VERSIONS:
        from importlib import metadata
        try:
            numpy = metadata.version("numpy")
        except metadata.PackageNotFoundError:  # numpy is an optional extra
            numpy = "not installed"
        _ENGINE_VERSIONS.update(jahangir=__version__, python=python_version(), numpy=numpy)
    return _ENGINE_VERSIONS


def _json(value, indent: str = "\n") -> str:
    """value as the json module writes it at indent=2, or TypeError where that would differ."""
    if isinstance(value, str):
        return _string(value)
    if value is None or value is True or value is False:  # bool is an int
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):  # _string raises TypeError on a key that is not a str
        items, ends = [_string(k) + ": " + _json(v, inner) for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_json(v, inner) for v in value], "[]"
    else:  # float among them
        raise TypeError(f"{type(value).__name__} is not written as JSON")
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _emit(args, result, rows=None, render=None, labels: int = 0) -> int:
    """Print the envelope as _json writes it: given an indent, CPython 3.10
    and 3.11 run json's pure-Python encoder, where _json keeps its C one.

    The parameters echoed are the parsed arguments in declared order, less
    --timestamp, --allow-huge, the command and its handler.  With rows,
    result's last field must hold []: the rows are streamed in its place,
    and their number is returned, else 0.  No list of all rows is built.
    render(chunk, label) gives the text of a chunk of rows, label(i) the
    text of an int i in range(labels).
    """
    envelope = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items()
                       if k not in ("timestamp", "command", "func", "allow_huge")},
        "result": result,
        "engine_versions": _engine_versions(),
    }
    if args.timestamp:
        envelope["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = _json(envelope)
    if rows is None:
        print(text)
        return 0
    head, key, tail = text.partition(f'"{next(reversed(result))}": []')
    write = sys.stdout.write
    write(head + key[:-1])
    written = _write_rows(write, rows, render, labels)
    write(("\n    ]" if written else "]") + tail + "\n")
    return written


_ROWS_PER_WRITE = 256


def _write_rows(write, rows, render, labels: int) -> int:
    # the ints are rendered once, so a list of them costs one join
    label = [str(i) for i in range(labels)].__getitem__
    rows = iter(rows)
    written = 0
    while chunk := list(islice(rows, _ROWS_PER_WRITE)):
        write(("," if written else "") + render(chunk, label))
        written += len(chunk)
    return written


# A result field's rows sit three levels deep, each opening on a line of its
# own at indent 6; each int inside takes a line of its own.

def _int_list_rows(chunk, label) -> str:
    return ("\n      [\n        " + "\n      ],\n      [\n        ".join(
        [",\n        ".join(map(label, row)) for row in chunk]) + "\n      ]")


_CYCLE_RECORD = ('\n      {{\n        "spoke_span": [\n          {}\n        ],'
                 '\n        "length": {},\n        "edge_indices": [\n          {}\n        ],'
                 '\n        "is_simple_cycle": {}\n      }}')


def _cycle_record_rows(chunk, label) -> str:
    return ",".join([_CYCLE_RECORD.format(
        ",\n          ".join(map(label, r.spoke_span)), r.length,
        ",\n          ".join(map(label, r.edge_indices)),
        "true" if r.is_simple_cycle else "false") for r in chunk])


TREE_CAP = 10_000_000


def _planned(n: int, m: int, limit, allow_huge: bool) -> int:
    """The number of trees a listing of J(n, m) yields, min(limit, sigma).

    Refused: a negative limit (ParameterDomainError), then, unless allow_huge,
    a listing above TREE_CAP (EnumerationCapError).  J(n, m) has n * m^2
    trees that keep a single spoke, so sigma exceeds that: a limit within it
    is the answer with no count taken, and with no smaller limit an n * m^2
    above the cap refuses the listing with no count taken.
    """
    one_spoke, more = n * m * m, ""
    if limit is not None:
        require_int(limit, 0, "limit")
    if limit is not None and limit <= one_spoke:
        planned = limit
    elif one_spoke > TREE_CAP and not allow_huge:
        planned, more = one_spoke, "more than "
    else:
        planned = sigma_total(n, m)
        if limit is not None:
            planned = min(planned, limit)
    if planned > TREE_CAP and not allow_huge:
        raise EnumerationCapError(f"enumeration would yield {more}{planned} trees, above the "
                                  f"cap of {TREE_CAP}; raise or disable the cap to proceed")
    return planned


def _cmd_count(args) -> int:
    params = JahangirParams(args.n, args.m)
    if args.method in ("enumerate", "all"):
        _planned(args.n, args.m, None, args.allow_huge)
    engines = {}
    if args.method in ("combinatorial", "all"):
        engines["combinatorial"] = sigma_total(args.n, args.m)
    if args.method != "combinatorial":
        g = build_jahangir(params)
    if args.method in ("kirchhoff", "all"):
        engines["kirchhoff"] = count_spanning_trees_det(g)
    if args.method in ("enumerate", "all"):
        engines["enumerate"] = sum(1 for _ in tree_edge_indices(g))

    result = {"n": args.n, "m": args.m, "method": args.method}
    agreement = True
    if args.method == "all":
        agreement = len(set(engines.values())) == 1
        result["engines"] = {name: str(v) for name, v in engines.items()}
        result["agreement"] = agreement
        if agreement:
            result["total"] = str(engines["combinatorial"])
    else:
        result["total"] = str(engines[args.method])
    if args.breakdown:
        result["per_k"] = [str(v) for v in sigma(args.n, args.m).per_k]

    _emit(args, result)
    if not agreement:
        print(f"engine disagreement for n={args.n} m={args.m}: " +
              ", ".join(f"{k}={v}" for k, v in engines.items()), file=sys.stderr)
        return 4
    return 0


def _cmd_coeffs(args) -> int:
    return _emit(args, {"m": args.m,
                        "coefficients": [str(c) for c in polynomial_coefficients(args.m)]})


def _cmd_enumerate(args) -> int:
    params = JahangirParams(args.n, args.m)
    count = _planned(args.n, args.m, args.limit, args.allow_huge)
    trees = islice(jahangir_tree_edge_indices(params), args.limit)
    if args.format == "dot":
        draw = dot_renderer(build_jahangir(params))
        for i, t in enumerate(trees):
            sys.stdout.write(("\n" if i else "") + draw(t, f"tree_{i}"))
        return 0
    # count precedes trees in the envelope, so it is announced as planned
    # and checked afterwards
    result = {"n": args.n, "m": args.m, "limit": args.limit, "count": count, "trees": []}
    written = _emit(args, result, trees, _int_list_rows, params.edge_count)
    if written != count:
        print(f"error: listed {written} trees, announced {count}", file=sys.stderr)
        return 4
    return 0


def _cmd_cycles(args) -> int:
    m = args.m
    records = census_records(JahangirParams(2, m))  # m is refused here, before any output
    # the closed forms proved in the cycles module: m runs for each k = 1..m,
    # of length 2(k + 1), simple exactly when k < m
    result = {"m": m, "record_count": m * m, "simple_cycle_count": m * m - m,
              "length_histogram": {str(2 * (k + 1)): m for k in range(1, m + 1)},
              "records": []}
    _emit(args, result, records, _cycle_record_rows, 3 * m)
    return 0


def _cmd_table(args) -> int:
    rows = sigma_table(args.n, args.m_max)
    str(rows[-1][1])  # the largest sigma: past the digit limit, refused before any output
    if args.format == "csv":
        print("m,sigma")
        for m, total in rows:
            print(f"{m},{total}")
        return 0
    result = {"n": args.n, "m_max": args.m_max,
              "rows": [{"m": m, "sigma": str(total)} for m, total in rows]}
    return _emit(args, result)


def _cmd_ratios(args) -> int:
    entries = [{"m": e.m, "ratio": f"{e.ratio.numerator}/{e.ratio.denominator}",
                "decimal": e.decimal.replace(".", ",") if args.decimal_comma else e.decimal}
               for e in ratio_series(args.n, args.m_max, places=args.precision).entries]
    result = {"n": args.n, "m_max": args.m_max, "precision": args.precision,
              "entries": entries}
    return _emit(args, result)


def _cmd_graph(args) -> int:
    params = JahangirParams(args.n, args.m)
    g = build_jahangir(params)
    if args.format == "dot":
        sys.stdout.write(to_dot(g, name=f"jahangir_{args.n}_{args.m}"))
        return 0
    result = {"n": args.n, "m": args.m, "vertex_count": g.vertex_count,
              "edge_count": g.edge_count, "edges": []}
    _emit(args, result, g.edges, _int_list_rows, g.vertex_count)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jahangir",
        description="Spanning-tree counting, enumeration, and growth analysis "
                    "for Jahangir graphs J(n, m).",
    )
    parser.add_argument("--timestamp", action="store_true",
                        help="add a UTC timestamp field to JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="spanning-tree count of J(n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--method", choices=["combinatorial", "kirchhoff", "enumerate", "all"],
                   default="combinatorial")
    p.add_argument("--breakdown", action="store_true",
                   help="include the per-k split by number of kept spokes")
    p.add_argument("--allow-huge", action="store_true",
                   help="disable the enumeration cap of 10^7 trees")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("coeffs", help="coefficients of sigma as a polynomial in n")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("enumerate", help="list spanning trees of J(n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--allow-huge", action="store_true",
                   help="disable the enumeration cap of 10^7 trees")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("cycles", help="cycle census of J(2, m)")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("table", help="sigma(n, m) for m = 3..m_max")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", dest="m_max", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("ratios", help="m-direction ratios sigma(n, m+1)/sigma(n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", dest="m_max", type=int, required=True)
    p.add_argument("--precision", type=int, default=9)
    p.add_argument("--decimal-comma", action="store_true",
                   help="render decimals with a comma separator")
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("graph", help="export J(n, m) itself")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=_cmd_graph)

    return parser


_parser = None  # built on first use, then reused by every call in the process


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # the package's parameter, graph and size refusals among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream consumer closed the pipe; park stdout on devnull so the
        # interpreter's exit flush does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
