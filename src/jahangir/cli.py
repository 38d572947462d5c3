"""Command-line front end.

Every JSON-producing command wraps its payload in one envelope document:
command name, echoed parameters, result, engine versions.  Counts that can
exceed JSON's safe integer range are serialized as decimal strings.  Output
is deterministic; an optional timestamp field is off by default.  One
writer, _json, gives every envelope the json module's indent=2 bytes with
its C string encoder: given an indent, CPython 3.10/3.11 encode in Python.

The engine_versions member is the same in every envelope of a process, so
it is rendered once and spliced in after the result.  Five commands write
rows, through one row path, _write_rows, with one render per row shape,
in chunks inside an envelope rendered once, byte-identical to the whole.
Three listings stream the trees of `enumerate`, the edges of `graph` and
the records of `cycles` as they are produced, the trees as texts cut from
one rendered rim, the other two with their ints rendered once, as labels.
`table` and `ratios` turn each count into its string before the first byte
is written, so CPython's refusal of a too-long int string writes nothing.
`enumerate --format dot` draws each tree with one DOT renderer per graph.

The tree cap and --limit live here, not in the lazy enumerators: _planned
checks the limit and sizes a listing of J(n, m) from its parameters alone,
and `enumerate` and `count --method enumerate|all` are refused by it before
any graph is built or any output written; islice cuts it where that size
binds.  Other commands render their whole text and write it at once.
COMMANDS declares each subcommand once, and two readers read it.  _fast
builds a SimpleNamespace with the items of argparse's Namespace straight
from it for a well-formed argv; build_parser imports argparse and builds the
parser that parses every other argv, so every usage error and every --help
is argparse's own.  The engine versions come from sys.version and numpy's
metadata on sys.path, so a strict-form command imports neither argparse,
platform nor importlib.metadata, and datetime only for --timestamp.
ENGINES declares each count engine once, and `count --method` offers its names.

Exit codes: 0 success, 2 parameter or validation problem, 3 enumeration cap
exceeded, 4 counting engines disagree under --method all, or a listing's
length differs from the count announced before it.
"""

from __future__ import annotations

import os
import sys
from contextlib import suppress
from functools import cache
from itertools import islice, starmap
from json.encoder import encode_basestring_ascii as _string  # C, where CPython has it
from types import SimpleNamespace

from . import __version__
from .asymptotics import ratio_series
from .combinatorics import polynomial_coefficients, sigma, sigma_table, sigma_total
from .cycles import census_records
from .enumeration import jahangir_tree_edge_indices, jahangir_tree_texts, tree_edge_indices
from .errors import EnumerationCapError, require_int
from .graph_core import JahangirParams, build_jahangir, dot_renderer, to_dot
from .matrix_tree import count_spanning_trees_det


def _numpy_version() -> str | None:
    # the Version line of the first numpy-*.dist-info (or .egg-info) on
    # sys.path, where importlib.metadata's path finder reads it: importing
    # numpy, or that module, costs more than a JSON command
    for entry in sys.path:
        try:
            children = os.listdir(entry or ".")
        except OSError:  # a missing directory or a zip file
            continue
        for child in children:
            stem, _, kind = child.lower().rpartition(".")
            if kind in ("dist-info", "egg-info") and stem.partition("-")[0] == "numpy":
                for name in ("METADATA", "PKG-INFO"):
                    with suppress(OSError), open(os.path.join(entry, child, name),
                                                 encoding="utf-8") as f:
                        return next((line[8:].strip() for line in f
                                     if line.startswith("Version:")), None)
    return "not installed"  # numpy is an optional extra


def _engine_versions() -> dict:
    # Python's version is the first word of sys.version, as platform reads it
    return {"jahangir": __version__, "python": sys.version.split()[0],
            "numpy": _numpy_version()}


@cache
def _versions_member() -> str:
    # the same in every envelope of the process, so rendered once
    return ',\n  "engine_versions": ' + _json(_engine_versions(), "\n  ")


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
    """Write the envelope as _json writes it: given an indent, CPython 3.10
    and 3.11 run json's pure-Python encoder, where _json keeps its C one.

    _json renders the command, the parameters and the result; the
    engine_versions member, rendered once per process, follows them, and
    --timestamp follows it.  The parameters echoed are the parsed arguments
    in declared order, less --timestamp, --allow-huge and the command.
    Without rows the envelope goes out in one write, and 0 is returned.
    With rows, result's last field must hold []: the rows are rendered in
    its place, in chunks as they are drawn, and their number is returned.
    render(chunk, label) gives the text of a chunk of rows, label(i) the
    text of an int i in range(labels), for graph's and cycles' ints.
    """
    # [:-2] drops the closing "\n}", which follows the members added below
    text = _json({"command": args.command,
                  "parameters": {k: v for k, v in vars(args).items()
                                 if k not in ("timestamp", "command", "allow_huge")},
                  "result": result})[:-2] + _versions_member()
    if args.timestamp:
        from datetime import datetime, timezone

        text += ',\n  "timestamp": ' + _string(datetime.now(timezone.utc).isoformat())
    text += "\n}\n"
    if rows is None:
        sys.stdout.write(text)
        return 0
    head, key, tail = text.partition(f'"{next(reversed(result))}": []')
    return _write_rows(sys.stdout.write, head + key[:-1], rows, render, labels, tail)


_ROWS_PER_WRITE = 256


def _write_rows(write, head: str, rows, render, labels: int, tail: str) -> int:
    # ints are rendered once, so a list of them costs one join; the head goes
    # out with the first chunk, so rows that fill one chunk take two writes
    label = [str(i) for i in range(labels)].__getitem__
    rows = iter(rows)
    sep, written = head, 0
    while chunk := list(islice(rows, _ROWS_PER_WRITE)):
        write(sep + render(chunk, label))
        sep = ","
        written += len(chunk)
    write(("\n    ]" if written else head + "]") + tail)
    return written


# A result field's rows sit three levels deep, each opening on a line of its
# own at indent 6; each int inside takes a line of its own.

def _text_rows(chunk, label=None) -> str:
    # each row given as its ints' text, joined by ",\n        "
    return "\n      [\n        " + "\n      ],\n      [\n        ".join(chunk) + "\n      ]"


def _int_list_rows(chunk, label) -> str:
    return _text_rows([",\n        ".join(map(label, row)) for row in chunk])


_CYCLE_RECORD = ('\n      {{\n        "spoke_span": [\n          {}\n        ],'
                 '\n        "length": {},\n        "edge_indices": [\n          {}\n        ],'
                 '\n        "is_simple_cycle": {}\n      }}')


def _cycle_record_rows(chunk, label) -> str:
    return ",".join([_CYCLE_RECORD.format(
        ",\n          ".join(map(label, r.spoke_span)), r.length,
        ",\n          ".join(map(label, r.edge_indices)),
        "true" if r.is_simple_cycle else "false") for r in chunk])


def _filled(template: str):
    # a render of rows that are tuples of the values template takes, in
    # order: ints and strings of digits, "." and ",", none needing an escape
    return lambda chunk, label: ",".join(starmap(template.format, chunk))


_table_rows = _filled('\n      {{\n        "m": {},\n        "sigma": "{}"\n      }}')
_ratio_rows = _filled('\n      {{\n        "m": {},\n        "ratio": "{}/{}",'
                      '\n        "decimal": "{}"\n      }}')


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


# name: the count of J(n, m) from its params and graph, in the order --method
# all echoes them, the first with no graph; each looks its functions up here
ENGINES = {
    "combinatorial": lambda params, g: sigma_total(params.n, params.m),
    "kirchhoff": lambda params, g: count_spanning_trees_det(g),
    "enumerate": lambda params, g: sum(1 for _ in tree_edge_indices(g)),
}


def _cmd_count(args) -> int:
    params = JahangirParams(args.n, args.m)
    methods = [*ENGINES] if args.method == "all" else [args.method]
    if "enumerate" in methods:
        _planned(args.n, args.m, None, args.allow_huge)
    g = None if methods == [*ENGINES][:1] else build_jahangir(params)
    engines = {name: ENGINES[name](params, g) for name in methods}

    result = {"n": args.n, "m": args.m, "method": args.method}
    agreement = len(set(engines.values())) == 1
    if args.method == "all":
        result["engines"] = {name: str(v) for name, v in engines.items()}
        result["agreement"] = agreement
    if agreement:
        result["total"] = str(engines[methods[0]])
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
    # only a binding limit cuts; no listing reaches one past sys.maxsize
    cut = min(count, sys.maxsize) if count == args.limit else None
    if args.format == "dot":
        draw = dot_renderer(build_jahangir(params))
        for i, t in enumerate(islice(jahangir_tree_edge_indices(params), cut)):
            sys.stdout.write(("\n" if i else "") + draw(t, f"tree_{i}"))
        return 0
    # count precedes trees in the envelope, so it is announced as planned
    # and checked afterwards
    result = {"n": args.n, "m": args.m, "limit": args.limit, "count": count, "trees": []}
    written = _emit(args, result, islice(jahangir_tree_texts(params), cut), _text_rows)
    if written != count:
        print(f"error: listed {written} trees, announced {count}", file=sys.stderr)
        return 4
    return 0


def _cmd_cycles(args) -> int:
    m = args.m
    records = census_records(m)  # m is refused here, before any output
    # the closed forms proved in the cycles module: m runs for each k = 1..m,
    # of length 2(k + 1), simple exactly when k < m
    result = {"m": m, "record_count": m * m, "simple_cycle_count": m * m - m,
              "length_histogram": {str(2 * (k + 1)): m for k in range(1, m + 1)},
              "records": []}
    _emit(args, result, records, _cycle_record_rows, 3 * m)
    return 0


def _cmd_table(args) -> int:
    rows = sigma_table(args.n, args.m_max)
    if args.format == "csv":
        sys.stdout.write("".join(["m,sigma\n", *[f"{m},{total}\n" for m, total in rows]]))
        return 0
    result = {"n": args.n, "m_max": args.m_max, "rows": []}
    _emit(args, result, [(m, str(total)) for m, total in rows], _table_rows)
    return 0


def _cmd_ratios(args) -> int:
    rows = [(e.m, str(e.ratio.numerator), str(e.ratio.denominator),
             e.decimal.replace(".", ",") if args.decimal_comma else e.decimal)
            for e in ratio_series(args.n, args.m_max, places=args.precision).entries]
    result = {"n": args.n, "m_max": args.m_max, "precision": args.precision, "entries": []}
    _emit(args, result, rows, _ratio_rows)
    return 0


def _cmd_graph(args) -> int:
    g = build_jahangir(JahangirParams(args.n, args.m))
    if args.format == "dot":
        sys.stdout.write(to_dot(g, name=f"jahangir_{args.n}_{args.m}"))
        return 0
    result = {"n": args.n, "m": args.m, "vertex_count": g.vertex_count,
              "edge_count": g.edge_count, "edges": []}
    _emit(args, result, g.edges, _int_list_rows, g.vertex_count)
    return 0


def _choice(option: str, *choices: str) -> tuple:
    return option, dict(choices=list(choices), default=choices[0])


_N, _M, _M_MAX = [(f, dict(type=int, required=True)) for f in ("--n", "--m", "--m-max")]
_ALLOW_HUGE = ("--allow-huge", dict(action="store_true",
                                    help="disable the enumeration cap of 10^7 trees"))

# name: (handler, help line, *flags), a flag (option string, argparse keywords)
# in the order _emit echoes them; of the keywords, _fast reads type, required,
# choices, default and action, which it knows only as "store_true"
COMMANDS = {
    "count": (_cmd_count, "spanning-tree count of J(n, m)", _N, _M,
              _choice("--method", *ENGINES, "all"),
              ("--breakdown", dict(action="store_true",
                                   help="include the per-k split by number of kept spokes")),
              _ALLOW_HUGE),
    "coeffs": (_cmd_coeffs, "coefficients of sigma as a polynomial in n", _M),
    "enumerate": (_cmd_enumerate, "list spanning trees of J(n, m)", _N, _M,
                  ("--limit", dict(type=int, default=None)),
                  _choice("--format", "json", "dot"), _ALLOW_HUGE),
    "cycles": (_cmd_cycles, "cycle census of J(2, m)", _M),
    "table": (_cmd_table, "sigma(n, m) for m = 3..m_max", _N, _M_MAX,
              _choice("--format", "csv", "json")),
    "ratios": (_cmd_ratios, "m-direction ratios sigma(n, m+1)/sigma(n, m)", _N, _M_MAX,
               ("--precision", dict(type=int, default=9)),
               ("--decimal-comma", dict(action="store_true",
                                        help="render decimals with a comma separator"))),
    "graph": (_cmd_graph, "export J(n, m) itself", _N, _M, _choice("--format", "dot", "json")),
}


def _fast(argv: list):
    """A SimpleNamespace with the items, in the order _emit echoes, of the
    Namespace build_parser's parser returns for argv, where argv has the
    strict form [--timestamp] command (--flag value | --switch)*: each flag
    at most once, no value starting with "-", each type (int) called on its
    string as argparse calls it, each choice checked and each required flag
    present.  None for any other argv."""
    timestamp = argv[:1] == ["--timestamp"]
    words = iter(argv[timestamp:])
    command = next(words, None)
    if command not in COMMANDS:
        return None
    flags = COMMANDS[command][2:]
    declared = dict(flags)
    given = {}  # option string: its value string, or True for a switch
    for option in words:
        if option not in declared or option in given:
            return None
        # a missing value reads as "-", which is refused below
        given[option] = declared[option].get("action") == "store_true" or next(words, "-")
    parsed = {"timestamp": timestamp, "command": command}
    for option, keywords in flags:
        value = given.get(option)
        if value is None:
            if keywords.get("required"):
                return None
            value = keywords.get("default", False)  # every optional flag but a switch declares one
        elif value is not True:
            if value.startswith("-"):
                return None
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except ValueError:
                    return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        parsed[option.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**parsed)


@cache
def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="jahangir",
        description="Spanning-tree counting, enumeration, and growth analysis "
                    "for Jahangir graphs J(n, m).",
    )
    parser.add_argument("--timestamp", action="store_true",
                        help="add a UTC timestamp field to JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, *flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option, keywords in flags:
            p.add_argument(option, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse already printed its message
            return int(exc.code or 0)
    try:
        return COMMANDS[args.command][0](args)
    except ValueError as exc:  # the package's parameter, graph and size refusals among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream consumer closed the pipe; park stdout on devnull so the
        # interpreter's exit flush does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
