"""Command-line front end.

Every JSON-producing command wraps its payload in one envelope document:
command name, echoed parameters, result, engine versions.  Counts that can
exceed JSON's safe integer range are serialized as decimal strings.  Output
is deterministic; an optional timestamp field is off by default.  Every
template, of an envelope and of each kind of row, is drawn once by _template
from a skeleton through json.dumps(indent=2), and str.format fills it; per
query, json.dumps writes only --method all's engines and cycles' histogram.

Each envelope template holds engine_versions, the same in every envelope of
a process, and a listing's is cut at its rows field when it is drawn.
Every listing reaches one writer, _write_rows, as rows that are each the
finished text of one element, which it joins in chunks of at most about
1 MB: the JSON rows of five commands and the drawings of `enumerate
--format dot`.  `enumerate`, `graph` and `cycles` stream their trees, edges
and records as they are produced; `table` and `ratios` render every row
before the first byte is written, so CPython's refusal of a too-long int
string writes nothing.

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

import json
import os
import sys
from contextlib import suppress
from functools import cache
from itertools import islice, starmap
from json.encoder import encode_basestring_ascii as _string  # C, where CPython has it
from operator import attrgetter
from types import SimpleNamespace

from . import __version__
from .asymptotics import ratio_rows
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


# Placeholders in a template's skeleton, for a whole value and for a piece
# of a string's text: json.dumps writes the one as "\u0000", quotes and all,
# the other as \u0001 within its string, and no key holds them
_SLOT, _ITEM = "\0", "\1"


def _template(skeleton, indent: str) -> str:
    """json.dumps(skeleton, indent=2), each line after the first moved to
    indent, as str.format fills it: its braces doubled, each _SLOT value and
    each _ITEM piece of string text "{}"."""
    text = json.dumps(skeleton, indent=2).replace("\n", indent)
    text = text.replace("{", "{{").replace("}", "}}").replace(json.dumps(_SLOT), "{}")
    return text.replace(json.dumps(_ITEM)[1:-1], "{}")


# a value's text by its type: a scalar's by one C call, a list's (of strings
# of digits, never empty) by one join, and a dict's, a result member, by json.dumps
_FILLS = {str: _string, int: str, bool: ("false", "true").__getitem__,
          type(None): {None: "null"}.__getitem__,
          dict: lambda value: json.dumps(value, indent=2).replace("\n", "\n    "),
          list: _template([_ITEM] * 2, "\n    ").split("{}")[1].join}
_TEMPLATES: dict = {}  # (command, *result's keys): a head, a tail, a getter of its parameters


def _emit(args, result, rows=None) -> int:
    """Write the envelope, with the bytes of json.dumps(envelope, indent=2).

    _template draws a template once per shape of envelope, a command and its
    result's keys, with a placeholder in each value slot and engine_versions,
    the same in every envelope of a process, drawn whole.  A rows field, the
    last of result and the only one to hold [], is cut there as the template
    is drawn: the head, up to its "[", is what one str.format fills, and the
    tail, the rest less the closing brace, is finished text; --timestamp
    follows it.  The parameters echoed are the parsed arguments in declared
    order, less --timestamp and the command.  Without rows the envelope goes
    out in one write, and 0 is returned.  With rows, the head is written,
    then the rows, each the finished text of one element, by _write_rows,
    then its "]" and the tail; their number is returned.
    """
    key = (args.command, *result)
    if key not in _TEMPLATES:
        names = [k for k in vars(args) if k not in ("timestamp", "command")]
        members = [v and [_ITEM] if type(v) is list else _SLOT for v in result.values()]
        skeleton = {"command": _SLOT, "parameters": dict.fromkeys(names, _SLOT),
                    "result": dict(zip(result, members)),
                    "engine_versions": _engine_versions()}
        # less its closing "\n}}", cut at a rows field's []; with none, the tail is ""
        head, cut, tail = _template(skeleton, "\n")[:-3].partition(
            f'"{next(reversed(result))}": []')
        _TEMPLATES[key] = head + cut[:-1], tail.format(), attrgetter("command", *names)
    head, tail, given = _TEMPLATES[key]
    values = (*given(args), *result.values())  # format ignores a rows field's ""
    text = head.format(*[_FILLS[type(v)](v) for v in values])
    if args.timestamp:
        from datetime import datetime, timezone

        tail += ',\n  "timestamp": ' + _string(datetime.now(timezone.utc).isoformat())
    tail += "\n}\n"
    if rows is None:
        sys.stdout.write(text + tail)
        return 0
    sys.stdout.write(text)
    written = _write_rows(rows, ",")
    sys.stdout.write(("\n    ]" if written else "]") + tail)
    return written


_ROWS_PER_WRITE, _CHUNK_BYTES = 256, 1 << 20  # a chunk's most rows, and about its most text


def _write_rows(rows, between: str) -> int:
    """Write rows, texts, joined by between, as they are drawn; return their number.

    A chunk, one row and then sized from the chunk before to about
    _CHUNK_BYTES of text and at most _ROWS_PER_WRITE rows, is one join,
    written on its own, so the bytes are those of between.join(rows).
    """
    write, rows = sys.stdout.write, iter(rows)
    size, written = 1, 0
    while chunk := list(islice(rows, size)):
        text = between.join(chunk)
        if written:
            write(between)
        write(text)
        written += len(chunk)
        size = max(1, min(_ROWS_PER_WRITE, len(chunk) * _CHUNK_BYTES // (len(text) + 1)))
    return written


# A row of a result field, an element of its array at indent 6, as one
# str.format fills it from ints and strings that need no escape
_EDGE_ROW, _CYCLE_RECORD, _TABLE_ROW, _RATIO_ROW = [
    "\n      " + _template(row, "\n      ") for row in (
        [_SLOT, _SLOT],
        {"spoke_span": [_SLOT], "length": _SLOT, "edge_indices": [_SLOT],
         "is_simple_cycle": _SLOT},
        {"m": _SLOT, "sigma": _ITEM},
        {"m": _SLOT, "ratio": f"{_ITEM}/{_ITEM}", "decimal": _ITEM})]


TREE_CAP = 10_000_000


def _planned(n: int, m: int, limit) -> int:
    """The number of trees a listing of J(n, m) yields, min(limit, sigma).

    Refused: a negative limit (ParameterDomainError), then any listing above
    TREE_CAP (EnumerationCapError), a constant no option lifts.  J(n, m) has
    n * m^2 trees that keep a single spoke, so sigma exceeds that: a limit
    within it is the answer with no count taken, and with no smaller limit an
    n * m^2 above the cap refuses the listing with no count taken.
    """
    one_spoke, more = n * m * m, ""
    if limit is not None:
        require_int(limit, 0, "limit")
    if limit is not None and limit <= one_spoke:
        planned = limit
    elif one_spoke > TREE_CAP:
        planned, more = one_spoke, "more than "
    else:
        planned = sigma_total(n, m)
        if limit is not None:
            planned = min(planned, limit)
    if planned > TREE_CAP:
        raise EnumerationCapError(f"enumeration would yield {more}{planned} trees, above the "
                                  f"cap of {TREE_CAP}")
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
        _planned(args.n, args.m, None)
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
    count = _planned(args.n, args.m, args.limit)
    cut = count if count == args.limit else None  # only a binding limit cuts
    if args.format == "dot":
        draw = dot_renderer(build_jahangir(params))
        trees = enumerate(islice(jahangir_tree_edge_indices(params), cut))
        _write_rows((draw(t, f"tree_{i}") for i, t in trees), "\n")
        return 0
    # count precedes trees in the envelope, so it is announced as planned
    # and checked afterwards; each tree comes as its element's text
    result = {"n": args.n, "m": args.m, "limit": args.limit, "count": count, "trees": []}
    written = _emit(args, result, islice(jahangir_tree_texts(params), cut))
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
    label = [str(i) for i in range(3 * m)].__getitem__  # J(2, m)'s 3m edge indices
    _emit(args, result, (_CYCLE_RECORD.format(
        ",\n          ".join(map(label, r.spoke_span)), r.length,
        ",\n          ".join(map(label, r.edge_indices)),
        "true" if r.is_simple_cycle else "false") for r in records))
    return 0


def _cmd_table(args) -> int:
    rows = sigma_table(args.n, args.m_max)
    if args.format == "csv":
        sys.stdout.write("".join(["m,sigma\n", *[f"{m},{total}\n" for m, total in rows]]))
        return 0
    result = {"n": args.n, "m_max": args.m_max, "rows": []}
    _emit(args, result, [_TABLE_ROW.format(m, total) for m, total in rows])
    return 0


def _cmd_ratios(args) -> int:
    rows = [_RATIO_ROW.format(m, num, den,
                              decimal.replace(".", ",") if args.decimal_comma else decimal)
            for m, num, den, decimal in ratio_rows(args.n, args.m_max, args.precision)]
    result = {"n": args.n, "m_max": args.m_max, "precision": args.precision, "entries": []}
    _emit(args, result, rows)
    return 0


def _cmd_graph(args) -> int:
    g = build_jahangir(JahangirParams(args.n, args.m))
    if args.format == "dot":
        sys.stdout.write(to_dot(g, name=f"jahangir_{args.n}_{args.m}"))
        return 0
    result = {"n": args.n, "m": args.m, "vertex_count": g.vertex_count,
              "edge_count": g.edge_count, "edges": []}
    _emit(args, result, starmap(_EDGE_ROW.format, g.edges))
    return 0


def _choice(option: str, *choices: str) -> tuple:
    return option, dict(choices=list(choices), default=choices[0])


_N, _M, _M_MAX = [(f, dict(type=int, required=True)) for f in ("--n", "--m", "--m-max")]

# name: (handler, help line, *flags), a flag (option string, argparse keywords)
# in the order _emit echoes them; of the keywords, _fast reads type, required,
# choices, default and action, which it knows only as "store_true"
COMMANDS = {
    "count": (_cmd_count, "spanning-tree count of J(n, m)", _N, _M,
              _choice("--method", *ENGINES, "all"),
              ("--breakdown", dict(action="store_true",
                                   help="include the per-k split by number of kept spokes"))),
    "coeffs": (_cmd_coeffs, "coefficients of sigma as a polynomial in n", _M),
    "enumerate": (_cmd_enumerate, "list spanning trees of J(n, m)", _N, _M,
                  ("--limit", dict(type=int, default=None)),
                  _choice("--format", "json", "dot")),
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
