"""Expected answers for benchmark queries, computed without the jahangir package.

Everything here is derived from closed forms and from the documented
canonical labeling, never from the package's engines:

* sigma(n, m) = L_m - 2 with L_0 = 2, L_1 = n + 2, L_m = (n+2) L_{m-1} - L_{m-2};
* A_k(m) = (m / k) * C(m + k - 1, 2k - 1), and per_k = n^k * A_k;
* ratios are exact fractions rendered with round-half-even;
* J(2, m) has m^2 census records, m(m - 1) of them simple cycles;
* J(n, m) has nm + 1 vertices and nm + m edges, rim first, then spokes;
* a listing of J(n, m) holds min(limit, sigma) trees; sampled trees are
  checked with this module's own union-find.

Output is checked as it streams (see Sink): the checkers keep only the
values they compare and never a copy of stdout.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import chain
from math import comb
from time import perf_counter

TREE_CAP = 10**7  # the CLI's documented enumeration cap
BLOCK = 1 << 20  # the sink re-chunks large writes into pieces this long
TREE_SAMPLE = 6  # trees per listing checked edge by edge, besides first and last


def sigmas(n: int, m_max: int):
    """(m, sigma(n, m)) for m = 1..m_max, by the Lucas recurrence."""
    a, b = 2, n + 2  # L_{m-1}, L_m at m = 1
    for m in range(1, m_max + 1):
        yield m, b - 2
        a, b = b, (n + 2) * b - a


def sigma(n: int, m: int) -> int:
    for _, s in sigmas(n, m):
        pass
    return s


def coefficients(m: int) -> list[int]:
    out = []
    for k in range(1, m + 1):
        q, r = divmod(m * comb(m + k - 1, 2 * k - 1), k)
        if r:
            raise ArithmeticError(f"A_{k}({m}) is not an integer")
        out.append(q)
    return out


def round_half_even(x: Fraction, places: int) -> str:
    q, r = divmod(x.numerator * 10**places, x.denominator)
    if 2 * r > x.denominator or (2 * r == x.denominator and q % 2):
        q += 1
    if places == 0:
        return str(q)
    s = str(q).rjust(places + 1, "0")
    return s[:-places] + "." + s[-places:]


def canonical_edges(n: int, m: int) -> list[tuple[int, int]]:
    nm = n * m
    edges = [(i, i + 1) for i in range(1, nm)]
    edges.append((1, nm))
    edges.extend((0, (j - 1) * n + 1) for j in range(1, m + 1))
    return edges


def spanning_tree_problem(edge_ids, edges, vertex_count: int):
    """None when edge_ids index a spanning tree of the graph, else a reason."""
    if len(edge_ids) != vertex_count - 1:
        return f"{len(edge_ids)} edges, expected {vertex_count - 1}"
    if any(b <= a for a, b in zip(edge_ids, edge_ids[1:])):
        return "edge indices not strictly increasing"
    if edge_ids and not (0 <= edge_ids[0] and edge_ids[-1] < len(edges)):
        return "edge index out of range"
    parent = list(range(vertex_count))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in edge_ids:
        ru, rv = root(edges[i][0]), root(edges[i][1])
        if ru == rv:
            return f"edge {i} closes a cycle"
        parent[ru] = rv
    return None


def expected_exit(spec: dict) -> int:
    """Exit code the CLI contract gives: 3 when a listing exceeds the cap."""
    if spec["cmd"] == "enumerate":
        return 3 if _listing_size(spec) > TREE_CAP else 0
    if spec["cmd"] == "count" and spec.get("method") == "enumerate":
        return 3 if sigma(spec["n"], spec["m"]) > TREE_CAP else 0
    return 0


VERSION_KEYS = (b'"python": "', b'"numpy": "')  # in the JSON envelope's engine_versions


def mask_versions(data: bytes) -> bytes:
    """The output with the Python and numpy versions replaced by "*", so
    that digests recorded in one environment compare in any other."""
    for key in VERSION_KEYS:
        at = data.find(key)
        if at >= 0:
            start = at + len(key)
            data = data[:start] + b"*" + data[data.find(b'"', start):]
    return data


class Sink:
    """Stand-in for sys.stdout: hashes and checks text as it arrives.

    Text is handed on in regions of whole lines, so a version string never
    straddles two of them when it is masked before hashing.  Large writes
    are cut into BLOCK-sized pieces so that no region, and no bytes copy of
    it, is much larger than BLOCK.  `busy` is the time spent in here, which
    the worker subtracts from the query's time; `on_busy` lets the tracer
    exclude it from the calling layer too.
    """

    def __init__(self, checker, on_busy=None):
        self.checker = checker
        self.on_busy = on_busy
        self.hash = hashlib.sha256()
        self.bytes = 0
        self.busy = 0.0
        self.carry = "\n"  # each region handed on starts at a newline
        self.started = False  # the first region's newline is not output

    def write(self, s: str) -> int:
        t0 = perf_counter()
        for i in range(0, len(s), BLOCK):
            piece = s[i:i + BLOCK] if len(s) > BLOCK else s
            buf = self.carry + piece
            cut = buf.rfind("\n")
            if cut > 0:
                self.checker.region(buf[:cut])
                self._digest(buf[:cut])
                buf = buf[cut:]
            self.carry = buf
        dt = perf_counter() - t0
        self.busy += dt
        if self.on_busy is not None:
            self.on_busy(dt)
        return len(s)

    def flush(self):
        pass

    def writable(self) -> bool:
        return True

    def _digest(self, region: str):
        data = region.encode() if self.started else region[1:].encode()
        self.started = True
        self.bytes += len(data)
        self.hash.update(mask_versions(data))

    def close_stream(self):
        if len(self.carry) > 1:
            self.checker.region(self.carry)
        self._digest(self.carry)
        self.carry = "\n"


class StderrTail:
    """Stand-in for sys.stderr that keeps only the first line."""

    def __init__(self):
        self.first = None

    def write(self, s: str) -> int:
        if self.first is None and s.strip():
            self.first = s.strip().splitlines()[0][:200]
        return len(s)

    def flush(self):
        pass


class Checker:
    """Base for per-command checkers.  Subclasses consume lines and record
    problems; finish() adds the end-of-stream checks."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.problems: list[str] = []
        self.trees = 0  # trees written, for trees_per_s

    def fail(self, msg: str):
        if len(self.problems) < 5:
            self.problems.append(msg)

    def region(self, text: str):
        # text is "\n" followed by complete lines joined by "\n"
        for line in text[1:].split("\n"):
            self.line(line)

    def line(self, line: str):
        raise NotImplementedError

    def finish(self) -> list[str]:
        return self.problems


class EmptyChecker(Checker):
    """Refused queries: nothing on stdout."""

    def line(self, line: str):
        self.fail("unexpected stdout on a refused query")


class JsonChecker(Checker):
    """Parses the CLI's `json.dumps(indent=2)` envelope line by line.

    Arrays named in `streamed` are not stored: each element is handed to
    on_element() as soon as it closes.  Everything else forms a small
    document checked in check_doc().
    """

    streamed: tuple = ()

    def __init__(self, spec: dict):
        super().__init__(spec)
        self.doc = None
        self.stack: list = []  # [container, key in parent, path, streamed flag]

    def line(self, line: str):
        s = line.strip()
        if s.endswith(","):
            s = s[:-1]
        if not s:
            return self.fail("blank line in JSON output")
        if s in ("}", "]"):
            return self._close()
        key = None
        if s[0] == '"' and '": ' in s:
            raw, s = s.split('": ', 1)
            key = raw[1:]
        if s in ("{", "["):
            path = (self.stack[-1][2] + (key,)) if self.stack else ()
            self.stack.append([{} if s == "{" else [], key, path, path in self.streamed])
            return None
        try:
            value = json.loads(s)
        except ValueError:
            return self.fail(f"unparsable JSON line {line[:60]!r}")
        self._add(key, value)
        return None

    def _add(self, key, value):
        if not self.stack:
            return self.fail("value outside the envelope")
        container, _, path, streamed = self.stack[-1]
        if streamed:
            self.on_element(path, value)
        elif isinstance(container, dict):
            container[key] = value
        else:
            container.append(value)

    def _close(self):
        if not self.stack:
            return self.fail("unbalanced close")
        container, key, _, _ = self.stack.pop()
        if self.stack:
            self._add(key, container)
        else:
            self.doc = container
        return None

    def on_element(self, path, value):
        self.fail(f"unexpected streamed element at {path}")

    def finish(self) -> list[str]:
        if self.stack or self.doc is None:
            self.fail("JSON envelope incomplete")
        else:
            self.check_envelope()
        return self.problems

    def expect(self, what, got, want):
        if got != want:
            shown = lambda v: (repr(v)[:80])
            self.fail(f"{what}: got {shown(got)}, want {shown(want)}")

    def check_envelope(self):
        d = self.doc
        self.expect("command", d.get("command"), self.spec["cmd"])
        versions = d.get("engine_versions")
        if not isinstance(versions, dict) or set(versions) != {"jahangir", "python", "numpy"}:
            self.fail("engine_versions missing or malformed")
        if "timestamp" in d:
            self.fail("timestamp present without --timestamp")
        self.check_doc(d.get("parameters") or {}, d.get("result") or {})

    def check_doc(self, params: dict, result: dict):
        raise NotImplementedError


class CountChecker(JsonChecker):
    def check_doc(self, params, result):
        sp = self.spec
        n, m, method = sp["n"], sp["m"], sp.get("method", "combinatorial")
        total = str(sigma(n, m))
        self.expect("parameters", params,
                    {"n": n, "m": m, "method": method, "breakdown": sp.get("breakdown", False)})
        self.expect("result.n/m/method", (result.get("n"), result.get("m"), result.get("method")),
                    (n, m, method))
        if method == "all":
            self.expect("engines", result.get("engines"),
                        {"combinatorial": total, "kirchhoff": total, "enumerate": total})
            self.expect("agreement", result.get("agreement"), True)
        self.expect("total", result.get("total"), total)
        if sp.get("breakdown"):
            want = [str(n**k * a) for k, a in enumerate(coefficients(m), start=1)]
            self.expect("per_k", result.get("per_k"), want)
        elif "per_k" in result:
            self.fail("per_k without --breakdown")


class CoeffsChecker(JsonChecker):
    def check_doc(self, params, result):
        m = self.spec["m"]
        self.expect("parameters", params, {"m": m})
        self.expect("result", result, {"m": m, "coefficients": [str(a) for a in coefficients(m)]})


def _table_rows(n: int, m_max: int):
    return ((m, s) for m, s in sigmas(n, m_max) if m >= 3)


class TableJsonChecker(JsonChecker):
    def check_doc(self, params, result):
        n, m_max = self.spec["n"], self.spec["m_max"]
        self.expect("parameters", params, {"n": n, "m_max": m_max, "format": "json"})
        rows = [{"m": m, "sigma": str(s)} for m, s in _table_rows(n, m_max)]
        self.expect("result", result, {"n": n, "m_max": m_max, "rows": rows})


class LinesChecker(Checker):
    """Output that must equal a known sequence of lines."""

    def __init__(self, spec, lines):
        super().__init__(spec)
        self.want = iter(lines)

    def line(self, line):
        want = next(self.want, None)
        if line != want:
            self.fail(f"line {line[:60]!r}, want {str(want)[:60]!r}")

    def finish(self):
        if next(self.want, None) is not None:
            self.fail("output ends early")
        return self.problems


class RatiosChecker(JsonChecker):
    def check_doc(self, params, result):
        sp = self.spec
        n, m_max, places, comma = sp["n"], sp["m_max"], sp["precision"], sp["decimal_comma"]
        self.expect("parameters", params,
                    {"n": n, "m_max": m_max, "precision": places, "decimal_comma": comma})
        entries = []
        counts = dict(_table_rows(n, m_max))
        for m in range(3, m_max):
            r = Fraction(counts[m + 1], counts[m])
            dec = round_half_even(r, places)
            entries.append({"m": m, "ratio": f"{r.numerator}/{r.denominator}",
                            "decimal": dec.replace(".", ",") if comma else dec})
        self.expect("result", result,
                    {"n": n, "m_max": m_max, "precision": places, "entries": entries})


class GraphJsonChecker(JsonChecker):
    streamed = (("result", "edges"),)

    def __init__(self, spec):
        super().__init__(spec)
        self.edges = canonical_edges(spec["n"], spec["m"])
        self.seen = 0

    def on_element(self, path, value):
        if self.seen >= len(self.edges) or value != list(self.edges[self.seen]):
            self.fail(f"edge {self.seen} is {value}")
        self.seen += 1

    def check_doc(self, params, result):
        n, m = self.spec["n"], self.spec["m"]
        self.expect("parameters", params, {"n": n, "m": m, "format": "json"})
        self.expect("result", result,
                    {"n": n, "m": m, "vertex_count": n * m + 1, "edge_count": n * m + m,
                     "edges": []})
        self.expect("edges listed", self.seen, n * m + m)


def _dot_lines(n: int, m: int):
    yield f"graph jahangir_{n}_{m} {{"
    for v in range(n * m + 1):
        yield f"  v{v};"
    for u, v in canonical_edges(n, m):
        yield f"  v{u} -- v{v};"
    yield "}"


class CyclesChecker(JsonChecker):
    streamed = (("result", "records"),)

    def __init__(self, spec):
        super().__init__(spec)
        self.index = 0

    def on_element(self, path, rec):
        # record i joins the k = i // m + 1 inner cycles from spoke i % m + 1
        # on: the rim from that spoke's foot forward 2k edges, plus the two
        # boundary spokes, which coincide at k = m (rim plus one spoke)
        m = self.spec["m"]
        k, start = divmod(self.index, m)
        k += 1
        rim = {(2 * start + t) % (2 * m) for t in range(2 * k)}
        spokes = {2 * m + start, 2 * m + (start + k) % m}
        want = {"spoke_span": [(start + t) % m + 1 for t in range(k)], "length": 2 * (k + 1),
                "edge_indices": sorted(rim | spokes), "is_simple_cycle": k < m}
        if rec != want:
            self.fail(f"record {self.index}: {str(rec)[:80]}, want {str(want)[:80]}")
        self.index += 1

    def check_doc(self, params, result):
        m = self.spec["m"]
        self.expect("parameters", params, {"m": m})
        self.expect("result", result, {
            "m": m, "record_count": m * m, "simple_cycle_count": m * (m - 1),
            "length_histogram": {str(2 * (k + 1)): m for k in range(1, m + 1)},
            "records": []})
        self.expect("records listed", self.index, m * m)


TREES_OPEN = '\n    "trees": ['
TREE_CLOSE = "\n      ]"
TREES_END = "\n    ]"
_INT = re.compile(r"\d+")


def _listing_size(spec) -> int:
    total = sigma(spec["n"], spec["m"])
    return total if spec.get("limit") is None else min(total, spec["limit"])


def _sample(count: int, seed: int) -> list[int]:
    picks = {0, count - 1} | set(random.Random(seed).sample(range(count), min(TREE_SAMPLE, count)))
    return sorted(i for i in picks if 0 <= i < count)


class EnumerateJsonChecker(JsonChecker):
    """The trees array can hold millions of lines, so it bypasses the line
    parser: tree closings are counted with str.count, and only sampled
    trees are split out and checked with the union-find."""

    def __init__(self, spec):
        super().__init__(spec)
        n, m = spec["n"], spec["m"]
        self.edges = canonical_edges(n, m)
        self.count = _listing_size(spec)
        self.samples = _sample(self.count, spec.get("sample", 0))
        self.sampled: list[tuple[int, ...]] = []
        self.bulk = False
        self.pending = ""  # text of the tree still open at the end of a region

    def region(self, text):
        if self.bulk:
            text = self._bulk(text)
        else:
            at = text.find(TREES_OPEN)
            end = at + len(TREES_OPEN)
            if at >= 0 and text[end:end + 1] in ("\n", ""):
                super().region(text[:end])
                self.bulk = True
                text = self._bulk(text[end:])
        if text:
            super().region(text)

    def _bulk(self, text) -> str:
        stop = text.find(TREES_END)
        seg = text if stop < 0 else text[:stop]
        closes = seg.count(TREE_CLOSE)
        want = next((i for i in self.samples if i >= self.trees), None)
        if want is None or want >= self.trees + closes:
            if closes:
                self.pending = seg[seg.rfind(TREE_CLOSE) + len(TREE_CLOSE):]
            else:
                self.pending += seg
            self.trees += closes
        else:
            parts = seg.split(TREE_CLOSE)
            parts[0] = self.pending + parts[0]
            for part in parts[:-1]:
                if self.trees in self.samples:
                    self._check_tree(tuple(int(x) for x in _INT.findall(part)))
                self.trees += 1
            self.pending = parts[-1]
        if stop < 0:
            return ""
        self.bulk = False
        self.pending = ""
        return text[stop:]

    def _check_tree(self, ids):
        problem = spanning_tree_problem(ids, self.edges, self.spec["n"] * self.spec["m"] + 1)
        if problem:
            self.fail(f"tree {self.trees}: {problem}")
        self.sampled.append(ids)

    def check_doc(self, params, result):
        sp = self.spec
        n, m, limit = sp["n"], sp["m"], sp.get("limit")
        self.expect("parameters", params, {"n": n, "m": m, "limit": limit, "format": "json"})
        self.expect("result", result,
                    {"n": n, "m": m, "limit": limit, "count": self.count, "trees": []})
        self.expect("trees listed", self.trees, self.count)
        if len(set(self.sampled)) != len(self.sampled):
            self.fail("a sampled tree repeats")
        if len(self.sampled) != len(self.samples):
            self.fail(f"checked {len(self.sampled)} sampled trees, want {len(self.samples)}")


class EnumerateDotChecker(Checker):
    """Every tree drawing: the full host graph, tree edges solid, a blank
    line between drawings; the solid edges must form a spanning tree."""

    def __init__(self, spec):
        super().__init__(spec)
        n, m = spec["n"], spec["m"]
        self.edges = canonical_edges(n, m)
        self.vertex_count = n * m + 1
        self.count = _listing_size(spec)
        self.line_no = 0  # line within the current drawing
        self.solid: list[int] = []
        self.per_tree = self.vertex_count + len(self.edges) + 2

    def line(self, line):
        if self.line_no == self.per_tree:  # separator between drawings
            self.line_no = 0
            if line:
                self.fail("drawings not separated by a blank line")
            return
        i = self.line_no
        self.line_no += 1
        if i == 0:
            if line != f"graph tree_{self.trees} {{":
                self.fail(f"drawing header {line[:40]!r}")
            self.solid = []
        elif i <= self.vertex_count:
            if line != f"  v{i - 1};":
                self.fail(f"vertex line {line[:40]!r}")
        elif i < self.per_tree - 1:
            e = i - self.vertex_count - 1
            u, v = self.edges[e]
            if line == f"  v{u} -- v{v};":
                self.solid.append(e)
            elif line != f"  v{u} -- v{v} [style=dashed];":
                self.fail(f"edge line {line[:40]!r}")
        else:
            if line != "}":
                self.fail(f"drawing footer {line[:40]!r}")
            problem = spanning_tree_problem(self.solid, self.edges, self.vertex_count)
            if problem:
                self.fail(f"tree {self.trees}: {problem}")
            self.trees += 1

    def finish(self):
        if self.trees != self.count or self.line_no not in (0, self.per_tree):
            self.fail(f"{self.trees} complete drawings, want {self.count}")
        return self.problems


def checker_for(spec: dict) -> Checker:
    """The checker for one query, chosen from its spec (see workloads)."""
    if expected_exit(spec) != 0:
        return EmptyChecker(spec)
    cmd = spec["cmd"]
    if cmd == "count":
        return CountChecker(spec)
    if cmd == "coeffs":
        return CoeffsChecker(spec)
    if cmd == "table":
        if spec["format"] == "json":
            return TableJsonChecker(spec)
        rows = (f"{m},{s}" for m, s in _table_rows(spec["n"], spec["m_max"]))
        return LinesChecker(spec, chain(["m,sigma"], rows))
    if cmd == "ratios":
        return RatiosChecker(spec)
    if cmd == "graph":
        if spec["format"] == "json":
            return GraphJsonChecker(spec)
        return LinesChecker(spec, _dot_lines(spec["n"], spec["m"]))
    if cmd == "cycles":
        return CyclesChecker(spec)
    if cmd == "enumerate":
        return EnumerateJsonChecker(spec) if spec["format"] == "json" else EnumerateDotChecker(spec)
    raise ValueError(f"no checker for {cmd!r}")
