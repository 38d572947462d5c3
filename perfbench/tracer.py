"""Per-layer attribution for the traced run, installed from outside the package.

After the package is imported, every function that one `jahangir.<module>`
imported from another `jahangir.<module>` is replaced, in the importing
module's namespace, by a wrapper that opens a span for the defining module
(the layer).  Calls inside one module are not wrapped, so a layer's span
covers all the work it does until it calls out to another layer.  An
iterator returned across a boundary is wrapped too, so the time spent
draining it is charged to the layer that produced it.

Classes are left alone: replacing one would break `isinstance` and
`except` clauses in the importing module.

Self time of a span is its duration minus its child spans and minus stdout
checking time (exclude()).  A few named functions also feed counters; a
name that no longer exists simply contributes nothing.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections.abc import Iterator
from time import perf_counter


def _vertices_built(tr, args, kwargs, result):
    tr.count("graph_core.vertices_built", result.vertex_count)


def _minor_order(tr, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    tr.count("matrix_tree.minor_order_sum", g.vertex_count - 1)


def _records(tr, args, kwargs, result):
    tr.count("cycles.records", len(result))


COUNTER_HOOKS = {
    ("graph_core", "build_jahangir"): _vertices_built,
    ("matrix_tree", "count_spanning_trees_det"): _minor_order,
    ("cycles", "census_j2m"): _records,
}
# iterators from these functions are counted as structured or generic trees
TREE_KINDS = {
    ("enumeration", "enumerate_jahangir"): "structured",
    ("enumeration", "enumerate_all"): "generic",
}
REPEAT_M_LAYER = "combinatorics"  # entry calls taking `m`: was that m seen before?
PACKAGE = "jahangir"


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, start, time in children]
        self.seen_m: set = set()  # lives as long as the worker, like its caches
        self.reset()

    def reset(self):
        self.layers: dict[str, list] = {}  # layer -> [self_s, calls, errors]
        self.counters: dict[str, float] = {}

    def take(self) -> dict:
        """Per-layer totals since the last take(), then start afresh."""
        out = {"layers": self.layers, "counters": self.counters}
        self.reset()
        return out

    def count(self, name: str, value: float = 1):
        self.counters[name] = self.counters.get(name, 0) + value

    def enter(self, layer: str):
        self.stack.append([layer, perf_counter(), 0.0])

    def exit(self, call: bool = True, error: bool = False) -> float:
        layer, start, child = self.stack.pop()
        duration = perf_counter() - start
        rec = self.layers.setdefault(layer, [0.0, 0, 0])
        rec[0] += duration - child
        rec[1] += call
        rec[2] += error
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def exclude(self, seconds: float):
        """Time spent in the benchmark's own code under the current span."""
        if self.stack:
            self.stack[-1][2] += seconds

    def span(self, layer: str, fn, hook=None, tree_kind=None, m_param=False):
        signature = inspect.signature(fn) if m_param else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is not None:
                self._note_m(signature, args, kwargs)
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.exit(error=True)
                raise
            except BaseException:
                self.exit()
                raise
            self.exit()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    pass
            if isinstance(result, Iterator):
                return _TracedIterator(self, layer, result, tree_kind)
            return result

        return wrapper

    def _note_m(self, signature, args, kwargs):
        try:
            m = signature.bind(*args, **kwargs).arguments["m"]
        except (TypeError, KeyError):
            return
        self.count("combinatorics.m_calls")
        if m in self.seen_m:
            self.count("combinatorics.m_repeats")
        self.seen_m.add(m)

    def install(self):
        """Wrap every cross-module function reference inside the package."""
        prefix = PACKAGE + "."
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith(prefix)}
        wrapped = 0
        for importer in modules.values():
            for name, obj in list(vars(importer).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if home not in modules or home == importer.__name__:
                    continue
                layer = home[len(prefix):]
                key = (layer, obj.__name__)
                m_param = layer == REPEAT_M_LAYER and "m" in inspect.signature(obj).parameters
                setattr(importer, name, self.span(layer, obj, COUNTER_HOOKS.get(key),
                                                  TREE_KINDS.get(key), m_param))
                wrapped += 1
        return wrapped


class _TracedIterator:
    __slots__ = ("tracer", "layer", "it", "kind")

    def __init__(self, tracer, layer, it, kind):
        self.tracer, self.layer, self.it, self.kind = tracer, layer, it, kind

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tracer
        tr.enter(self.layer)
        try:
            item = next(self.it)
        except StopIteration:
            tr.exit(call=False)
            raise
        except Exception:
            tr.exit(call=False, error=True)
            raise
        except BaseException:
            tr.exit(call=False)
            raise
        duration = tr.exit(call=False)
        if self.kind is not None:
            tr.count(f"enumeration.{self.kind}_trees")
            tr.count(f"enumeration.{self.kind}_s", duration)
        return item
