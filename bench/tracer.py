"""Outside-in tracing of equiarbor's layers.

The tracer wraps every public function of each layer module, and the
``Graph.components`` and ``Graph.neighbors`` methods, then rebinds every
name in the ``equiarbor`` package that refers to an original.  That covers
``from .x import f`` copies as well as the function-local imports, which
read the module attribute at call time.  The program itself is unchanged.

Each call records a span (id, parent id, name, start, end) in memory.  The
spans are written out and summarised when the pass ends: calls, self time
(duration minus the time covered by child spans), exceptions raised, and a
few work counts computed from the arguments.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

#: Modules of ``src/equiarbor`` that do work (``errors`` only defines types).
LAYERS = ("exactalg", "graphs", "resistance", "equiarboreal", "cuts", "schemes",
          "matching", "bounds", "transform", "catalog", "survey", "cli")

#: Methods traced on classes, besides every module-level public function.
METHODS = {"graphs": {"Graph": ("components", "neighbors")}}


def _network_key(net) -> tuple:
    # WeightedNetwork is unhashable; its content is.
    return net.vertex_count, tuple(net.edge_items())


#: Inputs whose distinct values are counted: name -> key of the arguments.
DISTINCT_KEYS = {
    "resistance.resistance_matrix": lambda args: _network_key(args[0]),
    "equiarboreal.check_equiarboreal": lambda args: args[0],
    "cuts.edge_connectivity": lambda args: args[0],
}


def _n3(args, result) -> dict:
    return {"n3": args[0].rows ** 3}


def _cut_sweep(args, result) -> dict:
    n = args[0].vertex_count
    return {"bipartitions": 2 ** (n - 1) - 1, "cuts_out": len(result)}


#: Work counts derived from a successful call's arguments and result.
WORK_COUNTS = {
    "exactalg.invert": _n3,
    "exactalg.solve": _n3,
    "cuts.cuts_up_to": _cut_sweep,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.errors: Counter[str] = Counter()
        self.work: Counter[tuple[str, str]] = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self.names: list[str] = []
        self._stack = [0]
        self._ids = itertools.count(1)

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        self.names.append(name)
        key_of = DISTINCT_KEYS.get(name)
        work_of = WORK_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_of is not None:
                self.keys[name].add(key_of(args))
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, t0, clock()))
                stack.pop()
                self.errors[name] += 1
                raise
            spans.append((sid, parent, name, t0, clock()))
            stack.pop()
            if work_of is not None:
                for stat, value in work_of(args, result).items():
                    self.work[name, stat] += value
            return result
        return traced

    def install(self) -> None:
        """Wrap the layer functions and rebind every reference to them."""
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"equiarbor.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    replacements[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    setattr(cls, method,
                            self._wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "equiarbor" and not mod_name.startswith("equiarbor."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

    def summary(self) -> dict[str, float]:
        """Per-function calls, self_s, errors, work counts and distinct_ratio;
        per-layer error totals."""
        covered: Counter[int] = Counter()
        for _, parent, _, t0, t1 in self.spans:
            covered[parent] += t1 - t0
        out: Counter[str] = Counter()
        for sid, _, name, t0, t1 in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (t1 - t0) - covered[sid]
        for name, count in self.errors.items():
            out[f"{name}.errors"] += count
            out[f"{name.split('.')[0]}.errors"] += count
        for (name, stat), value in self.work.items():
            out[f"{name}.{stat}"] += value
        for name, keys in self.keys.items():
            out[f"{name}.distinct_ratio"] = len(keys) / out[f"{name}.calls"]
        return dict(out)

    def write_spans(self, path: str) -> None:
        """One JSON array per line: [id, parent, name, start_s, end_s]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
