"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` wraps the public functions and methods of each measured
module of ``continua`` and rebinds every reference to them inside the
package, so calls between modules are seen too.  A span is one call of a
wrapped function: its name, start, end, parent span and operation id.

The ``rational`` layer (every ``fractions.Fraction`` method plus
``continua.rational``) is called about a million times per operation, so
its calls are not recorded one by one: each recorded span carries the time
its direct rational calls took (``rational_s``), and Fraction constructions
are counted.  Rational calls nested in rational calls are not timed again.

Self time of a span is its duration minus its child spans and its rational
time.  Spans are kept in memory and written as JSONL after the operations.
The layers are single-threaded and have no queues, so there is no wait
time to record.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from fractions import Fraction

LAYERS = ("rational", "plmap", "cantor", "geometry", "continuum", "shadowing", "cli")
# svg is left unwrapped: no costly path of the benchmark runs through it.
SPAN_MODULES = ("plmap", "cantor", "geometry", "continuum", "shadowing", "cli")
# Fraction methods not worth wrapping: pickling and copying never run here.
_FRACTION_SKIP = {"__reduce__", "__copy__", "__deepcopy__"}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [id, child_s, rational_s]
        self.records: list[tuple] = []  # closed: (id, parent, name, start, end, rational_s)
        self.ops: list[tuple[int, int, int]] = []  # (op id, first record, end record)
        self.fraction_new = [0]
        self.in_rational = [False]
        self._ids = itertools.count(1)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        stack, records, ids, clock = self.stack, self.records, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [next(ids), 0.0, 0.0]
            parent = stack[-1][0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stack[-1][1] += end - start
                records.append((frame[0], parent, name, start, end, frame[2]))

        wrapper.__wrapped__ = fn
        return wrapper

    def _rational(self, fn, count: bool = False):
        stack, inside, clock, made = self.stack, self.in_rational, time.perf_counter, self.fraction_new

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if count:
                made[0] += 1
            if inside[0]:
                return fn(*args, **kwargs)
            inside[0] = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                inside[0] = False
                top = stack[-1]
                top[1] += took
                top[2] += took

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap ``fractions.Fraction`` and the measured modules of ``package``."""
        for attr, value in list(vars(Fraction).items()):
            if attr in _FRACTION_SKIP:
                continue
            if attr == "__new__":
                Fraction.__new__ = staticmethod(self._rational(value.__func__, count=True))
            elif inspect.isfunction(value) and (attr.startswith("__") or not attr.startswith("_")):
                setattr(Fraction, attr, self._rational(value))

        modules = {name: getattr(package, name) for name in ("rational",) + SPAN_MODULES}
        replaced: dict = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    replaced[value] = (
                        self._rational(value) if layer == "rational"
                        else self._span(f"{layer}.{attr}", value)
                    )
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_methods(layer, value)
        # rebind every module-level reference, including `from .x import f` copies
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, attr, replaced[value])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(self._span(name, value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self._span(name, value))

    # -- operations --------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run one operation under a root span named ``op`` (layer ``other``)."""
        first = len(self.records)
        frame = [next(self._ids), 0.0, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.records.append((frame[0], None, "op", start, end, frame[2]))
            self.ops.append((op_id, first, len(self.records)))

    def dump(self, path) -> None:
        """Append the recorded spans to ``path`` as JSONL, one span a line."""
        with open(path, "a") as fh:
            for op_id, first, end in self.ops:
                for sid, parent, name, start, stop, rat in self.records[first:end]:
                    fh.write(json.dumps(
                        {"id": sid, "parent": parent, "op": op_id, "name": name,
                         "start": start, "end": stop, "rational_s": rat},
                        separators=(",", ":"),
                    ) + "\n")
            fh.write(json.dumps({"fraction_new": self.fraction_new[0]}) + "\n")


def layer_of(name: str) -> str:
    return "other" if name == "op" else name.split(".", 1)[0]


def summarize(lines) -> dict:
    """Per-layer self times and counters from JSONL span lines.

    Checks that the spans nest and that the layer self times plus
    ``other.self_s`` add up to the traced wall time (the summed root spans).
    Raises ValueError when they do not.
    """
    spans: dict[tuple[int, int], dict] = {}
    fraction_new = 0
    for line in lines:
        rec = json.loads(line)
        if "fraction_new" in rec:
            fraction_new += rec["fraction_new"]
            continue
        spans[(rec["op"], rec["id"])] = rec

    child_s: dict[tuple[int, int], float] = {}
    for key, rec in spans.items():
        if rec["parent"] is None:
            continue
        parent = spans.get((rec["op"], rec["parent"]))
        if parent is None or not parent["start"] <= rec["start"] <= rec["end"] <= parent["end"]:
            raise ValueError(f"span {rec['name']} (op {rec['op']}) does not nest in its parent")
        pkey = (rec["op"], rec["parent"])
        child_s[pkey] = child_s.get(pkey, 0.0) + rec["end"] - rec["start"]

    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    wall = 0.0
    for key, rec in spans.items():
        dur = rec["end"] - rec["start"]
        own = dur - child_s.get(key, 0.0) - rec["rational_s"]
        self_s[layer_of(rec["name"])] += own
        self_s["rational"] += rec["rational_s"]
        calls[rec["name"]] = calls.get(rec["name"], 0) + 1
        if rec["parent"] is None:
            wall += dur
        elif not _has_ancestor(spans, rec, rec["name"]):
            inclusive[rec["name"]] = inclusive.get(rec["name"], 0.0) + dur
    total = sum(self_s.values())
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        raise ValueError(f"layer self times sum to {total}, traced wall is {wall}")
    return {"self_s": self_s, "calls": calls, "inclusive_s": inclusive,
            "wall_s": wall, "fraction_new": fraction_new}


def _has_ancestor(spans: dict, rec: dict, name: str) -> bool:
    parent = rec["parent"]
    while parent is not None:
        up = spans[(rec["op"], parent)]
        if up["name"] == name:
            return True
        parent = up["parent"]
    return False
