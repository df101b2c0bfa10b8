"""Spans and counters around the public functions of each ``degtree`` module.

The tracer patches the package from outside: every public function and
public method of a layer module is replaced by a wrapper, and every name
that ``from ... import`` rebound in another ``degtree`` module is replaced
too, so calls between modules are seen.  ``uninstall`` restores the
originals.  Nothing under ``src/`` is edited.

Calls made once per random word or per candidate (``COUNTED``) and
generator functions only bump a counter; every other call records a span
(name, start, end, parent, execution) in flat arrays that stay in memory
until the run writes them out.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from statistics import median

import numpy as np

PACKAGE = "degtree"
LAYERS = ("rng", "degrees", "sampling", "codec", "oracle", "stats", "cli")

COUNTED = frozenset(
    {
        "rng.RandomSource.next_word",
        "rng.RandomSource.next_below",
        "rng.RandomSource.rewind",
        "degrees.is_well_formed",
        "codec.OperatorAlphabet.symbols_for",
    }
)

# Result sizes added to a counter of their own: words of a batch, trees
# returned by an enumeration.
AMOUNTS = {
    "rng.RandomSource.next_words": "rng.next_words.words",
    "oracle.enumerate_trees": "oracle.enumerate_trees.results",
}


def _public_callables(module):
    """(owner, attribute, qualified name, function, kind) for one module."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{layer}.{name}", obj, "function"
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    yield obj, attr, f"{layer}.{name}.{attr}", member, "function"
                elif isinstance(member, classmethod):
                    yield obj, attr, f"{layer}.{name}.{attr}", member.__func__, "classmethod"


class Tracer:
    """Records spans and counters for the calls of one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_exec = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = {}
        self.execution = -1  # index of the CLI call being run
        self._open = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    # -- wrappers ------------------------------------------------------

    def _span(self, fn, name_id: int):
        names, parents, execs = self.span_name, self.span_parent, self.span_exec
        starts, ends, open_spans, clock = self.span_start, self.span_end, self._open, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1])
            execs.append(tracer.execution)
            ends.append(0.0)
            open_spans.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                open_spans.pop()

        return wrapper

    def _counter(self, fn, key: str):
        counters = self.counters
        counters.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _amount(self, inner, key: str):
        counters = self.counters
        counters.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            counters[key] += len(result)
            return result

        return wrapper

    def _wrap(self, qualname: str, fn):
        if qualname in COUNTED or inspect.isgeneratorfunction(fn):
            wrapper = self._counter(fn, qualname + ".calls")
        else:
            name_id = len(self.names)
            self.names.append(qualname)
            self.layer_of.append(LAYERS.index(qualname.split(".", 1)[0]))
            wrapper = self._span(fn, name_id)
        if qualname in AMOUNTS:
            wrapper = self._amount(wrapper, AMOUNTS[qualname])
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Patch every layer module, and every rebinding of its names."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for owner, attr, qualname, fn, kind in _public_callables(module):
                if qualname not in self._wrappers:
                    self._wrappers[qualname] = self._wrap(qualname, fn)
                wrapper = self._wrappers[qualname]
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, classmethod(wrapper) if kind == "classmethod" else wrapper)
                replaced[id(fn)] = wrapper
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_counters(self) -> dict[str, int]:
        """Counter values since the last call, then zero them."""
        snapshot = dict(self.counters)
        for key in self.counters:
            self.counters[key] = 0
        return snapshot

    def table(self) -> dict[str, np.ndarray]:
        """All spans as arrays, with duration, self time and layer nesting.

        ``self`` is a span's duration minus the time its direct children
        cover (calls are sequential, so children never overlap).
        ``outer`` marks spans with no ancestor in the same layer, whose
        durations add up to the time spent in that layer.
        """
        # np.array copies, so the arrays can still grow afterwards.
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        start = np.array(self.span_start, dtype=np.float64)
        end = np.array(self.span_end, dtype=np.float64)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
        layer = np.asarray(self.layer_of, dtype=np.int64)[name]
        outer = np.ones(len(name), dtype=bool)
        ancestor = parent.copy()
        while (live := ancestor >= 0).any():
            outer[live] &= layer[ancestor[live]] != layer[live]
            ancestor[live] = parent[ancestor[live]]
        return {
            "name": name,
            "parent": parent,
            "execution": np.array(self.span_exec, dtype=np.int64),
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - covered,
            "layer": layer,
            "outer": outer,
        }

    def write(self, path, **extra) -> None:
        """Write every span (and ``extra`` arrays) to one ``.npz`` file."""
        table = self.table()
        np.savez(
            path,
            names=np.asarray(self.names),
            layers=np.asarray(LAYERS),
            **{key: table[key] for key in ("name", "parent", "execution", "start", "end")},
            **extra,
        )


MIN_SIZE_RANGE = 3.0


def log_log_slope(sizes, seconds) -> float:
    """Least-squares slope of log(median seconds) against log(size).

    Durations are grouped by size first, so repeated sizes count once.
    Returns 0.0 when the sizes seen span less than a factor of
    ``MIN_SIZE_RANGE``, i.e. the stage did not run across a size range on
    this workload.
    """
    by_size: dict[float, list[float]] = {}
    for size, value in zip(sizes, seconds):
        if size > 0 and value > 0:
            by_size.setdefault(float(size), []).append(float(value))
    if not by_size or max(by_size) < MIN_SIZE_RANGE * min(by_size):
        return 0.0
    xs = np.log([size for size in by_size])
    ys = np.log([median(values) for values in by_size.values()])
    return float(np.polyfit(xs, ys, 1)[0])
