"""Per-layer host time for the benchmark's traced run.

:class:`LayerTracer` wraps the public classes and functions of each
``repro`` layer in place and restores them on :meth:`LayerTracer.remove`.
A span opens only where a call crosses from one layer into another
(calls inside a layer run unwrapped), and a layer's self time is its
spans' time minus the time of the spans they opened in other layers.
Generator functions get one span per item they produce, since their
body runs only when the consumer asks for the next item.

Two probes read counters the program already keeps: the ``SortStats``
of every ``ExternalSorter`` created is remembered so they can be
summed (the stats only, so no sorter keeps its disk alive), and each
transaction the traffic driver begins and commits is timed as one user
operation.

Only the traced run installs the tracer; the untraced run that gives
the end-to-end metrics never imports this module.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from types import ModuleType
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: layer name -> the module, or package of modules, it covers
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("storage.disk", "repro.storage.disk"),
    ("storage.buffer", "repro.storage.buffer"),
    ("storage.page_formats", "repro.storage.page_formats"),
    ("storage.serializer", "repro.storage.serializer"),
    ("storage.heap", "repro.storage.heap"),
    ("btree", "repro.btree"),
    ("catalog", "repro.catalog"),
    ("core", "repro.core"),
    ("query", "repro.query"),
    ("lsm", "repro.lsm"),
    ("txn", "repro.txn"),
    ("obs", "repro.obs"),
    ("workload.generator", "repro.workload.generator"),
    ("workload.traffic", "repro.workload.traffic"),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Dunder methods that do a layer's work; other dunders are left alone.
_WRAPPED_DUNDERS = frozenset(
    {"__init__", "__enter__", "__exit__", "__iter__", "__next__"}
)


def layer_modules(target: str) -> List[ModuleType]:
    """``target`` itself plus, for a package, every module inside it."""
    module = importlib.import_module(target)
    modules = [module]
    path = getattr(module, "__path__", None)
    if path is not None:
        for info in sorted(pkgutil.walk_packages(path, target + "."),
                           key=lambda m: m.name):
            if not info.name.endswith(".__main__"):
                modules.append(importlib.import_module(info.name))
    return modules


class LayerTracer:
    """Wraps the layers' entry points and accumulates self time."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.calls: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
        #: Open spans, innermost last: ``[layer, seconds of child spans]``.
        #: The bottom frame stands for the benchmark's own code.
        self._stack: List[List[Any]] = [[None, 0.0]]
        self._undo: List[Tuple[Any, str, Any]] = []
        self.sort_stats: List[Any] = []
        self.op_seconds: List[float] = []
        self._op_started: Dict[int, float] = {}

    # -- spans ----------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack, self_s, calls = self._stack, self.self_s, self.calls

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any) -> Any:
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        if stack[-1][0] == layer:
                            item = next(inner, _DONE)
                        else:
                            frame = [layer, 0.0]
                            stack.append(frame)
                            start = time.perf_counter()  # lint: allow(wall-clock)
                            try:
                                item = next(inner, _DONE)
                            finally:
                                elapsed = time.perf_counter() - start  # lint: allow(wall-clock)
                                stack.pop()
                                self_s[layer] += elapsed - frame[1]
                                calls[layer] += 1
                                stack[-1][1] += elapsed
                        if item is _DONE:
                            return
                        yield item
                finally:
                    inner.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()  # lint: allow(wall-clock)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start  # lint: allow(wall-clock)
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                stack[-1][1] += elapsed

        return traced

    def _replace(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _WRAPPED_DUNDERS:
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                self._replace(
                    cls, name, type(attr)(self._wrap(layer, attr.__func__))
                )
            elif inspect.isfunction(attr):
                self._replace(cls, name, self._wrap(layer, attr))

    def install(self, extra_modules: Iterable[ModuleType] = ()) -> None:
        """Wrap every layer.  Module functions are re-bound in every
        ``repro`` module (and ``extra_modules``) that imported them."""
        functions: Dict[int, Tuple[Callable, Callable]] = {}
        for layer, target in LAYERS:
            for module in layer_modules(target):
                for name, obj in list(vars(module).items()):
                    if name.startswith("_"):
                        continue
                    if getattr(obj, "__module__", None) != module.__name__:
                        continue
                    if inspect.isclass(obj) and not issubclass(
                        obj, (BaseException, enum.Enum)
                    ):
                        self._wrap_class(layer, obj)
                    elif inspect.isfunction(obj):
                        functions[id(obj)] = (obj, self._wrap(layer, obj))
        holders = [
            module for name, module in sorted(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ] + list(extra_modules)
        for module in holders:
            for name, obj in list(vars(module).items()):
                pair = functions.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._replace(module, name, pair[1])
        self._install_probes()

    def remove(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- probes ---------------------------------------------------------
    def _install_probes(self) -> None:
        from repro.query import ExternalSorter
        from repro.txn import TransactionManager

        stack, sort_stats = self._stack, self.sort_stats
        started, op_seconds = self._op_started, self.op_seconds
        sorter_init = ExternalSorter.__init__
        begin = TransactionManager.begin
        commit = TransactionManager.commit

        @functools.wraps(sorter_init)
        def remember_sorter(sorter: Any, *args: Any, **kwargs: Any) -> None:
            sorter_init(sorter, *args, **kwargs)
            sort_stats.append(sorter.stats)

        @functools.wraps(begin)
        def time_begin(manager: Any) -> Any:
            from_traffic = stack[-1][0] == "workload.traffic"
            start = time.perf_counter()  # lint: allow(wall-clock)
            txn = begin(manager)
            if from_traffic:
                started[txn.txn_id] = start
            return txn

        @functools.wraps(commit)
        def time_commit(manager: Any, txn: Any) -> None:
            commit(manager, txn)
            start = started.pop(txn.txn_id, None)
            if start is not None:
                op_seconds.append(
                    time.perf_counter() - start  # lint: allow(wall-clock)
                )

        self._replace(ExternalSorter, "__init__", remember_sorter)
        self._replace(TransactionManager, "begin", time_begin)
        self._replace(TransactionManager, "commit", time_commit)

    def reset_probes(self) -> None:
        """Forget what the probes saw (set-up is not part of the
        measured phase whose counters they report)."""
        self.sort_stats.clear()
        self.op_seconds.clear()
        self._op_started.clear()


_DONE = object()
