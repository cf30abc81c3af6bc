"""Traced server launcher: ``python -m repro.server`` with layer spans.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 wirebench/launcher.py --trace-out OUT -- --port 7654 --cars 50000

Before the server starts, the launcher wraps the public entry points of
each layer, from ``protocol.encode_message`` down to
``WriteAheadLog.append``.  Each wrapper is a span: it records its call
count, its total time and its self time (total minus the time of spans
it called on the same thread).  On ``SIGUSR1`` the launcher writes the
totals so far to ``OUT.<n>.json`` (n = 0, 1, ...), so a load generator
can take the difference between two dumps for one timed window.

Entry points that the code under test no longer has are skipped and
listed under ``missing`` in every dump.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Callable

clock = time.perf_counter


class Recorder:
    """Span totals per name plus plain counters, safe across threads."""

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.spans: dict[str, list[float]] = {}   # name -> [calls, self, total]
        self.counters: dict[str, float] = {}
        self.local = threading.local()
        self.missing: list[str] = []

    def add(self, name: str, self_s: float, total_s: float) -> None:
        with self.lock:
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self_s
            entry[2] += total_s

    def count(self, name: str, value: float = 1) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def stack(self) -> list[float]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def snapshot(self) -> dict[str, Any]:
        with self.lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
                "missing": list(self.missing),
            }


REC = Recorder()


def spanned(
    fn: Callable, name: str, after: Callable[[Any, tuple, dict], None] | None
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = REC.stack()
        stack.append(0.0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            total = clock() - start
            children = stack.pop()
            if stack:
                stack[-1] += total
            REC.add(name, total - children, total)
        if after is not None:
            after(result, args, kwargs)
        return result
    return wrapper


def wrap(
    module: str, path: str, name: str,
    after: Callable[[Any, tuple, dict], None] | None = None,
) -> None:
    """Replace ``module.path`` (``func`` or ``Class.method``) by a span."""
    try:
        owner: Any = importlib.import_module(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError):
        REC.missing.append(f"{module}.{path}")
        return
    if isinstance(fn, (staticmethod, classmethod)):
        REC.missing.append(f"{module}.{path}")
        return
    setattr(owner, attr, spanned(fn, name, after))


def wrap_registry(
    module: str, attr: str, name: str,
    keep: Callable[[str], bool] = lambda key: True,
    after: Callable[[Any, tuple, dict], None] | None = None,
) -> None:
    """Wrap the callables of a name -> function registry dict in place."""
    try:
        registry = getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        REC.missing.append(f"{module}.{attr}")
        return
    for key, fn in list(registry.items()):
        if callable(fn) and keep(key):
            registry[key] = spanned(fn, name, after)


def wrap_subclasses(module: str, base: str, method: str, name: str) -> None:
    """Wrap ``method`` on a base class and each subclass defining it."""
    try:
        root = getattr(importlib.import_module(module), base)
    except (ImportError, AttributeError):
        REC.missing.append(f"{module}.{base}")
        return
    seen: list[type] = [root]
    while seen:
        cls = seen.pop()
        seen.extend(cls.__subclasses__())
        if method in cls.__dict__:
            setattr(cls, method, spanned(cls.__dict__[method], name, None))


# -- what each layer counts besides time ---------------------------------------


def _bytes_out(result: Any, args: tuple, kwargs: dict) -> None:
    REC.count("server.bytes_out", len(result))


def _answer_source(result: Any, args: tuple, kwargs: dict) -> None:
    REC.count("service.answers")
    if getattr(result, "source", None) == "view":
        REC.count("service.view_answers")


def _tenant_source(result: Any, args: tuple, kwargs: dict) -> None:
    REC.count("tenancy.queries")
    if getattr(result, "source", None) == "view":
        REC.count("tenancy.view_answers")


def _rows_copied(result: Any, args: tuple, kwargs: dict) -> None:
    # insert_rows returns the new relation; delete_rows (relation, deleted).
    relation = result[0] if isinstance(result, tuple) else result
    REC.count("relations.mutations")
    try:
        REC.count("relations.rows_copied", len(relation))
    except TypeError:
        pass


def _wal_bytes(result: Any, args: tuple, kwargs: dict) -> None:
    record = args[1] if len(args) > 1 else kwargs.get("record")
    REC.count("storage.wal_records")
    try:
        REC.count("storage.wal_bytes", len(json.dumps(record, default=str)))
    except (TypeError, ValueError):
        pass


def _columnar_call(result: Any, args: tuple, kwargs: dict) -> None:
    REC.count("engine.columnar_winnows")


def _row_call(result: Any, args: tuple, kwargs: dict) -> None:
    REC.count("query.row_winnows")


def install() -> None:
    wrap("repro.server.protocol", "encode_message", "server.encode", _bytes_out)
    wrap("repro.server.protocol", "decode_message", "server.decode")
    wrap("repro.server.service", "PreferenceService.build_query", "service.build")
    wrap("repro.server.service", "PreferenceService.answer", "service.answer",
         _answer_source)
    wrap("repro.server.service", "PreferenceService._present", "service.view")
    wrap("repro.server.views", "ContinuousView.rows", "service.view")
    wrap("repro.tenancy.manager", "TenantManager.query", "tenancy.query",
         _tenant_source)
    wrap("repro.tenancy.manager", "TenantManager.compose", "tenancy.compose")
    wrap("repro.tenancy.manager", "TenantManager._composed_pref",
         "tenancy.compose")
    wrap("repro.psql.parser", "parse", "psql.parse")
    wrap("repro.query.optimizer", "plan", "query.plan")
    wrap_subclasses("repro.query.plan", "PlanNode", "execute", "query.execute")
    wrap_registry("repro.query.algorithms", "ALGORITHMS", "query.row_winnow",
                  keep=lambda key: not key.startswith("v"), after=_row_call)
    wrap("repro.relations.relation", "Relation.select", "relations.select")
    wrap("repro.relations.relation", "Relation.columns", "relations.columns")
    wrap("repro.relations.catalog", "Catalog.insert_rows", "relations.insert",
         _rows_copied)
    wrap("repro.relations.catalog", "Catalog.delete_rows", "relations.delete",
         _rows_copied)
    wrap("repro.engine.columnar", "columnar_winnow", "engine.winnow",
         _columnar_call)
    wrap("repro.engine.columnar", "_encoded_axes", "engine.encode")
    wrap("repro.engine.columns", "ColumnStore.__init__", "engine.encode")
    wrap_registry("repro.engine.vectorized", "KERNELS", "engine.kernel")
    wrap("repro.engine.columnar", "skyline_2d", "engine.kernel")
    wrap("repro.server.views", "ContinuousView.refresh", "views.refresh")
    wrap("repro.server.views", "ContinuousView.seed", "views.seed")
    wrap("repro.query.incremental", "IncrementalBMO.remove_delta",
         "views.refresh")
    wrap("repro.query.incremental", "_WindowState.rebuild", "views.rebuild")
    wrap("repro.storage.wal", "WriteAheadLog.append", "storage.wal_append",
         _wal_bytes)
    for method in ("sync", "insert", "delete", "prefilter", "cardinality"):
        wrap("repro.storage.breaker", f"GuardedBackend.{method}",
             "storage.backend")
    wrap("repro.storage.binding", "read_snapshot", "storage.snapshot_load")
    wrap("repro.storage.binding", "CatalogStorage._apply", "storage.replay")
    wrap("repro.storage.binding", "CatalogStorage._recover", "storage.recover")
    _install_gc_timer()
    _install_exec_wait()


def _install_gc_timer() -> None:
    started: dict[str, float] = {}

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            started["t"] = clock()
        elif "t" in started:
            pause = clock() - started.pop("t")
            REC.add("runtime.gc", pause, pause)

    gc.callbacks.append(on_gc)


def _install_exec_wait() -> None:
    """Time from a request's hand-off to the worker pool until it starts."""
    try:
        from repro.server.server import PreferenceServer
        original = PreferenceServer.__dict__["_run"]
    except (ImportError, KeyError):
        REC.missing.append("repro.server.server.PreferenceServer._run")
        return

    async def _run(self: Any, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
        handed_off = clock()

        @functools.wraps(fn)
        def started(*a: Any, **k: Any) -> Any:
            wait = clock() - handed_off
            REC.add("server.exec_wait", wait, wait)
            return fn(*a, **k)

        return await original(self, started, *args, **kwargs)

    PreferenceServer._run = _run


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv[:split])
    server_argv = argv[split + 1:]
    dumps = iter(range(1_000_000))

    def dump(signum: int, frame: Any) -> None:
        path = f"{args.trace_out}.{next(dumps)}.json"
        with open(path + ".tmp", "w") as fh:
            json.dump(REC.snapshot(), fh)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, dump)
    install()
    from repro.server.__main__ import main as server_main

    return server_main(server_argv)


if __name__ == "__main__":
    raise SystemExit(main())
