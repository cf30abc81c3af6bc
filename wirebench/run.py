#!/usr/bin/env python3
"""Wire-level benchmark of the preference server.

Run from the repository root::

    python3 wirebench/run.py --workload serve_views --seed 1 --seconds 10 --trace 0

Starts the real server (``python -m repro.server``) in its own process,
drives it from this process over one request connection (closed loop: one
request outstanding at a time) and one subscriber connection, checks every
answer against the reference evaluator, and prints one JSON object as the
last line of standard output.  ``--trace 1`` adds a run of the server
through ``wirebench/launcher.py`` and prints per-layer metrics instead.
See ``wirebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any

from proc import ROOT, SRC, BenchError, Server
from workloads import Plan

WORK = ROOT / ".wirebench"

#: Server incarnations per run; ``setup_s`` is their median.  Two keep a
#: ``durable_writes`` run under a minute on a 2-core machine.
SETUPS = 2
WORKLOADS = ("serve_views", "adhoc_plans", "durable_writes")

clock = time.perf_counter


# -- the delta subscriber --------------------------------------------------------


class Subscriber(threading.Thread):
    """Reads delta pushes on its own connection and stamps their arrival."""

    def __init__(self, client: Any):
        super().__init__(daemon=True)
        self.client = client
        self.received: list[tuple[float, dict[str, Any]]] = []
        self.error: BaseException | None = None
        self._halt = threading.Event()

    def run(self) -> None:
        from repro.server.client import ClientError

        while not self._halt.is_set():
            try:
                delta = self.client.wait_delta(timeout=0.2)
            except ClientError as exc:
                if exc.code == "timeout":
                    continue
                self.error = exc
                return
            self.received.append((clock(), delta))

    def wait_for(self, count: int, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while len(self.received) < count and time.monotonic() < deadline:
            if self.error is not None or not self.is_alive():
                break
            time.sleep(0.005)

    def stop(self) -> None:
        self._halt.set()
        self.join(5)


# -- one workload ----------------------------------------------------------------


class Run:
    """Set-ups, the timed sequence and the checks of one workload."""

    def __init__(self, plan: Plan, work: Path, trace: bool,
                 base_dir: Path | None = None, setups: int = SETUPS):
        self.plan = plan
        self.work = work
        self.trace = trace
        self.n_setups = setups
        self.setups: list[float] = []
        self.base_dir = base_dir
        self.phases: dict[str, float] = {}

    def set_up(self, incarnation: int) -> tuple[Server, Any, Any, dict]:
        """Start a server and warm it up; time it as one ``setup_s`` sample."""
        args = list(self.plan.server_args)
        data_dir = None
        if self.plan.durable:  # each incarnation recovers its own copy
            assert self.base_dir is not None
            data_dir = self.work / f"data{incarnation}"
            shutil.rmtree(data_dir, ignore_errors=True)
            shutil.copytree(self.base_dir, data_dir)
            args += ["--storage", "sqlite", "--data-dir", str(data_dir)]
        trace_out = self.work / f"trace{incarnation}" if self.trace else None
        started = clock()
        server = Server(args, self.work / f"server{incarnation}.log",
                        trace_out)
        server.data_dir = data_dir
        try:
            server.wait_ready()
            client = server.client()
            sub_client = server.client()
            for tenant, profile in self.plan.profiles.items():
                client.profile_set("deal", profile, default=True,
                                   tenant=tenant)
            snapshot = sub_client.subscribe(
                "car", snapshot=True, **self.plan.subscription
            )
            for read in self.plan.warm_reads:
                client.query(**read.request)
        except BaseException:
            server.kill()
            raise
        self.setups.append(clock() - started)
        return server, client, sub_client, snapshot

    def timed(self, client: Any, subscriber: Subscriber) -> dict[str, Any]:
        from repro.server.client import ClientError

        ops = self.plan.ops[self.plan.tail:]
        lat: dict[str, list[float]] = {"read": [], "insert": [], "delete": []}
        answers: list[tuple[int, Any, list]] = []
        sent: dict[int, tuple[float, str]] = {}  # version -> (sent, kind)
        acks: list[str] = []
        failed = 0
        cycles: list[list[float]] = []  # [start, failed] per cycle of the mix
        # The load generator's own collector must not stall requests: the
        # mirror and plan are frozen out of it and collection waits until
        # the sequence ends.
        gc.collect()
        gc.freeze()
        gc.disable()
        begin = clock()
        for offset, op in enumerate(ops):
            at = self.plan.tail + offset
            t0 = clock()
            if offset % self.plan.cycle == 0:
                cycles.append([t0, 0])
            try:
                if op.kind == "read":
                    rows = client.query(**op.request)
                elif op.kind == "insert":
                    ack = client.insert("car", op.rows)
                else:
                    ack = client.delete("car", rows=op.rows)
            except ClientError:
                failed += 1
                cycles[-1][1] += 1
                continue
            lat[op.kind].append((clock() - t0) * 1000.0)
            if op.kind == "read":
                answers.append((at, op, rows))
            else:
                sent[ack["version"]] = (t0, op.kind)
                done = ack.get("inserted", ack.get("deleted"))
                if done != len(op.rows):
                    acks.append(f"op {at}: {op.kind} acknowledged {done} "
                                f"of {len(op.rows)} rows")
        end = clock()
        elapsed = end - begin
        gc.enable()
        # Operations per second of each whole cycle of the operation mix.
        rates = [
            (len(ops[i * self.plan.cycle:(i + 1) * self.plan.cycle]) - lost)
            / (stop - start)
            for i, ((start, lost), stop) in enumerate(
                zip(cycles, [c[0] for c in cycles[1:]] + [end]))
        ]
        subscriber.wait_for(len(sent))
        # Delta latency is kept per mutation class, like every latency.
        delta: dict[str, list[float]] = {"insert": [], "delete": []}
        for received, message in subscriber.received:
            t0, kind = sent.get(message.get("version"), (None, None))
            if t0 is not None:
                delta[kind].append((received - t0) * 1000.0)
        return {"lat": lat, "delta": delta, "answers": answers,
                "attempted": len(ops), "failed": failed, "elapsed": elapsed,
                "cycle_rates": rates,
                "mutations": len(sent), "ack_errors": acks}

    def execute(self) -> dict[str, Any]:
        started = clock()
        if self.plan.durable and self.base_dir is None:
            import datadir

            self.base_dir = datadir.cached(self.plan, WORK, self.work)
        self.phases["data dir"] = clock() - started
        setups = self.n_setups
        for incarnation in range(setups - 1):
            server, client, sub_client, _ = self.set_up(incarnation)
            client.close()
            sub_client.close()
            server.kill()
        server, client, sub_client, snapshot = self.set_up(setups - 1)
        subscriber = Subscriber(sub_client)
        try:
            subscriber.start()
            before = server.dump_trace() if self.trace else None
            cache0 = client.metrics().get("plan_cache", {}) if self.trace else {}
            result = self.timed(client, subscriber)
            after = server.dump_trace() if self.trace else None
            if self.trace:
                result["trace"] = (before, after, cache0,
                                   client.metrics().get("plan_cache", {}))
            subscriber.stop()
            result["subscriber_error"] = subscriber.error
            result["deltas"] = [m for _, m in subscriber.received]
            result["snapshot"] = snapshot
            result["rows_reported"] = {
                r["name"]: r["rows"] for r in client.relations()
            }.get("car")
            result["rss_peak_mb"] = server.rss_peak_mb()
            client.close()
            sub_client.close()
            if self.plan.durable:
                server.kill()  # SIGKILL: no shutdown hooks run
                started = clock()
                result["recovered"] = self.recover(server.data_dir)
                self.phases["recovery check"] = clock() - started
        finally:
            server.kill()
            subscriber.stop()
        result["setups"] = list(self.setups)
        self.phases["set-ups"] = sum(self.setups)
        self.phases["timed"] = result["elapsed"]
        result["phases"] = self.phases
        return result

    def recover(self, data_dir: Path) -> list[dict[str, Any]]:
        """Restart on the killed server's data directory; fetch the relation."""
        server = Server(["--storage", "sqlite", "--data-dir", str(data_dir)],
                        self.work / "recovered.log", None)
        try:
            server.wait_ready()
            client = server.client()
            rows = client.query(spec={"relation": "car"})
            client.close()
            return rows
        finally:
            server.kill()


# -- metrics ---------------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 0


def p50(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float]) -> float:
    """Nearest-rank value at :func:`tail_percentile` of the samples."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(result: dict[str, Any]) -> dict[str, tuple[float, str]]:
    lat = result["lat"]
    return {
        "setup_s": (statistics.median(result["setups"]), "s"),
        # The median cycle, not the mean: a rare slow stretch of the host or
        # a collector pause moves one cycle, not the figure.
        "throughput_ops": (statistics.median(result["cycle_rates"]), "1/s"),
        "read_p50_ms": (p50(lat["read"]), "ms"),
        "read_tail_ms": (tail(lat["read"]), "ms"),
        "insert_p50_ms": (p50(lat["insert"]), "ms"),
        "insert_tail_ms": (tail(lat["insert"]), "ms"),
        "delta_p50_ms": (p50(result["delta"]["insert"]), "ms"),
        "delta_tail_ms": (tail(result["delta"]["insert"]), "ms"),
        "rss_peak_mb": (result["rss_peak_mb"], "MB"),
    }


def per_layer(result: dict[str, Any],
              untraced: dict[str, Any]) -> dict[str, tuple[float, str]]:
    before, after, cache0, cache1 = result["trace"]
    ops = max(1, result["attempted"])
    mutations = max(1, result["mutations"])

    def span(name: str, dump: dict | None = after) -> tuple[float, float]:
        calls1, self1, _ = (dump or {}).get("spans", {}).get(name, (0, 0.0, 0))
        if dump is before:
            return calls1, self1
        calls0, self0, _ = before.get("spans", {}).get(name, (0, 0.0, 0))
        return calls1 - calls0, self1 - self0

    def count(name: str) -> float:
        return (after.get("counters", {}).get(name, 0)
                - before.get("counters", {}).get(name, 0))

    def per_op(name: str) -> float:
        return span(name)[1] * 1000.0 / ops

    def per_call(name: str) -> float:
        calls, secs = span(name)
        return secs * 1000.0 / calls if calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = cache1.get("hits", 0) - cache0.get("hits", 0)
    misses = cache1.get("misses", 0) - cache0.get("misses", 0)
    columnar = count("engine.columnar_winnows")
    # Both runs replay the same sequence, so elapsed times compare directly.
    overhead = (result["elapsed"] / untraced["elapsed"] - 1.0) * 100.0
    return {
        "server.decode_ms": (per_op("server.decode"), "ms"),
        "server.encode_ms": (per_op("server.encode"), "ms"),
        "server.bytes_out_per_op": (count("server.bytes_out") / ops, "B"),
        "server.exec_wait_ms": (per_call("server.exec_wait"), "ms"),
        "service.build_ms": (per_op("service.build"), "ms"),
        "service.view_ms": (per_op("service.view"), "ms"),
        "service.view_answer_ratio": (
            ratio(count("service.view_answers"), count("service.answers")),
            "ratio"),
        "tenancy.compose_ms": (per_op("tenancy.compose"), "ms"),
        "tenancy.shared_hit_ratio": (
            ratio(count("tenancy.view_answers"), count("tenancy.queries")),
            "ratio"),
        "psql.parse_ms": (per_op("psql.parse"), "ms"),
        "query.plan_ms": (per_op("query.plan"), "ms"),
        "query.plan_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "query.execute_ms": (per_op("query.execute"), "ms"),
        "query.row_winnow_ms": (per_op("query.row_winnow"), "ms"),
        "relations.select_ms": (per_op("relations.select"), "ms"),
        "relations.columns_ms": (per_op("relations.columns"), "ms"),
        "relations.insert_ms": (per_call("relations.insert"), "ms"),
        "relations.delete_ms": (per_call("relations.delete"), "ms"),
        "relations.rows_copied_per_mutation": (
            ratio(count("relations.rows_copied"),
                  count("relations.mutations")), "count"),
        "engine.encode_ms": (per_op("engine.encode"), "ms"),
        "engine.kernel_ms": (per_op("engine.kernel"), "ms"),
        "engine.columnar_share": (
            ratio(columnar, columnar + count("query.row_winnows")), "ratio"),
        "views.refresh_ms": (span("views.refresh")[1] * 1000.0 / mutations,
                             "ms"),
        "views.rebuilds": (span("views.rebuild")[0], "count"),
        "views.seed_ms": (span("views.seed", before)[1] * 1000.0, "ms"),
        "storage.wal_append_ms": (per_call("storage.wal_append"), "ms"),
        "storage.wal_bytes_per_mutation": (
            ratio(count("storage.wal_bytes"), count("storage.wal_records")),
            "B"),
        "storage.backend_ms": (per_op("storage.backend"), "ms"),
        "storage.replay_ms": (span("storage.replay", before)[1] * 1000.0,
                              "ms"),
        "storage.snapshot_load_ms": (
            span("storage.snapshot_load", before)[1] * 1000.0, "ms"),
        "runtime.gc_pause_ms": (per_op("runtime.gc"), "ms"),
        "trace.overhead_pct": (overhead, "%"),
        "trace.missing_entry_points": (len(after.get("missing", [])),
                                       "count"),
    }


# -- checks ----------------------------------------------------------------------


def verify(plan: Plan, result: dict[str, Any]) -> list[str]:
    """Every check of the run; returns the failures (empty when correct)."""
    import workloads as wl
    from checks import Checker
    from reference import Mismatch

    problems = list(result["ack_errors"])
    if result["subscriber_error"] is not None:
        problems.append(f"subscriber failed: {result['subscriber_error']!r}")
    pushed = sum(len(v) for v in result["delta"].values())
    if pushed != result["mutations"]:
        problems.append(f"{result['mutations']} mutations pushed "
                        f"{pushed} matching deltas")
    end = len(plan.ops)
    checker = Checker(plan.mirror)
    try:
        checker.check_all(result["answers"])
    except Mismatch as exc:
        problems.append(f"answer check: {exc}")
    # The subscriber's view, rebuilt from its snapshot and every delta.
    snapshot = result["snapshot"]
    view = {r["oid"]: r for r in snapshot.get("rows", [])}
    for message in result["deltas"]:
        if message.get("version", 0) <= snapshot.get("version", -1):
            continue
        for row in message.get("exit", []):
            view.pop(row["oid"], None)
        for row in message.get("enter", []):
            view[row["oid"]] = row
    try:
        checker.check_view(wl.STAIRCASE, plan.sub_groupby, end,
                           list(view.values()))
    except Mismatch as exc:
        problems.append(f"subscriber view rebuilt from deltas: {exc}")
    alive = int(plan.mirror.alive(end).sum())
    if result["rows_reported"] != alive:
        problems.append(f"server reports {result['rows_reported']} rows, "
                        f"mirror holds {alive}")
    if plan.durable:
        want = {r["oid"]: r for r in plan.mirror.alive_rows(end)}
        got = {r["oid"]: r for r in result["recovered"]}
        if len(result["recovered"]) != len(want) or got != want:
            problems.append(
                f"relation after SIGKILL restart differs from the mirror of "
                f"acknowledged mutations ({len(result['recovered'])} rows vs "
                f"{len(want)})"
            )
    if checker.full_checks == 0:
        problems.append("no answer got the full reference check")
    return problems


# -- entry point -----------------------------------------------------------------


def report(metrics: dict[str, tuple[float, str]]) -> dict[str, Any]:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Termination unwinds like an error, so every started server is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "server" / "__main__.py").is_file():
        print(f"no server sources under {SRC}: run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        plan = Plan(args.workload, args.seed, args.seconds)
        if plan.one_cpu:  # servers inherit the affinity
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        # A traced run compares against one untraced set-up and sequence.
        untraced = Run(plan, work, trace=False,
                       setups=1 if args.trace else SETUPS)
        result = untraced.execute()
        started = clock()
        problems = verify(plan, result)
        result["phases"]["checks"] = clock() - started
        metrics = end_to_end(result)
        if args.trace:
            (work / "traced").mkdir()
            traced = Run(plan, work / "traced", trace=True,
                         base_dir=untraced.base_dir, setups=1)
            traced_result = traced.execute()
            problems += verify(plan, traced_result)
            metrics = per_layer(traced_result, result)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lat = result["lat"]
    deltas = result["delta"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['attempted']} ops ({len(lat['read'])} reads, "
          f"{len(lat['insert'])} inserts, {len(lat['delete'])} deletes, "
          f"{len(deltas['insert'])} insert deltas), "
          f"{result['failed']} failed")
    print(f"  tail percentile: reads p{tail_percentile(len(lat['read']))}, "
          f"inserts p{tail_percentile(len(lat['insert']))}, "
          f"insert deltas p{tail_percentile(len(deltas['insert']))}")
    if lat["delete"]:
        print(f"  delete p50 {p50(lat['delete']):.3f} ms, delete delta p50 "
              f"{p50(deltas['delete']):.3f} ms ({len(lat['delete'])} deletes)")
    print("  wall time: " + ", ".join(
        f"{k} {v:.1f}s" for k, v in result["phases"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    for problem in problems:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": report(metrics),
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
