#!/usr/bin/env python3
"""Build the ``durable_writes`` data directory from its seed.

Run from the repository root::

    python3 wirebench/datadir.py --out .wirebench/base

Starts ``python -m repro.server --storage sqlite --data-dir OUT`` on the
50k-row car relation, materializes the workload's standing views (a
subscribed grouped Pareto view and a top-k view), checkpoints, then logs
``DURABLE_TAIL`` mutations drawn from ``DATADIR_SEED`` as the WAL tail,
and kills the server with SIGKILL.  The directory then holds a snapshot
plus a WAL tail, which every durable set-up recovers from (each from its
own copy).  ``run.py`` keeps one such directory under
``.wirebench/cache`` and builds it on the first durable run of a
checkout; no data directory is committed.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

from proc import SRC, Server
from workloads import DATADIR_SEED, Plan, durable_reads


def build(plan: Plan, out: Path, work: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    server = Server(["--storage", "sqlite", "--data-dir", str(out)],
                    work / "datadir.log", None)
    try:
        server.wait_ready()
        client = server.client()
        client.subscribe("car", **plan.subscription)
        for read in durable_reads() * 2:
            client.query(**read.request)
        client.checkpoint()
        for op in plan.ops[:plan.tail]:
            if op.kind == "insert":
                client.insert("car", op.rows)
            else:
                client.delete("car", rows=op.rows)
        client.close()
    finally:
        server.kill()


def cached(plan: Plan, work_root: Path, work: Path) -> Path:
    """The data directory under ``work_root/cache``, built on first use."""
    out = work_root / "cache" / f"durable-tail{plan.tail}-seed{DATADIR_SEED}"
    if not out.is_dir():
        staging = work / "datadir"
        build(plan, staging, work)
        out.parent.mkdir(parents=True, exist_ok=True)
        try:
            staging.rename(out)
        except OSError:
            if not out.is_dir():  # not a concurrent build that won the race
                raise
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    build(Plan("durable_writes", seed=DATADIR_SEED, seconds=1), out,
          out.parent)
    print(f"built {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
