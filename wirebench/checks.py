"""Output checks of one run against the reference evaluator and the mirror.

Every answer is checked for membership (each row is a live row of the
mirror, field for field, and passes the query's WHERE) and mutual
non-dominance.  The first and the last answer of each distinct query get
the full check: exactly the BMO set (grouped, top-k, BUT ONLY and
presentation clauses included).
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_left
from typing import Any

import numpy as np

from reference import Mismatch, check_maximal, check_top_k, winnow
from workloads import Mirror, Read

_OPS = {"=": operator.eq, "<=": operator.le, ">=": operator.ge,
        "<": operator.lt, ">": operator.gt}


class Checker:
    def __init__(self, mirror: Mirror):
        self.mirror = mirror
        self.table = mirror.table
        # Op indices of the mutations: reads between two of them see one state.
        self._mutations = sorted(
            {int(a) for a in (*mirror.born, *mirror.died)
             if 0 <= a < float("inf")}
        )
        self._alive: dict[int, np.ndarray] = {}
        self._bmo: dict[tuple, list[int]] = {}
        self._seen: set[tuple] = set()
        self.full_checks = 0

    def state(self, at: int) -> int:
        """How many mutations ran before op ``at``."""
        return bisect_left(self._mutations, at)

    def alive(self, at: int) -> np.ndarray:
        state = self.state(at)
        mask = self._alive.get(state)
        if mask is None:
            mask = self._alive[state] = self.mirror.alive(at)
        return mask

    def candidates(self, read: Read, at: int) -> np.ndarray:
        mask = self.alive(at).copy()
        for attribute, op, value in read.where:
            mask &= _OPS[op](self.table.column(attribute), value)
        return mask

    def indices(self, rows: list[dict[str, Any]]) -> list[int]:
        out = []
        for row in rows:
            i = self.mirror.by_oid.get(row.get("oid"))
            if i is None:
                raise Mismatch(f"answer row with unknown oid: {row}")
            full = self.mirror.rows[i]
            if any(full.get(k) != v for k, v in row.items()):
                raise Mismatch(f"answer row differs from the relation: {row}")
            out.append(i)
        return out

    def check(self, read: Read, at: int, rows: list[dict[str, Any]],
              full: bool) -> None:
        """Check one answer of ``read`` issued as operation ``at``."""
        idx = self.indices(rows)
        cand = self.candidates(read, at)
        outside = [i for i in idx if not cand[i]]
        if outside:
            raise Mismatch(
                f"{read.key}: row oid={self.mirror.rows[outside[0]]['oid']} "
                f"is not a live row matching the WHERE clause"
            )
        if read.top is not None:
            if full:
                self.full_checks += 1
                check_top_k(self.table, read.term, cand, read.top, idx)
            return
        complete = full and read.limit is None and read.distance is None
        check_maximal(self.table, read.term, cand, idx, read.groupby,
                      complete=complete)
        if full and not complete:
            self.full_checks += 1
            self._check_cut(read, at, cand, idx)
        elif complete:
            self.full_checks += 1
        if read.order_by:
            self._check_order(read, idx)

    def _check_cut(self, read: Read, at: int, cand: np.ndarray,
                   idx: list[int]) -> None:
        """BUT ONLY filters the BMO set; LIMIT keeps an ordered prefix."""
        key = (read.key, self.state(at))
        bmo = self._bmo.get(key)
        if bmo is None:
            bmo = self._bmo[key] = winnow(self.table, read.term, cand,
                                          read.groupby)
        if read.distance is not None:
            attribute, z, d = read.distance
            col = self.table.column(attribute)
            bmo = [i for i in bmo if abs(col[i] - z) <= d]
        if not set(idx) <= set(bmo):
            raise Mismatch(f"{read.key}: answer rows outside the BMO set")
        want = len(bmo) if read.limit is None else min(read.limit, len(bmo))
        if len(idx) != want:
            raise Mismatch(f"{read.key}: {len(idx)} rows, want {want}")
        if read.order_by:
            expected = sorted(self._order_key(read, i) for i in bmo)
            got = sorted(self._order_key(read, i) for i in idx)
            if got != expected[:want]:
                raise Mismatch(f"{read.key}: LIMIT kept the wrong rows")

    def _order_key(self, read: Read, i: int) -> tuple:
        row = self.mirror.rows[i]
        return tuple(-row[a] if desc else row[a] for a, desc in read.order_by)

    def _check_order(self, read: Read, idx: list[int]) -> None:
        keys = [self._order_key(read, i) for i in idx]
        if keys != sorted(keys):
            raise Mismatch(f"{read.key}: answer not in ORDER BY order")

    def check_all(self, answers: list[tuple[int, Read, list]]) -> None:
        """Membership and non-dominance for all; full for first and last."""
        first: dict[str, int] = {}
        last: dict[str, int] = {}
        for n, (_, read, _) in enumerate(answers):
            first.setdefault(read.key, n)
            last[read.key] = n
        full = set(first.values()) | set(last.values())
        for n, (at, read, rows) in enumerate(answers):
            fingerprint = (read.key, self.state(at), _rows_key(rows))
            if n not in full and fingerprint in self._seen:
                continue
            self._seen.add(fingerprint)
            self.check(read, at, rows, full=n in full)

    def check_view(self, term: dict, groupby: tuple, at: int,
                   rows: list[dict[str, Any]]) -> None:
        """A subscriber's view rebuilt from deltas must be the BMO set."""
        idx = self.indices(rows)
        check_maximal(self.table, term, self.alive(at), idx, groupby)


def _rows_key(rows: list[dict[str, Any]]) -> str:
    return json.dumps(rows, sort_keys=True)
