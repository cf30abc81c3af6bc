"""Reference BMO evaluator for the wire benchmark.

Independent of ``repro.engine`` and ``repro.query``: it reads preference
terms in their JSON wire form and decides dominance pair by pair, straight
from Kießling's definitions, over a column view of the load generator's
own mirror of the relation.

* Base terms (``lowest``, ``highest``, ``around``, ``pos``) are weak orders
  given by a score: ``x <_P y`` iff ``score(x) < score(y)``.
* ``pareto`` (Definition 8): every component better-or-projection-equal,
  at least one strictly better.
* ``prioritized`` (Definition 9): lexicographic; a later component counts
  only where all earlier ones are projection-equal.

Dominance of one row over all others is evaluated with NumPy, one row at a
time, so checking an answer ``A`` over ``n`` rows costs ``O(|A| * n)``
comparisons and computing a winnow costs ``O(|BMO| * n)``.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

BASE_TYPES = ("lowest", "highest", "around", "pos")


class Mismatch(AssertionError):
    """An answer the reference does not accept."""


def attributes(term: Mapping[str, Any]) -> tuple[str, ...]:
    """The attributes a term ranges over, in first-seen order."""
    if term["type"] in BASE_TYPES:
        return (term["attribute"],)
    out: dict[str, None] = {}
    for child in term["children"]:
        out.update(dict.fromkeys(attributes(child)))
    return tuple(out)


def prioritized(*terms: Mapping[str, Any]) -> dict[str, Any]:
    """``terms[0] & terms[1] & ...`` in wire form (single terms pass through)."""
    return dict(terms[0]) if len(terms) == 1 else {
        "type": "prioritized", "children": [dict(t) for t in terms]
    }


class Table:
    """Columns of a row list, built lazily per attribute."""

    def __init__(self, rows: Sequence[Mapping[str, Any]]):
        self.rows = rows
        self._columns: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        col = self._columns.get(name)
        if col is None:
            values = [row[name] for row in self.rows]
            if all(isinstance(v, (int, float)) for v in values):
                col = np.asarray(values, dtype=np.float64)
            else:
                col = np.asarray(values, dtype=object)
            self._columns[name] = col
        return col


class Evaluator:
    """Dominance masks for one term over one table (scores cached)."""

    def __init__(self, term: Mapping[str, Any], table: Table):
        self.term = term
        self.table = table
        self._scores: dict[int, np.ndarray] = {}

    def score(self, term: Mapping[str, Any]) -> np.ndarray:
        """Higher is better; defined for base terms only."""
        cached = self._scores.get(id(term))
        if cached is not None:
            return cached
        kind = term["type"]
        col = self.table.column(term["attribute"])
        if kind == "lowest":
            out = -col
        elif kind == "highest":
            out = col
        elif kind == "around":
            out = -np.abs(col - float(term["z"]))
        elif kind == "pos":
            out = np.isin(col, list(term["pos_set"])).astype(np.float64)
        else:
            raise ValueError(f"no score for term type {kind!r}")
        self._scores[id(term)] = out
        return out

    def equal(self, term: Mapping[str, Any], i: int) -> np.ndarray:
        """Rows projection-equal to row ``i`` on the term's attributes."""
        mask = np.ones(len(self.table), dtype=bool)
        for name in attributes(term):
            col = self.table.column(name)
            mask &= col == col[i]
        return mask

    def worse(self, term: Mapping[str, Any], i: int) -> np.ndarray:
        """Rows ``j`` with ``j <_term i``: row ``i`` dominates them."""
        kind = term["type"]
        if kind in BASE_TYPES:
            score = self.score(term)
            return score < score[i]
        children = term["children"]
        if kind == "pareto":
            tolerable = np.ones(len(self.table), dtype=bool)
            strict = np.zeros(len(self.table), dtype=bool)
            for child in children:
                worse = self.worse(child, i)
                strict |= worse
                tolerable &= worse | self.equal(child, i)
            return tolerable & strict
        if kind == "prioritized":
            out = np.zeros(len(self.table), dtype=bool)
            tied = np.ones(len(self.table), dtype=bool)
            for child in children:
                out |= tied & self.worse(child, i)
                tied &= self.equal(child, i)
            return out
        raise ValueError(f"unsupported term type {kind!r}")

    def key(self, term: Mapping[str, Any] | None = None) -> np.ndarray:
        """A linear extension: ``x <_term y`` implies ``key(x) < key(y)``."""
        term = self.term if term is None else term
        kind = term["type"]
        if kind in BASE_TYPES:
            return _dense(self.score(term))
        keys = [self.key(child) for child in term["children"]]
        if kind == "pareto":
            return np.sum(keys, axis=0)
        # Lexicographic: np.lexsort takes the most significant key last.
        order = np.lexsort(tuple(reversed(keys)))
        stacked = np.stack(keys)[:, order]
        step = np.any(stacked[:, 1:] != stacked[:, :-1], axis=0)
        ranks = np.empty(len(order), dtype=np.int64)
        ranks[order] = np.concatenate(([0], np.cumsum(step)))
        return ranks


def _dense(values: np.ndarray) -> np.ndarray:
    return np.unique(values, return_inverse=True)[1].astype(np.int64)


def group_mask(table: Table, groupby: Sequence[str], i: int) -> np.ndarray:
    mask = np.ones(len(table), dtype=bool)
    for name in groupby:
        col = table.column(name)
        mask &= col == col[i]
    return mask


def winnow(
    table: Table,
    term: Mapping[str, Any],
    alive: np.ndarray,
    groupby: Sequence[str] = (),
) -> list[int]:
    """Indices of the maximal rows among ``alive`` (grouped when asked).

    Rows are visited best key first; a row no earlier maximum dominates is
    itself maximal, because any dominator would have a larger key and, by
    transitivity, a maximal dominator visited before it.
    """
    ev = Evaluator(term, table)
    key = ev.key()
    candidates = np.flatnonzero(alive)
    order = candidates[np.argsort(-key[candidates], kind="stable")]
    remaining = alive.copy()
    out: list[int] = []
    for i in order:
        if not remaining[i]:
            continue
        out.append(int(i))
        beaten = ev.worse(term, i)
        if groupby:
            beaten &= group_mask(table, groupby, i)
        remaining &= ~beaten
    return out


def check_maximal(
    table: Table,
    term: Mapping[str, Any],
    alive: np.ndarray,
    answer: Iterable[int],
    groupby: Sequence[str] = (),
    complete: bool = True,
) -> None:
    """Accept ``answer`` as the BMO set of ``alive`` rows, or raise.

    Always checked: every answer row is alive and no answer row dominates
    another.  With ``complete``, every alive row outside the answer must be
    dominated by an answer row; together these make the answer exactly the
    set of maximal rows.
    """
    answer = list(answer)
    if len(set(answer)) != len(answer):
        raise Mismatch("answer holds the same row twice")
    dead = [i for i in answer if not alive[i]]
    if dead:
        raise Mismatch(f"answer rows not in the relation: {dead[:3]}")
    if not complete:
        # Non-dominance needs the answer rows only: check them on their own.
        sub = Table([table.rows[i] for i in answer])
        table, alive, answer = sub, np.ones(len(sub), dtype=bool), range(len(sub))
    ev = Evaluator(term, table)
    in_answer = np.zeros(len(table), dtype=bool)
    in_answer[answer] = True
    covered = in_answer.copy()
    for i in answer:
        beaten = ev.worse(term, i)
        if groupby:
            beaten &= group_mask(table, groupby, i)
        if np.any(beaten & in_answer):
            j = int(np.flatnonzero(beaten & in_answer)[0])
            raise Mismatch(f"answer row {i} dominates answer row {j}")
        covered |= beaten
    if complete:
        missing = np.flatnonzero(alive & ~covered)
        if len(missing):
            raise Mismatch(
                f"{len(missing)} maximal row(s) missing from the answer, "
                f"e.g. row {int(missing[0])}"
            )


def top_k(
    table: Table,
    term: Mapping[str, Any],
    alive: np.ndarray,
    k: int,
) -> tuple[float, set[int], set[int]]:
    """The k-best cut of a score term: ``(threshold, must, may)``.

    Every row scoring above the k-th best score must be in a strict top-k
    answer; rows scoring exactly the threshold may fill the rest.
    """
    score = Evaluator(term, table).score(term)
    rows = np.flatnonzero(alive)
    if len(rows) == 0:
        return float("inf"), set(), set()
    ranked = np.sort(score[rows])[::-1]
    threshold = float(ranked[min(k, len(rows)) - 1])
    must = {int(i) for i in rows[score[rows] > threshold]}
    may = {int(i) for i in rows[score[rows] == threshold]}
    return threshold, must, may


def check_top_k(
    table: Table,
    term: Mapping[str, Any],
    alive: np.ndarray,
    k: int,
    answer: Iterable[int],
) -> None:
    """Accept ``answer`` as a strict top-``k`` of ``alive`` rows, or raise."""
    answer = set(answer)
    _, must, may = top_k(table, term, alive, k)
    want = min(k, int(alive.sum()))
    if len(answer) != want:
        raise Mismatch(f"top-{k} answer has {len(answer)} rows, want {want}")
    if not must <= answer:
        raise Mismatch(f"top-{k} answer misses {len(must - answer)} row(s)")
    if not answer <= must | may:
        raise Mismatch(f"top-{k} answer holds rows below the k-th score")
