"""Hand-worked answers for the benchmark's reference BMO evaluator.

Run from the repository root::

    python3 -m pytest wirebench/test_reference.py -q
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import (  # noqa: E402
    Mismatch,
    Table,
    check_maximal,
    check_top_k,
    prioritized,
    winnow,
)

LOW_PRICE = {"type": "lowest", "attribute": "price"}
LOW_MILEAGE = {"type": "lowest", "attribute": "mileage"}
HIGH_YEAR = {"type": "highest", "attribute": "year"}
PRICE_NEAR_10 = {"type": "around", "attribute": "price", "z": 10}
RED = {"type": "pos", "attribute": "color", "pos_set": ["red"]}


def pareto(*children):
    return {"type": "pareto", "children": list(children)}


CARS = Table([
    {"oid": 0, "price": 10, "mileage": 50, "year": 1999, "color": "red", "make": "A"},
    {"oid": 1, "price": 20, "mileage": 20, "year": 2000, "color": "blue", "make": "A"},
    {"oid": 2, "price": 30, "mileage": 10, "year": 1998, "color": "red", "make": "B"},
    {"oid": 3, "price": 30, "mileage": 30, "year": 2001, "color": "gray", "make": "B"},
    {"oid": 4, "price": 40, "mileage": 40, "year": 1997, "color": "red", "make": "A"},
    {"oid": 5, "price": 10, "mileage": 50, "year": 1999, "color": "blue", "make": "B"},
])
ALL = np.ones(len(CARS), dtype=bool)


def test_pareto_skyline_by_hand():
    # (10,50) x2, (20,20), (30,10) form the staircase; (30,30) and (40,40)
    # are beaten by (20,20).  Rows 0 and 5 tie on both attributes.
    assert sorted(winnow(CARS, pareto(LOW_PRICE, LOW_MILEAGE), ALL)) == [0, 1, 2, 5]


def test_three_way_pareto_keeps_the_newest():
    # Row 3 is the only 2001 car, so HIGHEST(year) saves it.
    got = winnow(CARS, pareto(LOW_PRICE, LOW_MILEAGE, HIGH_YEAR), ALL)
    assert sorted(got) == [0, 1, 2, 3, 5]


def test_prioritized_is_lexicographic():
    # Cheapest first (rows 0 and 5 at 10), then the newer one: both 1999.
    assert sorted(winnow(CARS, prioritized(LOW_PRICE, HIGH_YEAR), ALL)) == [0, 5]
    # Red first: rows 0, 2, 4; among them lowest mileage wins, row 2.
    assert winnow(CARS, prioritized(RED, LOW_MILEAGE), ALL) == [2]


def test_pos_in_pareto():
    # The red car with the lowest mileage beats every other car.
    assert winnow(CARS, pareto(RED, LOW_MILEAGE), ALL) == [2]
    # Without red cars, blue and gray share a level but differ in value:
    # under projection equality neither beats the other on colour, so
    # mileage decides only among cars of the same colour.
    table = Table([
        {"color": "blue", "mileage": 10},
        {"color": "gray", "mileage": 20},
        {"color": "blue", "mileage": 30},
    ])
    got = winnow(table, pareto(RED, LOW_MILEAGE), np.ones(3, dtype=bool))
    assert sorted(got) == [0, 1]


def test_around_ties_at_equal_distance_stay_incomparable():
    table = Table([
        {"price": 8, "year": 2000},
        {"price": 12, "year": 2000},
        {"price": 10, "year": 1990},
        {"price": 20, "year": 2001},
    ])
    alive = np.ones(4, dtype=bool)
    got = winnow(table, pareto(PRICE_NEAR_10, HIGH_YEAR), alive)
    # 8 and 12 are both 2 away from 10 but are different values: both stay.
    assert sorted(got) == [0, 1, 2, 3]
    assert winnow(table, PRICE_NEAR_10, alive) == [2]


def test_grouped_winnow():
    got = winnow(CARS, LOW_PRICE, ALL, groupby=("make",))
    assert sorted(got) == [0, 5]
    got = winnow(CARS, LOW_MILEAGE, ALL, groupby=("make",))
    assert sorted(got) == [1, 2]


def test_dead_rows_are_ignored():
    alive = ALL.copy()
    alive[1] = False
    # Without (20, 20), (30, 30) is still beaten, now by (30, 10).
    got = winnow(CARS, pareto(LOW_PRICE, LOW_MILEAGE), alive)
    assert sorted(got) == [0, 2, 5]


def test_check_accepts_the_exact_answer():
    check_maximal(CARS, pareto(LOW_PRICE, LOW_MILEAGE), ALL, [0, 1, 2, 5])


def test_check_rejects_an_added_dominated_row():
    with pytest.raises(Mismatch, match="dominates"):
        check_maximal(CARS, pareto(LOW_PRICE, LOW_MILEAGE), ALL, [0, 1, 2, 5, 3])


def test_check_rejects_a_dropped_maximal_row():
    with pytest.raises(Mismatch, match="missing"):
        check_maximal(CARS, pareto(LOW_PRICE, LOW_MILEAGE), ALL, [0, 1, 5])


def test_check_rejects_a_deleted_row():
    alive = ALL.copy()
    alive[2] = False
    with pytest.raises(Mismatch, match="not in the relation"):
        check_maximal(CARS, pareto(LOW_PRICE, LOW_MILEAGE), alive, [0, 1, 2, 5])


def test_grouped_check_rejects_a_cross_group_miss():
    with pytest.raises(Mismatch, match="missing"):
        check_maximal(CARS, LOW_PRICE, ALL, [0], groupby=("make",))


def test_top_k():
    check_top_k(CARS, LOW_PRICE, ALL, 3, [0, 5, 1])
    # Rows 2 and 3 tie at price 30 for the last place: either may fill it.
    check_top_k(CARS, LOW_PRICE, ALL, 4, [0, 5, 1, 3])
    with pytest.raises(Mismatch, match="below"):
        check_top_k(CARS, LOW_PRICE, ALL, 3, [0, 5, 2])
    with pytest.raises(Mismatch, match="misses"):
        check_top_k(CARS, LOW_PRICE, ALL, 3, [0, 1, 2])
    with pytest.raises(Mismatch, match="rows"):
        check_top_k(CARS, LOW_PRICE, ALL, 3, [0, 5])
