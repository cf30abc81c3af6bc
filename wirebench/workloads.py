"""Seeded operation sequences for the three wire workloads.

A workload is a fixed list of operations built from ``--seed`` alone:
reads (``Read``), inserts and bag deletes.  The load generator's mirror of
the ``car`` relation (:class:`Mirror`) knows, for every row, the operation
that inserted it and the one that deleted it, so the relation as any read
saw it can be rebuilt after the run for checking.

Mutations are built so that each one changes the subscribed view: an
insert lands in a gap of the view's Pareto staircase (``LOWEST(price) (x)
LOWEST(mileage)``), where it is maximal and beats no maximal row, and a
delete removes such an earlier insert again.  Every mutation therefore
pushes exactly one delta, which is what the delta latency is timed on.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from reference import Table, prioritized, winnow

N_CARS = 50_000
#: The seed ``python -m repro.server`` uses for its demo car relation.
CAR_SEED = 11
FIRST_OID = 1_000_000

CATEGORIES = ("cabriolet", "passenger", "roadster", "suv", "van")
MAKES = ("Audi", "BMW", "Ford", "Mercedes", "Opel", "Toyota", "VW", "Volvo")
COLORS = ("black", "blue", "gray", "green", "red", "silver", "white", "yellow")


def lowest(a: str) -> dict[str, Any]:
    return {"type": "lowest", "attribute": a}


def highest(a: str) -> dict[str, Any]:
    return {"type": "highest", "attribute": a}


def around(a: str, z: float) -> dict[str, Any]:
    return {"type": "around", "attribute": a, "z": z}


def pos(a: str, values: list[str]) -> dict[str, Any]:
    return {"type": "pos", "attribute": a, "pos_set": sorted(values)}


def pareto(*children: dict[str, Any]) -> dict[str, Any]:
    return {"type": "pareto", "children": list(children)}


#: The subscribed view of every workload; mutations target its staircase.
STAIRCASE = pareto(lowest("price"), lowest("mileage"))


@dataclass
class Read:
    """One query: what goes on the wire and what it means."""

    key: str                      # semantic identity, for first/last checks
    request: dict[str, Any]       # keyword arguments of PreferenceClient.query
    term: dict[str, Any]          # the full term the answer must be BMO of
    where: list[tuple[str, str, Any]] = field(default_factory=list)
    groupby: tuple[str, ...] = ()
    top: int | None = None
    distance: tuple[str, float, float] | None = None  # BUT ONLY |a - z| <= d
    order_by: list[tuple[str, bool]] = field(default_factory=list)
    limit: int | None = None
    kind: str = "read"


@dataclass
class Mutation:
    kind: str                     # "insert" or "delete"
    rows: list[dict[str, Any]]


class Mirror:
    """Every row the relation ever holds, with its lifetime in op indices."""

    def __init__(self, rows: list[dict[str, Any]]):
        self.rows = list(rows)
        self.born = [-1] * len(rows)
        self.died: list[float] = [float("inf")] * len(rows)
        self.by_oid = {row["oid"]: i for i, row in enumerate(rows)}
        self._table: Table | None = None

    def insert(self, row: dict[str, Any], at: int) -> int:
        self.by_oid[row["oid"]] = len(self.rows)
        self.rows.append(row)
        self.born.append(at)
        self.died.append(float("inf"))
        self._table = None
        return len(self.rows) - 1

    def delete(self, oid: int, at: int) -> None:
        self.died[self.by_oid[oid]] = at

    @property
    def table(self) -> Table:
        if self._table is None:
            self._table = Table(self.rows)
        return self._table

    def alive(self, at: int) -> np.ndarray:
        """Rows present when op ``at`` ran (all earlier mutations applied)."""
        born = np.asarray(self.born)
        died = np.asarray(self.died)
        return (born < at) & (died > at)

    def alive_rows(self, at: int) -> list[dict[str, Any]]:
        return [self.rows[i] for i in np.flatnonzero(self.alive(at))]


def initial_rows() -> list[dict[str, Any]]:
    from repro.datasets.cars import generate_cars

    return [dict(r) for r in generate_cars(N_CARS, seed=CAR_SEED).rows()]


class Staircase:
    """The maximal (price, mileage) points of the subscribed view, per group."""

    def __init__(self, mirror: Mirror, groupby: tuple[str, ...]):
        self.groupby = groupby
        alive = np.ones(len(mirror.rows), dtype=bool)
        self.points: dict[tuple, list[tuple[int, int]]] = {}
        for i in winnow(mirror.table, STAIRCASE, alive, groupby):
            row = mirror.rows[i]
            point = (int(row["price"]), int(row["mileage"]))
            steps = self.points.setdefault(self.group(row), [])
            if point not in steps:
                insort(steps, point)

    def group(self, row: dict[str, Any]) -> tuple:
        return tuple(row[g] for g in self.groupby)

    def gap_row(
        self, rng: random.Random, template: dict[str, Any], oid: int
    ) -> dict[str, Any]:
        """A new row strictly inside a gap of its group's staircase."""
        steps = self.points[self.group(template)]
        gaps = [
            (a, b) for a, b in zip(steps, steps[1:])
            if b[0] - a[0] >= 2 and a[1] - b[1] >= 2
        ]
        (p1, m1), (p2, m2) = rng.choice(gaps)
        point = (rng.randint(p1 + 1, p2 - 1), rng.randint(m2 + 1, m1 - 1))
        insort(steps, point)
        return dict(template, oid=oid, price=point[0], mileage=point[1])

    def remove(self, row: dict[str, Any]) -> None:
        self.points[self.group(row)].remove((row["price"], row["mileage"]))


class Builder:
    """Appends operations while keeping the mirror and staircase current."""

    def __init__(self, seed: int, mirror: Mirror, groupby: tuple[str, ...]):
        self.rng = random.Random(seed)
        self.mirror = mirror
        self.ops: list[Read | Mutation] = []
        self.stairs = Staircase(mirror, groupby)
        self.templates = mirror.rows[:N_CARS]
        self.next_oid = FIRST_OID
        self.live_inserts: list[dict[str, Any]] = []

    def read(self, read: Read) -> None:
        self.ops.append(read)

    def insert(self, n: int = 1) -> None:
        at = len(self.ops)
        rows = []
        for _ in range(n):
            template = self.rng.choice(self.templates)
            row = self.stairs.gap_row(self.rng, template, self.next_oid)
            self.next_oid += 1
            self.mirror.insert(row, at)
            self.live_inserts.append(row)
            rows.append(row)
        self.ops.append(Mutation("insert", rows))

    def delete(self) -> None:
        at = len(self.ops)
        row = self.live_inserts.pop(self.rng.randrange(len(self.live_inserts)))
        self.stairs.remove(row)
        self.mirror.delete(row["oid"], at)
        self.ops.append(Mutation("delete", [row]))


def view_read(
    key: str, term: dict[str, Any], groupby: tuple[str, ...] = (),
    top: int | None = None, order_by: list[tuple[str, bool]] | None = None,
    select: list[str] | None = None, limit: int | None = None,
    tenant: str | None = None, base: dict[str, Any] | None = None,
) -> Read:
    spec: dict[str, Any] = {"relation": "car", "prefer": base or term}
    if groupby:
        spec["groupby"] = list(groupby)
    if top is not None:
        spec["top"] = top
    if order_by:
        spec["order_by"] = [[a, d] for a, d in order_by]
    if select:
        spec["select"] = select
    if limit is not None:
        spec["limit"] = limit
    request: dict[str, Any] = {"spec": spec}
    if tenant is not None:
        request["tenant"] = tenant
    return Read(key, request, term, groupby=groupby, top=top,
                order_by=list(order_by or ()), limit=limit)


# -- serve_views ---------------------------------------------------------------

N_TENANTS = 240
BASE_TERM = lowest("mileage")


def tenant_shapes() -> list[list[dict[str, Any]]]:
    """Four canonical profile shapes, each in three equivalent spellings."""
    shapes = []
    for i in range(4):
        near = around("price", 12_000 + 6_000 * i)
        strong = highest("horsepower")
        shapes.append([
            pareto(near, strong), pareto(strong, near),
            pareto(near, strong, near),
        ])
    return shapes


def tenant_profile(tenant: int, rng: random.Random) -> tuple[int, dict]:
    shape = tenant % 4
    return shape, rng.choice(tenant_shapes()[shape])


GROUPED = pareto(lowest("price"), highest("year"))
TOP_TERM = highest("horsepower")


def serve_view_reads() -> list[Read]:
    """The view-answered base queries (tenant reads are added per tenant)."""
    sel = ["oid", "make", "category", "price", "mileage", "year"]
    return [
        view_read("stairs.cheapest10", STAIRCASE, order_by=[("price", False)],
                  select=sel, limit=10),
        view_read("stairs.lowmiles5", STAIRCASE, order_by=[("mileage", False)],
                  limit=5),
        view_read("stairs.all", STAIRCASE),
        view_read("grouped.all", GROUPED, groupby=("category",)),
        view_read("grouped.newest", GROUPED, groupby=("category",),
                  order_by=[("year", True)], select=sel),
        view_read("top10.hp", TOP_TERM, top=10),
    ]


def tenant_read(tenant: int, shape: int, profile: dict[str, Any]) -> Read:
    return view_read(
        f"tenant.shape{shape}", prioritized(profile, BASE_TERM),
        tenant=f"t{tenant:03d}", base=BASE_TERM,
    )


# -- adhoc_plans ---------------------------------------------------------------


def adhoc_read(rng: random.Random, template: int, serial: int) -> Read:
    """One ad hoc query; parameters drawn so fingerprints rarely repeat.

    Makes and categories split the relation into equal parts, and numeric
    bounds vary over narrow ranges, so a template selects about the same
    number of rows on every seed: the draw changes the query, not its cost.
    """
    make = rng.choice(MAKES)
    category = rng.choice(CATEGORIES)
    year = 1995
    price = rng.randrange(24_000, 26_000, 10)
    key = f"adhoc{template}.{serial}"
    if template == 0:
        sql = (f"SELECT * FROM car WHERE make = '{make}' AND price <= {price} "
               f"PREFERRING LOWEST(price) AND HIGHEST(year)")
        return Read(key, {"sql": sql}, pareto(lowest("price"), highest("year")),
                    where=[("make", "=", make), ("price", "<=", price)])
    if template == 1:
        where = [("category", "=", category), ("year", ">=", year)]
        term = pareto(lowest("mileage"), highest("horsepower"))
        spec = {"relation": "car", "where": [list(w) for w in where],
                "prefer": term}
        return Read(key, {"spec": spec}, term, where=where)
    if template == 2:
        z = rng.randrange(18_000, 22_000, 10)
        sql = (f"SELECT * FROM car WHERE category = '{category}' AND "
               f"make = '{make}' PREFERRING price AROUND {z} AND "
               f"HIGHEST(horsepower)")
        return Read(key, {"sql": sql},
                    pareto(around("price", z), highest("horsepower")),
                    where=[("category", "=", category), ("make", "=", make)])
    if template == 3:
        colors = sorted(rng.sample(COLORS, 2))
        sql = (f"SELECT * FROM car WHERE year >= {year} AND make = '{make}' "
               f"PREFERRING color IN ('{colors[0]}', '{colors[1]}') "
               f"PRIOR TO LOWEST(mileage)")
        return Read(key, {"sql": sql},
                    prioritized(pos("color", colors), lowest("mileage")),
                    where=[("year", ">=", year), ("make", "=", make)])
    if template == 4:
        where = [("make", "=", make), ("category", "=", category)]
        spec = {"relation": "car", "where": [list(w) for w in where],
                "prefer": pareto(lowest("price"), lowest("mileage")),
                "cascade": [highest("year")]}
        return Read(key, {"spec": spec},
                    prioritized(spec["prefer"], highest("year")), where=where)
    if template == 5:
        z = rng.randrange(18_000, 22_000, 10)
        d = rng.randrange(2_000, 3_000, 10)
        sql = (f"SELECT * FROM car WHERE make = '{make}' PREFERRING price "
               f"AROUND {z} BUT ONLY DISTANCE(price) <= {d}")
        return Read(key, {"sql": sql}, around("price", z),
                    where=[("make", "=", make)], distance=("price", z, d))
    if template == 6:
        k = rng.randint(5, 10)
        transmission = rng.choice(("automatic", "manual"))
        sql = (f"SELECT * FROM car WHERE transmission = '{transmission}' AND "
               f"year >= {year} PREFERRING HIGHEST(horsepower) TOP {k}")
        return Read(key, {"sql": sql}, highest("horsepower"), top=k,
                    where=[("transmission", "=", transmission),
                           ("year", ">=", year)])
    where = [("price", "<=", price)]
    term = pareto(lowest("mileage"), highest("year"))
    spec = {"relation": "car", "where": [list(w) for w in where],
            "prefer": term, "groupby": ["category"]}
    return Read(key, {"spec": spec}, term, where=where, groupby=("category",))


ADHOC_TEMPLATES = 8
#: One cycle of the mix.  The two slowest templates (top-k and grouped
#: Pareto) run twice, so the 32 slowest reads of a run belong to them and
#: the read tail (ten samples beyond it) falls inside that mass.  With
#: every template once, the tail fell on the boundary between templates:
#: the maximum of the faster ones, which swung by a third between runs.
ADHOC_CYCLE = (0, 1, 2, 3, 4, 5, 6, 7, 6, 7)


# -- durable_writes ------------------------------------------------------------

DURABLE_GROUP = ("category",)
#: Mutations logged after the checkpoint of the durable data directory.
DURABLE_TAIL = 20
#: The seed of those mutations (the data directory is the same every run).
DATADIR_SEED = 0
DURABLE_TOP = lowest("price")


def durable_reads() -> list[Read]:
    return [
        view_read("stairs.by_category", STAIRCASE, groupby=DURABLE_GROUP),
        view_read("stairs.by_category.cheap", STAIRCASE, groupby=DURABLE_GROUP,
                  order_by=[("price", False)],
                  select=["oid", "category", "price", "mileage"], limit=12),
        view_read("top10.cheapest", DURABLE_TOP, top=10),
    ]


def durable_mutation(builder: Builder, step: int) -> None:
    """Mostly single-row inserts, some 10-row inserts, bag deletes."""
    kind = step % 5
    if kind == 1:
        builder.insert(10)
    elif kind == 4 and builder.live_inserts:
        builder.delete()
    else:
        builder.insert(1)


# -- a whole workload ----------------------------------------------------------

#: Each class of the timed sequence (reads, inserts, deltas) gets at least
#: this many samples, so its tail percentile has ten samples beyond it.
MIN_SAMPLES = 40


class Plan:
    """What a workload runs: server flags, warm-up and the timed sequence."""

    def __init__(self, name: str, seed: int, seconds: int):
        self.name = name
        self.seed = seed
        self.mirror = Mirror(initial_rows())
        self.server_args: list[str] = []
        self.profiles: dict[str, dict[str, Any]] = {}
        self.warm_reads: list[Read] = []
        self.subscription: dict[str, Any] = {"prefer": STAIRCASE}
        self.sub_groupby: tuple[str, ...] = ()
        self.tail = 0          # leading mutations already in the data dir
        self.cycle = 1         # ops in one whole cycle of the operation mix
        # Server and load generator share one CPU, so a request never waits
        # for an idle virtual CPU to wake; only plan execution can use a
        # second core, and only ``adhoc_plans`` runs plans.
        self.one_cpu = name != "adhoc_plans"
        rounds = max(MIN_SAMPLES, round(4 * seconds))
        getattr(self, "_" + name)(rounds)

    def _serve_views(self, rounds: int) -> None:
        b = Builder(self.seed, self.mirror, ())
        rng = random.Random(self.seed * 7919 + 1)
        tenants = []
        for t in range(N_TENANTS):
            shape, profile = tenant_profile(t, rng)
            self.profiles[f"t{t:03d}"] = profile
            tenants.append(tenant_read(t, shape, profile))
        base = serve_view_reads()
        self.server_args = ["--shared-view-cap", "256"]
        self.warm_reads = base + base + tenants + base
        # Every round reads each base query twelve times and 48 random
        # tenants, in a shuffled order: the mix is the same on every seed.
        # Reads take under a millisecond, so this workload runs twice the
        # rounds: the host's speed drifts over tens of seconds, and a timed
        # window as long as the other workloads' (~12 s) averages it out.
        for _ in range(2 * rounds):
            b.insert(1)
            reads = base * 12 + [rng.choice(tenants) for _ in range(48)]
            rng.shuffle(reads)
            for read in reads:
                b.read(read)
        self.cycle = 1 + len(reads)
        self.ops = b.ops

    def _adhoc_plans(self, rounds: int) -> None:
        b = Builder(self.seed, self.mirror, ())
        warm = random.Random(self.seed * 7919 + 2)
        self.warm_reads = [adhoc_read(warm, t, -1 - t)
                           for t in range(ADHOC_TEMPLATES)]
        # Twice the base rounds, in whole cycles.
        cycles = max(1, round(2 * rounds / len(ADHOC_CYCLE)))
        for r in range(cycles * len(ADHOC_CYCLE)):
            b.insert(1)
            b.read(adhoc_read(b.rng, ADHOC_CYCLE[r % len(ADHOC_CYCLE)], r))
        self.cycle = 2 * len(ADHOC_CYCLE)
        self.ops = b.ops

    def _durable_writes(self, rounds: int) -> None:
        # The WAL tail comes from a fixed seed, so one data directory serves
        # every run; the timed sequence after it comes from ``seed``.
        b = Builder(DATADIR_SEED, self.mirror, DURABLE_GROUP)
        self.tail = DURABLE_TAIL
        for step in range(self.tail):
            durable_mutation(b, step)
        b.rng = random.Random(self.seed)
        reads = durable_reads()
        self.warm_reads = reads + reads
        self.sub_groupby = DURABLE_GROUP
        self.subscription = {"prefer": STAIRCASE,
                             "groupby": list(DURABLE_GROUP)}
        # Four of every five mutations insert.  Twice the base rounds, in
        # whole cycles: a timed window (~12 s when the host is slow) long
        # enough to average out its drift.
        for r in range(5 * round(2 * rounds / 5)):
            durable_mutation(b, self.tail + r)
            b.read(reads[r % 3])
            b.read(reads[(r + 1) % 3])
        self.cycle = 5 * 3  # each of the five mutation steps, two reads each
        self.ops = b.ops

    @property
    def durable(self) -> bool:
        return self.name == "durable_writes"
