"""Random data generation for tests and benchmark workloads.

The generators mirror the paper's experimental setup ("we randomly generate
data for the base tables", §6.2.2): deterministic given a seed, schema-typed
values, and configurable cardinalities.
"""

from __future__ import annotations

import random
import string

from repro.relational.database import Database
from repro.relational.schema import AttributeType, DatabaseSchema

__all__ = ['ValueSampler', 'random_database', 'random_rows']


class ValueSampler:
    """Per-type random value factory with a controllable value universe.

    ``domain_ratio`` controls duplicate density: values are drawn from a
    pool of roughly ``rows * domain_ratio`` distinct values per column.
    """

    def __init__(self, rng: random.Random, universe: int = 1_000_000):
        self.rng = rng
        self.universe = universe

    def value(self, type_name: str):
        if type_name == AttributeType.INT:
            return self.rng.randrange(self.universe)
        if type_name == AttributeType.FLOAT:
            return round(self.rng.random() * self.universe, 3)
        if type_name == AttributeType.DATE:
            year = self.rng.randrange(1950, 2020)
            month = self.rng.randrange(1, 13)
            day = self.rng.randrange(1, 29)
            return f'{year:04d}-{month:02d}-{day:02d}'
        letters = string.ascii_lowercase
        return ''.join(self.rng.choice(letters) for _ in range(8))


def random_rows(schema, count: int, rng: random.Random | None = None,
                column_pools: dict[str, list] | None = None
                ) -> set[tuple]:
    """``count`` random tuples fitting ``schema`` (a RelationSchema).

    ``column_pools`` optionally pins a column (by attribute name) to a
    finite pool — handy for foreign keys and selective predicates.
    """
    rng = rng or random.Random(0)
    sampler = ValueSampler(rng)
    rows: set[tuple] = set()
    attempts = 0
    while len(rows) < count and attempts < count * 3 + 100:
        attempts += 1
        row = []
        for attr, type_name in zip(schema.attributes, schema.types):
            pool = column_pools.get(attr) if column_pools else None
            if pool is not None:
                row.append(rng.choice(pool))
            else:
                row.append(sampler.value(type_name))
        rows.add(tuple(row))
    return rows


def random_database(schema: DatabaseSchema, sizes: dict[str, int],
                    seed: int = 0,
                    column_pools: dict[str, dict[str, list]] | None = None
                    ) -> Database:
    """A random instance of ``schema`` with per-relation cardinalities."""
    rng = random.Random(seed)
    data = {}
    for rel in schema:
        count = sizes.get(rel.name, 0)
        pools = column_pools.get(rel.name) if column_pools else None
        data[rel.name] = random_rows(rel, count, rng, pools)
    return Database.from_dict(data)
