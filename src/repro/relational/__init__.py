"""Relational storage substrate: schemas, instances, deltas (§2.1, §3.1)."""

from repro.relational.database import Database
from repro.relational.delta import Delta, DeltaSet
from repro.relational.schema import (AttributeType, DatabaseSchema,
                                     RelationSchema)

__all__ = ['Database', 'Delta', 'DeltaSet',
           'AttributeType', 'DatabaseSchema', 'RelationSchema']
