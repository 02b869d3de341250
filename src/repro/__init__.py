"""repro — a Python reproduction of BIRDS (VLDB 2020).

*Programmable View Update Strategies on Relations*, Van-Dang Tran,
Hiroyuki Kato, Zhenjiang Hu.

The library lets you

* write a **view update strategy** as a Datalog *putback program* over
  delta relations (``+r`` / ``-r``),
* **validate** it (well-definedness + GetPut + PutGet, Algorithm 1),
  deriving the unique view definition it induces,
* **incrementalize** it (Lemma 5.2 / Appendix C),
* **compile** it to PostgreSQL-style SQL (view + INSTEAD OF triggers), and
* **run** it in an in-memory RDBMS with cascading updatable views.

Quickstart::

    from repro import DatabaseSchema, UpdateStrategy, validate, Engine

    sources = DatabaseSchema.build(r1=['a'], r2=['a'])
    strategy = UpdateStrategy.parse('v', sources, '''
        -r1(X) :- r1(X), not v(X).
        -r2(X) :- r2(X), not v(X).
        +r1(X) :- v(X), not r1(X), not r2(X).
    ''')
    report = validate(strategy)          # VALID; derives v = r1 ∪ r2
    engine = Engine(sources)
    engine.define_view(strategy, report=report)
    engine.insert('v', (3,))             # lands in r1
"""

import logging

from repro.core.incremental import incrementalize
from repro.core.lvgn import classify, is_lvgn
from repro.core.strategy import UpdateStrategy
from repro.core.validation import ValidationReport, validate
from repro.datalog.ast import Program, Rule
from repro.datalog.parser import parse_program
from repro.datalog.pretty import pretty
from repro.errors import (ConstraintViolation, ContradictionError,
                          DatalogSyntaxError, FragmentError, ReproError,
                          SafetyError, SchemaError, ValidationError,
                          ViewUpdateError)
from repro.fol.solver import SolverConfig
from repro.rdbms.engine import Engine
from repro.relational.database import Database
from repro.relational.delta import Delta, DeltaSet
from repro.relational.schema import (AttributeType, DatabaseSchema,
                                     RelationSchema)
from repro.sql.triggers import compile_strategy_to_sql

__version__ = '1.0.0'

# Library convention: silent unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    'incrementalize', 'classify', 'is_lvgn', 'UpdateStrategy',
    'ValidationReport', 'validate', 'Program', 'Rule', 'parse_program',
    'pretty', 'ConstraintViolation', 'ContradictionError',
    'DatalogSyntaxError', 'FragmentError', 'ReproError', 'SafetyError',
    'SchemaError', 'ValidationError', 'ViewUpdateError', 'SolverConfig',
    'Engine', 'Database', 'Delta', 'DeltaSet', 'AttributeType',
    'DatabaseSchema', 'RelationSchema', 'compile_strategy_to_sql',
    '__version__',
]
