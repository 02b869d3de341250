"""Strategy file format and CLI tests."""

import json

import pytest

from repro.cli import main
from repro.core.strategyfile import (dumps_strategy, load_strategy,
                                     loads_strategy)
from repro.errors import DatalogSyntaxError, SchemaError

LUXURY_FILE = """
% selection view
.source items(iid: int, iname: string, price: int).
.view luxuryitems(iid: int, iname: string, price: int).

.get
luxuryitems(I, N, P) :- items(I, N, P), P > 1000.
.end

⊥ :- luxuryitems(I, N, P), not P > 1000.
+items(I, N, P) :- luxuryitems(I, N, P), not items(I, N, P).
expensive(I, N, P) :- items(I, N, P), P > 1000.
-items(I, N, P) :- expensive(I, N, P), not luxuryitems(I, N, P).
"""


class TestStrategyFile:

    def test_loads_full_file(self):
        strategy = loads_strategy(LUXURY_FILE)
        assert strategy.view.name == 'luxuryitems'
        assert strategy.view.types == ('int', 'string', 'int')
        assert strategy.sources.names() == ('items',)
        assert strategy.expected_get is not None
        assert strategy.program_size() == 4

    def test_types_default_to_string(self):
        strategy = loads_strategy("""
            .source ed(emp, dept).
            .view ced(emp, dept).
            +ed(E, D) :- ced(E, D), not ed(E, D).
            -ed(E, D) :- ed(E, D), not ced(E, D).
        """)
        assert strategy.sources['ed'].types == ('string', 'string')

    def test_type_aliases(self):
        strategy = loads_strategy("""
            .source t(a: integer, b: real, c: text, d: datetime).
            .view v(a: integer).
            +t(A, B, C, D) :- v(A), B = 0.5, C = 'x', D = '2020-01-01'.
            -t(A, B, C, D) :- t(A, B, C, D), not v(A).
        """)
        assert strategy.sources['t'].types == ('int', 'float', 'string',
                                               'date')

    def test_missing_view_rejected(self):
        with pytest.raises(SchemaError):
            loads_strategy('.source r(a: int).\n+r(X) :- v(X).')

    def test_missing_sources_rejected(self):
        with pytest.raises(SchemaError):
            loads_strategy('.view v(a: int).\n+r(X) :- v(X).')

    def test_unclosed_get_block(self):
        with pytest.raises(DatalogSyntaxError):
            loads_strategy("""
                .source r(a: int).
                .view v(a: int).
                .get
                v(X) :- r(X).
            """)

    def test_unknown_type_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            loads_strategy('.source r(a: blob).\n.view v(a: int).\n'
                           '+r(X) :- v(X).')

    def test_malformed_declaration(self):
        with pytest.raises(DatalogSyntaxError):
            loads_strategy('.source r a int.\n.view v(a: int).')

    def test_round_trip(self):
        strategy = loads_strategy(LUXURY_FILE)
        text = dumps_strategy(strategy)
        again = loads_strategy(text)
        assert again.view == strategy.view
        assert again.putdelta == strategy.putdelta
        assert again.expected_get == strategy.expected_get

    def test_file_io(self, tmp_path):
        strategy = loads_strategy(LUXURY_FILE)
        path = tmp_path / 'lux.dlog'
        path.write_text(LUXURY_FILE, encoding='utf-8')
        assert load_strategy(path).view == strategy.view


@pytest.fixture
def luxury_path(tmp_path):
    path = tmp_path / 'luxuryitems.dlog'
    path.write_text(LUXURY_FILE, encoding='utf-8')
    return str(path)


@pytest.fixture
def invalid_path(tmp_path):
    path = tmp_path / 'broken.dlog'
    path.write_text("""
        .source r1(a: int).
        .view v(a: int).
        +r1(X) :- v(X), r1(X).
        -r1(X) :- v(X), r1(X).
    """, encoding='utf-8')
    return str(path)


class TestCli:

    def test_validate_valid(self, luxury_path, capsys):
        assert main(['validate', luxury_path, '--quick']) == 0
        out = capsys.readouterr().out
        assert 'VALID' in out

    def test_validate_json(self, luxury_path, capsys):
        assert main(['validate', luxury_path, '--quick', '--json']) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload['valid'] is True
        assert payload['fragment'] == 'LVGN-Datalog'
        assert any('PutGet' in c['name'] for c in payload['checks'])

    def test_validate_invalid_exit_code(self, invalid_path, capsys):
        assert main(['validate', invalid_path, '--quick']) == 1
        assert 'INVALID' in capsys.readouterr().out

    def test_derive(self, luxury_path, capsys):
        assert main(['derive', luxury_path, '--quick']) == 0
        assert 'P > 1000' in capsys.readouterr().out

    def test_fragment(self, luxury_path, capsys):
        assert main(['fragment', luxury_path]) == 0
        out = capsys.readouterr().out
        assert 'LVGN-Datalog' in out
        assert 'operators   : S' in out
        assert 'constraints : C' in out

    def test_compile_to_file(self, luxury_path, tmp_path, capsys):
        out_path = tmp_path / 'out.sql'
        assert main(['compile', luxury_path, '--quick', '-o',
                     str(out_path)]) == 0
        sql = out_path.read_text(encoding='utf-8')
        assert 'INSTEAD OF' in sql

    def test_compile_invalid_refused(self, invalid_path, capsys):
        assert main(['compile', invalid_path, '--quick']) == 1

    def test_error_reporting(self, tmp_path, capsys):
        path = tmp_path / 'bad.dlog'
        path.write_text('.source r(a: int).\n.view v(a: int).\n'
                        '+r(X :- v(X).', encoding='utf-8')
        assert main(['validate', str(path)]) == 2
        assert 'error:' in capsys.readouterr().err

    def test_shipped_example_file(self, capsys):
        assert main(['fragment', 'examples/luxuryitems.dlog']) == 0
