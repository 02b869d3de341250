"""Every name a ``repro`` module lists in ``__all__`` exists.

Deleting a definition and leaving its export behind breaks
``from repro.<module> import *`` for that module only, which no other
test imports that way.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, 'repro.')
    if not info.name.endswith('__main__'))


def test_every_package_is_walked():
    assert {'repro.fol', 'repro.rdbms.backends.sqlite',
            'repro.sql.translate'} <= set(MODULES)


@pytest.mark.parametrize('name', ['repro'] + MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(name)
    exported = getattr(module, '__all__', ())
    assert [export for export in exported
            if not hasattr(module, export)] == []
    namespace: dict = {}
    exec(f'from {name} import *', namespace)
    assert set(exported) <= set(namespace)
