"""The LVGN entries' ∂put, pinned.

``golden/lvgn_dput.json`` holds, for each of the 20 Table 1 entries in
the LVGN fragment, its ∂put (Lemma 5.2's substitution,
:func:`~repro.core.incremental.incrementalize_lvgn`) as pretty-printed
lines.  A change to the Appendix-C path or to the shared helpers must
leave this file as it is; regenerate it with
``PYTHONPATH=src python tests/test_dput_golden.py`` only when an LVGN
∂put is meant to change.
"""

import json
from pathlib import Path

from repro.benchsuite.catalog import ALL_ENTRIES
from repro.core.lvgn import is_lvgn
from repro.datalog.pretty import pretty

GOLDEN = Path(__file__).parent / 'golden' / 'lvgn_dput.json'


def _lvgn_dputs() -> dict[str, list[str]]:
    programs = {}
    for entry in ALL_ENTRIES:
        if not entry.expressible:
            continue
        strategy = entry.strategy()
        if is_lvgn(strategy.putdelta, entry.name):
            programs[entry.name] = \
                pretty(strategy.incremental_putdelta).splitlines()
    return programs


def test_lvgn_dput_text():
    expected = json.loads(GOLDEN.read_text())
    assert len(expected) == 20
    assert _lvgn_dputs() == expected


if __name__ == '__main__':
    GOLDEN.write_text(json.dumps(_lvgn_dputs(), indent=1, sort_keys=True,
                                 ensure_ascii=False) + '\n')
