"""Reports what the differential oracle's put axis checked."""

import sys


def pytest_terminal_summary(terminalreporter):
    differential = sys.modules.get(f'{__package__}.test_differential')
    counts = getattr(differential, 'PUT_AXIS', None)
    if counts:
        terminalreporter.write_line(
            f"put axis: {counts['checked']} view-only transactions "
            f"checked against put(S, V') ({counts['rejected']} rejected), "
            f"{counts['skipped']} skipped on a pre-state that is not "
            f"steady")
