"""Lightweight, thread-safe metrics for the engine's hot paths.

One :class:`MetricsRegistry` per ``Engine`` / ``ShardedEngine`` /
``ReplicaEngine`` / ``ReplicaSet`` / ``PeerNetwork`` holds three kinds
of series:

* **counters** — monotonic integers (``txn.commits``, ``wal.appends``,
  ``cluster.aborts``).  Never reset, never decremented.
* **gauges** — last-write-wins floats for instantaneous state
  (``peer.peers``, ``peer.links``).
* **histograms** — streaming latency/size distributions.  Each keeps
  exact ``count``/``sum``/``min``/``max`` plus a bounded reservoir of
  recent samples, from which a reader computes percentiles.

Snapshots are plain dicts (picklable — worker processes ship theirs
back over the existing RPC channel) and :func:`merge_snapshots` folds
any number of them into one cluster-wide view: counters sum, gauges
sum (every current use is additive: rotation sizes, lags), histogram
aggregates combine and reservoirs concatenate (capped).

Hook sites check ``enabled`` *before* calling ``time.perf_counter``,
so a disabled registry costs one attribute load per site: zero clock
reads and zero registry writes per transaction, and a pinned number of
writes when enabled (``tests/test_metrics.py::TestInstrumentationCost``).
"""

from __future__ import annotations

import threading

__all__ = [
    'MetricsRegistry',
    'GLOBAL',
    'merge_snapshots',
]

#: Reservoir low-water mark per histogram.  Aggregates (count/sum/
#: min/max) stay exact; percentiles are over the most recent
#: RESERVOIR_SIZE..2×RESERVOIR_SIZE observations — the trim drops the
#: oldest half only when the doubled bound is hit, so the hot path
#: pays O(1) amortised instead of an O(RESERVOIR_SIZE) shift per
#: sample.
RESERVOIR_SIZE = 512

#: Cap on a merged histogram's reservoir (merging N workers must not
#: produce unbounded snapshots).
MERGED_RESERVOIR_SIZE = 2048


class MetricsRegistry:
    """Thread-safe counters + gauges + streaming histograms."""

    __slots__ = ('enabled', '_lock', '_counters', '_gauges', '_hists')

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, dict] = {}

    # -- write side (hot path) -------------------------------------

    def counter(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the monotonic counter ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram ``name``."""
        self.record(((name, value),))

    def record(self, samples, counters=()) -> None:
        """Record ``samples`` — ``(histogram, value)`` pairs — and add
        one to each counter named in ``counters``, under one lock: a
        transaction's phase timings and counts in one call."""
        if not self.enabled:
            return
        with self._lock:
            hists = self._hists
            for name, value in samples:
                hist = hists.get(name)
                if hist is None:
                    hist = hists[name] = {
                        'count': 0, 'sum': 0.0,
                        'min': value, 'max': value,
                        'reservoir': [],
                    }
                hist['count'] += 1
                hist['sum'] += value
                if value < hist['min']:
                    hist['min'] = value
                if value > hist['max']:
                    hist['max'] = value
                reservoir = hist['reservoir']
                if len(reservoir) >= 2 * RESERVOIR_SIZE:
                    # Keep the most recent window (recency is what
                    # operators want from latency percentiles),
                    # trimming half at a time so appends stay
                    # amortised O(1).
                    del reservoir[:RESERVOIR_SIZE]
                reservoir.append(value)
            counts = self._counters
            for name in counters:
                counts[name] = counts.get(name, 0) + 1

    # -- read side --------------------------------------------------

    def snapshot(self) -> dict:
        """A picklable point-in-time copy of every series."""
        with self._lock:
            return {
                'counters': dict(self._counters),
                'gauges': dict(self._gauges),
                'histograms': {
                    name: {'count': h['count'], 'sum': h['sum'],
                           'min': h['min'], 'max': h['max'],
                           'reservoir': list(h['reservoir'])}
                    for name, h in self._hists.items()
                },
            }


#: Process-wide registry for series that do not belong to any single
#: engine instance (e.g. ``plan.seals`` from the evaluator's code-gen
#: tier, which fires deep inside the datalog layer).  Worker processes
#: merge *their* GLOBAL into the snapshot they ship back, so the
#: cluster-level ``metrics()`` sees seals from every process exactly
#: once.
GLOBAL = MetricsRegistry()


def merge_snapshots(snapshots) -> dict:
    """Fold snapshot dicts into one.  ``None`` entries are skipped
    (a dead worker simply contributes nothing)."""
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    hists: dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get('counters', {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get('gauges', {}).items():
            gauges[name] = gauges.get(name, 0.0) + value
        for name, h in snap.get('histograms', {}).items():
            merged = hists.get(name)
            if merged is None:
                hists[name] = {'count': h['count'], 'sum': h['sum'],
                               'min': h['min'], 'max': h['max'],
                               'reservoir': list(h['reservoir'])}
                continue
            merged['count'] += h['count']
            merged['sum'] += h['sum']
            merged['min'] = min(merged['min'], h['min'])
            merged['max'] = max(merged['max'], h['max'])
            merged['reservoir'].extend(h['reservoir'])
            if len(merged['reservoir']) > MERGED_RESERVOIR_SIZE:
                del merged['reservoir'][:len(merged['reservoir'])
                                        - MERGED_RESERVOIR_SIZE]
    return {'counters': counters, 'gauges': gauges,
            'histograms': hists}
