"""Spans and counters around the public functions of each moebius_kit layer.

The modules import functions by name, so a wrapper only sees a call when
it is installed at the name the caller resolves: ``optimize`` calls its
own ``discrete_moebius_energy``, ``experiments`` another, and the
benchmark calls ``energies.discrete_moebius_energy``.  All three carry
the same span name.  Hot scalar entry points (``ArcLengthCurve.point_at``
and the ``brentq`` that ``inscription`` imported) get count-only
wrappers: a timer around each of their ~500k calls would distort the
run it is meant to explain.

A span's self time is its duration minus the durations of the spans
nested directly inside it, so the self times of one pass add up to the
time spent inside traced calls.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from moebius_kit import cli, curves, energies, experiments, inscription, optimize, polygon


@dataclass(frozen=True)
class Span:
    name: str
    size: int | None
    seconds: float
    self_seconds: float
    peak_bytes: int | None


def _vertex_count(args):
    return args[0].n


def _first_arg(args):
    return int(args[0])


def _second_arg(args):
    return int(args[1])


def _row_count(args):
    return len(args[0].vertices if hasattr(args[0], "vertices") else args[0])


def _no_size(args):
    return None


# (namespace holding the name, attribute, span name, size of the call)
TIMED = (
    (cli, "main", "cli.main", _no_size),
    (cli, "load_curve", "curves.load_curve", _no_size),
    (cli, "gamma_recovery_study", "experiments.gamma_recovery_study", _no_size),
    (experiments, "smooth_moebius_energy", "energies.smooth_moebius_energy", _no_size),
    (experiments, "discrete_moebius_energy", "energies.discrete_moebius_energy", _vertex_count),
    (experiments, "curve_distance", "polygon.curve_distance", _no_size),
    (inscription, "inscribe_equilateral", "inscription.inscribe_equilateral", _second_arg),
    (energies, "discrete_moebius_energy", "energies.discrete_moebius_energy", _vertex_count),
    (energies, "minimum_distance_energy", "energies.minimum_distance_energy", _vertex_count),
    (optimize, "discrete_moebius_energy", "energies.discrete_moebius_energy", _vertex_count),
    (optimize, "energy_gradient", "optimize.energy_gradient", _vertex_count),
    (optimize, "project_equilateral_closed", "optimize.project_equilateral_closed", _row_count),
    (optimize, "minimize_discrete_energy", "optimize.minimize_discrete_energy", _vertex_count),
    (optimize, "align_rigid", "optimize.align_rigid", _vertex_count),
    (polygon, "random_equilateral_polygon", "polygon.random_equilateral_polygon", _first_arg),
)

COUNTED = (
    (inscription, "brentq", "inscription.brentq"),
    (curves.ArcLengthCurve, "point_at", "curves.ArcLengthCurve.point_at"),
)

# Calls whose tracemalloc peak is recorded, as (span name, size).  The
# allocation tracer runs only during the first such call of a pass: it
# slows every Python allocation (the energies' math.fsum makes one per
# pair term, several times the call itself), so that call is left out of
# s_per_call and its size is timed on the next call.
PEAK_CALLS = frozenset(
    {
        ("energies.discrete_moebius_energy", 4096),
        ("optimize.energy_gradient", 4096),
        ("energies.minimum_distance_energy", 1024),
        ("polygon.random_equilateral_polygon", 4096),
    }
)


class Tracer:
    """Spans and call counts recorded while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.levels: list[int] = []     # quadrature levels of each smooth-energy call
        self._child_seconds: list[float] = []
        self._peaks_taken: set = set()

    def _timed(self, name, fn, size_of):
        def wrapper(*args, **kwargs):
            size = size_of(args)
            track = (name, size) in PEAK_CALLS and (name, size) not in self._peaks_taken
            if track:
                self._peaks_taken.add((name, size))
                tracemalloc.start()
            self.counts[name] += 1
            self._child_seconds.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                child = self._child_seconds.pop()
                if self._child_seconds:
                    self._child_seconds[-1] += seconds
                peak = None
                if track:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.spans.append(Span(name, size, seconds, seconds - child, peak))
            if name == "energies.smooth_moebius_energy":
                self.levels.append(int(result.diagnostics["levels"]))
            return result

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block, then restore the originals."""
        saved = []
        try:
            for owner, attr, name, size_of in TIMED:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._timed(name, original, size_of))
            for owner, attr, name in COUNTED:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._counted(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _matching(self, name, size=None):
        return [s for s in self.spans if s.name == name and (size is None or s.size == size)]

    def s_per_call(self, name, size) -> float:
        return statistics.median(s.seconds for s in self._matching(name, size) if s.peak_bytes is None)

    def self_s(self, name) -> float:
        return sum(s.self_seconds for s in self._matching(name))

    def peak_mb(self, name, size) -> float:
        return max(s.peak_bytes for s in self._matching(name, size) if s.peak_bytes is not None) / 1e6
