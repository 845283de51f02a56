"""Inscribed polygons: uniform subdivisions, equilateral inscriptions, recovery sequences.

Equilateral inscription shoots in the common chord length c: vertices are
marched along the curve so every chord has length c (each step is a
bracketed root find on the monotone initial stretch, bounded by the
bi-Lipschitz step estimate), and an outer root find on c closes the
polygon.  Each chord length is marched at most once per inscription.
Everything is deterministic for a fixed curve and n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .curves import ArcLengthCurve
from .errors import ConvergenceError, InputError
from .polygon import ClosedPolygon


@dataclass(frozen=True)
class ChordBoundReport:
    """Normalized chord bounds n * min(chord) / L and n * max(chord) / L."""

    c_min: float
    c_max: float

    @property
    def ratio(self) -> float:
        return self.c_max / self.c_min


@dataclass(frozen=True)
class SubdivisionSpec:
    """Subdivision parameters b_1 < ... < b_n in [0, L) defining an inscribed polygon."""

    curve: ArcLengthCurve
    b: np.ndarray
    chords: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or b.size < 3:
            raise InputError("subdivision needs at least 3 parameters")
        if np.any(np.diff(b) <= 0.0) or b[0] < 0.0 or b[-1] >= self.curve.length:
            raise InputError("subdivision parameters must be strictly increasing in [0, L)")
        if np.any(np.asarray(self.chords) <= 0.0):
            raise InputError("all chords must be positive")

    @property
    def n(self) -> int:
        return self.b.size

    def chord_bounds(self) -> ChordBoundReport:
        L = self.curve.length
        return ChordBoundReport(
            c_min=self.n * float(np.min(self.chords)) / L,
            c_max=self.n * float(np.max(self.chords)) / L,
        )

    def to_dict(self) -> dict:
        return {"b": self.b.tolist(), "chords": self.chords.tolist()}

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")


def _spec_from_params(curve: ArcLengthCurve, b: np.ndarray) -> tuple[ClosedPolygon, SubdivisionSpec]:
    pts = curve.eval(b)
    closed = np.vstack([pts, pts[:1]])
    chords = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    if np.any(chords == 0.0):
        k = int(np.argmin(chords))
        raise InputError(f"curve revisits a point: zero chord at subdivision index {k}")
    return ClosedPolygon(pts), SubdivisionSpec(curve, b, chords)


def inscribe_uniform(curve: ArcLengthCurve, n: int) -> tuple[ClosedPolygon, SubdivisionSpec]:
    """Inscribed polygon with vertices at equally spaced arc-length parameters."""
    if n < 3:
        raise InputError("need n >= 3")
    b = np.arange(n) * (curve.length / n)
    return _spec_from_params(curve, b)


def _march(curve: ArcLengthCurve, n: int, c: float, step_bound: float) -> list[float]:
    """March b_{k+1} = first parameter past b_k with chord length c.

    The chord from b_k is at most the arc, so b_k + c brackets the root
    from below; the first sign change past it is located by a forward scan
    in increments of c/4, capped by the bi-Lipschitz step bound and L/2
    (beyond which the intrinsic metric wraps and the bound is void).
    Returns the partial march when no root exists within the cap, meaning
    c exceeds the curve's feature size at this resolution.
    """
    L = curve.length
    cap = min(step_bound, 0.5 * L)
    xtol = 1e-15 * L
    b = [0.0]
    for _ in range(n - 1):
        origin = curve.point_at(b[-1])

        def gap(x):
            d = curve.point_at(x) - origin
            return math.sqrt(float(d @ d)) - c

        lo = b[-1] + c
        g_lo = gap(lo)
        if g_lo == 0.0:
            b.append(lo)
            continue
        if g_lo > 0.0:
            # roundoff pushed the chord past c already; bracket from inside the arc
            b.append(float(brentq(gap, b[-1] + 0.25 * c, lo, xtol=xtol)))
            continue
        x = lo
        delta = 0.25 * c
        root = None
        while x < b[-1] + cap:
            x_next = min(x + delta, b[-1] + cap)
            if gap(x_next) >= 0.0:
                root = brentq(gap, x, x_next, xtol=xtol)
                break
            x = x_next
        if root is None:
            return b
        b.append(float(root))
    return b


def inscribe_equilateral(curve: ArcLengthCurve, n: int, tol: float = 1e-10
                         ) -> tuple[ClosedPolygon, SubdivisionSpec]:
    """Inscribed polygon with n chords of a common length, b_1 = 0.

    The closure defect (closing chord minus c, or the parameter overshoot
    when the march wraps past the start) changes sign between the bracket
    ends c in [L/(2n C_b), 2L/n]; the smallest-defect root is taken.  A
    march that cannot realize a chord of length c counts as overshoot,
    driving the outer root find toward smaller c.
    """
    if n < 3:
        raise InputError("need n >= 3")
    if not 1e-12 <= tol <= 1e-6:
        raise InputError("tol must lie in [1e-12, 1e-6]")
    L = curve.length
    cb = curve.bilipschitz if curve.bilipschitz is not None else 2.0
    step_factor = 1.25 * cb

    start = curve.point_at(0.0)
    marches = {}

    def march(c: float) -> np.ndarray:
        if c not in marches:
            marches[c] = np.array(_march(curve, n, c, step_factor * c))
        return marches[c]

    def defect(c: float) -> float:
        b = march(c)
        if len(b) < n:
            # no root within the step bound: c beyond the feature size
            return -(n - len(b)) * c - c
        if b[-1] >= L:
            return -(b[-1] - L) - c
        d = curve.point_at(b[-1]) - start
        return math.sqrt(float(d @ d)) - c

    c_lo = L / (2.0 * n * cb)
    c_hi = 2.0 * L / n
    if len(march(c_lo)) < n:
        raise InputError(
            f"n={n} too small for equilateral inscription: chord {c_lo:.6g} exceeds feature size"
        )
    d_lo = defect(c_lo)
    d_hi = defect(c_hi)
    if not (d_lo > 0.0 > d_hi):
        raise InputError(
            f"closure bracket failed for n={n}: defect({c_lo:.6g})={d_lo:.6g}, "
            f"defect({c_hi:.6g})={d_hi:.6g}"
        )
    c_star = brentq(defect, c_lo, c_hi, xtol=tol * (L / n) / (4.0 * n), rtol=4 * np.finfo(float).eps)

    # brentq returns a point it evaluated, so this march is a lookup
    b = march(c_star)
    if len(b) < n:
        raise ConvergenceError(f"equilateral inscription for n={n} landed outside the feasible range")
    polygon, spec = _spec_from_params(curve, b)
    dev = np.abs(spec.chords - c_star) / c_star
    if float(dev.max()) > tol:
        raise ConvergenceError(
            f"equilateral inscription for n={n} stalled: chord deviation {dev.max():.3e} > tol"
        )
    return polygon, spec


def recovery_sequence(curve: ArcLengthCurve, n: int, tol: float = 1e-10) -> ClosedPolygon:
    """Equilateral inscribed polygon rescaled about the origin to the curve's length.

    The discrete energy is scale invariant, so the rescaling changes the
    polygon's energy by nothing while making length-matched norm
    comparisons against the curve meaningful.
    """
    polygon, _ = inscribe_equilateral(curve, n, tol=tol)
    return polygon.scaled(curve.length / polygon.total_length)
