"""Inscribed polygons: uniform subdivisions, equilateral inscriptions, recovery sequences.

Equilateral inscription shoots in the common chord length c.  For each c
tried, the chain of vertices b_0 = 0 < b_1 < ... with every chord equal
to c is one vectorized Newton solve (the chord equations couple
neighbours only, so each step is a banded O(n) solve), and each vertex is
certified as the first crossing of the chord length c past its
predecessor, within the bi-Lipschitz step bound.  An outer root find on c
closes the polygon.  Each chord length is marched at most once per
inscription.  Everything is deterministic for a fixed curve and n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import brentq

from .curves import ArcLengthCurve
from .errors import ConvergenceError, InputError
from .polygon import ClosedPolygon

_PATIENCE = 10      # Newton steps without a longer certified prefix before a march stops
_MIN_SLOPE = 1e-3   # floor of the Jacobian diagonal


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


def _march(curve: ArcLengthCurve, n: int, c: float, step_bound: float) -> np.ndarray:
    """Chain b_0 = 0 < b_1 < ... < b_{n-1} with every chord |gamma(b_{k+1}) - gamma(b_k)| = c.

    All n - 1 chord equations are solved at once by Newton's method from
    the start b_k = k c.  Equation k involves only b_k and b_{k+1}, so the
    Jacobian is lower bidiagonal, t(b_{k+1}).u_k on the diagonal and
    -t(b_k).u_k below it (t the unit tangent, u_k the unit chord), and
    each step is one O(n) banded solve.  Each new step b_{k+1} - b_k is
    then kept inside the bracket of :func:`_scan_bracket`, so that Newton
    cannot pass over a crossing or run off past the cap.

    Vertex b_{k+1} is certified when its step lies in [c/4, cap], its
    chord equals c to roundoff, and the chord from b_k stays below c at
    every point b_k + c + j c/4 before b_{k+1}: the vertex is the first
    crossing of the chord length c past b_k on that grid.  The cap is the
    bi-Lipschitz step bound, at most L/2 (beyond which the intrinsic
    metric wraps and the bound is void).  Returns the longest certified
    prefix; a prefix shorter than n means c exceeds the curve's feature
    size at this resolution.  Newton stops one step after every vertex is
    certified (which takes the chords from the tolerance to roundoff, so
    that residuals do not add up along the chain), or once the certified
    prefix has not grown for ``_PATIENCE`` steps.
    """
    L = curve.length
    cap = min(step_bound, 0.5 * L)
    # roundoff in a chord grows with the distance of the points from the origin
    res_tol = 1e-13 * max(L, float(np.max(np.abs(curve.eval(0.0)))))
    b = np.arange(n) * c
    best, stalled, settled = -1, 0, False
    while True:
        pts, t = curve.point_and_tangent(b)
        d = np.diff(pts, axis=0)
        chords = np.linalg.norm(d, axis=1)
        residual = chords - c
        steps = np.diff(b)
        lo, hi, clear = _scan_bracket(curve, b, pts, c, cap, residual, res_tol)
        converged = (np.abs(residual) <= res_tol) & clear
        if converged.all() and settled or stalled > _PATIENCE:
            break
        settled = converged.all()
        prefix = n if settled else int(np.argmin(converged))
        best, stalled = (prefix, 0) if prefix > best else (best, stalled + 1)
        u = d / chords[:, None]
        bands = np.zeros((2, n - 1))
        # a floored slope keeps the direction (chord too short: move on) at a tangency
        bands[0] = np.maximum(np.einsum("ij,ij->i", t[1:], u), _MIN_SLOPE)
        bands[1, :-1] = -np.einsum("ij,ij->i", t[1:-1], u[1:])
        # forward substitution: a pivoting banded LU (solve_banded) can underflow to
        # a zero pivot on a far-from-feasible chain although no diagonal is zero
        delta, _ = dtbtrs(bands, residual, uplo="L")
        with np.errstate(invalid="ignore"):   # such a chain can also overflow
            proposal = np.diff(b[1:] - delta, prepend=0.0)
        # fmax/fmin map a non-finite proposal into the bracket too
        b[1:] = np.cumsum(np.fmin(np.fmax(proposal, lo), hi))
    ok = converged & (steps >= 0.25 * c) & (steps <= cap)
    bad = np.flatnonzero(~ok)
    return b if bad.size == 0 else b[: bad[0] + 1]


def _scan_bracket(curve: ArcLengthCurve, b: np.ndarray, pts: np.ndarray, c: float, cap: float,
                  residual: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bracket the first crossing of the chord length c past each b_k.

    The grid points b_k + c + j c/4 before b_{k+1} - slack are probed.
    Returns step bounds (lo, hi) and whether every probe's chord is below
    c.  lo is the last probe before the first one whose chord reaches c
    (c/4 if no probe comes before it); hi is that probe, else the current
    step when its chord is at least c, else the cap.
    """
    quarter = 0.25 * c
    steps = np.diff(b)
    count = np.ceil((steps - slack - c) / quarter).clip(0).astype(int)
    owner = np.repeat(np.arange(steps.size), count)
    j = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    probe = curve.eval(b[owner] + (c + quarter * j))
    crossed = np.linalg.norm(probe - pts[owner], axis=1) >= c
    first = count.copy()
    np.minimum.at(first, owner[crossed], j[crossed])
    clear = first == count
    lo = np.where(first > 0, c + quarter * (first - 1), quarter)
    hi = np.where(clear, np.where(residual >= 0.0, steps, cap), c + quarter * first)
    return lo, hi, clear


def inscribe_equilateral(curve: ArcLengthCurve, n: int, tol: float = 1e-10
                         ) -> tuple[ClosedPolygon, SubdivisionSpec]:
    """Inscribed polygon with n chords of a common length, b_1 = 0.

    The closure defect (closing chord minus c, or the parameter overshoot
    when the march wraps past the start) changes sign between the bracket
    ends c in [L/(2n C_b), 2L/n], and brentq returns a root of it inside
    that bracket; where the defect has several roots, no particular one is
    selected.  A march that cannot realize a chord of length c counts as
    overshoot, driving the outer root find toward smaller c.
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
            marches[c] = _march(curve, n, c, step_factor * c)
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
