"""Inscribed polygons: uniform subdivisions, equilateral inscriptions, recovery sequences.

Both inscriptions return the polygon and its n arc-length parameters b;
the chords are the polygon's edge lengths.

Equilateral inscription is one Newton solve for the vertices
b_0 = 0 < b_1 < ... < b_{n-1} and the common chord length c together: the
n chord equations, the closing one from b_{n-1} back to b_n = L included,
couple neighbours only, so each step is one banded O(n) solve.  Every
vertex, the closing one included, is certified as the first crossing of
the chord length c past its predecessor, within the bi-Lipschitz step
bound; an inscription that fails the certificate raises
``ConvergenceError``.  Everything is deterministic for a fixed curve and n.

No scipy root finder is called here.  :func:`brentq` stays only as a
name for call counters to wrap, and imports ``scipy.optimize`` only when
it is called.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .curves import ArcLengthCurve
from .errors import ConvergenceError, InputError
from .polygon import ClosedPolygon

_NEWTON_STEPS = 50  # Newton steps before an inscription gives up
_FLOOR_STEPS = 10   # steps in a row at the chords' roundoff floor before it gives up
_MIN_SLOPE = 1e-3   # floor of the Jacobian diagonal


def brentq(f, a, b, **kwargs):
    """``scipy.optimize.brentq``, imported on the first call; the package never calls it.

    ``perfbench/tracing.py`` counts the calls made at this name.
    """
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(f, a, b, **kwargs)


def inscribe_uniform(curve: ArcLengthCurve, n: int) -> tuple[ClosedPolygon, np.ndarray]:
    """Inscribed polygon with vertices at equally spaced arc-length parameters b, and b."""
    if n < 3:
        raise InputError("need n >= 3")
    b = np.arange(n) * (curve.length / n)
    return ClosedPolygon(curve.eval(b)), b


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
                         ) -> tuple[ClosedPolygon, np.ndarray]:
    """Inscribed polygon with n chords of a common length, and its parameters b, b_1 = 0.

    One Newton solve for b_1 < ... < b_{n-1} and the chord c of the n cyclic
    equations |gamma(b_{k+1}) - gamma(b_k)| = c, with b_0 = 0 and b_n = L,
    started from the uniform subdivision and its mean chord.  Equation k
    involves only b_k, b_{k+1} and c.  The first n - 1 equations have a
    lower bidiagonal Jacobian in b (t(b_{k+1}).u_k on the diagonal,
    -t(b_k).u_k below it, t the unit tangent, u_k the unit chord) and a
    column of -1 in c, so each step is one banded triangular solve with two
    right-hand sides; the closing equation then gives the step in c.  The
    new c is kept in [L/(2n C_b), 2L/n], and every new step b_{k+1} - b_k,
    the closing one included, inside the bracket of :func:`_scan_bracket`,
    so that Newton cannot pass over a crossing or run off past the cap; the
    bracketed steps are rescaled to add up to L.

    The result is certified: every step, the closing one included, lies in
    [c/4, cap], where the cap is the bi-Lipschitz step bound 1.25 C_b c, at
    most L/2 (beyond which the intrinsic metric wraps and the bound is
    void); each vertex is the first crossing of the chord length c past its
    predecessor, as the chord stays below c at every point b_k + c + j c/4
    before it; and no chord deviates from c by more than tol, relative.
    Newton stops one step after every vertex is the first crossing and
    every chord is within tol relative and 1e-13 max(L, |gamma(0)|)
    absolute of c, which takes the chords to roundoff, or after
    ``_NEWTON_STEPS`` steps.  An uncertified result raises
    :class:`ConvergenceError`, and so does a solve whose chords stall at
    their roundoff floor above tol: ``_FLOOR_STEPS`` steps in a row with
    every vertex the first crossing and the largest chord residual within
    the absolute bound but above tol c.
    """
    if n < 3:
        raise InputError("need n >= 3")
    if not 1e-12 <= tol <= 1e-6:
        raise InputError("tol must lie in [1e-12, 1e-6]")
    L = curve.length
    cb = curve.bilipschitz if curve.bilipschitz is not None else 2.0
    c_lo, c_hi = L / (2.0 * n * cb), 2.0 * L / n
    # roundoff in a chord grows with the distance of the points from the origin
    res_tol = 1e-13 * max(L, float(np.max(np.abs(curve.eval(0.0)))))
    b = np.arange(n + 1) * (L / n)
    c = float(np.linalg.norm(np.diff(curve.eval(b), axis=0), axis=1).mean())
    settled = False
    floor_steps = 0
    for newton in range(_NEWTON_STEPS + 1):
        pts, t = curve.point_and_tangent(b)
        d = np.diff(pts, axis=0)
        chords = np.linalg.norm(d, axis=1)
        residual = chords - c
        cap = min(1.25 * cb * c, 0.5 * L)
        lo, hi, clear = _scan_bracket(curve, b, pts, c, cap, residual, res_tol)
        worst = float(np.abs(residual).max())
        converged = bool(clear.all()) and worst <= min(res_tol, tol * c)
        if converged and settled or newton == _NEWTON_STEPS:
            break
        # at the floor the residual wanders by roundoff; no certified inscription
        # of a sweep over the catalog stayed there more than 5 steps in a row
        at_floor = bool(clear.all()) and tol * c < worst <= res_tol
        floor_steps = floor_steps + 1 if at_floor else 0
        if floor_steps == _FLOOR_STEPS:
            raise ConvergenceError(
                f"equilateral inscription for n={n} not certified after {newton} Newton steps: "
                f"chord deviation {worst / c:.3e} > tol for {_FLOOR_STEPS} steps at the chords' "
                f"roundoff floor, which tol is below"
            )
        settled = converged
        u = d / chords[:, None]
        back = -np.einsum("ij,ij->i", t[:-1], u)
        bands = np.zeros((2, n - 1))
        # a floored slope keeps the direction (chord too short: move on) at a tangency
        bands[0] = np.maximum(np.einsum("ij,ij->i", t[1:-1], u[:-1]), _MIN_SLOPE)
        bands[1, :-1] = back[1:-1]
        # forward substitution: a pivoting banded LU (solve_banded) can underflow to
        # a zero pivot on a far-from-feasible chain although no diagonal is zero
        xy, _ = dtbtrs(bands, np.column_stack([residual[:-1], np.ones(n - 1)]), uplo="L")
        # fmax/fmin map a non-finite update (a far-from-feasible chain can overflow)
        # into the bounds of c and into the brackets of the steps
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            dc = (residual[-1] - back[-1] * xy[-1, 0]) / (back[-1] * xy[-1, 1] - 1.0)
            c_next = float(np.fmin(np.fmax(c - dc, c_lo), c_hi))
            proposal = np.diff(b[1:-1] - xy[:, 0] - (c - c_next) * xy[:, 1], prepend=0.0, append=L)
        steps = np.fmin(np.fmax(proposal, lo), hi)
        b[1:-1] = np.cumsum(steps[:-1]) * (L / steps.sum())
        c = c_next
    steps = np.diff(b)
    dev = worst / c
    k = int(np.argmin(clear))
    for failed, reason in (
        (steps.min() < 0.25 * c, f"step {steps.min():.3e} below c/4 = {0.25 * c:.3e}"),
        (steps.max() > cap, f"step {steps.max():.3e} beyond the cap {cap:.3e}"),
        (not clear[k], f"the chord from vertex {k} reaches c before vertex {(k + 1) % n}"),
        (dev > tol, f"chord deviation {dev:.3e} > tol"),
    ):
        if failed:
            raise ConvergenceError(
                f"equilateral inscription for n={n} not certified after {newton} Newton steps: {reason}"
            )
    return ClosedPolygon(curve.eval(b[:-1])), b[:-1]


def recovery_sequence(curve: ArcLengthCurve, n: int, tol: float = 1e-10) -> ClosedPolygon:
    """Equilateral inscribed polygon rescaled about the origin to the curve's length.

    The discrete energy is scale invariant, so the rescaling changes the
    polygon's energy by nothing while making length-matched norm
    comparisons against the curve meaningful.
    """
    polygon, _ = inscribe_equilateral(curve, n, tol=tol)
    return polygon.scaled(curve.length / polygon.total_length)
