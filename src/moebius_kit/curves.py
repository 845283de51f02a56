"""Smooth closed curves: catalog, arc-length reparametrization, diagnostics.

A curve enters as a periodic evaluator and its derivative over the unit
parameter interval (:class:`ParametricCurve`) and is converted to a unit-speed
:class:`ArcLengthCurve` via a monotone lookup table, built here without
scipy.  The bi-Lipschitz constant exposed here is a sampled estimate
inflated by a 5% safety factor, computed on the chord kernel of
:mod:`polygon`.  Only :func:`from_samples` loads ``scipy.interpolate``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DoublePointError, InputError, NotEmbeddedError
from .polygon import ClosedPolygon, inverse_square_chord_blocks

TWO_PI = 2.0 * math.pi

# 5-point Gauss-Legendre rule on [0, 1], used for per-interval arc length.
_GAUSS_X = (np.polynomial.legendre.leggauss(5)[0] + 1.0) / 2.0
_GAUSS_W = np.polynomial.legendre.leggauss(5)[1] / 2.0


def intrinsic_distance(L: float, s, t):
    """Shortest arc distance between parameters s and t on a circle of length L.

    Inputs are wrapped modulo L; the result is symmetric and at most L/2.
    """
    if L <= 0:
        raise InputError(f"curve length must be positive, got {L}")
    delta = np.mod(np.asarray(t) - np.asarray(s), L)
    d = np.minimum(delta, L - delta)
    if d.ndim == 0:
        return float(d)
    return d


@dataclass(frozen=True)
class ParametricCurve:
    """Closed curve given by a periodic evaluator u in [0, 1) -> R^d.

    ``point`` must accept numpy arrays of parameters and return an
    (m, dim) array.  ``derivative`` is d point / du with the same calling
    convention.
    """

    point: Callable
    kind: str
    params: dict
    dim: int
    derivative: Callable

    def __call__(self, u):
        u = np.mod(np.atleast_1d(np.asarray(u, dtype=float)), 1.0)
        return np.asarray(self.point(u), dtype=float)

    def velocity(self, u):
        u = np.mod(np.atleast_1d(np.asarray(u, dtype=float)), 1.0)
        return np.asarray(self.derivative(u), dtype=float)

    def validate(self) -> None:
        """Check periodicity, finiteness and non-degeneracy on a 2048-point sample grid."""
        with np.errstate(invalid="ignore", over="ignore"):   # non-finite samples are raised below
            p0 = self(np.array([0.0]))
            p1 = self(np.array([1.0 - 1e-15]))
            pts = self(np.arange(2048) / 2048)
        if not (np.isfinite(pts).all() and np.isfinite(p1).all()):
            raise InputError(f"curve kind {self.kind!r} has non-finite samples; check its parameters")
        scale = max(1.0, float(np.max(np.abs(p0))))
        if np.max(np.abs(p0 - p1)) > 1e-12 * scale:
            raise InputError(f"curve kind {self.kind!r} is not periodic at the endpoints")
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(steps == 0.0):
            idx = int(np.argmin(steps))
            raise InputError(f"degenerate curve: consecutive samples coincide near index {idx}")


def circle(radius: float = 1.0, center=(0.0, 0.0)) -> ParametricCurve:
    center = np.asarray(center, dtype=float)
    if radius <= 0:
        raise InputError("circle radius must be positive")
    dim = center.size
    if dim not in (2, 3):
        raise InputError("circle center must live in R^2 or R^3")

    def point(u):
        ang = TWO_PI * u
        cols = [radius * np.cos(ang), radius * np.sin(ang)]
        if dim == 3:
            cols.append(np.zeros_like(ang))
        return np.stack(cols, axis=1) + center

    def deriv(u):
        ang = TWO_PI * u
        cols = [-TWO_PI * radius * np.sin(ang), TWO_PI * radius * np.cos(ang)]
        if dim == 3:
            cols.append(np.zeros_like(ang))
        return np.stack(cols, axis=1)

    return ParametricCurve(point, "circle", {"radius": radius, "center": center.tolist()}, dim, deriv)


def ellipse(a: float, b: float) -> ParametricCurve:
    if a <= 0 or b <= 0:
        raise InputError("ellipse semi-axes must be positive")

    def point(u):
        ang = TWO_PI * u
        return np.stack([a * np.cos(ang), b * np.sin(ang)], axis=1)

    def deriv(u):
        ang = TWO_PI * u
        return np.stack([-TWO_PI * a * np.sin(ang), TWO_PI * b * np.cos(ang)], axis=1)

    return ParametricCurve(point, "ellipse", {"a": a, "b": b}, 2, deriv)


def torus_knot(p: int, q: int, ring_radius: float = 2.0, tube_radius: float = 1.0) -> ParametricCurve:
    """(p, q) torus knot on the torus with the given ring and tube radii."""
    if math.gcd(p, q) != 1:
        raise InputError(f"({p},{q}) is a torus link, not a knot; p and q must be coprime")
    if not 0 < tube_radius < ring_radius:
        raise InputError("need 0 < tube_radius < ring_radius for an embedded knot")
    R, r = float(ring_radius), float(tube_radius)

    def point(u):
        ap = TWO_PI * p * u
        aq = TWO_PI * q * u
        rad = R + r * np.cos(aq)
        return np.stack([rad * np.cos(ap), rad * np.sin(ap), r * np.sin(aq)], axis=1)

    def deriv(u):
        ap = TWO_PI * p * u
        aq = TWO_PI * q * u
        cos_p, sin_p, cos_q = np.cos(ap), np.sin(ap), np.cos(aq)
        rad = R + r * cos_q
        drad = -TWO_PI * q * r * np.sin(aq)
        return np.stack(
            [
                drad * cos_p - TWO_PI * p * rad * sin_p,
                drad * sin_p + TWO_PI * p * rad * cos_p,
                TWO_PI * q * r * cos_q,
            ],
            axis=1,
        )

    return ParametricCurve(
        point, "torus_knot", {"p": p, "q": q, "ring_radius": R, "tube_radius": r}, 3, deriv
    )


def rounded_polygon(sides: int, circumradius: float = 1.0, corner_radius: float = 0.2) -> ParametricCurve:
    """Regular polygon with circular-arc corners: a closed C^{1,1} planar curve.

    Piecewise curvature is 0 on the straight parts and 1/corner_radius on
    the arcs.  Requires corner_radius < inradius.
    """
    k, Rc, rc = int(sides), float(circumradius), float(corner_radius)
    if k < 3:
        raise InputError("rounded polygon needs at least 3 sides")
    inradius = Rc * math.cos(math.pi / k)
    if not 0 < rc < inradius:
        raise InputError(f"corner radius must lie in (0, {inradius:.6g})")

    side = 2.0 * Rc * math.sin(math.pi / k)
    trim = rc * math.tan(math.pi / k)
    straight = side - 2.0 * trim
    sweep = TWO_PI / k
    arc_len = rc * sweep
    piece = straight + arc_len
    L = k * piece

    ang = TWO_PI * np.arange(k + 1) / k
    V = Rc * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    E = V[1:] - V[:-1]
    E /= np.linalg.norm(E, axis=1)[:, None]          # edge directions j -> j+1
    start_pts = V[:-1] + trim * E                    # straight piece start, per side j
    # corner j+1 follows side j; its center sits on the bisector of vertex j+1
    centers = V[1:] * (1.0 - rc / (Rc * math.cos(math.pi / k)))
    corner_in = V[1:] - trim * E                     # arc entry point = straight piece end
    phi0 = np.arctan2(corner_in[:, 1] - centers[:, 1], corner_in[:, 0] - centers[:, 0])

    def point(u):
        s = np.mod(u, 1.0) * L
        j = np.minimum((s // piece).astype(int), k - 1)
        local = s - j * piece
        on_arc = local > straight
        out = start_pts[j] + local[:, None] * E[j]
        ja = j[on_arc]
        phi = phi0[ja] + (local[on_arc] - straight) / rc
        out[on_arc] = centers[ja] + rc * np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return out

    def deriv(u):
        s = np.mod(u, 1.0) * L
        j = np.minimum((s // piece).astype(int), k - 1)
        local = s - j * piece
        on_arc = local > straight
        tang = E[j].copy()
        ja = j[on_arc]
        phi = phi0[ja] + (local[on_arc] - straight) / rc
        tang[on_arc] = np.stack([-np.sin(phi), np.cos(phi)], axis=1)
        return L * tang

    return ParametricCurve(
        point,
        "rounded_polygon",
        {"sides": k, "circumradius": Rc, "corner_radius": rc},
        2,
        deriv,
    )


def from_samples(samples) -> ParametricCurve:
    """Periodic cubic-spline curve through a closed table of sample points.

    The one curve kind that loads ``scipy.interpolate``, on its first call.
    """
    from scipy.interpolate import CubicSpline

    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 4 or pts.shape[1] not in (2, 3):
        raise InputError("samples must be an (m>=4, 2|3) array of points")
    closed = np.vstack([pts, pts[:1]])
    u = np.linspace(0.0, 1.0, closed.shape[0])
    spline = CubicSpline(u, closed, axis=0, bc_type="periodic")
    dspline = spline.derivative()
    return ParametricCurve(
        lambda uu: spline(np.mod(uu, 1.0)),
        "samples",
        {"n_samples": int(pts.shape[0])},
        int(pts.shape[1]),
        lambda uu: dspline(np.mod(uu, 1.0)),
    )


_CATALOG = {
    "circle": circle,
    "ellipse": ellipse,
    "torus_knot": torus_knot,
    "rounded_polygon": rounded_polygon,
    "samples": from_samples,
}


def parametric_from_descriptor(descriptor: dict) -> ParametricCurve:
    """Build a catalog curve from a JSON-style descriptor.

    Accepts {"kind": ..., "params": {...}} or the {"samples": [...]}
    shorthand for tabulated curves.
    """
    if not isinstance(descriptor, dict):
        raise InputError(f"curve descriptor must be a JSON object, not {type(descriptor).__name__}")
    if "samples" in descriptor and "kind" not in descriptor:
        descriptor = {"kind": "samples", "params": {"samples": descriptor["samples"]}}
    kind = descriptor.get("kind")
    if kind not in _CATALOG:
        raise InputError(f"unknown curve kind {kind!r}; expected one of {sorted(_CATALOG)}")
    params = descriptor.get("params", {})
    if not isinstance(params, dict):
        raise InputError(f"curve params must be a JSON object, not {type(params).__name__}")
    try:
        return _CATALOG[kind](**params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad parameters for curve kind {kind!r}: {exc}") from None


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end of an increasing table, 0 where it is not positive."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d if d > 0.0 else 0.0


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, m - 1) of the PCHIP interpolant of y over x, both strictly increasing.

    The arithmetic of ``scipy.interpolate.PchipInterpolator(x, y).c``, so
    the table is bit for bit scipy's: an interior slope is the weighted
    harmonic mean of the neighbouring secants, an end slope the clamped
    one-sided estimate, and row k of interval i is the coefficient of
    (s - x_i)^(3 - k).  Every secant is positive, so scipy's branches for
    flat and sign-changing secants never apply.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(y)
    d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


class ArcLengthCurve:
    """Unit-speed closed curve backed by a parameter-vs-arclength table.

    The inverse lookup (arc length -> source parameter) is the monotone
    cubic (PCHIP) interpolant of the table, built by
    :func:`_pchip_coefficients`, so evaluation never overshoots between
    nodes.  Both tables must increase strictly, and have at least 3 entries.
    """

    def __init__(self, source: ParametricCurve, u_table, s_table, bilipschitz=None):
        self.source = source
        self.u_table = np.asarray(u_table, dtype=float)
        self.s_table = np.asarray(s_table, dtype=float)
        if self.s_table.ndim != 1 or self.s_table.size < 3 or self.u_table.shape != self.s_table.shape:
            raise InputError("parameter and arclength tables must be 1-D, of one length, at least 3")
        if self.s_table[0] != 0.0 or np.any(np.diff(self.s_table) <= 0.0):
            raise InputError("arclength table must start at 0 and be strictly increasing")
        if not np.all(np.diff(self.u_table) > 0.0):
            raise InputError("parameter table must be strictly increasing")
        self.length = float(self.s_table[-1])
        self._inv_x = self.s_table
        self._inv_c = _pchip_coefficients(self.s_table, self.u_table)
        self.bilipschitz = bilipschitz

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def kind(self) -> str:
        return self.source.kind

    def _param(self, s):
        s = np.mod(np.asarray(s, dtype=float), self.length)
        idx = np.clip(np.searchsorted(self._inv_x, s, side="right") - 1, 0, self._inv_c.shape[1] - 1)
        dx = s - self._inv_x[idx]
        c = self._inv_c
        u = ((c[0, idx] * dx + c[1, idx]) * dx + c[2, idx]) * dx + c[3, idx]
        return np.clip(u, 0.0, 1.0)

    def eval(self, s):
        """Point at arc length s (scalar or array), wrapped modulo the length."""
        u = self._param(np.atleast_1d(s))
        pts = self.source(u)
        if np.isscalar(s) or np.ndim(s) == 0:
            return pts[0]
        return pts

    def point_at(self, s: float) -> np.ndarray:
        """Point at a single arc length s."""
        return self.eval(s)

    def tangent(self, s):
        """Unit tangent at arc length s, from the source derivative."""
        vel = self.source.velocity(self._param(np.atleast_1d(s)))
        out = vel / np.linalg.norm(vel, axis=1)[:, None]
        if np.isscalar(s) or np.ndim(s) == 0:
            return out[0]
        return out

    def point_and_tangent(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Points and unit tangents at the arc lengths s (an array), from one parameter lookup."""
        u = self._param(np.atleast_1d(s))
        vel = self.source.velocity(u)
        return self.source(u), vel / np.linalg.norm(vel, axis=1)[:, None]

    def scaled(self, factor: float) -> "ArcLengthCurve":
        """Image of the curve under x -> factor * x (unit speed preserved)."""
        if factor <= 0:
            raise InputError("scale factor must be positive")
        src = self.source
        point = lambda u: factor * src(u)
        deriv = lambda u: factor * src.velocity(u)
        scaled_src = ParametricCurve(point, src.kind, dict(src.params, scale=factor), src.dim, deriv)
        return ArcLengthCurve(scaled_src, self.u_table, factor * self.s_table, self.bilipschitz)


def _cumulative_gauss(curve: ParametricCurve, intervals: int) -> np.ndarray:
    """Per-interval arc length via 5-point Gauss on |gamma'|."""
    base = np.arange(intervals) / intervals
    seg = np.zeros(intervals)
    for x, w in zip(_GAUSS_X, _GAUSS_W):
        speeds = np.linalg.norm(curve.velocity(base + x / intervals), axis=1)
        seg += w * speeds / intervals
    return seg


def _prefix_sums(seg: np.ndarray) -> np.ndarray:
    """Prefix sums 0, seg_0, seg_0 + seg_1, ... compensated to within about an ulp.

    ``np.cumsum`` adds in order, so each partial sum is the rounded sum of
    the previous one and the next term; TwoSum recovers each rounding
    error exactly, and the running sum of those errors corrects the
    partial sums.  Plain ``np.cumsum`` drifts by O(m eps) relative over m
    terms.
    """
    total = np.cumsum(seg)
    prev = np.concatenate([[0.0], total[:-1]])
    back = total - prev
    error = (prev - (total - back)) + (seg - back)
    return np.concatenate([[0.0], total + np.cumsum(error)])


def arclength_reparametrize(curve: ParametricCurve, nodes: int = 16384,
                            tol: float = 1e-9) -> ArcLengthCurve:
    """Reparametrize a closed curve by arc length.

    The total length on ``nodes // 2`` intervals is compared with the one
    on ``nodes``; while they differ by ``tol * L`` or more the table is
    doubled and compared with the previous one.  The finer table of the
    first agreeing pair is kept, so a curve that agrees at once gets its
    table at ``nodes`` from two Gauss passes; one that needs more than
    2^21 intervals raises :class:`ConvergenceError`.  The returned curve
    carries its sampled bi-Lipschitz constant (:func:`bilipschitz_estimate`).
    """
    if nodes < 256:
        raise InputError("need at least 256 table nodes")
    if tol <= 0:
        raise InputError("tol must be positive")
    curve.validate()

    intervals = int(nodes)
    coarse = float(_cumulative_gauss(curve, intervals // 2).sum())
    seg = _cumulative_gauss(curve, intervals)
    total = float(seg.sum())
    while not abs(total - coarse) < tol * max(total, 1e-300):
        intervals *= 2
        if intervals > 2**21:
            raise ConvergenceError("arc length did not converge within the table-size budget")
        coarse = total
        seg = _cumulative_gauss(curve, intervals)
        total = float(seg.sum())

    if not total > 0.0 or np.any(seg < 1e-14 * total / intervals):
        idx = int(np.argmin(seg))
        raise InputError(f"degenerate curve: zero-length segment in table at index {idx}")

    u_table = np.arange(intervals + 1) / intervals
    s_table = _prefix_sums(seg)
    out = ArcLengthCurve(curve, u_table, s_table)
    out.bilipschitz = bilipschitz_estimate(out)
    return out


def bilipschitz_estimate(curve: ArcLengthCurve) -> float:
    """Sampled bound C with d(s,t) <= C |gamma(t) - gamma(s)| on 512 points, inflated by 1.05.

    The 512 samples, L / 512 apart, form a polygon whose chord kernel
    :func:`polygon.inverse_square_chord_blocks` visits each pair once; C^2
    is the largest d^2 Q over the pairs it keeps.  Consecutive samples are
    left out: their ratio is 1 + O((kappa L / 512)^2), far below the
    pi / 2 of the round circle, the least of any closed curve.  Raises
    :class:`NotEmbeddedError` when two samples, at least L / 512 apart
    along the curve, lie within 1e-9 L of each other (the kernel's
    barrier) or coincide, and :class:`InputError` when a sample is not
    finite.
    """
    grid = 512
    L = curve.length
    s = np.arange(grid) * (L / grid)
    pts = curve.eval(s)
    if not np.isfinite(pts).all():
        raise InputError("curve samples must be finite")
    largest = 0.0
    try:
        for r0, Q, _ in inverse_square_chord_blocks(ClosedPolygon(pts), 1e-9 * L):
            d = s[None, r0:] - s[r0:r0 + Q.shape[0], None]     # s_j - s_i, >= 0 where Q > 0
            largest = max(largest, float((np.square(np.minimum(d, L - d, out=d), out=d) * Q).max()))
    except (DoublePointError, InputError):      # InputError: consecutive samples coincide
        raise NotEmbeddedError("curve not embedded at sampled resolution: two samples coincide") from None
    return 1.05 * math.sqrt(largest)


def load_curve(source, nodes: int = 16384) -> ArcLengthCurve:
    """Load a curve descriptor (path, JSON string, or dict) and reparametrize it."""
    if isinstance(source, dict):
        descriptor = source
    else:
        text = source
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, TypeError):
            pass
        try:
            descriptor = json.loads(text)
        except (TypeError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot parse curve descriptor: {exc}") from None
    return arclength_reparametrize(parametric_from_descriptor(descriptor), nodes=nodes)


def unit_circle(length: float = 1.0, dim: int = 2) -> ArcLengthCurve:
    """Round circle of the given total length, arc-length parametrized."""
    center = (0.0, 0.0) if dim == 2 else (0.0, 0.0, 0.0)
    return arclength_reparametrize(circle(radius=length / TWO_PI, center=center), nodes=1024, tol=1e-12)
