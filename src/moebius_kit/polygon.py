"""Closed polygons, regular n-gons, the chord kernel, equilateral closure, sampling, distances.

:func:`inverse_square_chord_blocks` is the one pairwise chord kernel: it
visits each unordered vertex pair once, and the discrete energy, its
gradient and the smooth energy's quadrature all consume its row blocks, so
each runs in O(n) memory beyond a block of about :data:`BLOCK_PAIRS`
entries.  :func:`close_equilateral` is the alternating projection onto
closed equilateral chains: the random sampler closes Gaussian edges to
unit length with it, and certifies each closed draw free of double points
by a k-d tree's neighbour query, in O(n log n) time and O(n) memory, not
by the chord kernel.  (The descent's nearest-point retraction,
:func:`optimize.project_equilateral_closed`, takes single sweeps of the
same kind where no nearest chain exists, and does not call it.)  A
:class:`ClosedPolygon` forms its edge vectors once, so the descent's
gradient, Sobolev direction and equilaterality check all read the same
array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import ConvergenceError, DoublePointError, InputError


@dataclass(frozen=True)
class EquilateralityCertificate:
    """How far a polygon is from the equilateral class.

    ``max_edge_deviation`` is max_i |l_i - mean| / mean (up to 1e-8 the
    energy takes its arc part by separation, and the gradient is defined);
    the closure residual is |sum of edge vectors| (0 for vertex lists).
    """

    max_edge_deviation: float
    closure_residual: float


class ClosedPolygon:
    """Closed polygon given by its vertex list (closure implicit, v_1 not repeated).

    Derived quantities: edge lengths l_i = |v_{i+1} - v_i| (indices mod n),
    arc parameters a_i = sum_{k<i} l_k, and the total length.  The edge
    vectors are formed once, at construction; :meth:`edge_vectors` hands
    out copies and :meth:`unit_edges` a read-only array made on first use.
    """

    def __init__(self, vertices):
        try:
            v = np.array(vertices, dtype=float)
        except (TypeError, ValueError) as exc:     # non-numeric or ragged vertex lists
            raise InputError(f"vertices must be an array of numbers: {exc}") from None
        if v.ndim != 2 or v.shape[1] not in (2, 3):
            raise InputError("vertices must be an (n, 2) or (n, 3) array")
        if v.shape[0] < 3:
            raise InputError("a closed polygon needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise InputError("vertices must be finite")
        edges = np.concatenate((v[1:], v[:1])) - v
        lengths = np.linalg.norm(edges, axis=1)
        if np.any(lengths == 0.0):
            idx = int(np.argmin(lengths))
            raise InputError(f"zero-length edge at index {idx}: consecutive vertices coincide")
        self.vertices = v
        self._edges = edges
        self._unit_edges = None
        self.edge_lengths = lengths
        self.arc_params = np.concatenate([[0.0], np.cumsum(lengths[:-1])])
        self.total_length = float(lengths.sum())

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def edge_vectors(self) -> np.ndarray:
        return self._edges.copy()

    def unit_edges(self) -> np.ndarray:
        if self._unit_edges is None:
            self._unit_edges = self._edges / self.edge_lengths[:, None]
            self._unit_edges.flags.writeable = False
        return self._unit_edges

    def eval(self, t):
        """Arc-length parametrized point(s): piecewise linear, t modulo the length."""
        t = np.mod(np.atleast_1d(np.asarray(t, dtype=float)), self.total_length)
        idx = np.clip(np.searchsorted(self.arc_params, t, side="right") - 1, 0, self.n - 1)
        out = self.vertices[idx] + (t - self.arc_params[idx])[:, None] * self.unit_edges()[idx]
        return out

    def tangent_at(self, t):
        """Unit edge direction containing arc parameter t (right-continuous at vertices)."""
        t = np.mod(np.atleast_1d(np.asarray(t, dtype=float)), self.total_length)
        idx = np.clip(np.searchsorted(self.arc_params, t, side="right") - 1, 0, self.n - 1)
        return self.unit_edges()[idx]

    def equilaterality(self) -> EquilateralityCertificate:
        mean = self.total_length / self.n
        dev = float(np.abs(self.edge_lengths - mean).max()) / mean
        closure = float(np.linalg.norm(self._edges.sum(axis=0)))
        return EquilateralityCertificate(dev, closure)

    def scaled(self, factor: float) -> "ClosedPolygon":
        if factor <= 0:
            raise InputError("scale factor must be positive")
        return ClosedPolygon(factor * self.vertices)

    def to_dict(self) -> dict:
        return {"n": self.n, "dim": self.dim, "vertices": self.vertices.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "ClosedPolygon":
        try:
            poly = cls(data["vertices"])
        except KeyError as exc:
            raise InputError(f"polygon JSON missing field {exc}") from None
        # compared as given: n = 3.7 or "three" is no vertex count
        if "n" in data and data["n"] != poly.n:
            raise InputError(f"polygon JSON claims n={data['n']!r} but has {poly.n} vertices")
        if "dim" in data and data["dim"] != poly.dim:
            raise InputError(f"polygon JSON claims dim={data['dim']!r} but vertices are {poly.dim}-d")
        return poly

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def read_json(cls, path) -> "ClosedPolygon":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


BLOCK_PAIRS = 1 << 16   # pair entries per row block of the chord kernel (512 KB of float64)


def inverse_square_chord_blocks(p: ClosedPolygon, barrier: float):
    """Yield ``(r0, Q[r0:r1, r0:], smallest chord of those pairs)``, one trapezoid block at a time.

    Q_ij = 1 / |v_i - v_j|^2 is the inverse-square chord matrix on the
    strict upper triangle i < j, each unordered pair once; entries with
    j <= i, consecutive pairs and the pair (0, n - 1) are 0.  Blocks of
    ``max(1, BLOCK_PAIRS // (n - r0))`` rows cover rows 0 .. n - 2 in
    order, so no (n, n) array is ever built.  Q is symmetric, and so are
    the other factors of every pair sum here, so a consumer doubles the
    block sums or mirrors the block onto its columns.  The smallest chord
    of a block is taken over its pairs i < j, consecutive ones included.
    Squared chords come from direct coordinate differences, so no
    |a|^2 + |b|^2 - 2 a.b cancellation.  Raises :class:`DoublePointError`
    at the first pair, in row-major order, closer than ``barrier``.
    """
    v, n = p.vertices, p.n
    r0 = 0
    while r0 < n - 1:
        r1 = min(n - 1, r0 + max(1, BLOCK_PAIRS // (n - r0)))
        chord2 = cdist(v[r0:r1], v[r0:], "sqeuclidean")
        i = np.arange(r1 - r0)
        chord2[:, :i.size][np.tri(i.size, dtype=bool)] = np.inf   # j <= i
        smallest = float(chord2.min())
        if smallest < barrier**2:
            i, j = (r0 + int(k) for k in np.argwhere(chord2 < barrier**2)[0])
            raise DoublePointError(f"double point: vertices {i} and {j} closer than {barrier:.1e}",
                                   pair=(i, j))
        Q = np.reciprocal(chord2, out=chord2)
        Q[i, i + 1] = 0.0
        if r0 == 0:
            Q[0, n - 1] = 0.0
        yield r0, Q, math.sqrt(smallest)
        r0 = r1


def regular_ngon(n: int, length: float = 1.0, dim: int = 2) -> ClosedPolygon:
    """Planar regular n-gon with the given perimeter, in the xy-plane when dim=3."""
    if n < 3:
        raise InputError("a polygon needs n >= 3")
    if length <= 0:
        raise InputError("perimeter must be positive")
    if dim not in (2, 3):
        raise InputError("dim must be 2 or 3")
    R = length / (2.0 * n * math.sin(math.pi / n))
    ang = 2.0 * math.pi * np.arange(n) / n
    cols = [R * np.cos(ang), R * np.sin(ang)]
    if dim == 3:
        cols.append(np.zeros(n))
    return ClosedPolygon(np.stack(cols, axis=1))


def chord_length_regular(n: int, k: int, length: float = 1.0) -> float:
    """Distance between vertices k apart on the regular n-gon of given perimeter."""
    if n < 3:
        raise InputError("a polygon needs n >= 3")
    if not 1 <= k <= n - 1:
        raise InputError(f"chord index k={k} out of range [1, {n - 1}]")
    return length * math.sin(k * math.pi / n) / (n * math.sin(math.pi / n))


def close_equilateral(edges, length: float) -> np.ndarray:
    """Edge vectors of a closed chain of n edges of the given length.

    Starts from the edge vectors ``edges`` and alternates renormalizing
    every edge to ``length`` with subtracting the mean edge, until the
    relative edge deviation drops below 1e-12 and the closure residual
    |sum of edges| below 1e-12 * length, within 10k sweeps; both bounds
    scale with ``length``, so rescaling the input rescales the result.
    The edge norms of each sweep's deviation check scale the next
    sweep's edges.  Raises
    :class:`ConvergenceError` when an edge collapses below 1e-8 * length
    or the sweeps run out.
    """
    e = np.array(edges, dtype=float)
    norms = np.linalg.norm(e, axis=1)
    for _ in range(10_000):
        if np.any(norms < 1e-8 * length):
            raise ConvergenceError(f"equilateral closure collapsed edge {int(np.argmin(norms))}")
        e *= (length / norms)[:, None]
        e -= e.mean(axis=0)
        norms = np.linalg.norm(e, axis=1)
        deviation = float(np.max(np.abs(norms - length))) / length
        if deviation < 1e-12 and float(np.linalg.norm(e.sum(axis=0))) < 1e-12 * length:
            return e
    raise ConvergenceError(f"equilateral closure stalled at edge deviation {deviation:.3e}")


def random_equilateral_polygon(n: int, dim: int = 3, seed: int = 0) -> ClosedPolygon:
    """Seeded random closed polygon with n unit edges.

    Gaussian edge vectors are drawn from the seeded generator and closed
    up by :func:`close_equilateral`; a draw that collapses, stalls or
    comes within 1e-9 of a double point is redrawn.  Attempt k draws from
    ``SeedSequence(entropy=seed, spawn_key=(k,))``, so the result is
    deterministic for a fixed seed.  The double points are found by a
    k-d tree's pair query, in O(n log n) time and O(n) memory.
    """
    if n < 3:
        raise InputError("a polygon needs n >= 3")
    if dim not in (2, 3):
        raise InputError("dim must be 2 or 3")
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, not {seed}")
    for attempt in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        try:
            e = close_equilateral(rng.standard_normal((n, dim)), 1.0)
        except ConvergenceError:
            continue
        polygon = ClosedPolygon(np.vstack([np.zeros(dim), np.cumsum(e[:-1], axis=0)]))
        if not cKDTree(polygon.vertices).query_pairs(1e-9):
            return polygon
    raise ConvergenceError(f"could not close a random equilateral {n}-gon for seed {seed}")


def _as_sampler(obj):
    """(eval, tangent, length, segment_count) view of a polygon or arc-length curve.

    :mod:`curves` builds on this module's chord kernel, so an arc-length
    curve is recognized by its ``eval``, ``tangent`` and ``length``.
    """
    if isinstance(obj, ClosedPolygon):
        return obj.eval, obj.tangent_at, obj.total_length, obj.n
    if all(hasattr(obj, name) for name in ("eval", "tangent", "length")):
        return obj.eval, obj.tangent, obj.length, 256
    raise InputError(f"cannot measure distances on {type(obj).__name__}")


def curve_distance(f, g, norm: str = "Lq", q=2, grid: int | None = None) -> float:
    """L^q or W^{1,q} distance between two closed unit-speed curves of equal length.

    Both inputs must have the same total length (rescale first).  The
    value is a composite-midpoint approximation on ``grid`` points; for
    polygons the derivative is the exact edge direction, sampled strictly
    inside edges.  q may be any value in [1, inf].
    """
    f_eval, f_tan, f_len, f_segs = _as_sampler(f)
    g_eval, g_tan, g_len, g_segs = _as_sampler(g)
    L = max(f_len, g_len)
    if abs(f_len - g_len) > 1e-9 * L:
        raise InputError(f"length mismatch {f_len!r} vs {g_len!r}: rescale before comparing")
    if norm not in ("Lq", "W1q"):
        raise InputError("norm must be 'Lq' or 'W1q'")
    q = float(q)
    if not q >= 1.0:
        raise InputError("q must lie in [1, inf]")
    min_grid = 2 * max(f_segs, g_segs, 256)
    if grid is None:
        grid = min_grid
    if grid < min_grid:
        raise InputError(f"grid must be at least {min_grid} for these inputs")

    s = (np.arange(grid) + 0.5) * (f_len / grid)
    parts = [np.linalg.norm(f_eval(s) - g_eval(s), axis=1)]
    if norm == "W1q":
        parts.append(np.linalg.norm(f_tan(s) - g_tan(s), axis=1))
    if math.isinf(q):
        return max(float(p.max()) for p in parts)
    total = math.fsum(float((p**q).sum()) * (f_len / grid) for p in parts)
    return total ** (1.0 / q)
