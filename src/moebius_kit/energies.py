"""Knot energy functionals.

Three functionals live here: the discrete Moebius energy of a closed
polygon (inverse-square chord minus inverse-square arc distance, summed
over vertex pairs with edge-length weights), the minimum distance energy
over non-adjacent segment pairs normalized by the regular n-gon, and the
smooth Moebius energy of an embedded arc-length curve computed by
band-regularized tensor quadrature.  A closed-form evaluation for regular
n-gons serves as an independent oracle, and sphere inversion is provided
for invariance spot checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import ArcLengthCurve, ParametricCurve
from .errors import DoublePointError, InputError, NotEmbeddedError
from .polygon import (
    BLOCK_PAIRS,
    ClosedPolygon,
    chord_length_regular,
    inverse_square_chord_blocks,
    regular_ngon,
)


class WeightScheme(str, enum.Enum):
    """Quadrature weights for the discrete energy.

    ``forward`` weights a vertex by its outgoing edge length; ``averaged``
    by the mean of its two incident edge lengths.  Both coincide on
    equilateral polygons.
    """

    FORWARD = "forward"
    AVERAGED = "averaged"


@dataclass
class EnergyReport:
    """Energy value with summation metadata and diagnostics.

    When the per-pair term matrix is retained, re-summing it row-major with
    compensated accumulation reproduces ``value``: to 1e-12 relative for
    the discrete energy, whose terms are all >= 0, and to 1e-12 times
    ``diagnostics["potential"]`` for the minimum distance energy, whose
    value sums per-separation sums and is roundoff-sized near the regular
    n-gon.
    """

    value: float
    term_count: int
    scheme: str
    terms: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "terms": self.term_count,
            "scheme": self.scheme,
            "diagnostics": self.diagnostics,
        }

    def terms_to_csv(self, path) -> None:
        if self.terms is None:
            raise InputError("term matrix was not retained for this report")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("i,j,term\n")
            n, m = self.terms.shape
            for i in range(n):
                for j in range(m):
                    fh.write(f"{i},{j},{float(self.terms[i, j])!r}\n")


def discrete_moebius_energy(p: ClosedPolygon, scheme=WeightScheme.FORWARD,
                            keep_terms: bool = False) -> EnergyReport:
    """Discrete Moebius energy of a closed polygon.

    Sums, over ordered vertex pairs i != j, the terms w_i w_j (Q_ij - D_ij)
    with the scheme's weights w: Q is the inverse-square chord and D the
    inverse-square intrinsic distance d(a_i, a_j) of the arc parameters,
    both zero on the diagonal and on consecutive pairs (there chord and
    arc distance are the same edge, so the term vanishes).  The terms are
    symmetric, so they are built on the strict upper triangle only, one
    trapezoid block of :func:`polygon.inverse_square_chord_blocks` at a
    time; each block is summed, and ``value`` is twice the compensated
    sum of the block sums.  The (n, n) term matrix, both triangles, exists
    only under ``keep_terms``.  Nearly coincident vertices raise
    :class:`DoublePointError` (the energy is infinite there).
    """
    scheme = WeightScheme(scheme)
    n, L, a = p.n, p.total_length, p.arc_params
    forward = np.minimum(p.edge_lengths, L - p.edge_lengths)   # d(a_i, a_{i+1})
    w = forward if scheme is WeightScheme.FORWARD else 0.5 * (np.roll(forward, 1) + forward)

    terms = np.zeros((n, n)) if keep_terms else None
    sums, smallest_chord, largest_term = [], math.inf, 0.0
    # each block holds Q[r0:r1, r0:] and is turned into the terms in place
    for r0, block, smallest in inverse_square_chord_blocks(p, 1e-12 * L):
        i = np.arange(block.shape[0])
        rows = slice(r0, r0 + i.size)
        D = np.abs(np.subtract.outer(a[rows], a[r0:]))
        np.minimum(D, L - D, out=D)                             # d(a_i, a_j)
        D[:, :i.size][np.tri(i.size, dtype=bool)] = np.inf     # j <= i
        D = np.reciprocal(np.square(D, out=D), out=D)
        D[i, i + 1] = 0.0
        if r0 == 0:
            D[0, n - 1] = 0.0
        block -= D
        block *= np.multiply.outer(w[rows], w[r0:])
        # a chord is no longer than either arc between its ends, so every
        # term is >= 0 and numpy's pairwise block sums are accurate to
        # ~log2(block size) ulp
        sums.append(float(block.sum()))
        smallest_chord = min(smallest_chord, smallest)
        largest_term = max(largest_term, float(np.abs(block).max()))
        if keep_terms:
            terms[rows, r0:] = block
    if keep_terms:
        terms += terms.T    # Q, D and w_i w_j are bitwise symmetric, and so are the terms
    return EnergyReport(
        value=2.0 * math.fsum(sums),
        term_count=n * (n - 1),
        scheme=scheme.value,
        terms=terms,
        diagnostics={
            "smallest_chord": smallest_chord,
            "largest_term": largest_term,
            "weights": scheme.value,
        },
    )


def regular_ngon_energy(n: int) -> float:
    """Closed-form discrete Moebius energy of the regular n-gon.

    Independent oracle: n vertex pairs at each separation k share the chord
    sin(k pi / n) / (n sin(pi / n)) at unit perimeter.
    """
    if n < 3:
        raise InputError("a polygon needs n >= 3")
    k = np.arange(1, n)
    chord = np.array([chord_length_regular(n, int(kk), 1.0) for kk in k])
    dint = np.minimum(k, n - k) / n
    terms = n * (1.0 / chord**2 - 1.0 / dint**2) / n**2
    terms[[0, -1]] = 0.0   # consecutive vertices: chord equals arc distance exactly
    return math.fsum(terms)


def _segment_distance_batch(p1, q1, p2, q2) -> np.ndarray:
    """Pairwise distances between segments [p1,q1] and [p2,q2] (batched)."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("...k,...k->...", d1, d1)
    e = np.einsum("...k,...k->...", d2, d2)
    b = np.einsum("...k,...k->...", d1, d2)
    c = np.einsum("...k,...k->...", d1, r)
    f = np.einsum("...k,...k->...", d2, r)
    denom = a * e - b * b
    s = np.where(denom > 0.0, np.clip((b * f - c * e) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0), 0.0)
    t = (b * s + f) / e
    t_low = t < 0.0
    t_high = t > 1.0
    s = np.where(t_low, np.clip(-c / a, 0.0, 1.0), s)
    s = np.where(t_high, np.clip((b - c) / a, 0.0, 1.0), s)
    t = np.clip(t, 0.0, 1.0)
    closest1 = p1 + s[..., None] * d1
    closest2 = p2 + t[..., None] * d2
    return np.linalg.norm(closest1 - closest2, axis=-1)


def segment_distance(seg_a, seg_b) -> float:
    """Euclidean distance between two closed segments, each given as (start, end)."""
    pa, qa = (np.asarray(x, dtype=float) for x in seg_a)
    pb, qb = (np.asarray(x, dtype=float) for x in seg_b)
    if np.linalg.norm(qa - pa) == 0.0 or np.linalg.norm(qb - pb) == 0.0:
        raise InputError("segments must have positive length")
    return float(_segment_distance_batch(pa[None], qa[None], pb[None], qb[None])[0])


def minimum_distance_energy(p: ClosedPolygon, keep_terms: bool = False) -> EnergyReport:
    """Minimum distance energy: segment-pair potential minus its regular n-gon value.

    The potential sums |X_i||X_j| / dist(X_i, X_j)^2 over ordered segment
    pairs that share no vertex.  Cyclic separation k = 2 .. n // 2 takes
    the pairs {i, i + k mod n}, each once (n / 2 of them when 2k = n).
    The separations with 2k < n are evaluated K at a time, as one (K, n)
    batch of about :data:`polygon.BLOCK_PAIRS` / 8 pairs, whose distance
    temporaries take about as much memory as a chord block; the 2k = n
    separation has a pass of its own.  The regular n-gon's term depends
    on k alone, one circulant row ``ref``: the ordered pair (i, j),
    i < j, carries the excess term - ref[j - i] and (j, i) carries
    term - ref[n - (j - i)].  ``value`` is the compensated sum of the
    per-separation excess sums; the (n, n) excess matrix is built only
    under ``keep_terms``.  For n = 3 every pair is adjacent and the sum
    is vacuous (value 0, flagged).  A pair closer than 1e-12 L raises
    :class:`DoublePointError` naming the closest pair (i, j), i < j, the
    smallest one on ties.
    """
    n, L, v, ell = p.n, p.total_length, p.vertices, p.edge_lengths
    ends = np.roll(v, -1, axis=0)
    g = regular_ngon(n, L, dim=2).vertices
    sep = np.arange(2, n - 1)
    ref = np.zeros(n)
    ref[sep] = (L / n) ** 2 / _segment_distance_batch(g[:1], g[1:2], g[sep], g[(sep + 1) % n]) ** 2

    terms = np.zeros((n, n)) if keep_terms else None
    sums = np.zeros((4, n // 2 + 1))    # per separation: potential, reference, excess, max |excess|
    closest = (math.inf, 0)             # distance, then i * n + j of the smallest closest pair
    full = np.arange(2, (n + 1) // 2)   # separations with 2k < n: n pairs each
    step = max(1, BLOCK_PAIRS // (8 * n))   # a pair's distance takes about 8 (x, y, z) temporaries
    batches = [(full[s:s + step, None], np.arange(n)) for s in range(0, full.size, step)]
    if n % 2 == 0:
        batches.append((np.array([[n // 2]]), np.arange(n // 2)))
    for k, i in batches:                # k: (K, 1) separations; i: the first segment of each pair
        j = (i + k) % n
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        dist = _segment_distance_batch(v[lo], ends[lo], v[hi], ends[hi])
        d_min = float(dist.min())
        if d_min <= closest[0]:
            closest = min(closest, (d_min, int((lo * n + hi)[dist == d_min].min())))
        if closest[0] < 1e-12 * L:
            continue    # the energy is infinite; only the closest pair is still wanted
        vals = ell[lo] * ell[hi] / dist**2
        up, down = vals - ref[hi - lo], vals - ref[n - (hi - lo)]
        k = k[:, 0]
        sums[:, k] = (2.0 * vals.sum(axis=1), i.size * (ref[k] + ref[n - k]),
                      up.sum(axis=1) + down.sum(axis=1),
                      np.maximum(np.abs(up).max(axis=1), np.abs(down).max(axis=1)))
        if keep_terms:
            terms[lo, hi], terms[hi, lo] = up, down
    if closest[0] < 1e-12 * L:
        pair = divmod(closest[1], n)
        raise DoublePointError(f"infinite energy: segment pair {pair}", pair=pair)

    potential, regular, value = (math.fsum(row) for row in sums[:3])
    diag = {
        "potential": potential,
        "regular_ngon_potential": regular,
        "smallest_distance": None if math.isinf(closest[0]) else closest[0],
        "largest_term": float(sums[3].max()),
    }
    if n == 3:
        diag["vacuous_sum"] = True
    return EnergyReport(
        value=value,
        term_count=n * (n - 3),
        scheme="mindist",
        terms=terms,
        diagnostics=diag,
    )


def smooth_moebius_energy(curve: ArcLengthCurve, tol: float = 1e-8) -> EnergyReport:
    """Smooth Moebius energy of an embedded closed unit-speed curve.

    The double integral is split at each refinement level into three
    exactly-accounted parts: a tensor-product midpoint sum of the chord
    term measured against the round circle of the same length (smooth and
    periodic, so the midpoint rule converges fast), the closed-form
    integral of the circle reference minus the inverse-square intrinsic
    distance off a diagonal band, and a band contribution using the
    diagonal limit kappa(t)^2 / 12 of the integrand.  Level l uses a grid
    of 256 l points and a band half-width shrinking as L / (8 l^2);
    refinement stops when successive levels agree to tol * max(1, value),
    or after 12 levels.  The off-band chord sum runs on the m-gon of
    quadrature nodes through :func:`polygon.inverse_square_chord_blocks`,
    each node pair once, with the band's separations 2 .. K zeroed in
    every block; the circle reference over the same pairs is one sum over
    the separations.  Nodes closer than 1e-9 L raise
    :class:`NotEmbeddedError`.
    """
    if not 1e-10 <= tol <= 1e-3:
        raise InputError("tol must lie in [1e-10, 1e-3]")
    L = curve.length
    estimates: list[float] = []
    evaluations = 0
    m = K = 0
    h = 0.0
    global_min_chord = math.inf
    for level in range(1, 13):
        m = 256 * level
        K = max(1, int(round(m / (8.0 * level * level) - 0.5)))
        step = L / m
        h = (K + 0.5) * step
        s = (np.arange(m) + 0.5) * step
        P = curve.eval(s)

        second = np.roll(P, -1, axis=0) - 2.0 * P + np.roll(P, 1, axis=0)
        kappa_sq = np.einsum("ij,ij->i", second, second) / step**4
        band = (h / 6.0) * step * float(kappa_sq.sum())

        # the m-gon of nodes carries each pair once; the band |i - j| <= K
        # (cyclically) is left to the band term
        ref_coef = (math.pi / L) ** 2
        sums, largest = [], 0.0
        try:
            for _, Q, _ in inverse_square_chord_blocks(ClosedPolygon(P), 1e-9 * L):
                for k in range(2, K + 1):
                    np.fill_diagonal(Q[:, k:], 0.0)
                    np.fill_diagonal(Q[:, m - k:], 0.0)
                sums.append(float(Q.sum()))
                largest = max(largest, float(Q.max()))
        except DoublePointError:
            raise NotEmbeddedError("curve is not embedded at the quadrature resolution") from None
        ref = ref_coef / np.sin(np.pi * (np.arange(K + 1, m - K) * step) / L) ** 2
        off = 2.0 * math.fsum(sums) - m * math.fsum(ref)
        evaluations += m * (m - 2 * K - 1)
        global_min_chord = min(global_min_chord, 1.0 / math.sqrt(largest))

        ref_correction = 4.0 - 2.0 * L * (1.0 / h - (math.pi / L) / math.tan(math.pi * h / L))
        estimate = off * step * step + ref_correction + band
        estimates.append(estimate)
        if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < tol * max(1.0, abs(estimate)):
            break

    converged = len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < tol * max(
        1.0, abs(estimates[-1])
    )
    diag = {
        "levels": len(estimates),
        "grid": m,
        "band_cells": K,
        "band_halfwidth": h,
        "smallest_chord": global_min_chord,
        "last_estimates": estimates[-2:],
        "converged": converged,
        "tol": tol,
    }
    if not converged:
        diag["unconverged"] = True
    return EnergyReport(
        value=estimates[-1],
        term_count=evaluations,
        scheme="quadrature",
        terms=None,
        diagnostics=diag,
    )


def moebius_inversion(obj, center, radius: float):
    """Sphere inversion x -> center + radius^2 (x - center) / |x - center|^2.

    Polygons map vertex-wise (which does not preserve the discrete energy;
    use this for smooth-energy invariance checks).  Curves map pointwise
    and come back as :class:`ParametricCurve` objects ready for a fresh
    arc-length reparametrization.
    """
    if radius <= 0:
        raise InputError("inversion radius must be positive")
    c = np.asarray(center, dtype=float)

    if isinstance(obj, ClosedPolygon):
        if c.size != obj.dim:
            raise InputError("center dimension does not match the polygon")
        w = obj.vertices - c
        rho2 = np.einsum("ij,ij->i", w, w)
        if rho2.min() < (1e-6 * obj.total_length) ** 2:
            raise InputError("inversion center lies on the polygon")
        return ClosedPolygon(c + radius**2 * w / rho2[:, None])

    if isinstance(obj, ArcLengthCurve):
        L = obj.length
        base_point = lambda u: obj.eval(np.asarray(u) * L)
        base_vel = lambda u: obj.tangent(np.asarray(u) * L) * L
        kind = obj.kind
        params = dict(obj.source.params)
        dim = obj.dim
    elif isinstance(obj, ParametricCurve):
        base_point = obj
        base_vel = obj.velocity
        kind = obj.kind
        params = dict(obj.params)
        dim = obj.dim
    else:
        raise InputError(f"cannot invert {type(obj).__name__}")

    if c.size != dim:
        raise InputError("center dimension does not match the curve")
    samples = base_point(np.arange(2048) / 2048.0)
    gaps = np.linalg.norm(samples - c, axis=1)
    scale = float(np.linalg.norm(np.diff(samples, axis=0), axis=1).sum())
    if gaps.min() < 1e-6 * scale:
        raise InputError("inversion center lies on the curve")

    r2 = radius**2

    def point(u):
        w = base_point(u) - c
        rho2 = np.einsum("ij,ij->i", w, w)
        return c + r2 * w / rho2[:, None]

    def deriv(u):
        w = base_point(u) - c
        v = base_vel(u)
        rho2 = np.einsum("ij,ij->i", w, w)
        wv = np.einsum("ij,ij->i", w, v)
        return r2 * (v / rho2[:, None] - 2.0 * w * (wv / rho2**2)[:, None])

    return ParametricCurve(
        point,
        f"inversion({kind})",
        {"center": c.tolist(), "radius": radius, "source_params": params},
        dim,
        deriv,
    )
