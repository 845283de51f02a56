"""Knot energy functionals.

Three functionals live here: the discrete Moebius energy of a closed
polygon (inverse-square chord minus inverse-square arc distance, summed
over vertex pairs with edge-length weights), the minimum distance energy
over non-adjacent segment pairs, measured against the closed-form regular
n-gon value, and the smooth Moebius energy of an embedded arc-length curve
computed by the periodic trapezoid rule on all node pairs, measured against
the round circle of the same length.  Each pass visits every pair once.  A
closed-form evaluation of the discrete energy for regular n-gons serves as
an independent oracle, and sphere inversion is provided for invariance
spot checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curves import ArcLengthCurve, ParametricCurve
from .errors import DoublePointError, InputError, NotEmbeddedError
from .polygon import BLOCK_PAIRS, ClosedPolygon, chord_length_regular, inverse_square_chord_blocks


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
    value is the potential minus its regular n-gon reference, each a
    compensated sum of per-separation sums, and is roundoff-sized near the
    regular n-gon.
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
        rows = (f"{i},{j},{term!r}\n"
                for i, row in enumerate(self.terms.tolist()) for j, term in enumerate(row))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(["i,j,term\n", *rows]))


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
        D = np.subtract(a[r0:], a[rows, None])                  # a_j - a_i >= 0 for j > i
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
        largest_term = max(largest_term, float(block.max()), -float(block.min()))
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


def _dot(x, y, out, tmp):
    """Sum over the leading (coordinate) axis of x * y into ``out``, via the buffer ``tmp``."""
    np.multiply(x, y, out=tmp)
    np.add(tmp[0], tmp[1], out=out)
    for row in tmp[2:]:
        out += row
    return out


def _cross(x, y):
    """Cross product over the leading (coordinate) axis: (3, ...) in 3-D, (1, ...) in 2-D."""
    if x.shape[0] == 2:
        return x[:1] * y[1:] - x[1:] * y[:1]
    return np.cross(x, y, axis=0)


def _squared_segment_distances(r, d1, d2, a, e, work=None) -> np.ndarray:
    """Squared distances between the segments p1 + s d1 and p2 + t d2, s, t in [0, 1], batched.

    Coordinate-first: r = p1 - p2 is (dim, ...), and d1, d2 broadcast to
    its shape; a = |d1|^2 and e = |d2|^2 broadcast to the pair shape
    ``r.shape[1:]``.  s minimizes the distance between the two lines and
    is clamped to [0, 1]; t then locates the point of the second segment
    closest to p1 + s d1, and s the point of the first closest to
    p2 + t d2, each clamped (Ericson, *Real-Time Collision Detection*,
    5.1.9).  The distance is |w| for w = r + s d1 - t d2, so its roundoff
    is relative to |r|, not to the coordinates.  Where a e - b^2 (a e times
    the squared sine of the angle) falls below 1e-4 b^2, cancellation has
    cost it 4 or more digits, so Lagrange's identity takes it and the
    numerator of s from cross products: a e - b^2 = |d1 x d2|^2 and
    b f - c e = (d1 x d2) . (d2 x r), and nearly parallel segments that
    cross are caught.  Pairs with d1 x d2 = 0 are parallel: the clamped
    steps can stop short there, so they take the smallest of the four
    endpoint-to-segment distances, which is exact.  Every other pass
    writes into ``work``, a (dim + 5, *pair shape) scratch array that a
    caller can reuse across batches; ``r`` is overwritten, and the result
    is a view into ``work``.
    """
    dim = r.shape[0]
    if work is None:
        work = np.empty((dim + 5,) + r.shape[1:])
    w, (b, c, f, s, t) = work[:dim], work[dim:]
    _dot(d1, d2, b, w)
    _dot(d1, r, c, w)
    _dot(d2, r, f, w)
    denom = np.multiply(a, e, out=t)
    denom -= np.square(b, out=s)
    near = np.less_equal(denom, np.multiply(s, 1e-4, out=w[0]))
    has_near = bool(near.any())
    if has_near:
        rp, d1p, d2p = (np.broadcast_to(x, r.shape)[:, near] for x in (r, d1, d2))
        normal = _cross(d1p, d2p)
        denom[near] = np.einsum("i...,i...->...", normal, normal)
        numer = np.einsum("i...,i...->...", normal, _cross(d2p, rp))
    parallel = denom <= 0.0
    ends = None
    if parallel.any():      # each endpoint against the other segment, before r is overwritten
        rp, d1p, d2p = (np.broadcast_to(x, r.shape)[:, parallel] for x in (r, d1, d2))
        ap, ep = (np.broadcast_to(x, parallel.shape)[parallel] for x in (a, e))
        x = np.stack([rp, rp + d1p, -rp, d2p - rp], axis=1)     # from the other segment's start
        d = np.stack([d2p, d2p, d1p, d1p], axis=1)
        x -= np.clip(np.einsum("i...,i...->...", x, d) / np.stack([ep, ep, ap, ap]), 0.0, 1.0) * d
        ends = np.einsum("i...,i...->...", x, x).min(axis=0)
    np.copyto(denom, np.inf, where=parallel)        # s = 0 there, overwritten by ``ends`` below
    np.multiply(c, e, out=w[0])
    np.multiply(b, f, out=s)
    s -= w[0]
    if has_near:
        s[near] = numer
    s /= denom
    np.clip(s, 0.0, 1.0, out=s)
    np.multiply(b, s, out=t)
    t += f
    t /= e
    np.clip(t, 0.0, 1.0, out=t)
    np.multiply(t, b, out=s)
    s -= c
    s /= a
    np.clip(s, 0.0, 1.0, out=s)
    np.multiply(s, d1, out=w)
    w += r
    w -= np.multiply(t, d2, out=r)
    dist2 = _dot(w, w, b, w)
    if ends is not None:
        dist2[parallel] = ends
    return dist2


def segment_distance(seg_a, seg_b) -> float:
    """Euclidean distance between two closed segments, each given as (start, end)."""
    pa, qa = (np.asarray(x, dtype=float) for x in seg_a)
    pb, qb = (np.asarray(x, dtype=float) for x in seg_b)
    d1, d2 = qa - pa, qb - pb
    a, e = d1 @ d1, d2 @ d2
    if a == 0.0 or e == 0.0:
        raise InputError("segments must have positive length")
    dist2 = _squared_segment_distances((pa - pb)[:, None], d1[:, None], d2[:, None], a, e)
    return math.sqrt(dist2[0])


def _doubled_windows(x: np.ndarray) -> np.ndarray:
    """View w of x's last axis, length n, doubled: w[..., k, i] = x[..., (i + k) % n], k = 0 .. n."""
    return sliding_window_view(np.concatenate([x, x], axis=-1), x.shape[-1], axis=-1)


def minimum_distance_energy(p: ClosedPolygon, keep_terms: bool = False) -> EnergyReport:
    """Minimum distance energy: segment-pair potential minus its regular n-gon value.

    The potential sums |X_i||X_j| / dist(X_i, X_j)^2 over ordered segment
    pairs that share no vertex.  Cyclic separation k = 2 .. n // 2 takes
    the n pairs (i, i + k mod n); they hold each unordered pair once, so
    they count twice, except at 2k = n, where they are the ordered pairs.
    The vertices, edges and lengths are stored coordinate-first, (dim, n),
    and doubled, so segment i + k mod n of every i is a slice of a sliding
    window view: a pass builds no index arrays and gathers no segments.
    Whole separations are evaluated K at a time, as one (K, n) batch of
    about :data:`polygon.BLOCK_PAIRS` / 8 pairs, in a scratch of 2 dim + 5
    values per pair allocated once per call; every pair's distance is the
    same whatever the batching.  On the regular n-gon, edges i and i + k
    are closest at v_{i+1} and v_{i+k} (see PAPER.md), so its term is the
    closed form ref_k = (sin(pi/n) / sin((min(k, n - k) - 1) pi/n))^2,
    symmetric in k and n - k, and its potential is n sum_k ref_k.  The
    ordered pair (i, j) carries the excess term - ref[(j - i) mod n];
    ``value`` is the compensated sum of the per-separation potentials
    minus the reference's, and the (n, n) excess matrix is built only
    under ``keep_terms``.  For n = 3 every pair is adjacent and the sum is
    vacuous (value 0, flagged).  Pairs closer than 1e-12 L raise
    :class:`DoublePointError` naming the smallest such (i, j), i < j, in
    row-major order, the chord kernel's rule.
    """
    n, L, ell = p.n, p.total_length, p.edge_lengths
    V = p.vertices.T
    E = np.roll(V, -1, axis=1) - V
    sq = np.einsum("ij,ij->j", E, E)
    V2, E2, ell2, sq2 = (_doubled_windows(x) for x in (V, E, ell, sq))
    sep = np.arange(2, n - 1)
    ref = np.zeros(n)
    ref[sep] = (math.sin(math.pi / n) / np.sin((np.minimum(sep, n - sep) - 1) * (math.pi / n))) ** 2

    terms = np.zeros((n, n)) if keep_terms else None
    sums = np.zeros((2, n // 2 + 1))    # per separation: potential, max |excess|
    dim, thr2 = V.shape[0], (1e-12 * L) ** 2
    smallest, pair = math.inf, n * n    # pair: i * n + j of the smallest double point found
    step = max(1, BLOCK_PAIRS // (8 * n))
    work = np.empty((2 * dim + 5, step, n))     # r, then the distance scratch
    for k0 in range(2, n // 2 + 1, step):     # separations k0 .. k1 - 1
        k1 = min(k0 + step, n // 2 + 1)
        k = np.arange(k0, k1)
        r = np.subtract(V[:, None], V2[:, k0:k1], out=work[:dim, :k.size])
        dist2 = _squared_segment_distances(r, E[:, None], E2[:, k0:k1], sq, sq2[k0:k1],
                                           work[dim:, :k.size])
        d_min = float(dist2.min())
        smallest = min(smallest, d_min)
        if d_min < thr2:
            kk, i = np.nonzero(dist2 < thr2)
            j = (i + k[kk]) % n
            pair = min(pair, int((np.minimum(i, j) * n + np.maximum(i, j)).min()))
        if pair < n * n:
            continue    # the energy is infinite; only the smallest double point is still wanted
        vals = np.multiply(ell, ell2[k0:k1], out=r[0])
        vals /= dist2
        # rounding is monotone, so max |vals - c| = max(max vals - c, c - min vals), bitwise
        sums[:, k] = (np.where(2 * k == n, 1.0, 2.0) * vals.sum(axis=1),
                      np.maximum(vals.max(axis=1) - ref[k], ref[k] - vals.min(axis=1)))
        if keep_terms:
            i = np.arange(n)
            j = (i + k[:, None]) % n
            terms[i, j] = terms[j, i] = vals - ref[k, None]
    if pair < n * n:
        pair = divmod(pair, n)
        raise DoublePointError(f"infinite energy: segment pair {pair}", pair=pair)

    potential, regular = math.fsum(sums[0]), n * math.fsum(ref)
    diag = {
        "potential": potential,
        "regular_ngon_potential": regular,
        "smallest_distance": None if math.isinf(smallest) else math.sqrt(smallest),
        "largest_term": float(sums[1].max()),
    }
    if n == 3:
        diag["vacuous_sum"] = True
    return EnergyReport(
        value=potential - regular,
        term_count=n * (n - 3),
        scheme="mindist",
        terms=terms,
        diagnostics=diag,
    )


QUADRATURE_GRIDS = (128, 256, 512, 1024, 2048, 4096)   # node counts m, tried in order


def smooth_moebius_energy(curve: ArcLengthCurve, tol: float = 1e-8) -> EnergyReport:
    """Smooth Moebius energy of an embedded closed unit-speed curve.

    E = 4 + the integral over the torus of F(s, t) = 1 / |gamma(s) -
    gamma(t)|^2 - (pi / L)^2 / sin^2(pi (s - t) / L), the chord term
    measured against the round circle of the same length, whose energy is
    4.  F is smooth and periodic, with the diagonal limit kappa^2 / 12 -
    pi^2 / (3 L^2), so the trapezoid rule h^2 sum_ij F_ij on m uniform
    arc-length nodes, h = L / m, converges spectrally on smooth curves
    (algebraically on C^{1,1} ones; see PAPER.md).  The pairs i < j come
    from :func:`polygon.inverse_square_chord_blocks` on the m-gon of nodes,
    each unordered pair once, and the consecutive pairs, which that kernel
    zeroes, from the m-gon's edge lengths.  The circle reference sums in
    closed form: sum_{k=1}^{m-1} sin^-2(pi k / m) = (m^2 - 1) / 3, which
    with the diagonal's - pi^2 / (3 L^2) gives h^2 m^3 pi^2 / (3 L^2) =
    m pi^2 / 3.  kappa^2 is |gamma''|^2 from the nodes' discrete Fourier
    transform with the Nyquist mode zeroed, summed by Parseval.  m doubles
    through :data:`QUADRATURE_GRIDS` until two grids agree to tol *
    max(1, value); ``levels`` counts the grids tried and ``term_count``
    sums m^2 over them.  Nodes closer than 1e-9 L, consecutive ones
    included, raise :class:`NotEmbeddedError`.
    """
    if not 1e-10 <= tol <= 1e-3:
        raise InputError("tol must lie in [1e-10, 1e-3]")
    L = curve.length
    estimates: list[float] = []
    evaluations, smallest, converged = 0, math.inf, False
    for m in QUADRATURE_GRIDS:
        h = L / m
        P = curve.eval(np.arange(m) * h)
        if not np.isfinite(P).all():
            raise InputError("curve nodes must be finite")
        try:
            nodes = ClosedPolygon(P)
            sums = []
            for _, Q, small in inverse_square_chord_blocks(nodes, 1e-9 * L):
                sums.append(float(Q.sum()))
                smallest = min(smallest, small)
        except (DoublePointError, InputError):      # InputError: consecutive nodes coincide
            raise NotEmbeddedError("curve is not embedded at the quadrature resolution") from None
        sums.append(float(np.reciprocal(np.square(nodes.edge_lengths)).sum()))   # consecutive pairs
        # sum_i |gamma''(s_i)|^2 by Parseval, modes 1 .. m/2 - 1 counted twice
        spectrum = np.square(np.abs(np.fft.rfft(P, axis=0)[1:m // 2])).sum(axis=1)
        wave = (2.0 * math.pi / L) * np.arange(1, m // 2)
        kappa_sq = (2.0 / m) * float(np.dot(wave**4, spectrum))
        estimates.append(4.0 - m * math.pi**2 / 3.0 + h * h * (2.0 * math.fsum(sums) + kappa_sq / 12.0))
        evaluations += m * m
        if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < tol * max(1.0, abs(estimates[-1])):
            converged = True
            break
    diag = {
        "levels": len(estimates),
        "grid": m,
        "smallest_chord": smallest,
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
