"""Knot energy functionals.

Three functionals live here: the discrete Moebius energy of a closed
polygon (inverse-square chord minus inverse-square arc distance, summed
over vertex pairs with edge-length weights), the minimum distance energy
over non-adjacent segment pairs, measured against the closed-form regular
n-gon value, and the smooth Moebius energy of an embedded arc-length curve
computed by the periodic trapezoid rule on all node pairs, measured against
the round circle of the same length.  Each pass visits every pair once and
keeps no per-pair terms: a report holds each energy as one number, and
memory stays O(n) beyond one block of pairs.  A closed-form evaluation of
the discrete energy for regular n-gons serves as an independent oracle,
and sphere inversion of arc-length curves is provided for invariance spot
checks of the smooth energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curves import ArcLengthCurve, ParametricCurve
from .errors import DoublePointError, InputError, NotEmbeddedError
from .polygon import BLOCK_PAIRS, ClosedPolygon, chord_length_regular, inverse_square_chord_blocks


@dataclass
class EnergyReport:
    """Energy value with summation metadata and diagnostics.

    ``value`` is the energy itself, a single number: no per-pair terms
    are kept.  ``term_count`` counts the pairs (or, for the smooth energy,
    the quadrature evaluations) that went into it, and ``to_dict`` writes
    it as ``"terms"``.
    """

    value: float
    term_count: int
    scheme: str
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "terms": self.term_count,
            "scheme": self.scheme,
            "diagnostics": self.diagnostics,
        }


def discrete_moebius_energy(p: ClosedPolygon, scheme: str = "forward") -> EnergyReport:
    """Discrete Moebius energy of a closed polygon.

    Sums, over ordered vertex pairs i != j, the terms w_i w_j (Q_ij - D_ij)
    with the scheme's weights w: Q is the inverse-square chord and D the
    inverse-square intrinsic distance d(a_i, a_j) of the arc parameters,
    both zero on the diagonal and on consecutive pairs (there chord and
    arc distance are the same edge, so the term vanishes).  The terms are
    symmetric, so they are built pair by pair on the strict upper triangle
    only, one trapezoid block of :func:`polygon.inverse_square_chord_blocks`
    at a time; ``value`` is twice the compensated sum of the blocks'
    weighted row sums.  Nearly coincident vertices raise
    :class:`DoublePointError` (the energy is infinite there).  Up to a
    ``max_edge_deviation`` of 1e-8, D is 1 / (c min(k, n - k))^2 at
    k = j - i, c = L / n, a Toeplitz view of one row, but for the kinked
    ties (i, i + n/2) of even n: to second order in the deviation, the
    same (PAPER.md).  ``diagnostics["arc"]`` is "separation" or "parameters".

    The ``"forward"`` scheme weights a vertex by its outgoing edge length,
    ``"averaged"`` by the mean of its two incident edge lengths; both
    coincide on equilateral polygons.
    """
    if scheme not in ("forward", "averaged"):
        raise InputError(f"weight scheme must be 'forward' or 'averaged', not {scheme!r}")
    n, L, a = p.n, p.total_length, p.arc_params
    forward = np.minimum(p.edge_lengths, L - p.edge_lengths)   # d(a_i, a_{i+1})
    w = forward if scheme == "forward" else 0.5 * (np.roll(forward, 1) + forward)
    arc = "separation" if p.equilaterality().max_edge_deviation <= 1e-8 else "parameters"
    if arc == "separation":
        tie = n // 2 * (1 - n % 2)      # even n: the pairs (i, i + n/2), where d has a kink, keep d(a_i, a_j)
        sep, k = np.zeros(2 * n), np.arange(2, n - 1)   # sep[n + k] = 1 / (c min(k, n - k))^2, else 0
        sep[n + 2:2 * n - 1] = np.reciprocal(np.square((L / n) * np.minimum(k, n - k)))
        sep[n + tie] = 0.0              # odd n: sep[n] is 0 anyway
        d = a[n - tie:] - a[:tie]
        tie_D = np.reciprocal(np.square(np.minimum(d, L - d)))

    sums, smallest_chord = [], math.inf
    # each block holds Q[r0:r1, r0:] and is turned into the terms in place
    for r0, block, smallest in inverse_square_chord_blocks(p, 1e-12 * L):
        i = np.arange(block.shape[0])
        rows = slice(r0, r0 + i.size)
        if arc == "separation":     # D[i, j] = sep[n + j - i], a Toeplitz view; the ties on a diagonal
            D = np.ndarray(block.shape, buffer=sep, offset=8 * n, strides=(-8, 8))      # float64
            t = i[:tie_D[rows].size]
            block[t, tie + t] -= tie_D[rows]
        else:
            D = np.subtract(a[r0:], a[rows, None])                  # a_j - a_i >= 0 for j > i
            np.minimum(D, L - D, out=D)                             # d(a_i, a_j)
            D[:, :i.size][np.tri(i.size, dtype=bool)] = np.inf     # j <= i
            D = np.reciprocal(np.square(D, out=D), out=D)
            D[i, i + 1] = 0.0
            if r0 == 0:
                D[0, n - 1] = 0.0
        block -= D
        block *= w[r0:]
        # a chord is no longer than its arcs, so every term is >= 0 (to the deviation, on the
        # separation path) and numpy's pairwise row sums are accurate to ~log2(row length) ulp
        sums.append(float(w[rows] @ block.sum(axis=1)))
        smallest_chord = min(smallest_chord, smallest)
    return EnergyReport(
        value=2.0 * math.fsum(sums),
        term_count=n * (n - 1),
        scheme=scheme,
        diagnostics={"smallest_chord": smallest_chord, "arc": arc},
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
    cross are caught.  Pairs with d1 x d2 = 0 are parallel and start from
    s = 0, so t is p1's projection onto the second segment and s that
    point's projection onto the first: along the common direction the
    first clamp lands in the second interval and the second clamp then
    reaches the first interval's nearest point, so the gap is exact
    whether the intervals overlap or not.  Every other pass writes into
    ``work``, a (dim + 5, *pair shape) scratch array that a caller can
    reuse across batches; ``r`` is overwritten, and the result is a view
    into ``work``.
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
    np.copyto(denom, np.inf, where=denom <= 0.0)    # parallel: s = 0
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
    return _dot(w, w, b, w)


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


def minimum_distance_energy(p: ClosedPolygon) -> EnergyReport:
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
    symmetric in k and n - k, and its potential is n sum_k ref_k.
    ``value`` is the compensated sum of the per-separation potentials
    minus the reference's.  For n = 3 every pair is adjacent and the sum
    is vacuous (value 0, flagged).  Pairs closer than 1e-12 L raise
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

    sums = np.zeros(n // 2 + 1)     # per separation: potential
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
        sums[k] = np.where(2 * k == n, 1.0, 2.0) * vals.sum(axis=1)
    if pair < n * n:
        pair = divmod(pair, n)
        raise DoublePointError(f"infinite energy: segment pair {pair}", pair=pair)

    potential, regular = math.fsum(sums), n * math.fsum(ref)
    diag = {
        "potential": potential,
        "regular_ngon_potential": regular,
        "smallest_distance": None if math.isinf(smallest) else math.sqrt(smallest),
    }
    if n == 3:
        diag["vacuous_sum"] = True
    return EnergyReport(
        value=potential - regular,
        term_count=n * (n - 3),
        scheme="mindist",
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
    max(1, value); ``converged`` says whether they did (an unconverged
    run is reported, not raised), ``levels`` counts the grids tried and
    ``term_count`` sums m^2 over them.  Nodes closer than 1e-9 L,
    consecutive ones included, raise :class:`NotEmbeddedError`.
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
    return EnergyReport(
        value=estimates[-1],
        term_count=evaluations,
        scheme="quadrature",
        diagnostics={
            "levels": len(estimates),
            "grid": m,
            "smallest_chord": smallest,
            "last_estimates": estimates[-2:],
            "converged": converged,
            "tol": tol,
        },
    )


def moebius_inversion(obj, center, radius: float):
    """Sphere inversion x -> center + radius^2 (x - center) / |x - center|^2 of an arc-length curve.

    The curve maps pointwise and comes back as a :class:`ParametricCurve`
    on [0, 1), ready for a fresh arc-length reparametrization.  Anything
    else, a polygon included, is an :class:`InputError`: inverting a
    polygon's vertices does not preserve the discrete energy.
    """
    if radius <= 0:
        raise InputError("inversion radius must be positive")
    if not isinstance(obj, ArcLengthCurve):
        raise InputError(f"cannot invert {type(obj).__name__}")
    c = np.asarray(center, dtype=float)
    L, dim = obj.length, obj.dim
    base_point = lambda u: obj.eval(np.asarray(u) * L)
    base_vel = lambda u: obj.tangent(np.asarray(u) * L) * L

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
        f"inversion({obj.kind})",
        {"center": c.tolist(), "radius": radius, "source_params": dict(obj.source.params)},
        dim,
        deriv,
    )
