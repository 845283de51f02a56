"""Minimization of the discrete Moebius energy over equilateral closed polygons.

Descent along the tangent space of the equilateral class: the Euclidean
gradient of the discrete energy is turned into a direction tangent to
the equal-edge constraint by one saddle-point solve in an order-3/2
Sobolev metric (:func:`sobolev_direction`, after Yu, Schumacher and
Crane, *Repulsive Curves*, 2021).  Each step is retracted onto closed
equilateral polygons by :func:`project_equilateral_closed`, the nearest
such chain, whose edge directions point away from the geometric median
of the step's edge vectors (a Newton solve in d unknowns; where the
median is undefined, one alternating sweep of the edges and a new
solve), and accepted by an Armijo backtracking line search.  The trace
records the start and the state after each accepted step, and counts
the rejected trial steps.  At the sizes descents run at, an iteration's
cost is per-call overhead, so it reads each polygon's edges once
(:class:`polygon.ClosedPolygon` keeps them), calls LAPACK directly for
its small dense solves, and shifts cyclically by concatenating slices;
the tests hold it bit for bit to the ``scipy.linalg.solve`` and
``np.roll`` forms.  The descent only
visits equilateral polygons, where the arc-distance part of the energy
has zero gradient, so the gradient is that of the chord part alone (see
:func:`energy_gradient`).  :func:`align_rigid` compares minimizers
against regular n-gons and circles; it scores all 2n cyclic relabelings
of a polygon at once by FFT cross-correlation and runs one Kabsch solve.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgesv, dposv

from .curves import ArcLengthCurve
from .energies import discrete_moebius_energy, regular_ngon_energy
from .errors import ConvergenceError, DoublePointError, InputError
from . import polygon
from .polygon import ClosedPolygon, inverse_square_chord_blocks


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 5000
    initial_step: float = 1.0
    grad_tol: float = 1e-9
    energy_tol: float = 1e-14

    def __post_init__(self):
        if not self.max_iterations >= 0:
            raise InputError(f"max_iterations must be non-negative, got {self.max_iterations!r}")
        for name in ("initial_step", "grad_tol", "energy_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InputError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class DescentTrace:
    """Descent record, one row per visited state; energies are non-increasing."""

    energies: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    final_polygon: ClosedPolygon | None = None
    termination: str = ""
    energy_gap: float = math.nan          # final energy minus the regular n-gon value
    barrier_pair: tuple | None = None     # offending vertex pair on "barrier" exits
    rejected_steps: int = 0               # trial steps the line search halved

    @property
    def iterations(self) -> int:
        """Accepted steps: the trace holds the start and the state after each."""
        return len(self.energies) - 1

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "energy", "grad_norm", "step"])
            for i, (e, g, s) in enumerate(zip(self.energies, self.grad_norms, self.steps)):
                writer.writerow([i, repr(e), repr(g), repr(s)])


def energy_gradient(p: ClosedPolygon) -> np.ndarray:
    """Euclidean gradient of the forward-weighted discrete energy.

    On equilateral polygons the arc part has zero gradient in the edge
    lengths l (it is invariant under their cyclic shifts and scaling; see
    PAPER.md), so this is the gradient of the chord part C = sum l_i l_j
    Q_ij alone, Q the inverse-square chord matrix: row i is 4 l_i sum_j
    l_j Q_ij^2 (v_j - v_i), plus the chain rule through dC/dl_k = 2 (Q l)_k.
    Both are built one trapezoid block of
    :func:`polygon.inverse_square_chord_blocks` at a time, with no weight
    block: each pair i < j feeds its force, weighted by l_j, to row i and,
    by l_i, to column j, and each vertex's sum takes its own l_i at the
    end.  The forces use the exact differences v_i - v_j pair by pair; the
    expanded v_i (Q^2 l)_i - (Q^2 (l o v))_i loses |v| / chord to cancellation.

    On equilateral input the result is exact; at the antipodal arc ties
    of even n it is the mean of the one-sided derivatives, which central
    differences measure.  For edge deviation up to 1e-8 it is the
    equilateral-reduced gradient; larger deviations raise
    :class:`InputError`.
    """
    if (deviation := p.equilaterality().max_edge_deviation) > 1e-8:
        raise InputError(f"gradient expects an (almost) equilateral polygon; deviation {deviation:.2e}")
    V, ell = p.vertices.T.copy(), p.edge_lengths    # contiguous coordinates; forward weights (l_i <= L/2)
    pull, grad = np.zeros(p.n), np.zeros((p.dim, p.n))     # grad: sum_j l_j Q_ij^2 (v_i - v_j), coordinate-first
    scratch = np.empty(min(max(polygon.BLOCK_PAIRS, p.n), p.n * p.n))     # one block of one coordinate's forces
    for r0, Q, _ in inverse_square_chord_blocks(p, 1e-10 * p.total_length):
        rows = slice(r0, r0 + Q.shape[0])
        # Q holds each pair i < j once; it adds to both ends, its force Q_ij^2 (v_i - v_j) antisymmetric
        pull[rows] += Q @ ell[r0:]
        pull[r0:] += ell[rows] @ Q
        force = scratch[:Q.size].reshape(Q.shape)
        Q2 = np.square(Q, out=Q)
        for x, g in zip(V, grad):
            np.multiply(np.subtract.outer(x[rows], x[r0:], out=force), Q2, out=force)
            g[rows] += force @ ell[r0:]
            g[r0:] -= ell[rows] @ force
    grad = np.multiply(grad.T, (-4.0 * ell)[:, None], order="C")
    edge_pull = (2.0 * pull)[:, None] * p.unit_edges()
    grad += np.concatenate((edge_pull[-1:], edge_pull[:-1])) - edge_pull
    return grad


def _median_directions(e: np.ndarray, norms: np.ndarray) -> np.ndarray | None:
    """Unit vectors u_i = (e_i - mu) / |e_i - mu| at the geometric median mu of the rows of e.

    Damped Newton on phi(mu) = sum_i |e_i - mu| from mu = 0 (``norms``
    holds the |e_i|): gradient -sum u_i, Hessian
    sum (I - u_i u_i^T) / |e_i - mu| shifted by 1e-12 sum 1 / |e_i - mu| so
    that collinear points keep it invertible, the step capped at the
    farthest |e_i - mu| and halved until phi drops (up to n eps phi).
    Stops once |sum u_i| is within the u_i's roundoff,
    4 eps sum (|e_i| + |mu|) / |e_i - mu|.  Returns None once an iterate
    comes within 1e-8 of the mean |e_i| of some e_i, where the
    directions are undefined, and when the converged |sum u_i| exceeds
    0.5e-12 n, which would leave the chain's edges unequal beyond
    1e-12; these tests, like every other, are invariant under rigid
    motions of e.
    """
    n, dim = e.shape
    eps = np.finfo(float).eps
    near = 1e-8 * norms.mean()
    mu, diff, r = np.zeros(dim), e, norms
    phi = r.sum()
    for _ in range(100):
        if r.min() < near:
            return None
        inv_r = 1.0 / r
        u = diff * inv_r[:, None]
        g = u.sum(axis=0)
        # d-vector norms as np.linalg.norm takes them, sqrt(x . x)
        gnorm = math.sqrt(g @ g)
        if gnorm <= 4.0 * eps * float((norms + math.sqrt(mu @ mu)) @ inv_r):
            # |sum u_i| / n bounds the closed chain's edge deviation
            return u if gnorm <= 0.5e-12 * n else None
        hess = -(u.T * inv_r) @ u
        hess.flat[::dim + 1] += inv_r.sum() * (1.0 + 1e-12)
        _, _, step, info = dgesv(hess, g)
        if info != 0:
            raise ConvergenceError(f"geometric median Hessian singular (LAPACK info {info})")
        size, far = math.sqrt(step @ step), r.max()
        if size > far:
            step *= far / size
        slope = float(g @ step)
        t = 1.0
        for _ in range(60):
            trial = mu + t * step
            trial_diff = e - trial
            trial_r = np.sqrt(np.einsum("ij,ij->i", trial_diff, trial_diff))
            trial_phi = trial_r.sum()
            if trial_phi <= phi - 1e-4 * t * slope + n * eps * phi:
                break
            t *= 0.5
        else:
            raise ConvergenceError(f"geometric median line search failed at |sum u| {gnorm:.2e}")
        mu, diff, r, phi = trial, trial_diff, trial_r, trial_phi
    raise ConvergenceError(f"geometric median did not converge: |sum u| {gnorm:.2e}")


def project_equilateral_closed(vertices, length: float | None = None) -> ClosedPolygon:
    """Nearest closed chain of n edges of the given length, by default the mean input edge length.

    The closed chain with every |e'_i| = l nearest the input edges e is
    e'_i = l (e_i - mu) / |e_i - mu|, mu the geometric median of the e_i
    (PAPER.md, "Retraction"; :func:`_median_directions`).  Subtracting
    the mean edge once more moves edge lengths by |sum e'| / n only, so
    edge deviation and closure residual stay below 1e-12 l.  Where the
    median is undefined (within 1e-8 of the mean edge length from an
    e_i, as for an obtuse planar triangle, or with |sum u_i| above
    0.5e-12 n), one alternating sweep scales every edge to l and
    subtracts the mean edge, and the median is solved again; the nearest
    chain to the first swept edges with a defined median is returned.
    Raises :class:`ConvergenceError` when an edge collapses below 1e-8 l
    or 100 sweeps leave the median undefined.  The result keeps the
    input's vertex centroid.  Means are taken as sums over n, as
    ``np.mean`` does.
    """
    v = np.asarray(vertices, dtype=float)
    if isinstance(vertices, ClosedPolygon):
        v = vertices.vertices
    if v.ndim != 2 or v.shape[0] < 3:
        raise InputError("need at least 3 vertices")
    if not np.all(np.isfinite(v)):
        raise InputError("vertices must be finite")
    n = v.shape[0]
    e = np.concatenate((v[1:], v[:1])) - v
    norms = np.sqrt(np.einsum("ij,ij->i", e, e))
    if np.any(norms == 0.0):
        raise InputError("degenerate chain: repeated consecutive vertices")
    if length is None:
        length = norms.sum() / n
    elif not (math.isfinite(length) and length > 0.0):
        raise InputError(f"edge length must be finite and positive, got {length!r}")
    for _ in range(100):
        u = _median_directions(e, norms)
        if u is not None:
            break
        if norms.min() < 1e-8 * length:
            raise ConvergenceError(f"equilateral retraction collapsed edge {int(np.argmin(norms))}")
        e = e * (length / norms)[:, None]
        e -= e.sum(axis=0) / n
        norms = np.sqrt(np.einsum("ij,ij->i", e, e))
    else:
        raise ConvergenceError("equilateral retraction stalled: median undefined after 100 sweeps")
    e = length * u
    e -= e.sum(axis=0) / n
    out = np.empty_like(e)
    out[0] = 0.0
    np.cumsum(e[:-1], axis=0, out=out[1:])
    out += v.sum(axis=0) / n - out.sum(axis=0) / n
    return ClosedPolygon(out)


def sobolev_direction(p: ClosedPolygon, grad: np.ndarray) -> np.ndarray:
    """Descent direction along the equilateral tangent space in a Sobolev metric.

    Returns x from [G C^T; C 0] [x; lam] = [grad; 0].  C has the n - 1
    rows l_i - l_{i+1} (i = 0 .. n - 2) of the edge-length Jacobian, so
    C x = 0 keeps the edges equal to first order.  G = L (Delta_h^{3/2} +
    lambda_1^{3/2} I) acts on each coordinate: Delta_h is the cyclic
    second difference over h^2 (h = L / n) and lambda_1 its smallest
    nonzero eigenvalue (see PAPER.md, "Descent metric").  G is circulant,
    so G^{-1} is applied through its spectrum by an FFT, and lam solves the
    (n - 1) x (n - 1) Schur system C G^{-1} C^T lam = C G^{-1} grad by one
    LAPACK Cholesky solve (``dposv``).  The rows of C and a
    translation-invariant gradient each sum to zero per coordinate, so x
    has zero mean without translation rows.  x scales like a length, and
    grad . x = x^T G x > 0 unless x = 0.  The spectrum and the circulant
    depend on n and L only (:func:`_sobolev_spectrum`).
    """
    n = p.n
    g_inv, circ = _sobolev_spectrum(n, p.total_length)

    def apply_g_inv(y):
        return np.fft.irfft(np.fft.rfft(y, axis=0) * g_inv, n, axis=0)

    # C = D J: row i of J takes a vertex motion y to the change u_i . (y_{i+1} - y_i)
    # of edge i, and D to differences of consecutive edges.  J G^{-1} J^T is
    # (u u^T) o F G^{-1} F^T, with F the forward difference (symbol 2 - 2 cos).
    u = p.unit_edges()
    gram = u @ u.T
    gram *= circ
    y = apply_g_inv(grad)
    dl = np.einsum("ij,ij->i", u, np.concatenate((y[1:], y[:1])) - y)
    _, lam, info = dposv(np.diff(np.diff(gram, axis=0), axis=1), dl[:-1] - dl[1:])
    if info != 0:
        raise ConvergenceError(f"Sobolev Schur system not positive definite (LAPACK info {info})")
    mu = np.zeros(n)                      # D^T lam
    mu[:-1] += lam
    mu[1:] -= lam
    w = mu[:, None] * u                   # J^T mu = w_{i-1} - w_i at vertex i
    return apply_g_inv(grad - (np.concatenate((w[-1:], w[:-1])) - w))


@lru_cache(maxsize=4)
def _sobolev_spectrum(n: int, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of G^{-1} as a column over the rfft modes, and the circulant F G^{-1} F^T.

    Both are read-only and shared by every call at the same n and L; a
    descent retracts each step to the start's length, so it mostly hits.
    """
    h = L / n
    lap = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)) / h**2
    g_inv = 1.0 / (L * (lap**1.5 + lap[1] ** 1.5))
    first = np.fft.irfft(lap * h**2 * g_inv, n)
    k = np.arange(n)
    circ = first[k[:, None] - k]          # negative indices wrap: entry (i, j) is first[(i - j) mod n]
    g_inv = g_inv[:, None]
    g_inv.flags.writeable = circ.flags.writeable = False
    return g_inv, circ


def minimize_discrete_energy(p0: ClosedPolygon, cfg: OptimizerConfig | None = None) -> DescentTrace:
    """Descent for the discrete energy over the equilateral class.

    Each iteration steps along the direction x of :func:`sobolev_direction`,
    retracts onto the class with :func:`project_equilateral_closed` at
    the start's edge length L / n (the energy is scale-invariant; without
    that, the second-order growth of the length in each step compounds).
    The step t is dimensionless: the first
    trial is ``cfg.initial_step``; a trial that fails the Armijo test
    E(t) <= E - 1e-4 t (g . x) is halved, and an accepted step is grown
    by 1.5 for the next iteration.  Terminates on the Euclidean gradient
    norm ("gradient_tol"); once the decrease t (g . x) a trial step
    predicts falls below ``energy_tol * max(1, |E|)``, or when a search
    fails that began within the energy's noise ("energy_tol"); on the
    iteration budget; on a non-positive slope, or a search that began
    above the noise and failed, its step collapsed below 1e-16
    ("stalled"); or at an approach to a double point ("barrier").  Each
    iteration records its state once, first, with a NaN gradient norm at
    a barrier; the state after the last budgeted step ends the run.
    """
    cfg = cfg or OptimizerConfig()
    cert = p0.equilaterality()
    p = p0 if cert.max_edge_deviation <= 1e-12 else project_equilateral_closed(p0.vertices)
    L = p.total_length
    n = p.n
    step = cfg.initial_step
    trace = DescentTrace()
    energy = discrete_moebius_energy(p).value

    for iteration in range(cfg.max_iterations + 1):
        try:
            grad = energy_gradient(p)
            gnorm = float(np.max(np.linalg.norm(grad, axis=1)))
        except DoublePointError as exc:
            grad, gnorm, barrier_pair = None, math.nan, exc.pair
        trace.energies.append(energy)
        trace.grad_norms.append(gnorm)
        trace.steps.append(step)

        if iteration == cfg.max_iterations:
            trace.termination = "max_iterations"
            break
        if grad is None:
            trace.termination = "barrier"
            trace.barrier_pair = barrier_pair
            break
        if gnorm < cfg.grad_tol:
            trace.termination = "gradient_tol"
            break
        x = sobolev_direction(p, grad)
        slope = float((grad * x).sum())
        if not slope > 0.0:
            trace.termination = "stalled"
            break
        # the retraction leaves edges unequal by up to 1e-12, which moves E by
        # up to about 1e-12 |E|: a search that starts with a predicted decrease
        # below that cannot certify it, and its failure means convergence
        negligible = cfg.energy_tol * max(1.0, abs(energy))
        within_noise = step * slope < max(cfg.energy_tol, 1e-12) * max(1.0, abs(energy))
        while step * slope >= negligible and step >= 1e-16:
            try:
                candidate = project_equilateral_closed(p.vertices - step * x, L / n)
                cand_energy = discrete_moebius_energy(candidate).value
            except (DoublePointError, ConvergenceError, InputError):
                step *= 0.5
                trace.rejected_steps += 1
                continue
            if cand_energy <= energy - 1e-4 * step * slope:
                break
            step *= 0.5
            trace.rejected_steps += 1
        else:
            trace.termination = "energy_tol" if within_noise else "stalled"
            break
        p, energy = candidate, cand_energy
        step *= 1.5

    trace.final_polygon = p
    trace.energy_gap = energy - regular_ngon_energy(n)
    return trace


def _kabsch(source: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Best proper rotation + translation mapping source onto target (least squares)."""
    mu_s = source.mean(axis=0)
    mu_t = target.mean(axis=0)
    H = (source - mu_s).T @ (target - mu_t)
    U, _, Vt = np.linalg.svd(H)
    sign = np.sign(np.linalg.det(U @ Vt))
    D = np.eye(H.shape[0])
    D[-1, -1] = sign if sign != 0 else 1.0
    R = (U @ D @ Vt).T
    t = mu_t - R @ mu_s
    moved = source @ R.T + t
    rms = float(np.sqrt(np.mean(np.sum((moved - target) ** 2, axis=1))))
    return R, t, rms


def _best_relabeling(vertices: np.ndarray, target: np.ndarray) -> tuple[int, int]:
    """(orientation, shift) of the relabeling v[(orientation (i + shift)) mod n] that fits target best.

    For centred P and T, a relabeling's best proper rotation leaves
    |P|^2 + |T|^2 - 2 K, K the sum of the singular values of
    H = sum_i P_{sigma(i)}^T T_i with the smallest negated when det H < 0.
    Over the shifts of one orientation H is a circular cross-correlation,
    so all 2n take one ``rfft`` per side, one batched ``irfft`` and one
    batched SVD.  Scores within 64 eps (|P|^2 + |T|^2) of the best tie;
    the smallest (orientation, shift), +1 first, wins.
    """
    n, dim = vertices.shape
    source = vertices - vertices.mean(axis=0)
    centred = target - target.mean(axis=0)
    # the reversed order P_{-j} has the spectrum conj(F P), so its shifts correlate too
    fs = np.fft.rfft(source, axis=0)
    ft = np.fft.rfft(centred, axis=0).conj()
    spectra = np.stack([fs, fs.conj()])[..., :, None] * ft[:, None, :]
    H = np.fft.irfft(spectra, n, axis=1).reshape(2 * n, dim, dim)
    sigma = np.linalg.svd(H, compute_uv=False)
    sigma[:, -1] *= np.where(np.linalg.det(H) < 0.0, -1.0, 1.0)
    score = sigma.sum(axis=1)
    margin = 64.0 * np.finfo(float).eps * (np.sum(source**2) + np.sum(centred**2))
    reverse, shift = divmod(int(np.argmax(score >= score.max() - margin)), n)
    return 1 - 2 * reverse, shift


def align_rigid(p: ClosedPolygon, q) -> tuple[ClosedPolygon, float]:
    """Rigidly align p to a target polygon or curve, over cyclic shifts and orientations.

    The target is either a polygon with the same vertex count or an
    arc-length curve sampled at p's (proportionally matched) vertex
    parameters.  Rotation + translation only; reflections are reached by
    reversing the traversal order, never by improper rotations.  The
    relabeling comes from :func:`_best_relabeling`, its motion and
    residual from one Kabsch solve.  Returns the relabeled, transformed
    copy of p and the RMS residual.
    """
    if isinstance(q, ClosedPolygon):
        if q.n != p.n:
            raise InputError(f"vertex count mismatch: {p.n} vs {q.n}")
        if q.dim != p.dim:
            raise InputError(f"dimension mismatch: {p.dim} vs {q.dim}")
        target = q.vertices
    elif isinstance(q, ArcLengthCurve):
        if q.dim != p.dim:
            raise InputError(f"dimension mismatch: {p.dim} vs {q.dim}")
        target = q.eval(p.arc_params * (q.length / p.total_length))
    else:
        raise InputError(f"cannot align to {type(q).__name__}")

    orientation, shift = _best_relabeling(p.vertices, target)
    relabeled = p.vertices[(orientation * (np.arange(p.n) + shift)) % p.n]
    R, t, rms = _kabsch(relabeled, target)
    return ClosedPolygon(relabeled @ R.T + t), rms
