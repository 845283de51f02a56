"""Minimization of the discrete Moebius energy over equilateral closed polygons.

Descent along the tangent space of the equilateral class: the Euclidean
gradient of the discrete energy is turned into a direction tangent to
the equal-edge constraint by one saddle-point solve in an order-3/2
Sobolev metric (:func:`sobolev_direction`, after Yu, Schumacher and
Crane, *Repulsive Curves*, 2021).  Each step is retracted onto closed
equilateral polygons by :func:`project_equilateral_closed`, the
alternating projection :func:`polygon.close_equilateral` that also
closes the random sampler's polygons, and accepted by an Armijo
backtracking line search.  The trace records the start and the state
after each accepted step.  The descent only visits equilateral polygons,
where the arc-distance part of the energy has zero gradient, so the
gradient is that of the chord part alone (see :func:`energy_gradient`).
Rigid alignment utilities compare minimizers against regular n-gons and
circles.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import circulant, solve

from .curves import ArcLengthCurve
from .energies import discrete_moebius_energy, regular_ngon_energy
from .errors import ConvergenceError, DoublePointError, InputError
from .polygon import ClosedPolygon, close_equilateral, inverse_square_chord_blocks


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 5000
    initial_step: float = 1.0
    grad_tol: float = 1e-9
    energy_tol: float = 1e-14

    def __post_init__(self):
        for name in ("initial_step", "grad_tol", "energy_tol"):
            if getattr(self, name) <= 0.0:
                raise InputError(f"{name} must be positive")


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

    On an equilateral polygon the arc part sum l_i l_j / d(a_i, a_j)^2
    depends on the vertices only through the edge lengths l, and it is
    invariant under cyclic shifts and scaling of l.  Its partial
    derivatives in the l_k are therefore equal and sum to zero, so each
    is zero (see PAPER.md).  The gradient is that of the chord part
    C = sum l_i l_j Q_ij alone, with Q the inverse-square chord matrix:
    row i is 4 sum_j A_ij (v_j - v_i) for A = l (x) l o Q^2, plus the
    chain rule through dC/dl_k = 2 (Q l)_k.  Q l and the row sums are
    built one trapezoid block of :func:`polygon.inverse_square_chord_blocks`
    at a time, so no (n, n) array is allocated; each block holds every
    pair i < j once and feeds its row sums to the rows and its column
    sums to the columns.

    On equilateral input the result is exact; at the antipodal arc ties
    of even n it is the mean of the one-sided derivatives, which central
    differences measure.  For edge deviation up to 1e-8 it is the
    equilateral-reduced gradient; larger deviations raise
    :class:`InputError`.
    """
    cert = p.equilaterality()
    if cert.max_edge_deviation > 1e-8:
        raise InputError(
            f"gradient expects an (almost) equilateral polygon; deviation {cert.max_edge_deviation:.2e}"
        )
    v, ell = p.vertices, p.edge_lengths    # forward weights; l_i <= L/2 on closed polygons
    pull = np.zeros(p.n)
    grad = np.zeros_like(v)
    for r0, Q, _ in inverse_square_chord_blocks(p, 1e-10 * p.total_length):
        rows = slice(r0, r0 + Q.shape[0])
        # Q holds each pair i < j once: a row's pair adds to both ends, and
        # the pair force A_ij (v_i - v_j) is antisymmetric in i, j
        pull[rows] += Q @ ell[r0:]
        pull[r0:] += ell[rows] @ Q
        A = np.square(Q, out=Q)
        A *= np.multiply.outer(ell[rows], ell[r0:])
        # sum_j A_ij (v_i - v_j) one coordinate at a time: the differences
        # are exact, whereas A v - rowsum(A) v loses |v| / chord to
        # cancellation at close approaches
        force = np.empty_like(A)
        for k in range(p.dim):
            x = v[:, k]
            np.multiply(A, np.subtract.outer(x[rows], x[r0:], out=force), out=force)
            grad[rows, k] += force.sum(axis=1)
            grad[r0:, k] -= force.sum(axis=0)
    grad *= -4.0
    edge_pull = (2.0 * pull)[:, None] * p.unit_edges()
    grad += np.roll(edge_pull, 1, axis=0) - edge_pull
    return grad


def project_equilateral_closed(vertices) -> ClosedPolygon:
    """Project a vertex chain onto closed polygons with n edges of the mean input length.

    The chain's edges are closed by :func:`polygon.close_equilateral`
    (relative edge deviation below 1e-12, closure residual below 1e-12
    times the edge length); the result keeps the input's vertex centroid.
    """
    v = np.asarray(vertices, dtype=float)
    if isinstance(vertices, ClosedPolygon):
        v = vertices.vertices
    if v.ndim != 2 or v.shape[0] < 3:
        raise InputError("need at least 3 vertices")
    e = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(e, axis=1)
    if np.any(lengths == 0.0):
        raise InputError("degenerate chain: repeated consecutive vertices")
    e = close_equilateral(e, lengths.sum() / v.shape[0])
    out = np.vstack([np.zeros(v.shape[1]), np.cumsum(e[:-1], axis=0)])
    out += v.mean(axis=0) - out.mean(axis=0)
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
    (n - 1) x (n - 1) Schur system C G^{-1} C^T lam = C G^{-1} grad.  The
    rows of C and a translation-invariant gradient each sum to zero per
    coordinate, so x has zero mean without translation rows.  x scales
    like a length, and grad . x = x^T G x > 0 unless x = 0.
    """
    n = p.n
    L = p.total_length
    h = L / n
    lap = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)) / h**2
    g_inv = 1.0 / (L * (lap**1.5 + lap[1] ** 1.5))       # spectrum of G^{-1}

    def apply_g_inv(y):
        return np.fft.irfft(np.fft.rfft(y, axis=0) * g_inv[:, None], n, axis=0)

    # C = D J: row i of J takes a vertex motion y to the change u_i . (y_{i+1} - y_i)
    # of edge i, and D to differences of consecutive edges.  J G^{-1} J^T is
    # (u u^T) o F G^{-1} F^T, with F the forward difference (symbol 2 - 2 cos).
    u = p.unit_edges()
    gram = circulant(np.fft.irfft(lap * h**2 * g_inv, n))
    gram *= u @ u.T
    y = apply_g_inv(grad)
    dl = np.einsum("ij,ij->i", u, np.roll(y, -1, axis=0) - y)
    lam = solve(np.diff(np.diff(gram, axis=0), axis=1), dl[:-1] - dl[1:], assume_a="pos")
    mu = np.zeros(n)                      # D^T lam
    mu[:-1] += lam
    mu[1:] -= lam
    w = mu[:, None] * u                   # J^T mu = w_{i-1} - w_i at vertex i
    return apply_g_inv(grad - (np.roll(w, 1, axis=0) - w))


def minimize_discrete_energy(p0: ClosedPolygon, cfg: OptimizerConfig | None = None) -> DescentTrace:
    """Descent for the discrete energy over the equilateral class.

    Each iteration steps along the direction x of :func:`sobolev_direction`,
    retracts onto the class with :func:`project_equilateral_closed` and
    rescales about the centroid to the start's length (the energy is
    scale-invariant; without it the second-order growth of the length
    in each step compounds).  The step t is dimensionless: the first
    trial is ``cfg.initial_step``; a trial that fails the Armijo test
    E(t) <= E - 1e-4 t (g . x) is halved, and an accepted step is grown
    by 1.5 for the next iteration.  Terminates on the Euclidean gradient
    norm ("gradient_tol"); once the decrease t (g . x) a trial step
    predicts falls below ``energy_tol * max(1, |E|)``, or when a search
    fails that began within the energy's noise ("energy_tol"); on the
    iteration budget; on a non-positive slope, or a search that began
    above the noise and failed, its step collapsed below 1e-16
    ("stalled"); or at an approach to a double point ("barrier").
    """
    cfg = cfg or OptimizerConfig()
    cert = p0.equilaterality()
    p = p0 if cert.max_edge_deviation <= 1e-12 else project_equilateral_closed(p0.vertices)
    L = p.total_length
    n = p.n
    step = cfg.initial_step
    trace = DescentTrace()
    energy = discrete_moebius_energy(p).value

    for _ in range(cfg.max_iterations):
        try:
            grad = energy_gradient(p)
        except DoublePointError as exc:
            trace.termination = "barrier"
            trace.barrier_pair = exc.pair
            break
        gnorm = float(np.max(np.linalg.norm(grad, axis=1)))
        trace.energies.append(energy)
        trace.grad_norms.append(gnorm)
        trace.steps.append(step)

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
                q = project_equilateral_closed(p.vertices - step * x)
                centroid = q.vertices.mean(axis=0)
                candidate = ClosedPolygon(centroid + (q.vertices - centroid) * (L / q.total_length))
                cand_energy = discrete_moebius_energy(candidate).value
            except (DoublePointError, ConvergenceError, InputError):
                step *= 0.5
                continue
            if cand_energy <= energy - 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            trace.termination = "energy_tol" if within_noise else "stalled"
            break
        p, energy = candidate, cand_energy
        step *= 1.5
    else:
        trace.termination = "max_iterations"

    trace.final_polygon = p
    trace.energy_gap = energy - regular_ngon_energy(n)
    if not trace.energies or trace.energies[-1] != energy:
        try:
            gnorm = float(np.max(np.linalg.norm(energy_gradient(p), axis=1)))
        except DoublePointError:
            gnorm = math.nan
        trace.energies.append(energy)
        trace.grad_norms.append(gnorm)
        trace.steps.append(step)
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


def align_rigid(p: ClosedPolygon, q) -> tuple[ClosedPolygon, float]:
    """Rigidly align p to a target polygon or curve, over cyclic shifts and orientations.

    The target is either a polygon with the same vertex count or an
    arc-length curve sampled at p's (proportionally matched) vertex
    parameters.  Rotation + translation only; reflections are reached by
    reversing the traversal order, never by improper rotations.  Returns
    the relabeled, transformed copy of p and the RMS residual; the
    smallest shift index wins ties.
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

    n = p.n
    best = None
    idx = np.arange(n)
    for orientation in (1, -1):
        order = idx if orientation == 1 else (-idx) % n
        for shift in range(n):
            cand = p.vertices[(order + shift * orientation) % n]
            R, t, rms = _kabsch(cand, target)
            key = (rms, 0 if orientation == 1 else 1, shift)
            if best is None or key < best[0]:
                best = (key, cand @ R.T + t)
    (rms, _, _), aligned = best
    return ClosedPolygon(aligned), rms
