"""Minimization of the discrete Moebius energy over equilateral closed polygons.

Projected gradient descent: Euclidean gradient of the discrete energy,
projection back onto closed equilateral polygons by the alternating
projection :func:`polygon.close_equilateral` (the random sampler's closure
too), and an Armijo backtracking line search.  The trace records the
start and the state after each accepted step.  The descent only
visits equilateral polygons, where the arc-distance part of the energy
has zero gradient, so the gradient is that of the chord part alone (see
:func:`energy_gradient`).  Rigid alignment utilities compare minimizers
against regular n-gons and circles.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import ArcLengthCurve
from .energies import discrete_moebius_energy, regular_ngon_energy
from .errors import ConvergenceError, DoublePointError, InputError
from .polygon import ClosedPolygon, close_equilateral, inverse_square_chords


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 5000
    initial_step: float | None = None       # auto: 0.02 * L^2 / n^2 when None
    grad_tol: float = 1e-9
    energy_tol: float = 1e-14

    def __post_init__(self):
        for name in ("grad_tol", "energy_tol"):
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
    chain rule through dC/dl_k = 2 (Q l)_k.

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
    Q, _ = inverse_square_chords(p, 1e-10 * p.total_length)
    ell = p.edge_lengths                   # forward weights; l_i <= L/2 on closed polygons
    edge_pull = (2.0 * (Q @ ell))[:, None] * p.unit_edges()
    A = np.square(Q, out=Q)
    A *= np.multiply.outer(ell, ell)
    # sum_j A_ij (v_i - v_j) one coordinate at a time: the differences are
    # exact, whereas A v - rowsum(A) v loses |v| / chord to cancellation
    # at close approaches
    diff = np.empty_like(A)
    grad = np.empty_like(p.vertices)
    for k in range(p.dim):
        x = p.vertices[:, k]
        grad[:, k] = np.einsum("ij,ij->i", A, np.subtract.outer(x, x, out=diff))
    grad *= -4.0
    grad += np.roll(edge_pull, 1, axis=0) - edge_pull
    return grad


def project_equilateral_closed(vertices) -> ClosedPolygon:
    """Project a vertex chain onto closed polygons with n edges of the mean input length.

    The chain's edges are closed by :func:`polygon.close_equilateral`
    (edge deviation and closure residual below 1e-12); the result keeps
    the input's vertex centroid.
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


def minimize_discrete_energy(p0: ClosedPolygon, cfg: OptimizerConfig | None = None) -> DescentTrace:
    """Projected gradient descent for the discrete energy over the equilateral class.

    Steps along the negative gradient, projects back onto the constraint,
    and accepts by an Armijo sufficient-decrease test with factor 1e-4; a
    rejected step is halved and an accepted one grown by 1.3.  Terminates on the
    gradient norm, the energy decrease, the iteration budget, a collapsed
    step ("stalled"), or an approach to a double point ("barrier").
    """
    cfg = cfg or OptimizerConfig()
    cert = p0.equilaterality()
    p = p0 if cert.max_edge_deviation <= 1e-12 else project_equilateral_closed(p0.vertices)
    L = p.total_length
    n = p.n
    step = cfg.initial_step if cfg.initial_step is not None else 0.02 * L**2 / n**2
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
        gsq = float((grad * grad).sum())
        trace.energies.append(energy)
        trace.grad_norms.append(gnorm)
        trace.steps.append(step)

        if gnorm < cfg.grad_tol:
            trace.termination = "gradient_tol"
            break

        accepted = False
        while step >= 1e-16 * L:
            try:
                candidate = project_equilateral_closed(p.vertices - step * grad)
                cand_energy = discrete_moebius_energy(candidate).value
            except (DoublePointError, ConvergenceError, InputError):
                step *= 0.5
                continue
            if cand_energy <= energy - 1e-4 * step * gsq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            trace.termination = "stalled"
            break

        decrease = energy - cand_energy
        p, energy = candidate, cand_energy
        if decrease < cfg.energy_tol * max(1.0, abs(energy)):
            trace.termination = "energy_tol"
            break
        step *= 1.3
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
