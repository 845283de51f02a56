"""Pair kernels, inscription, retraction, sampling and alignment at large n in bounded memory.

Runs ``discrete_moebius_energy`` and ``energy_gradient`` on
``regular_ngon(16384, 16384.0, dim=3)``, ``minimum_distance_energy`` on
``regular_ngon(4096, 4096.0, dim=3)`` and ``inscribe_equilateral`` on
the (2,3) trefoil (ring radius 2, tube radius 1) at n = 16384, each
under ``tracemalloc``, and exits 1 unless all four traced peaks stay
below 64 MB (one (n, n) float64 array would take 2 GB at n = 16384),
the energy is within 1e-9 relative of the closed form
``regular_ngon_energy(n)``, max |g| <= 1e-8 n / L (the regular n-gon is
a critical point), the regular 4096-gon's minimum distance energy is at
most 1e-13 of its potential in magnitude (the energy is measured against
the closed-form regular n-gon potential), the inscribed polygon's edge
deviation is at most 1e-9 and its closing step L - b_{n-1} is
certified: within [c/4, cap] and the first crossing of the chord length
c, with the chord from b_{n-1} below c at every point b_{n-1} + c + j c/4
before L.  It also retracts one trial step of the regular 16384-gon (a
seeded Gaussian step of 0.01 edge per coordinate) with
``project_equilateral_closed``, and aligns a rotated, reversed and
relabeled copy of a random equilateral 16384-gon to the original with
``align_rigid``, again each below 64 MB traced, as is the sampling of
that random 16384-gon by ``random_equilateral_polygon`` (its seconds are
printed, not checked): the retraction must leave
edge deviation and closure residual over the edge at most 1e-12, and the
alignment must recover the planted relabeling with RMS residual at most
1e-9 L.  Takes several seconds, so it is kept out of the test suite.
Run from the repository root:

    PYTHONPATH=src python tools/check_large_n.py
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

import moebius_kit as mk
from moebius_kit.optimize import _best_relabeling

N = 16384
N_MINDIST = 4096
PEAK_LIMIT_MB = 64.0
ENERGY_REL_TOL = 1e-9
GRADIENT_TOL = 1e-8     # times n / L, the gradient's scale at unit edges
EDGE_TOL = 1e-9
MINDIST_REL_TOL = 1e-13     # |value| / potential on the regular n-gon
RETRACTION_TOL = 1e-12      # edge deviation, and closure residual over the edge
STEP = 0.01                 # trial step per coordinate, in edges
ALIGN_TOL = 1e-9            # RMS residual over L
PLANTED = (-1, 5000)        # orientation, shift of the relabeled copy


def traced(fn, *args):
    """(result, traced peak in MB, seconds) of one call."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1e6, time.perf_counter() - start


def main() -> int:
    p = mk.regular_ngon(N, float(N), dim=3)
    report, energy_mb, energy_s = traced(mk.discrete_moebius_energy, p)
    grad, grad_mb, grad_s = traced(mk.energy_gradient, p)
    exact = mk.regular_ngon_energy(N)
    rel = abs(report.value - exact) / exact
    g_max = float(np.abs(grad).max())
    g_tol = GRADIENT_TOL * N / p.total_length
    mindist, mindist_mb, mindist_s = traced(mk.minimum_distance_energy,
                                            mk.regular_ngon(N_MINDIST, float(N_MINDIST), dim=3))
    mindist_rel = abs(mindist.value) / mindist.diagnostics["potential"]
    trefoil = mk.arclength_reparametrize(mk.torus_knot(2, 3, 2.0, 1.0))
    (polygon, b), inscribe_mb, inscribe_s = traced(mk.inscribe_equilateral, trefoil, N)
    edge_dev = polygon.equilaterality().max_edge_deviation
    L = trefoil.length
    c = float(polygon.edge_lengths.mean())
    cap = min(1.25 * trefoil.bilipschitz * c, 0.5 * L)
    closing = L - b[-1]
    grid = np.arange(c, closing - 1e-13 * L, 0.25 * c)
    below = np.linalg.norm(trefoil.eval(b[-1] + grid) - polygon.vertices[-1], axis=1) < c
    regular = mk.regular_ngon(N, float(N), dim=3)
    step = STEP * np.random.default_rng(0).standard_normal((N, 3))
    retracted, retract_mb, retract_s = traced(mk.project_equilateral_closed, regular.vertices + step)
    cert = retracted.equilaterality()
    closure = cert.closure_residual / (retracted.total_length / N)
    original, sample_mb, sample_s = traced(mk.random_equilateral_polygon, N, 3, 0)
    rotation, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
    rotation *= np.linalg.det(rotation)       # proper: det +1
    orientation, shift = PLANTED
    copy = mk.ClosedPolygon(original.vertices[(orientation * (np.arange(N) + shift)) % N] @ rotation.T
                            + np.array([3.0, -1.0, 2.0]))
    (_, rms), align_mb, align_s = traced(mk.align_rigid, original, copy)
    relabeling = _best_relabeling(original.vertices, copy.vertices)
    align_tol = ALIGN_TOL * original.total_length
    checks = [
        (f"energy peak {energy_mb:.1f} MB < {PEAK_LIMIT_MB:g} MB ({energy_s:.1f} s)",
         energy_mb < PEAK_LIMIT_MB),
        (f"gradient peak {grad_mb:.1f} MB < {PEAK_LIMIT_MB:g} MB ({grad_s:.1f} s)",
         grad_mb < PEAK_LIMIT_MB),
        (f"energy {report.value!r} vs closed form {exact!r}: rel {rel:.1e} <= {ENERGY_REL_TOL:g}",
         rel <= ENERGY_REL_TOL),
        (f"max |g| {g_max:.1e} <= {g_tol:.1e}", g_max <= g_tol),
        (f"mindist peak {mindist_mb:.1f} MB < {PEAK_LIMIT_MB:g} MB ({mindist_s:.1f} s)",
         mindist_mb < PEAK_LIMIT_MB),
        (f"mindist {mindist.value!r} of the regular {N_MINDIST}-gon: |value| / potential "
         f"{mindist_rel:.1e} <= {MINDIST_REL_TOL:g}", mindist_rel <= MINDIST_REL_TOL),
        (f"inscription peak {inscribe_mb:.1f} MB < {PEAK_LIMIT_MB:g} MB ({inscribe_s:.1f} s)",
         inscribe_mb < PEAK_LIMIT_MB),
        (f"inscription edge deviation {edge_dev:.1e} <= {EDGE_TOL:g}", edge_dev <= EDGE_TOL),
        (f"closing step {closing:.6e} in [c/4, cap] = [{0.25 * c:.6e}, {cap:.6e}], "
         f"first crossing on {grid.size} probes", 0.25 * c <= closing <= cap and bool(below.all())),
        (f"retraction peak {retract_mb:.1f} MB < {PEAK_LIMIT_MB:g} MB ({retract_s:.2f} s)",
         retract_mb < PEAK_LIMIT_MB),
        (f"retraction edge deviation {cert.max_edge_deviation:.1e}, closure {closure:.1e} edges "
         f"<= {RETRACTION_TOL:g}", max(cert.max_edge_deviation, closure) <= RETRACTION_TOL),
        (f"sampler peak {sample_mb:.1f} MB < {PEAK_LIMIT_MB:g} MB ({sample_s:.3f} s)",
         sample_mb < PEAK_LIMIT_MB),
        (f"alignment peak {align_mb:.1f} MB < {PEAK_LIMIT_MB:g} MB ({align_s:.2f} s)",
         align_mb < PEAK_LIMIT_MB),
        (f"alignment rms {rms:.1e} <= {align_tol:.1e}, relabeling {relabeling} == {PLANTED}",
         rms <= align_tol and relabeling == PLANTED),
    ]
    for text, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {text}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
