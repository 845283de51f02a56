"""Energy and gradient of the regular 16384-gon in bounded memory.

Runs ``discrete_moebius_energy`` and ``energy_gradient`` on
``regular_ngon(16384, 16384.0, dim=3)`` under ``tracemalloc`` and exits 1
unless both traced peaks stay below 64 MB (one (n, n) float64 array
would take 2 GB), the energy is within 1e-9 relative of the closed form
``regular_ngon_energy(n)`` and max |g| <= 1e-8 n / L (the regular n-gon
is a critical point).  Takes several seconds, so it is kept out of the
test suite.  Run from the repository root:

    PYTHONPATH=src python tools/check_large_n.py
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

import moebius_kit as mk

N = 16384
PEAK_LIMIT_MB = 64.0
ENERGY_REL_TOL = 1e-9
GRADIENT_TOL = 1e-8     # times n / L, the gradient's scale at unit edges


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
    checks = [
        (f"energy peak {energy_mb:.1f} MB < {PEAK_LIMIT_MB:g} MB ({energy_s:.1f} s)",
         energy_mb < PEAK_LIMIT_MB),
        (f"gradient peak {grad_mb:.1f} MB < {PEAK_LIMIT_MB:g} MB ({grad_s:.1f} s)",
         grad_mb < PEAK_LIMIT_MB),
        (f"energy {report.value!r} vs closed form {exact!r}: rel {rel:.1e} <= {ENERGY_REL_TOL:g}",
         rel <= ENERGY_REL_TOL),
        (f"max |g| {g_max:.1e} <= {g_tol:.1e}", g_max <= g_tol),
    ]
    for text, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {text}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
