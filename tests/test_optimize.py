import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import circulant, solve

import moebius_kit as mk
from moebius_kit import optimize, polygon
from moebius_kit.cli import main
from moebius_kit.errors import ConvergenceError, DoublePointError, InputError
from moebius_kit.polygon import close_equilateral


def rotation_2d(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def fd_gradient(p, h):
    v = p.vertices
    g = np.zeros_like(v)
    for i in range(v.shape[0]):
        for k in range(v.shape[1]):
            vp = v.copy()
            vp[i, k] += h
            vm = v.copy()
            vm[i, k] -= h
            g[i, k] = (
                mk.discrete_moebius_energy(mk.ClosedPolygon(vp)).value
                - mk.discrete_moebius_energy(mk.ClosedPolygon(vm)).value
            ) / (2.0 * h)
    return g


class TestGradient:
    # even n covers antipodal pairs, where the two arcs between i and j tie
    @pytest.mark.parametrize(
        "n,dim,seed", [(12, 3, 0), (12, 2, 1), (9, 3, 2), (16, 3, 3), (20, 3, 4), (24, 2, 5)]
    )
    def test_matches_central_differences(self, n, dim, seed):
        p = mk.random_equilateral_polygon(n, dim=dim, seed=seed)
        analytic = mk.energy_gradient(p)
        numeric = fd_gradient(p, 1e-6 * p.total_length)
        rel = np.abs(analytic - numeric).max() / np.abs(numeric).max()
        assert rel < 1e-5

    def test_translation_and_rotation_invariance(self):
        p = mk.random_equilateral_polygon(14, dim=3, seed=4)
        g = mk.energy_gradient(p)
        scale = np.abs(g).max()
        assert np.linalg.norm(g.sum(axis=0)) <= 1e-10 * max(1.0, scale)
        torque = np.cross(p.vertices, g).sum(axis=0)
        assert np.linalg.norm(torque) <= 1e-8 * max(1.0, scale)
        # the energy is scale-invariant, so g is orthogonal to the dilation field
        centred = p.vertices - p.vertices.mean(axis=0)
        assert abs(np.sum(centred * g)) <= 1e-8 * max(1.0, scale)

    def test_regular_ngon_is_critical(self):
        for n in (4, 7, 16):
            g = mk.energy_gradient(mk.regular_ngon(n, 1.0))
            assert np.abs(g).max() <= 1e-8

    def test_translated_polygon_same_gradient(self):
        p = mk.random_equilateral_polygon(10, dim=3, seed=5)
        moved = mk.ClosedPolygon(p.vertices + np.array([3.0, -2.0, 0.5]))
        g0 = mk.energy_gradient(p)
        g1 = mk.energy_gradient(moved)
        assert np.abs(g0 - g1).max() <= 1e-9 * max(1.0, np.abs(g0).max())

    def test_double_point_rejected(self):
        v = mk.regular_ngon(8, 1.0).vertices.copy()
        v[4] = v[0] + 1e-12
        with pytest.raises((DoublePointError, InputError)):
            mk.energy_gradient(mk.ClosedPolygon(v))


@pytest.mark.parametrize(
    "kernel", [mk.discrete_moebius_energy, mk.energy_gradient, mk.minimum_distance_energy]
)
def test_pair_kernel_peak_memory(kernel):
    # an (n, n, d) difference tensor alone would take 8 d n^2 bytes
    p = mk.random_equilateral_polygon(1024, dim=3, seed=0)
    tracemalloc.start()
    try:
        kernel(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * p.n**2


@pytest.mark.parametrize(
    "kernel", [mk.discrete_moebius_energy, mk.energy_gradient, mk.minimum_distance_energy]
)
def test_chord_kernels_peak_below_a_pair_matrix(kernel):
    # one (n, n) float64 array takes 134 MB at n = 4096; a row block 0.5 MB,
    # and so do the segment-pair batches with their scratch
    p = mk.random_equilateral_polygon(4096, dim=3, seed=0)
    tracemalloc.start()
    try:
        kernel(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("rows", ["one", "ragged"])
def test_row_blocks_do_not_change_results(monkeypatch, rows):
    p = mk.random_equilateral_polygon(64, dim=3, seed=6)
    n = p.n
    monkeypatch.setattr(polygon, "BLOCK_PAIRS", n * n)
    whole = mk.discrete_moebius_energy(p)
    whole_grad = mk.energy_gradient(p)
    # one row per block, or 7 rows per block with a last block of 1
    monkeypatch.setattr(polygon, "BLOCK_PAIRS", {"one": 1, "ragged": 7 * n + 3}[rows])
    rep = mk.discrete_moebius_energy(p)
    grad = mk.energy_gradient(p)
    assert rep.value == pytest.approx(whole.value, rel=1e-15, abs=0.0)
    assert rep.diagnostics == whole.diagnostics
    assert np.abs(grad - whole_grad).max() <= 1e-15 * np.abs(whole_grad).max()


class TestProjection:
    def test_fixed_point(self):
        g = mk.regular_ngon(12, 1.0)
        out = mk.project_equilateral_closed(g.vertices)
        assert np.abs(out.vertices - g.vertices).max() <= 1e-13

    def test_nudged_square_stays_close(self):
        sq = mk.regular_ngon(4, 1.0)
        v = sq.vertices.copy()
        v[2] += np.array([1e-3, -0.5e-3])
        out = mk.project_equilateral_closed(v)
        cert = out.equilaterality()
        assert cert.max_edge_deviation <= 1e-12
        hausdorff = max(
            np.linalg.norm(out.vertices[:, None, :] - v[None, :, :], axis=2).min(axis=1).max(),
            np.linalg.norm(v[:, None, :] - out.vertices[None, :, :], axis=2).min(axis=1).max(),
        )
        assert hausdorff <= 2e-3

    def test_random_chain_closes_with_same_centroid(self):
        rng = np.random.default_rng(6)
        chain = rng.standard_normal((20, 3))
        out = mk.project_equilateral_closed(chain)
        cert = out.equilaterality()
        assert cert.max_edge_deviation <= 1e-12
        assert cert.closure_residual <= 1e-12
        assert np.linalg.norm(out.vertices.mean(axis=0) - chain.mean(axis=0)) <= 1e-12

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    @pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1])
    def test_trial_step_is_retracted_to_the_nearest_chain(self, n, t):
        p = mk.random_equilateral_polygon(n, dim=3, seed=n)
        v = p.vertices - t * mk.sobolev_direction(p, mk.energy_gradient(p))
        e = np.roll(v, -1, axis=0) - v
        length = np.linalg.norm(e, axis=1).mean()
        out = mk.project_equilateral_closed(v)
        cert = out.equilaterality()
        assert cert.max_edge_deviation <= 1e-12
        assert cert.closure_residual < 1e-12 * length
        nearest = np.linalg.norm(out.edge_vectors() - e)
        alternating = np.linalg.norm(close_equilateral(e, length) - e)
        # both results are feasible only to 1e-12 l per edge
        assert nearest <= alternating + 1e-12 * length * math.sqrt(n)

    def test_obtuse_triangle_sweeps_and_resolves_the_median(self, monkeypatch):
        # the edge vectors' geometric median is the obtuse corner (-0.1, -0.05):
        # no three unit directions from it sum to zero
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.1, 0.05]])
        e = np.roll(v, -1, axis=0) - v
        alternating = close_equilateral(e, np.linalg.norm(e, axis=1).mean())

        def refuse(*args):
            raise AssertionError("close_equilateral called")

        monkeypatch.setattr(polygon, "close_equilateral", refuse)
        out = mk.project_equilateral_closed(v)
        cert = out.equilaterality()
        assert cert.max_edge_deviation <= 1e-12
        assert cert.closure_residual < 1e-12
        assert np.linalg.norm(out.vertices.mean(axis=0) - v.mean(axis=0)) <= 1e-12
        assert np.linalg.norm(out.edge_vectors() - e) <= np.linalg.norm(alternating - e)

    def test_non_finite_vertex_is_an_input_error(self):
        v = mk.regular_ngon(6, 1.0).vertices.copy()
        v[2, 1] = np.nan
        with pytest.raises(InputError, match="finite"):
            mk.project_equilateral_closed(v)

    @pytest.mark.parametrize("length", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_length_is_an_input_error(self, length):
        v = mk.random_equilateral_polygon(8, dim=3, seed=1).vertices
        with pytest.raises(InputError, match="length"):
            mk.project_equilateral_closed(v, length)

    def test_seeded_triangles_and_4gons_close_equivariantly(self):
        # triangles and planar 4-gons take the sweep path about a third of the
        # time, nearly collinear triangles always, for up to about 20 sweeps.
        # There a rotation's rounding can decide whether the median is
        # defined one sweep earlier or later; the nearest chains of the two
        # swept chains then differ by up to about 5e-8 l
        rng = np.random.default_rng(15)
        chains = [(rng.standard_normal((3, 2 + k % 2)), 1e-12) for k in range(120)]
        chains += [(rng.standard_normal((4, 2)), 1e-12) for _ in range(120)]
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            for _ in range(15):
                chain = np.column_stack([rng.standard_normal(3), eps * rng.standard_normal(3)])
                chains.append((chain[rng.permutation(3)], 1e-7))
        for v, equivariance in chains:
            dim = v.shape[1]
            out = mk.project_equilateral_closed(v)
            ell = out.total_length / out.n
            cert = out.equilaterality()
            assert cert.max_edge_deviation <= 1e-12
            assert cert.closure_residual <= 1e-12 * ell
            assert np.abs(out.vertices.mean(axis=0) - v.mean(axis=0)).max() <= 1e-12
            R = rotation_2d(0.7) if dim == 2 else np.linalg.qr(rng.standard_normal((3, 3)))[0]
            shift = rng.standard_normal(dim)
            moved = mk.project_equilateral_closed(v @ R.T + shift)
            assert np.abs(moved.vertices - (out.vertices @ R.T + shift)).max() <= equivariance * ell


def equal_edge_rows(p, x):
    """C x for the rows l_i - l_{i+1}: change of consecutive edge differences along x."""
    u = p.unit_edges()
    dl = np.einsum("ij,ij->i", u, np.roll(x, -1, axis=0) - x)
    return dl[:-1] - dl[1:]


class TestSobolevDirection:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_tangent_and_downhill(self, dim):
        for n in range(5, 65):
            p = mk.random_equilateral_polygon(n, dim=dim, seed=n)
            g = mk.energy_gradient(p)
            x = mk.sobolev_direction(p, g)
            assert np.linalg.norm(equal_edge_rows(p, x)) <= 1e-12 * np.linalg.norm(x)
            assert np.sum(g * x) > 0.0

    @pytest.mark.parametrize("s", [0.01, 100.0])
    def test_scales_as_a_length(self, s):
        p = mk.random_equilateral_polygon(24, dim=3, seed=13)
        x = mk.sobolev_direction(p, mk.energy_gradient(p))
        q = p.scaled(s)
        xs = mk.sobolev_direction(q, mk.energy_gradient(q))
        assert np.abs(xs - s * x).max() <= 1e-12 * s * np.abs(x).max()


class TestDescent:
    def test_perturbed_square_recovers_regular(self):
        rng = np.random.default_rng(7)
        g = mk.regular_ngon(4, 1.0)
        noise = rng.standard_normal(g.vertices.shape)
        noise /= np.linalg.norm(noise, axis=1)[:, None]
        start = mk.ClosedPolygon(g.vertices + 0.01 * 0.25 * noise)
        trace = mk.minimize_discrete_energy(start)
        assert trace.energy_gap < 1e-8
        aligned, residual = mk.align_rigid(
            trace.final_polygon, mk.regular_ngon(4, trace.final_polygon.total_length)
        )
        assert residual < 1e-4

    def test_starts_at_critical_point(self):
        trace = mk.minimize_discrete_energy(mk.regular_ngon(8, 1.0))
        assert trace.termination == "gradient_tol"
        assert trace.iterations <= 2

    def test_random_16gons_respect_minimality(self):
        floor = mk.regular_ngon_energy(16)
        for seed in range(3):
            start = mk.random_equilateral_polygon(16, dim=3, seed=seed)
            trace = mk.minimize_discrete_energy(start)
            assert trace.energies[-1] >= floor - 1e-9

    def test_trace_monotone_and_feasible(self):
        start = mk.random_equilateral_polygon(12, dim=3, seed=8)
        trace = mk.minimize_discrete_energy(start)
        energies = np.asarray(trace.energies)
        assert np.all(np.diff(energies) <= 1e-12)
        assert trace.final_polygon.equilaterality().max_edge_deviation <= 1e-12

    def test_equivariance_under_rigid_motion(self):
        start = mk.random_equilateral_polygon(8, dim=2, seed=9)
        R = rotation_2d(0.7)
        t = np.array([0.3, -1.2])
        moved = mk.ClosedPolygon(start.vertices @ R.T + t)
        trace_a = mk.minimize_discrete_energy(start)
        trace_b = mk.minimize_discrete_energy(moved)
        expected = trace_a.final_polygon.vertices @ R.T + t
        assert np.abs(trace_b.final_polygon.vertices - expected).max() <= 1e-6

    def test_former_stall_reaches_regular(self):
        # projected Euclidean steps stalled here at gap 106
        trace = mk.minimize_discrete_energy(mk.random_equilateral_polygon(64, dim=3, seed=848431323))
        assert trace.termination in ("gradient_tol", "energy_tol")
        assert trace.energy_gap < 1e-8

    def test_keeps_the_start_length(self):
        # each step lengthens the edges to second order; unchecked, that compounds
        start = mk.random_equilateral_polygon(32, dim=3, seed=5)
        final = mk.minimize_discrete_energy(start).final_polygon
        assert abs(final.total_length - start.total_length) <= 1e-12 * start.total_length

    def test_reversed_gradient_stalls(self, monkeypatch, tmp_path, capsys):
        gradient = optimize.energy_gradient
        monkeypatch.setattr(optimize, "energy_gradient", lambda p: -gradient(p))
        trace = mk.minimize_discrete_energy(mk.random_equilateral_polygon(8, dim=3, seed=0))
        assert trace.termination == "stalled"
        rc = main(["minimize", "--n", "8", "--seed", "0", "--out-dir", str(tmp_path)])
        assert rc == 3
        captured = capsys.readouterr()
        assert "(stalled)" in captured.out
        assert captured.err.startswith("error:")
        assert (tmp_path / "final-polygon.json").exists()

    def test_iterations_grow_slowly_with_n(self):
        most = {
            n: max(
                mk.minimize_discrete_energy(mk.random_equilateral_polygon(n, dim=3, seed=seed)).iterations
                for seed in range(3)
            )
            for n in (16, 64)
        }
        assert most[64] <= 2 * most[16]

    def test_trace_csv(self, tmp_path):
        trace = mk.minimize_discrete_energy(mk.random_equilateral_polygon(8, dim=3, seed=10))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,energy,grad_norm,step"
        assert len(lines) == trace.iterations + 2


class TestAlignRigid:
    def test_exact_rigid_match(self):
        p = mk.random_equilateral_polygon(10, dim=3, seed=11)
        angle_axis = np.array([0.2, 0.5, -0.3])
        theta = np.linalg.norm(angle_axis)
        k = angle_axis / theta
        K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
        R = np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)
        q = mk.ClosedPolygon(np.roll(p.vertices, 3, axis=0) @ R.T + np.array([1.0, 2.0, 3.0]))
        _, residual = mk.align_rigid(p, q)
        assert residual <= 1e-12

    def test_regular_ngon_on_circumcircle(self):
        g = mk.regular_ngon(12, 1.0)
        radius = float(np.linalg.norm(g.vertices[0]))
        circ = mk.arclength_reparametrize(mk.circle(radius=radius), nodes=1024, tol=1e-12)
        _, residual = mk.align_rigid(g, circ)
        assert residual <= 1e-9

    def test_reversed_traversal_matched_by_orientation_flip(self):
        p = mk.random_equilateral_polygon(9, dim=2, seed=12)
        reversed_ = mk.ClosedPolygon(p.vertices[::-1].copy())
        _, residual = mk.align_rigid(reversed_, p)
        assert residual <= 1e-12

    def test_mirrored_planar_polygon_in_3d(self):
        flat = mk.random_equilateral_polygon(9, dim=2, seed=12)
        p = mk.ClosedPolygon(np.column_stack([flat.vertices, np.zeros(9)]))
        # an in-plane reflection of a planar polygon is a rotation of R^3
        mirrored = mk.ClosedPolygon(p.vertices * np.array([-1.0, 1.0, 1.0]))
        _, residual = mk.align_rigid(mirrored, p)
        assert residual <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            mk.align_rigid(mk.regular_ngon(5, 1.0, dim=2), mk.regular_ngon(5, 1.0, dim=3))


def kabsch_over_relabelings(p, target):
    """Reference alignment: one Kabsch solve per cyclic shift and orientation, best first.

    Rows (rms, orientation, shift, aligned vertices), relabeling i -> orientation (i + shift).
    """
    n = p.n
    rows = []
    for orientation in (1, -1):
        for shift in range(n):
            cand = p.vertices[(orientation * (np.arange(n) + shift)) % n]
            R, t, rms = optimize._kabsch(cand, target)
            rows.append((rms, orientation, shift, cand @ R.T + t))
    return sorted(rows, key=lambda row: row[:3])


def alignment_targets(p, seed):
    rng = np.random.default_rng(seed)
    n, dim = p.n, p.dim
    moved = np.roll(p.vertices[::-1], int(rng.integers(n)), axis=0) + rng.standard_normal(dim)
    yield mk.random_equilateral_polygon(n, dim=dim, seed=seed + 1)
    yield mk.regular_ngon(n, p.total_length, dim=dim)
    yield mk.ClosedPolygon(moved + 1e-3 * rng.standard_normal((n, dim)))
    curve = mk.ellipse(1.0, 0.6) if dim == 2 else mk.torus_knot(2, 3, 2.0, 1.0)
    yield mk.arclength_reparametrize(curve)


class TestFFTAlignment:
    @pytest.mark.parametrize("n", [5, 8, 13, 64, 200])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_kabsch_on_every_relabeling(self, n, dim):
        p = mk.random_equilateral_polygon(n, dim=dim, seed=n)
        for q in alignment_targets(p, seed=n + dim):
            target = q.vertices if isinstance(q, mk.ClosedPolygon) else q.eval(
                p.arc_params * (q.length / p.total_length))
            rows = kabsch_over_relabelings(p, target)
            aligned, rms = mk.align_rigid(p, q)
            assert rms == pytest.approx(rows[0][0], rel=1e-12, abs=1e-15 * p.total_length)
            if rows[1][0] - rows[0][0] > 1e-9 * p.total_length:     # a unique best relabeling
                assert optimize._best_relabeling(p.vertices, target) == rows[0][1:3]
                assert np.abs(aligned.vertices - rows[0][3]).max() <= 1e-12 * p.total_length

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_regular_ngon_to_itself_keeps_its_labels(self, n, dim):
        # every shift ties here, and in 3-D the reversed order too
        g = mk.regular_ngon(n, 1.0, dim=dim)
        assert optimize._best_relabeling(g.vertices, g.vertices) == (1, 0)
        aligned, rms = mk.align_rigid(g, g)
        assert rms <= 1e-15
        assert np.abs(aligned.vertices - g.vertices).max() <= 1e-15

    def test_planted_relabeling_is_recovered(self):
        p = mk.random_equilateral_polygon(50, dim=3, seed=3)
        orientation, shift = -1, 17
        q = mk.ClosedPolygon(p.vertices[(orientation * (np.arange(50) + shift)) % 50] + 2.0)
        assert optimize._best_relabeling(p.vertices, q.vertices) == (orientation, shift)


def reference_sobolev_direction(p, grad):
    """The scipy.linalg form of sobolev_direction: circulant Gram matrix, solve(assume_a="pos")."""
    n, L = p.n, p.total_length
    h = L / n
    lap = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)) / h**2
    g_inv = 1.0 / (L * (lap**1.5 + lap[1] ** 1.5))

    def apply_g_inv(y):
        return np.fft.irfft(np.fft.rfft(y, axis=0) * g_inv[:, None], n, axis=0)

    u = p.edge_vectors() / p.edge_lengths[:, None]
    gram = circulant(np.fft.irfft(lap * h**2 * g_inv, n))
    gram *= u @ u.T
    y = apply_g_inv(grad)
    dl = np.einsum("ij,ij->i", u, np.roll(y, -1, axis=0) - y)
    lam = solve(np.diff(np.diff(gram, axis=0), axis=1), dl[:-1] - dl[1:], assume_a="pos")
    mu = np.zeros(n)
    mu[:-1] += lam
    mu[1:] -= lam
    w = mu[:, None] * u
    return apply_g_inv(grad - (np.roll(w, 1, axis=0) - w))


def reference_median_directions(e, norms):
    """_median_directions with np.linalg.solve, np.linalg.norm and np.diag_indices."""
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
        if np.linalg.norm(g) <= 4.0 * eps * float((norms + np.linalg.norm(mu)) @ inv_r):
            return u if np.linalg.norm(g) <= 0.5e-12 * n else None
        hess = -(u.T * inv_r) @ u
        hess[np.diag_indices(dim)] += inv_r.sum() * (1.0 + 1e-12)
        step = np.linalg.solve(hess, g)
        size, far = np.linalg.norm(step), r.max()
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
        mu, diff, r, phi = trial, trial_diff, trial_r, trial_phi
    raise AssertionError("reference median did not converge")


def reference_projection(v, length=None):
    """project_equilateral_closed in its np.roll / vstack / mean forms; also the sweeps it took."""
    e = np.roll(v, -1, axis=0) - v
    norms = np.sqrt(np.einsum("ij,ij->i", e, e))
    if length is None:
        length = norms.mean()
    for sweeps in range(100):
        u = reference_median_directions(e, norms)
        if u is not None:
            break
        e = e * (length / norms)[:, None]
        e -= e.mean(axis=0)
        norms = np.sqrt(np.einsum("ij,ij->i", e, e))
    else:
        raise AssertionError("reference retraction did not close")
    e = length * u
    e -= e.mean(axis=0)
    out = np.vstack([np.zeros(v.shape[1]), np.cumsum(e[:-1], axis=0)])
    out += v.mean(axis=0) - out.mean(axis=0)
    return out, sweeps


class TestReferenceForms:
    """The descent's direct LAPACK calls and sliced shifts compute the parent forms bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sobolev_direction_matches_scipy_solve(self, dim):
        for n in range(3, 65):
            p = mk.random_equilateral_polygon(n, dim=dim, seed=n)
            g = mk.energy_gradient(p)
            assert np.array_equal(mk.sobolev_direction(p, g), reference_sobolev_direction(p, g))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_projection_matches_roll_vstack_mean(self, dim):
        rng = np.random.default_rng(dim)
        swept = []
        for n in range(3, 65):
            p = mk.random_equilateral_polygon(n, dim=dim, seed=n)
            trial = p.vertices - 0.1 * mk.sobolev_direction(p, mk.energy_gradient(p))
            chain = rng.standard_normal((n, dim))
            for v in (trial, chain):
                out, sweeps = reference_projection(v)
                assert np.array_equal(mk.project_equilateral_closed(v).vertices, out)
                if sweeps:
                    swept.append(n)
            assert np.array_equal(mk.project_equilateral_closed(trial, 0.5).vertices,
                                  reference_projection(trial, 0.5)[0])
        # these random chains take the sweep path, so it is held to its reference too
        assert swept == {2: [3, 7, 9, 16, 19, 30, 63], 3: [3, 16]}[dim]

    def test_descent_makes_no_roll_calls(self, monkeypatch):
        start = mk.random_equilateral_polygon(16, dim=3, seed=2)

        def roll(*args, **kwargs):
            raise AssertionError("np.roll called")

        monkeypatch.setattr(np, "roll", roll)
        trace = mk.minimize_discrete_energy(start, mk.OptimizerConfig(max_iterations=3))
        assert trace.termination == "max_iterations"
        assert trace.iterations == 3


class TestStalledClosure:
    # planar 4-gons whose edge vectors have their geometric median on one of
    # them, where the alternating projection stalls near a rhombus
    SEEDS = (1827, 1000013, 1000075, 1000121, 1000223)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_planar_4gon_closes(self, seed):
        v = np.random.default_rng(seed).standard_normal((4, 2))
        e = np.roll(v, -1, axis=0) - v
        with pytest.raises(ConvergenceError):
            close_equilateral(e, np.linalg.norm(e, axis=1).mean())
        out = mk.project_equilateral_closed(v)
        cert = out.equilaterality()
        assert cert.max_edge_deviation <= 1e-12
        assert cert.closure_residual <= 1e-12 * out.total_length
        assert np.abs(out.vertices.mean(axis=0) - v.mean(axis=0)).max() <= 1e-12
        R = rotation_2d(0.7)
        shift = np.array([3.0, -1.0])
        moved = mk.project_equilateral_closed(v @ R.T + shift)
        assert np.abs(moved.vertices - (out.vertices @ R.T + shift)).max() <= 1e-12

    def test_stall_still_raises_when_no_sweep_helps(self, monkeypatch):
        monkeypatch.setattr(optimize, "_median_directions", lambda e, norms: None)
        v = np.random.default_rng(1827).standard_normal((4, 2))
        with pytest.raises(ConvergenceError, match="stalled"):
            mk.project_equilateral_closed(v)


def test_rejected_trial_steps_are_counted(monkeypatch):
    trials = []
    project = optimize.project_equilateral_closed
    monkeypatch.setattr(optimize, "project_equilateral_closed",
                        lambda *args: trials.append(args) or project(*args))
    # an equilateral start is not projected, so every retraction is a trial step
    trace = mk.minimize_discrete_energy(mk.random_equilateral_polygon(8, dim=3, seed=0))
    assert trace.rejected_steps > 0
    assert len(trials) == trace.iterations + trace.rejected_steps


def test_optimizer_config_accepts_a_zero_budget():
    trace = mk.minimize_discrete_energy(mk.random_equilateral_polygon(8, dim=3, seed=0),
                                        mk.OptimizerConfig(max_iterations=0))
    assert trace.termination == "max_iterations"
    assert trace.iterations == 0
