import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import moebius_kit as mk
from moebius_kit import inscription
from moebius_kit.errors import ConvergenceError, InputError


def scalar_march(curve, n, c, step_bound):
    """Chain b_0 = 0 < b_1 < ... with every chord c: vertex by vertex, scan in c/4 steps, then brentq.

    The chord from b_k is at most the arc, so b_k + c lies at or before
    the root; the first sign change past it, up to the cap, is bracketed
    by the scan.  Returns the partial march when no root lies within the cap.
    """
    L = curve.length
    cap = min(step_bound, 0.5 * L)
    xtol = 1e-15 * L
    b = [0.0]
    for _ in range(n - 1):
        origin = curve.point_at(b[-1])

        def gap(x):
            d = curve.point_at(x) - origin
            return math.sqrt(float(d @ d)) - c

        lo = b[-1] + c
        g_lo = gap(lo)
        if g_lo == 0.0:
            b.append(lo)
            continue
        if g_lo > 0.0:
            b.append(brentq(gap, b[-1] + 0.25 * c, lo, xtol=xtol))
            continue
        x, root = lo, None
        while x < b[-1] + cap:
            x_next = min(x + 0.25 * c, b[-1] + cap)
            if gap(x_next) >= 0.0:
                root = brentq(gap, x, x_next, xtol=xtol)
                break
            x = x_next
        if root is None:
            break
        b.append(root)
    return np.array(b)


def step_bound(curve, c):
    """The bi-Lipschitz step bound ``inscribe_equilateral`` certifies its steps against."""
    return 1.25 * curve.bilipschitz * c


def assert_certified(curve, polygon, b, tol):
    """Every one of the n steps, the closing one included, passes the certificate.

    Monotone b, every step in [c/4, cap], each vertex the first crossing of
    the chord length c past its predecessor on the c/4 scan grid, and every
    chord within tol of c, relative; c is the mean chord, which lies within
    tol of the solver's own.
    """
    L = curve.length
    chords = polygon.edge_lengths
    c = float(chords.mean())
    cap = min(step_bound(curve, c), 0.5 * L)
    bb = np.append(b, L)
    steps = np.diff(bb)
    assert b[0] == 0.0 and len(chords) == len(b)
    assert np.all((steps >= 0.25 * c) & (steps <= cap))
    pts = curve.eval(bb)
    assert np.array_equal(np.linalg.norm(np.diff(pts, axis=0), axis=1), chords)
    assert np.max(np.abs(chords - c)) <= 2.0 * tol * c
    # each vertex is the first crossing: the chord stays below c on the scan grid before it
    for k, step in enumerate(steps):
        grid = np.arange(c, step - 1e-13 * L, 0.25 * c)
        if grid.size:
            probe = np.linalg.norm(curve.eval(b[k] + grid) - pts[k], axis=1)
            assert np.all(probe < c)


def test_uniform_circle_hexagon(circle_2pi):
    polygon, _ = mk.inscribe_uniform(circle_2pi, 6)
    chords = polygon.edge_lengths
    assert np.allclose(chords, 2.0 * math.sin(math.pi / 6), atol=1e-12)
    assert chords.min() == pytest.approx(chords.max(), rel=1e-12)
    assert np.allclose(np.linalg.norm(polygon.vertices, axis=1), 1.0, atol=1e-10)


def test_uniform_chord_bounds_against_bilipschitz(trefoil):
    polygon, _ = mk.inscribe_uniform(trefoil, 64)
    chords = polygon.edge_lengths
    normalized = 64 * chords / trefoil.length
    assert normalized.max() <= 1.0 + 1e-9                       # chords never beat arcs
    assert normalized.min() >= 1.0 / trefoil.bilipschitz        # arc <= C_b * chord
    assert chords.max() / chords.min() <= trefoil.bilipschitz   # estimate already carries 5% headroom
    # dense chord scan: the normalized bounds hold on shifted subdivisions too
    for offset in (0.1, 0.5):
        b = (np.arange(64) * trefoil.length / 64 + offset) % trefoil.length
        chords = np.linalg.norm(
            trefoil.eval(np.roll(np.sort(b), -1)) - trefoil.eval(np.sort(b)), axis=1
        )
        assert 64 * chords.max() / trefoil.length <= 1.0 + 1e-9


def test_equilateral_circle_octagon(circle_2pi):
    polygon, _ = mk.inscribe_equilateral(circle_2pi, 8)
    assert np.allclose(polygon.edge_lengths, 2.0 * math.sin(math.pi / 8), atol=1e-9)
    assert polygon.equilaterality().max_edge_deviation <= 1e-9


def test_equilateral_ellipse(ellipse_06):
    polygon, _ = mk.inscribe_equilateral(ellipse_06, 64, tol=1e-10)
    assert polygon.equilaterality().max_edge_deviation <= 1e-9
    total = polygon.edge_lengths.sum()
    assert total <= ellipse_06.length
    # n * (L - total chord length) stays bounded as n grows
    slack = []
    for n in (64, 128, 256):
        p, _ = mk.inscribe_equilateral(ellipse_06, n)
        slack.append(n * (ellipse_06.length - p.edge_lengths.sum()))
    assert max(slack) <= 1.5 * slack[0]


def test_equilateral_chord_decreases(trefoil):
    p16, _ = mk.inscribe_equilateral(trefoil, 16)
    p128, _ = mk.inscribe_equilateral(trefoil, 128)
    assert p128.edge_lengths.mean() < p16.edge_lengths.mean()


def test_equilateral_determinism(ellipse_06):
    p1, b1 = mk.inscribe_equilateral(ellipse_06, 32)
    p2, b2 = mk.inscribe_equilateral(ellipse_06, 32)
    assert np.array_equal(p1.vertices, p2.vertices)
    assert np.array_equal(b1, b2)


def test_vertices_lie_on_curve(trefoil):
    polygon, b = mk.inscribe_equilateral(trefoil, 48)
    gap = np.linalg.norm(polygon.vertices - trefoil.eval(b), axis=1)
    assert gap.max() <= 1e-10 * trefoil.length


def test_chord_never_exceeds_arc(trefoil, ellipse_06):
    for curve in (trefoil, ellipse_06):
        polygon, b = mk.inscribe_equilateral(curve, 40)
        arcs = np.diff(np.append(b, b[0] + curve.length))
        assert np.all(polygon.edge_lengths <= arcs + 1e-12 * curve.length)


def test_recovery_sequence_scaling(circle_1, trefoil):
    octagon = mk.recovery_sequence(circle_1, 8)
    assert octagon.total_length == pytest.approx(1.0, abs=1e-12)
    raw, _ = mk.inscribe_equilateral(trefoil, 24)
    recovered = mk.recovery_sequence(trefoil, 24)
    assert recovered.total_length == pytest.approx(trefoil.length, rel=1e-12)
    e_raw = mk.discrete_moebius_energy(raw).value
    e_rec = mk.discrete_moebius_energy(recovered).value
    assert e_rec == pytest.approx(e_raw, rel=1e-12)


def test_recovery_tangent_convergence(trefoil):
    dists = []
    for n in (16, 64, 256):
        p = mk.recovery_sequence(trefoil, n)
        dists.append(
            mk.curve_distance(
                p.scaled(1.0 / p.total_length),
                trefoil.scaled(1.0 / trefoil.length),
                norm="W1q",
                q=math.inf,
            )
        )
    assert dists[2] < dists[1] < dists[0]


def test_subdivision_spec_serialization(tmp_path, capsys):
    # the subdivision of a uniform inscription serializes as its parameters b and chords
    import json

    from moebius_kit.cli import main

    curve = tmp_path / "circle.json"
    curve.write_text(json.dumps({"kind": "circle", "params": {"radius": 1.0}}))
    assert main(["inscribe", "--curve", str(curve), "--n", "12", "--out-dir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "subdivision.json").read_text())
    assert set(data) == {"b", "chords"}
    assert len(data["b"]) == 12
    _, b = mk.inscribe_uniform(mk.load_curve(str(curve)), 12)
    assert np.array_equal(data["b"], b)
    polygon = mk.ClosedPolygon.read_json(tmp_path / "polygon.json")
    assert np.array_equal(data["chords"], polygon.edge_lengths)
    capsys.readouterr()


def test_preconditions(circle_2pi):
    with pytest.raises(InputError):
        mk.inscribe_uniform(circle_2pi, 2)
    with pytest.raises(InputError):
        mk.inscribe_equilateral(circle_2pi, 8, tol=1e-3)


@pytest.fixture(scope="module")
def pentagon():
    return mk.arclength_reparametrize(mk.rounded_polygon(5, 1.0, 0.2))


@pytest.mark.parametrize("name", ["circle_2pi", "ellipse_06", "trefoil", "pentagon"])
@pytest.mark.parametrize("n", [24, 100, 1000])
def test_march_matches_scalar_reference(name, n, request):
    # marching vertex by vertex at the inscription's chord reproduces its vertices
    curve = request.getfixturevalue(name)
    polygon, b = mk.inscribe_equilateral(curve, n)
    c = float(polygon.edge_lengths.mean())
    reference = scalar_march(curve, n, c, step_bound(curve, c))
    assert len(reference) == n
    assert np.max(np.abs(b - reference)) <= 1e-12 * curve.length


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["ellipse_06", "trefoil", "pentagon"]), st.sampled_from([6, 8, 16, 64]),
       st.sampled_from([1e-12, 1e-10, 1e-6]))
def test_march_prefix_is_certified(trefoil, ellipse_06, pentagon, name, n, tol):
    curve = {"ellipse_06": ellipse_06, "trefoil": trefoil, "pentagon": pentagon}[name]
    polygon, b = mk.inscribe_equilateral(curve, n, tol=tol)
    assert_certified(curve, polygon, b, tol)


CATALOG = {
    "circle": lambda: mk.unit_circle(2.0 * math.pi),
    "ellipse_06": lambda: mk.arclength_reparametrize(mk.ellipse(1.0, 0.6)),
    "ellipse_05": lambda: mk.arclength_reparametrize(mk.ellipse(1.0, 0.5)),
    "ellipse_03": lambda: mk.arclength_reparametrize(mk.ellipse(1.0, 0.3)),
    "trefoil": lambda: mk.arclength_reparametrize(mk.torus_knot(2, 3, 2.0, 1.0)),
    "knot_25": lambda: mk.arclength_reparametrize(mk.torus_knot(2, 5, 2.0, 1.0)),
    "pentagon": lambda: mk.arclength_reparametrize(mk.rounded_polygon(5, 1.0, 0.2)),
}
SMALL_N = range(3, 17)


@pytest.fixture(scope="module")
def small_n_sweep():
    """Each catalog curve inscribed at n = 3 ... 16, every call with warnings
    raised as errors and under tracemalloc: {(name, n): (curve, (polygon, b) or error, peak bytes)}."""
    out = {}
    for name, make in CATALOG.items():
        curve = make()
        for n in SMALL_N:
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    result = mk.inscribe_equilateral(curve, n)
            except ConvergenceError as exc:
                result = exc
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            out[name, n] = (curve, result, peak)
    return out


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_small_n_inscriptions_certify_the_closing_chord(small_n_sweep, name):
    # the closing step L - b_{n-1} passes the same certificate as the other n - 1
    for n in SMALL_N:
        curve, result, _ = small_n_sweep[name, n]
        if not isinstance(result, ConvergenceError):
            assert_certified(curve, *result, 1e-10)


def test_small_n_inscriptions_that_fail_raise_in_bounded_memory(small_n_sweep):
    # no warning escapes (the sweep raises them as errors) and no failure builds a large array
    failed = {key: peak for key, (_, result, peak) in small_n_sweep.items()
              if isinstance(result, ConvergenceError)}
    assert ("ellipse_03", 3) in failed
    assert max(failed.values()) < 16e6


def test_trefoil_hexagon_is_the_uniform_subdivision(trefoil):
    # the trefoil's symmetries map the uniform 6-gon's chords onto each other
    L = trefoil.length
    _, b = mk.inscribe_equilateral(trefoil, 6)
    assert np.max(np.abs(b - np.arange(6) * (L / 6))) <= 1e-12 * L


@pytest.mark.parametrize("n", [4096, 16384])
def test_tol_below_the_roundoff_floor_gives_up_early(trefoil, n):
    # the chords' roundoff exceeds 1e-12 c at these n, so Newton cannot certify tol 1e-12
    with pytest.raises(ConvergenceError, match="roundoff floor") as err:
        mk.inscribe_equilateral(trefoil, n, tol=1e-12)
    steps = re.search(r"after (\d+) Newton steps", str(err.value)).group(1)
    assert int(steps) < inscription._NEWTON_STEPS
    mk.inscribe_equilateral(trefoil, n, tol=1e-10)
