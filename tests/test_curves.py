import math

import numpy as np
import pytest

import moebius_kit as mk
from moebius_kit import curves
from moebius_kit.errors import InputError, NotEmbeddedError


def test_circle_length():
    c = mk.arclength_reparametrize(mk.circle(radius=1.0), nodes=4096, tol=1e-12)
    assert abs(c.length - 2.0 * math.pi) < 1e-10


def test_degenerate_curve_rejected():
    point = mk.ParametricCurve(
        lambda u: np.tile([1.0, 2.0], (np.asarray(u).size, 1)), "custom", {}, 2,
        lambda u: np.zeros((np.asarray(u).size, 2)),
    )
    with pytest.raises(InputError):
        mk.arclength_reparametrize(point, nodes=256)


def test_torus_knot_length_against_trapezoid(trefoil):
    # brute-force cumulative arc length on a dense trapezoid grid
    u = np.linspace(0.0, 1.0, 1_000_001)
    speeds = np.linalg.norm(mk.torus_knot(2, 3, 2.0, 1.0).velocity(u), axis=1)
    brute = np.trapezoid(speeds, u)
    assert abs(trefoil.length - brute) < 1e-7


def test_intrinsic_distance_values():
    assert mk.intrinsic_distance(1.0, 0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert mk.intrinsic_distance(1.0, 0.3, 0.3) == 0.0
    assert mk.intrinsic_distance(2.0 * math.pi, 0.0, math.pi) == pytest.approx(math.pi)


def test_intrinsic_distance_is_metric():
    L = 3.7
    rng = np.random.default_rng(0)
    s, t, r = rng.uniform(0, 10 * L, size=(3, 500))
    dst = mk.intrinsic_distance(L, s, t)
    assert np.allclose(dst, mk.intrinsic_distance(L, t, s))
    assert np.all(dst <= L / 2 + 1e-15)
    assert np.all(mk.intrinsic_distance(L, s, r) <= dst + mk.intrinsic_distance(L, t, r) + 1e-12)


def test_shortcut_inequality(circle_2pi, trefoil):
    rng = np.random.default_rng(1)
    for curve in (circle_2pi, trefoil):
        s, t = rng.uniform(0.0, curve.length, size=(2, 10_000))
        chord = np.linalg.norm(curve.eval(s) - curve.eval(t), axis=1)
        assert np.all(mk.intrinsic_distance(curve.length, s, t) >= chord - 1e-9 * curve.length)


def test_unit_speed(circle_2pi, ellipse_06, trefoil):
    rng = np.random.default_rng(2)
    for curve in (circle_2pi, ellipse_06, trefoil):
        s = rng.uniform(0.0, curve.length, size=256)
        h = curve.length * 1e-5
        speed = np.linalg.norm(curve.eval(s + h) - curve.eval(s - h), axis=1) / (2.0 * h)
        assert np.all(speed >= 1.0 - 1e-6)
        # chords never beat arcs; the 1e-7 slack is lookup-table interpolation noise
        assert np.all(speed <= 1.0 + 1e-7)


def test_periodicity_and_nondegeneracy():
    for curve in (mk.circle(1.0), mk.ellipse(1.0, 0.5), mk.torus_knot(2, 3, 2.0, 1.0),
                  mk.rounded_polygon(4, 1.0, 0.2)):
        curve.validate()
        p0 = curve(np.array([0.0]))
        p1 = curve(np.array([1.0 - 1e-16]))
        assert np.max(np.abs(p0 - p1)) < 1e-12


def test_lookup_table_monotone(trefoil):
    assert np.all(np.diff(trefoil.s_table) > 0.0)


def test_scale_equivariance():
    base = mk.ellipse(1.0, 0.5)
    L1 = mk.arclength_reparametrize(base, nodes=2048).length
    for lam in (2.0, 0.5):
        scaled = mk.ParametricCurve(lambda u, f=lam: f * base(u), "custom", {}, 2,
                                    lambda u, f=lam: f * base.velocity(u))
        L2 = mk.arclength_reparametrize(scaled, nodes=2048).length
        assert abs(L2 - lam * L1) < 1e-9 * L2


def test_bilipschitz_circle(circle_2pi):
    # the arc/chord ratio (u/2)/sin(u/2) is maximized at the antipode: pi/2
    assert mk.bilipschitz_estimate(circle_2pi) / 1.05 == pytest.approx(math.pi / 2, rel=0.03)


def test_bilipschitz_ellipse(ellipse_06):
    est = mk.bilipschitz_estimate(ellipse_06)
    assert math.isfinite(est) and est >= 1.0


def dense_bilipschitz_estimate(curve) -> float:
    """The (512, 512) all-pairs arc/chord ratio, inflated by 1.05: a reference for the chord-kernel estimate."""
    grid = 512
    L = curve.length
    s = np.arange(grid) * (L / grid)
    pts = curve.eval(s)
    chord = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    dint = mk.intrinsic_distance(L, s[:, None], s[None, :])
    mask = ~np.eye(grid, dtype=bool)
    if np.any(mask & (chord < 1e-9 * L) & (dint > 1e-3 * L)):
        raise NotEmbeddedError("samples coincide")
    ratio = np.where(mask, dint / np.where(chord == 0.0, np.inf, chord), 0.0)
    return 1.05 * float(ratio.max())


@pytest.mark.parametrize("curve", [
    mk.circle(1.0), mk.circle(2.0, (0.0, 0.0, 1.0)), mk.ellipse(1.0, 0.6), mk.ellipse(1.0, 0.3),
    mk.torus_knot(2, 3, 2.0, 1.0), mk.torus_knot(2, 5, 2.0, 1.0), mk.rounded_polygon(5, 1.0, 0.2),
], ids=["circle", "circle-3d", "ellipse-0.6", "ellipse-0.3", "trefoil", "knot-2-5", "rounded-pentagon"])
def test_bilipschitz_matches_dense_reference(curve):
    c = mk.arclength_reparametrize(curve)
    # within one ulp: the kernel's squared chords and d^2 Q round differently from d / |chord|
    assert c.bilipschitz == pytest.approx(dense_bilipschitz_estimate(c), rel=2.3e-16, abs=0.0)


class _SampledCircle:
    """Circle sampled through a parameter map on [0, 1): samples that the map merges coincide."""

    length = 1.0

    def __init__(self, param):
        self.param = param

    def eval(self, s):
        ang = 2.0 * math.pi * self.param(np.asarray(s, dtype=float))
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)


@pytest.mark.parametrize("param", [
    lambda s: np.maximum(s, 1.0 / 512),     # samples 0 and 1, consecutive
    lambda s: 2.0 * s,                      # twice around: samples i and i + 256
], ids=["consecutive", "half-length-apart"])
def test_bilipschitz_coincident_samples_not_embedded(param):
    with pytest.raises(NotEmbeddedError) as err:
        mk.bilipschitz_estimate(_SampledCircle(param))
    assert type(err.value) is NotEmbeddedError
    with pytest.raises(NotEmbeddedError):
        dense_bilipschitz_estimate(_SampledCircle(param))


def test_bilipschitz_non_finite_samples_are_input_errors():
    # a NaN sample is bad input, not a coincidence of two samples
    with pytest.raises(InputError) as err:
        mk.bilipschitz_estimate(_SampledCircle(lambda s: np.where(s > 0.5, np.nan, s)))
    assert not isinstance(err.value, NotEmbeddedError)


def test_bilipschitz_detects_double_point():
    # out-and-back segment traced from a sample table: exact double points
    t = np.linspace(0.0, 2.0 * math.pi, 65)[:-1]
    samples = np.stack([np.cos(t), np.zeros_like(t)], axis=1)
    flat = mk.from_samples(samples)
    with pytest.raises(NotEmbeddedError):
        mk.arclength_reparametrize(flat, nodes=1024)


def test_descriptor_loading():
    curve = mk.load_curve({"kind": "circle", "params": {"radius": 2.0}}, nodes=1024)
    assert curve.kind == "circle"
    assert abs(curve.length - 4.0 * math.pi) < 1e-8
    table = mk.load_curve({"samples": [[math.cos(a), math.sin(a)]
                                       for a in np.linspace(0, 2 * math.pi, 33)[:-1]]}, nodes=1024)
    assert table.kind == "samples"
    with pytest.raises(InputError):
        mk.parametric_from_descriptor({"kind": "hyperbola"})


def test_reparametrize_node_floor():
    with pytest.raises(InputError):
        mk.arclength_reparametrize(mk.circle(1.0), nodes=128)


def test_reparametrize_compares_half_and_full_tables(monkeypatch):
    # a curve that agrees at once gets its table at `nodes` from two Gauss passes
    sizes = []
    gauss = curves._cumulative_gauss
    monkeypatch.setattr(curves, "_cumulative_gauss", lambda c, k: sizes.append(k) or gauss(c, k))
    c = mk.arclength_reparametrize(mk.ellipse(1.0, 0.6), nodes=2048)
    assert sizes == [1024, 2048]
    assert c.s_table.size == 2049


def test_reparametrize_refines_when_the_first_comparison_fails(monkeypatch):
    # the flat ellipse's speed turns within about b of its ends, which 128
    # intervals do not resolve
    sizes = []
    gauss = curves._cumulative_gauss
    monkeypatch.setattr(curves, "_cumulative_gauss", lambda c, k: sizes.append(k) or gauss(c, k))
    c = mk.arclength_reparametrize(mk.ellipse(1.0, 0.005), nodes=256)
    assert sizes == [128, 256, 512, 1024]
    assert c.s_table.size == 1025
    fine = float(gauss(mk.ellipse(1.0, 0.005), 1 << 16).sum())
    assert abs(c.length - fine) <= 1e-9 * fine
