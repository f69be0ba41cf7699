"""Tests for admissible manifolds: validation, graph transforms, limit
manifolds, intersection, shadowing, and the geometric-decay fit.

Scale reality, continued from the charts tests: real window half-widths sit
at e^-300 (representable on the fixture, flushed to zero on the stadium), so
true-unit geometry collapses to bitwise identities -- the honest outputs are
exact base points and zero graphs, which these tests pin bitwise.  Literal
(desk-scale) geometry is exercised through synthetic large-eta charts and
hand-built edge models, where every bound is asserted at its stated value.
"""
from __future__ import annotations

import functools
import hashlib
import math
import warnings

import numpy as np
import pytest

import pesin_coder.manifolds as manifolds
from pesin_coder.charts import (
    ChartMapDecomposition,
    PesinChart,
    chart_apply,
    chart_from_segment,
    greedy_q,
)
from pesin_coder.cocycle import orbit_segment, oseledets_splitting
from pesin_coder.dynamics import billiard_inverse, billiard_map
from pesin_coder.errors import (
    AdmissibilityViolated,
    ContractionViolated,
    DomainEscape,
    GraphFolded,
    MultipleIntersections,
    NoIntersection,
    ShadowEscape,
)
from pesin_coder.lattice import LatticeSize
from pesin_coder.manifolds import (
    MANIFOLD_GRID_N,
    TAU,
    AdmissibleManifold,
    GpoPath,
    PathVertex,
    c0_distance,
    c1_distance,
    contraction_measurement,
    graph_transform,
    intersect,
    make_manifold,
    path_from_vertices,
    shadow,
    stable_manifold,
    unstable_manifold,
    validate_admissible,
    zero_manifold,
)
from pesin_coder.tables import (PhasePoint, make_circle, make_linear_fixture,
                                make_sinai, make_stadium)

from helpers import (
    CFG,
    CHI,
    CONSTS,
    STADIUM_CHI,
    minimal_frame,
    tame_stadium_window,
)



def fixture_vertex(n: int = 60):
    """Real-scale vertex at the fixture fixed point with p = Q."""
    fx = make_linear_fixture()
    seg = orbit_segment(fx, PhasePoint(0, 0.0, 0.0), n, n)
    sp = oseledets_splitting(seg)
    ch = chart_from_segment(seg, sp, CHI, CFG, CONSTS, at=0)
    return fx, PathVertex(ch, ch.Q, ch.Q)


def synthetic_vertex(eta_expo: int = 1, eps: float = 0.5, rho: float = 0.3,
                     x: PhasePoint | None = None):
    """Literal-scale vertex: large-eta chart built directly, p = Q."""
    fx = make_linear_fixture()
    if x is None:
        x = PhasePoint(0, 0.0, 0.0)
    eta = LatticeSize(eta_expo, eps)
    ch = PesinChart(fx, x, minimal_frame(), eta, eta, rho)
    return fx, PathVertex(ch, ch.Q, ch.Q)


def const_manifold(vertex: PathVertex, kind: str, c: float,
                   slopes=None) -> AdmissibleManifold:
    return make_manifold(vertex, kind, np.full(MANIFOLD_GRID_N, c),
                         np.zeros(MANIFOLD_GRID_N) if slopes is None
                         else slopes)


def manual_edge(A: float, B: float, h0=(0.0, 0.0),
                grad0=None) -> ChartMapDecomposition:
    """Hand-built affine edge model for targeted transform behaviour."""
    g = np.zeros((2, 2)) if grad0 is None else np.asarray(grad0, float)
    return ChartMapDecomposition(
        A=A, B=B, probe=1e-2, h0=tuple(h0), grad0=g,
        grad_h0=float(np.max(np.abs(g))), sup_h=0.0, grad_sup=0.0,
        holder_const=0.0, holder_half=0.0, df_sup=abs(B))


@functools.cache
def stadium_path():
    """Chart path of the tame stadium window (seed 11 orbit), -6..6,
    memoized across tests."""
    st, seg, sp, _ = tame_stadium_window()
    charts = [chart_from_segment(seg, sp, STADIUM_CHI, CFG, CONSTS, at=k)
              for k in range(-6, 7)]
    qs = greedy_q([c.Q for c in charts], CFG)
    verts = [PathVertex(c, q, q) for c, q in zip(charts, qs.q)]
    return st, path_from_vertices(verts, CONSTS, base_index=6)


# ------------------------------------------------------------- validation
def test_zero_manifold_margins_maximal():
    _, v = fixture_vertex()
    rep = validate_admissible(zero_manifold(v, "u"), CONSTS)
    assert rep["am1_log_margin"] == math.inf
    assert rep["am3_margin"] == 0.5
    assert rep["sup_slope"] == 0.0


def test_am1_boundary_constant_passes():
    _, v = synthetic_vertex()
    m = const_manifold(v, "s", 1e-3)
    rep = validate_admissible(m, CONSTS)
    assert abs(rep["am1_log_margin"]) < 1e-12


def test_am1_violation():
    _, v = synthetic_vertex()
    with pytest.raises(AdmissibilityViolated, match="AM1"):
        validate_admissible(const_manifold(v, "s", 2e-3), CONSTS)


def test_am2_violation_literal_scale():
    _, v = synthetic_vertex()
    allowed = 0.5 * v.p_min.value ** (CONSTS.beta / 3.0)
    m = const_manifold(v, "u", 0.0, slopes=np.full(MANIFOLD_GRID_N, 0.49))
    assert 0.49 > allowed
    with pytest.raises(AdmissibilityViolated, match="AM2"):
        validate_admissible(m, CONSTS)


def test_am3_violation():
    _, v = synthetic_vertex()
    m = const_manifold(v, "u", 0.0, slopes=0.6 * TAU)
    with pytest.raises(AdmissibilityViolated, match="AM3"):
        validate_admissible(m, CONSTS)


def per_pair_slope_holder(slopes: np.ndarray, exponent: float) -> float:
    """Holder quotient of the slope samples divided per pair and then
    maximized over separations 1..32: the loop `validate_admissible` must
    match bitwise."""
    spacing = TAU[1] - TAU[0]
    worst = 0.0
    for k in (1, 2, 4, 8, 16, 32):
        dist = (k * spacing) ** exponent
        for i in range(MANIFOLD_GRID_N - k):
            worst = max(worst, float(abs(slopes[i + k] - slopes[i])) / dist)
    return worst


@pytest.mark.parametrize("vertex", [fixture_vertex, synthetic_vertex],
                         ids=["normalized", "literal"])
def test_slope_holder_matches_per_pair_loop(vertex):
    _, v = vertex()
    slopes = 1e-3 * np.random.default_rng(3).normal(size=MANIFOLD_GRID_N)
    slopes[MANIFOLD_GRID_N // 2] = 0.0
    rep = validate_admissible(const_manifold(v, "u", 0.0, slopes), CONSTS)
    b3 = CONSTS.beta / 3.0
    want = per_pair_slope_holder(slopes, b3)
    if rep["holder_literal_scale"]:
        want = want / v.p_u.value ** b3
    assert rep["holder_literal_scale"] == (vertex is synthetic_vertex)
    assert rep["slope_holder"] == want > 0.0


def test_diagonal_graph_fails_admissibility():
    _, v = synthetic_vertex()
    m = make_manifold(v, "s", TAU.copy(), np.ones(MANIFOLD_GRID_N))
    with pytest.raises(AdmissibilityViolated):
        validate_admissible(m, CONSTS)


def test_am2_floor_active_at_real_scale():
    _, v = fixture_vertex()
    rep = validate_admissible(zero_manifold(v, "s"), CONSTS)
    assert rep["am2_floor_used"]
    assert not rep["holder_literal_scale"]
    rep2 = validate_admissible(zero_manifold(synthetic_vertex()[1], "s"),
                               CONSTS)
    assert not rep2["am2_floor_used"]
    assert rep2["holder_literal_scale"]


def test_make_manifold_scalar_and_shape_checks():
    _, v = synthetic_vertex()
    m = make_manifold(v, "u", 1e-4)
    assert np.all(m.values == 1e-4)
    validate_admissible(m, CONSTS)
    with pytest.raises(ValueError):
        AdmissibleManifold(v, "x", np.zeros(MANIFOLD_GRID_N),
                           np.zeros(MANIFOLD_GRID_N))
    with pytest.raises(ValueError):
        AdmissibleManifold(v, "u", np.zeros(7), np.zeros(7))


def test_path_vertex_rejects_oversized_window():
    _, v = fixture_vertex()
    big = LatticeSize(v.chart.Q.expo - 3, v.chart.Q.eps)
    with pytest.raises(ValueError):
        PathVertex(v.chart, big, v.chart.Q)


# ------------------------------------------- transforms at literal scale
def test_u_transform_constant_literal():
    _, v = synthetic_vertex()
    path = path_from_vertices((v,) * 3, CONSTS, 0)
    c = 2.0 ** -11
    out = graph_transform(path.fwd[0], const_manifold(v, "u", c), v)
    validate_admissible(out, CONSTS)
    A = path.fwd[0].A
    assert abs(A - math.exp(-1.0)) < 1e-12
    assert np.max(np.abs(out.values - A * c)) < 1e-15
    assert np.max(np.abs(out.slopes)) < 1e-15


def test_s_transform_constant_literal():
    _, v = synthetic_vertex()
    path = path_from_vertices((v,) * 3, CONSTS, 0)
    c = 2.0 ** -11
    out = graph_transform(path.bwd[0], const_manifold(v, "s", c), v)
    validate_admissible(out, CONSTS)
    assert np.max(np.abs(out.values - path.bwd[0].B * c)) < 1e-15


def test_u_transform_linear_slope_literal():
    _, v = synthetic_vertex()
    path = path_from_vertices((v,) * 3, CONSTS, 0)
    a = 0.3
    m = make_manifold(v, "u", a * TAU, np.full(MANIFOLD_GRID_N, a))
    out = graph_transform(path.fwd[0], m, v)
    validate_admissible(out, CONSTS)
    A, B = path.fwd[0].A, path.fwd[0].B
    # image of {(a s, s)} is {(A a s, B s)}: value A a t / B, slope A a / B
    assert np.max(np.abs(out.values - (A * a / B) * TAU)) < 1e-14
    assert np.max(np.abs(out.slopes - A * a / B)) < 1e-14


def test_coverage_escape_when_window_grows_too_fast():
    _, v = synthetic_vertex()
    path = path_from_vertices((v,) * 3, CONSTS, 0)
    # shrink the input window by e^(-7/6): e * e^(-7/6) < 1 kills coverage
    small = PathVertex(v.chart, v.chart.Q.step(7), v.chart.Q.step(7))
    m = zero_manifold(small, "u")
    with pytest.raises(DomainEscape, match="cover"):
        graph_transform(path.fwd[0], m, v)


def test_orientation_flip_negative_expansion():
    _, v = synthetic_vertex()
    dec = manual_edge(0.3, -2.0)
    a = 0.2
    m = make_manifold(v, "u", a * TAU, np.full(MANIFOLD_GRID_N, a))
    out = graph_transform(dec, m, v)
    validate_admissible(out, CONSTS)
    want = 0.3 * a / -2.0
    assert np.max(np.abs(out.values - want * TAU)) < 1e-14
    assert np.max(np.abs(out.slopes - want)) < 1e-14


def test_graph_folded_on_strong_coupling():
    _, v = synthetic_vertex()
    dec = manual_edge(0.3, 1.5, grad0=[[0.0, 0.0], [-4.0, 0.0]])
    vals = 0.45 * np.sin(math.pi * TAU)
    m = make_manifold(v, "u", vals)
    with pytest.raises(GraphFolded):
        graph_transform(dec, m, v)


def test_containment_refusal_when_the_back_check_misses(monkeypatch):
    # no real edge reaches it: a residual of 1 stands in for a bad push
    _, v = synthetic_vertex()
    push = manifolds._push_graph
    monkeypatch.setattr(manifolds, "_push_graph",
                        lambda *args: push(*args)[:2] + (1.0,))
    with pytest.raises(DomainEscape, match="^containment back-check "
                       "residual 1.000e"):
        graph_transform(manual_edge(0.3, 2.0), zero_manifold(v, "u"), v)


def test_center_offset_enters_literally_at_desk_scale():
    _, v = synthetic_vertex()
    p = v.p_u.value
    dec = manual_edge(math.exp(-1.0), math.exp(1.0), h0=(0.05, 0.0))
    out = graph_transform(dec, zero_manifold(v, "u"), v)
    assert abs(out.value_at_zero - 0.05 / p) < 1e-12
    with pytest.raises(AdmissibilityViolated, match="AM1"):
        validate_admissible(out, CONSTS)


def test_roundtrip_offset_is_measured_zero():
    _, v = fixture_vertex()
    clean = manual_edge(math.exp(-1.0), math.exp(1.0))
    noisy = manual_edge(math.exp(-1.0), math.exp(1.0), h0=(1e-16, -1e-16))
    m = const_manifold(v, "u", 3e-4)
    o1 = graph_transform(clean, m, v)
    o2 = graph_transform(noisy, m, v)
    assert np.array_equal(o1.values, o2.values)
    assert np.array_equal(o1.slopes, o2.slopes)


def test_genuine_offset_dwarfs_subfloat_window():
    _, v = fixture_vertex()
    tiny = LatticeSize(v.chart.Q.expo + 200000, CFG.eps)
    assert tiny.value == 0.0
    vz = PathVertex(v.chart, tiny, tiny)
    dec = manual_edge(math.exp(-1.0), math.exp(1.0), h0=(1e-3, 0.0))
    with pytest.raises(DomainEscape, match="dwarfs"):
        graph_transform(dec, zero_manifold(vz, "u"), vz)


# --------------------------------------------------- real-scale fixture
def test_fixture_edge_decomposition_exact():
    _, v = fixture_vertex()
    path = path_from_vertices((v,) * 3, CONSTS, 0)
    assert abs(path.fwd[0].A - math.exp(-1.0)) < 1e-12
    assert abs(path.fwd[0].B - math.exp(1.0)) < 1e-12
    assert path.fwd[0].h0 == (0.0, 0.0)
    assert float(np.max(np.abs(path.fwd[0].grad0))) < 1e-14
    assert abs(path.bwd[0].A - math.exp(1.0)) < 1e-12


def test_fixture_contraction_factor_exact():
    _, v = fixture_vertex()
    path = path_from_vertices((v,) * 3, CONSTS, 0)
    m1 = const_manifold(v, "u", 2.0 ** -11)
    m2 = const_manifold(v, "u", 2.0 ** -12)
    rep = contraction_measurement(path.fwd[0], m1, m2, v, CONSTS)
    assert abs(rep["c0"] - math.exp(-1.0)) < 1e-15
    assert rep["c0"] <= rep["bound"]
    assert rep["c1"] <= rep["bound"]
    reps = contraction_measurement(
        path.bwd[0], const_manifold(v, "s", 2.0 ** -11),
        const_manifold(v, "s", 2.0 ** -12), v, CONSTS)
    assert abs(reps["c0"] - math.exp(-1.0)) < 1e-15


def test_contraction_violated_on_expanding_edge():
    _, v = synthetic_vertex()
    dec = manual_edge(1.2, math.exp(1.0))  # |A| > 1: not a contraction
    m1 = const_manifold(v, "u", 2.0 ** -11)
    m2 = const_manifold(v, "u", 2.0 ** -12)
    with pytest.raises(ContractionViolated):
        contraction_measurement(dec, m1, m2, v, CONSTS)


@pytest.mark.parametrize("name", ["c0_distance", "c1_distance"])
def test_contraction_fails_a_nan_distance(monkeypatch, name):
    # a NaN C0 distance makes a NaN factor, a NaN C1 distance a NaN C1
    # value; both compared false against their bounds and passed
    _, v = fixture_vertex()
    path = path_from_vertices((v,) * 3, CONSTS, 0)
    m1 = const_manifold(v, "u", 2.0 ** -11)
    m2 = const_manifold(v, "u", 2.0 ** -12)
    monkeypatch.setattr(manifolds, name, lambda *args, **kw: math.nan)
    with pytest.raises(ContractionViolated, match="nan"):
        contraction_measurement(path.fwd[0], m1, m2, v, CONSTS)


def test_advance_refuses_an_undefined_step():
    p = PhasePoint(0, 0.3, math.pi / 2 - 1e-9)  # grazing
    with pytest.raises(ShadowEscape, match="^orbit becomes undefined before "
                       "step -3: tangential collision from ") as ei:
        manifolds._advance(make_circle(), p, -3, billiard_inverse)
    assert ei.value.n == -3


def test_check_window_refuses_a_point_on_another_loop():
    # a chart on the sinai square, a point on its scatterer
    eta = LatticeSize(1, 0.5)
    ch = PesinChart(make_sinai(), PhasePoint(0, 0.5, 0.1), minimal_frame(),
                    eta, eta, 0.3)
    with pytest.raises(ShadowEscape, match="^orbit leaves the chart component "
                       "chain at step 2: points on different") as ei:
        manifolds._check_window(PathVertex(ch, ch.Q, ch.Q),
                                PhasePoint(4, 0.1, 0.0), 2)
    assert ei.value.n == 2


def test_fixture_stable_limit_is_zero_graph():
    _, v = fixture_vertex()
    path = path_from_vertices((v,) * 61, CONSTS, 0)
    m, log = stable_manifold(path, consts=CONSTS)
    assert log["converged"]
    assert log["depth_used"] == 2
    assert float(np.max(np.abs(m.values))) < 1e-50
    assert log["seed_gap"] < 1e-25


def test_fixture_unstable_limit_is_zero_graph():
    _, v = fixture_vertex()
    path = path_from_vertices((v,) * 61, CONSTS, 0)
    m, log = unstable_manifold(path, consts=CONSTS)
    assert log["converged"]
    assert float(np.max(np.abs(m.values))) < 1e-50
    assert log["seed_gap"] < 1e-25


def test_intersect_zero_graphs():
    _, v = fixture_vertex()
    w, rep = intersect(zero_manifold(v, "s"), zero_manifold(v, "u"), CONSTS)
    assert w[0] == 0.0 and w[1] == 0.0
    assert rep["iterations"] == 1
    assert rep["angle_log_ratio"] == 0.0


def test_intersect_constants_closed_form():
    _, v = fixture_vertex()
    a, b = 2.0 ** -12, 2.0 ** -13
    w, _ = intersect(const_manifold(v, "s", a), const_manifold(v, "u", b),
                     CONSTS)
    p = v.p_s.value
    assert abs(w[0] - b * p) <= 1e-145
    assert abs(w[1] - a * p) <= 1e-145


def test_shadow_fixed_point_bitwise():
    _, v = fixture_vertex()
    path = path_from_vertices((v,) * 41, CONSTS, base_index=20)
    x, log = shadow(path, CONSTS)
    assert x == v.chart.x
    assert log["w"][0] == 0.0 and log["w"][1] == 0.0


def test_shadow_needs_two_sided_path():
    _, v = fixture_vertex()
    with pytest.raises(ValueError):
        shadow(path_from_vertices((v,) * 41, CONSTS, base_index=0), CONSTS)


def test_shadow_moving_fixture_orbit():
    fx = make_linear_fixture()
    seg = orbit_segment(fx, PhasePoint(0, 1e-8, 1e-8), 16, 16)
    sp = oseledets_splitting(seg)
    charts = [chart_from_segment(seg, sp, CHI, CFG, CONSTS, at=k)
              for k in range(-3, 4)]
    qs = greedy_q([c.Q for c in charts], CFG)
    verts = [PathVertex(c, q, q) for c, q in zip(charts, qs.q)]
    path = path_from_vertices(verts, CONSTS, base_index=3)
    x, _ = shadow(path, CONSTS)
    assert x == charts[3].x


def test_shadow_escape_on_corrupted_vertex():
    # swap the step +2 vertex of a moving-orbit path for the step -2 one:
    # the walked orbit then sits ~1e-7 from the wrong center, far outside
    # the e^-300-size window, and the walk must report exactly that index
    fx = make_linear_fixture()
    seg = orbit_segment(fx, PhasePoint(0, 1e-8, 1e-8), 16, 16)
    sp = oseledets_splitting(seg)
    charts = [chart_from_segment(seg, sp, CHI, CFG, CONSTS, at=k)
              for k in range(-3, 4)]
    qs = greedy_q([c.Q for c in charts], CFG)
    verts = [PathVertex(c, q, q) for c, q in zip(charts, qs.q)]
    good = path_from_vertices(verts, CONSTS, base_index=3)
    bad_verts = list(good.vertices)
    bad_verts[5] = bad_verts[1]
    bad = GpoPath(tuple(bad_verts), good.fwd, good.bwd, 3)
    with pytest.raises(ShadowEscape) as ei:
        shadow(bad, CONSTS)
    assert ei.value.n == 2


# ----------------------------------- desk-scale hyperbolicity on graphs
def test_points_on_stable_graph_contract_forward():
    fx, v = synthetic_vertex()
    # V^s of the constant path is the zero graph; take two points on it
    # (small offsets: one backward step must stay inside the fixture square)
    y = chart_apply(v.chart, np.array([0.05, 0.0]))
    z = chart_apply(v.chart, np.array([-0.04, 0.0]))
    dists = []
    py, pz = y, z
    for _ in range(6):
        dists.append(fx.distance(py, pz))
        py, pz = billiard_map(fx, py), billiard_map(fx, pz)
    dists.append(fx.distance(py, pz))
    for d0, d1 in zip(dists, dists[1:]):
        ratio = d1 / d0
        assert abs(ratio - math.exp(-1.0)) < 1e-12
        assert ratio <= math.exp(-CHI / 2.0 + CFG.eps)
    # and they separate backward
    by, bz = billiard_inverse(fx, y), billiard_inverse(fx, z)
    assert fx.distance(by, bz) > fx.distance(y, z)


def test_window_derivative_spread_vanishes():
    fx, v = synthetic_vertex()
    y = chart_apply(v.chart, np.array([0.05, 0.0]))
    z = chart_apply(v.chart, np.array([-0.04, 0.0]))
    e_s = np.array([1.0, 0.0])
    spread = 0.0
    wy = e_s.copy()
    wz = e_s.copy()
    for _ in range(8):
        wy = fx.derivative(y, True) @ wy
        wz = fx.derivative(z, True) @ wz
        spread = max(spread, abs(math.log(np.linalg.norm(wy))
                                 - math.log(np.linalg.norm(wz))))
    assert spread == 0.0
    assert spread < v.chart.Q.value ** (CONSTS.beta / 4.0)


# ------------------------------------------------------ intersect extras
def test_intersect_grid_scan_oracle():
    _, v = synthetic_vertex()
    vs = PathVertex(v.chart, v.chart.Q.step(3), v.chart.Q)
    ms = make_manifold(vs, "s", 1e-4 + 0.2 * TAU ** 2)
    mu = make_manifold(vs, "u", -2e-4 + 0.15 * TAU ** 3)
    w, rep = intersect(ms, mu, CONSTS)
    r = math.exp(vs.p_s.log_value - vs.p_u.log_value)
    F = ms.value_fn()
    G = mu.value_fn()

    def phi(t):
        return t - G(r * F(t)) / r

    grid = np.linspace(-1.0, 1.0, 4001)
    vals = phi(grid)
    (idx,) = np.nonzero(np.diff(np.sign(vals)) != 0)
    assert len(idx) == 1
    lo, hi = grid[idx[0]], grid[idx[0] + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if phi(lo) * phi(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(rep["w_norm"][0] - 0.5 * (lo + hi)) < 1e-10


def test_intersect_residuals_decay_quarter():
    _, v = synthetic_vertex()
    ms = make_manifold(v, "s", 1e-3 + 0.45 * TAU,
                       np.full(MANIFOLD_GRID_N, 0.45))
    mu = make_manifold(v, "u", -8e-4 - 0.45 * TAU,
                       np.full(MANIFOLD_GRID_N, -0.45))
    _, rep = intersect(ms, mu, CONSTS)
    rs = rep["residuals"]
    assert len(rs) >= 3
    for r0, r1 in zip(rs[:-1], rs[1:]):
        if r0 > 1e-13:
            assert r1 <= 0.25 * r0 * (1.0 + 1e-9)


def test_intersect_no_sign_change():
    _, v = synthetic_vertex()
    with pytest.raises(NoIntersection):
        intersect(zero_manifold(v, "s"), const_manifold(v, "u", 2.5), CONSTS)


def test_intersect_multiple_crossings_rejected():
    _, v = synthetic_vertex()
    wig = 0.8 * np.sin(2.0 * math.pi * TAU)
    ms = make_manifold(v, "s", wig)
    mu = make_manifold(v, "u", wig)
    with pytest.raises(MultipleIntersections):
        intersect(ms, mu, CONSTS)


def test_intersect_localization_bound():
    _, v = synthetic_vertex()
    with pytest.raises(NoIntersection, match="localization"):
        intersect(const_manifold(v, "s", 0.5), const_manifold(v, "u", 0.5),
                  CONSTS)


def test_intersect_parallel_tangents_rejected():
    # slope fields that make the tangent directions (near-)parallel at the
    # crossing, beyond what the slope-noise allowance explains, must fail
    _, v = synthetic_vertex()
    ms = make_manifold(v, "s", np.zeros(MANIFOLD_GRID_N),
                       np.full(MANIFOLD_GRID_N, 4.0))
    mu = make_manifold(v, "u", np.zeros(MANIFOLD_GRID_N),
                       np.full(MANIFOLD_GRID_N, 0.25 + 1e-9))
    with pytest.raises(NoIntersection, match="tangent"):
        intersect(ms, mu, CONSTS)
    mu_exact = make_manifold(v, "u", np.zeros(MANIFOLD_GRID_N),
                             np.full(MANIFOLD_GRID_N, 0.25))
    with pytest.raises(NoIntersection, match="tangent"):
        intersect(ms, mu_exact, CONSTS)


def test_intersect_input_checks():
    _, v = fixture_vertex()
    _, vs = synthetic_vertex()
    with pytest.raises(ValueError):
        intersect(zero_manifold(v, "u"), zero_manifold(v, "u"), CONSTS)
    with pytest.raises(ValueError):
        intersect(zero_manifold(v, "s"), zero_manifold(vs, "u"), CONSTS)


# ---------------------------------------------------------- interpolation
# sha256 (first 16 hex digits) of the float.hex values below; computed with
# scipy's PchipInterpolator and kept by the in-repo monotone cubic
INTERPOLATION_PIN = "8a6d428e45ab8aa0"


def test_interpolation_is_bitwise_pinned():
    _, v = synthetic_vertex()
    vs = PathVertex(v.chart, v.chart.Q.step(3), v.chart.Q)
    bump = np.where(np.abs(TAU) < 0.2, 0.05 * (0.04 - TAU ** 2), 0.0)
    shapes = (0.3 * np.sin(3.0 * math.pi * TAU) + 0.1 * TAU,  # wiggly
              0.4 * TAU ** 3 + 0.1 * TAU,                     # monotone
              0.2 + bump)                                     # flat, bump
    t = np.concatenate([TAU, np.linspace(-3.0, 3.0, 97),
                        np.nextafter([-1.0, 1.0], 0.0)])
    out = []
    for vals in shapes:
        m = make_manifold(v, "u", vals)
        out += list(m.slopes) + list(m.value_fn()(t)) + list(m.slope_fn()(t))
    path = path_from_vertices((v,) * 3, CONSTS, 0)
    img = graph_transform(path.fwd[0], make_manifold(v, "u", shapes[0]), v)
    out += list(img.values) + list(img.slopes)
    w, rep = intersect(make_manifold(vs, "s", 1e-4 + 0.2 * TAU ** 2),
                       make_manifold(vs, "u", -2e-4 + 0.15 * TAU ** 3),
                       CONSTS)
    out += list(w) + list(rep["w_norm"]) + rep["residuals"]
    text = "|".join(float(x).hex() for x in out)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == INTERPOLATION_PIN


def test_node_slope_overflow_is_quiet():
    # on subnormal secants w1/m overflows: the harmonic mean is inf and the
    # node slope 0, with no warning and the bits of the run with warnings off
    x = [0.0, 1.0, 2.0, 3.0]
    y = [0.0, 1e-310, 2e-310, 3e-310]
    at = np.linspace(-0.5, 3.5, 9)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        want = [manifolds._pchip(x, y, d)(at) for d in (False, True)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [manifolds._pchip(x, y, d)(at) for d in (False, True)]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_interpolation_refuses_nan_and_extrapolates_quietly():
    _, v = synthetic_vertex()
    vals = 0.1 * TAU
    vals[7] = math.nan
    with pytest.raises(ValueError):
        make_manifold(v, "u", vals)
    with pytest.raises(ValueError):
        make_manifold(v, "u", vals, np.zeros(MANIFOLD_GRID_N)).value_fn()
    m = make_manifold(v, "u", 0.3 * np.sin(3.0 * math.pi * TAU))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = [float(m.value_fn()(x)) for x in (1e200, -1e200)]
        far.append(float(m.slope_fn()(1e200)))
    # the cubic and quadratic terms overflow with opposite signs, as in scipy
    assert [x.hex() for x in far] == ["nan", "nan", "inf"]


# --------------------------------------------------------------- stadium
def test_stadium_edges_hyperbolic_and_centered():
    _, path = stadium_path()
    for dec in path.fwd:
        assert abs(dec.A) < math.exp(-STADIUM_CHI)
        assert abs(dec.B) > math.exp(STADIUM_CHI)
        assert max(abs(dec.h0[0]), abs(dec.h0[1])) < 1e-14
    for dec in path.bwd:
        assert abs(dec.A) > math.exp(STADIUM_CHI)
        assert abs(dec.B) < math.exp(-STADIUM_CHI)


def test_stadium_zero_push_stays_admissible():
    _, path = stadium_path()
    out = graph_transform(path.fwd[0], zero_manifold(path.vertices[0], "u"),
                          path.vertices[1])
    assert float(np.max(np.abs(out.values))) < 1e-8
    rep = validate_admissible(out, CONSTS)
    assert rep["am2_floor_used"]


def test_stadium_contraction_random_pairs():
    _, path = stadium_path()
    rng = np.random.default_rng(5)
    bound = math.exp(-STADIUM_CHI / 2.0)
    for edge, dec in enumerate(path.fwd[:3]):
        va, vb = path.vertices[edge], path.vertices[edge + 1]
        for _ in range(25):
            c1v, c2v = rng.uniform(-4e-4, 4e-4, 2)
            s1 = rng.uniform(-2e-4, 2e-4, MANIFOLD_GRID_N)
            m1 = make_manifold(va, "u", np.full(MANIFOLD_GRID_N, c1v), s1)
            m2 = const_manifold(va, "u", c2v)
            rep = contraction_measurement(dec, m1, m2, vb, CONSTS)
            assert rep["c0"] <= bound
            assert abs(rep["c0"]) <= abs(dec.A) * (1.0 + 1e-6)


def test_stadium_stable_limit_and_seed_envelope():
    _, path = stadium_path()
    i0 = path.base_index
    fwd = path_from_vertices(path.vertices[i0:], CONSTS, 0)
    m, log = stable_manifold(fwd, consts=CONSTS)
    assert log["converged"]
    assert float(np.max(np.abs(m.values))) < 1e-8
    assert log["seed_gap"] <= log["seed_allowance"]
    rep = log["admissibility"]
    assert rep["am2_floor_used"] and rep["am3_margin"] > 0.49


def test_stadium_intersect_and_shadow_bitwise():
    _, path = stadium_path()
    x, log = shadow(path, CONSTS)
    assert x == path.vertices[path.base_index].chart.x
    assert log["intersect"]["w_inf"] == 0.0
    assert log["intersect"]["angle_log_ratio"] <= \
        log["intersect"]["angle_allowance"]


def test_stadium_invariance_fixed_point_property():
    _, path = stadium_path()
    i0 = path.base_index
    verts = path.vertices[i0:]
    full = path_from_vertices(verts, CONSTS, 0)
    tail = path_from_vertices(verts[1:], CONSTS, 0)
    m_full, _ = stable_manifold(full, consts=CONSTS)
    m_tail, _ = stable_manifold(tail, consts=CONSTS)
    pushed = graph_transform(full.bwd[0], m_tail, verts[0])
    assert c1_distance(pushed, m_full, normalized=True) < 1e-8


def test_stadium_long_path_two_seed_agreement():
    st = make_stadium()
    rng = np.random.default_rng(7)
    p = next(iter(st.liouville_sample(rng, 1)))
    seg = orbit_segment(st, p, 75, 75)
    sp = oseledets_splitting(seg)
    charts = [chart_from_segment(seg, sp, STADIUM_CHI, CFG, CONSTS, at=k)
              for k in range(0, 61)]
    qs = greedy_q([c.Q for c in charts], CFG)
    verts = [PathVertex(c, q, q) for c, q in zip(charts, qs.q)]
    path = path_from_vertices(verts, CONSTS, 0)
    _, slog = stable_manifold(path, consts=CONSTS)
    assert slog["converged"]
    assert slog["seed_gap"] < 1e-8
    _, ulog = unstable_manifold(path, consts=CONSTS)
    assert ulog["seed_gap"] < 1e-8


# ------------------------------------------------------------- plumbing
def test_paths_require_two_vertices():
    _, v = fixture_vertex()
    with pytest.raises(ValueError):
        path_from_vertices((), CONSTS, 0)
    with pytest.raises(ValueError):
        path_from_vertices([v], CONSTS, 0)


def test_each_distinct_edge_is_mapped_once(monkeypatch):
    _, v = fixture_vertex()
    calls = []
    real = manifolds.chart_map_fxy

    def counted(chart_x, chart_y, consts, forward):
        calls.append((id(chart_x), id(chart_y), forward))
        return real(chart_x, chart_y, consts, forward)

    monkeypatch.setattr(manifolds, "chart_map_fxy", counted)
    path = path_from_vertices((v,) * 61, CONSTS, 0)
    vi = id(v.chart)
    assert calls == [(vi, vi, True), (vi, vi, False)]
    assert len(path.fwd) == len(path.bwd) == 60
    assert all(d is path.fwd[0] for d in path.fwd)
    assert all(d is path.bwd[0] for d in path.bwd)

    # a 2-cycle word maps its two edges once each way; an edge's error
    # is raised at its first occurrence
    _, w = synthetic_vertex()
    wi = id(w.chart)
    refused = set()

    def stub(chart_x, chart_y, consts, forward):
        key = (id(chart_x), id(chart_y), forward)
        calls.append(key)
        if key in refused:
            raise DomainEscape("refused")
        return key

    monkeypatch.setattr(manifolds, "chart_map_fxy", stub)
    calls.clear()
    path = path_from_vertices((v, w) * 5, CONSTS, 0)
    assert calls == [(vi, wi, True), (wi, vi, False), (wi, vi, True),
                     (vi, wi, False)]
    assert path.fwd == ((vi, wi, True), (wi, vi, True)) * 4 + ((vi, wi, True),)
    assert path.bwd == ((wi, vi, False), (vi, wi, False)) * 4 \
        + ((wi, vi, False),)
    calls.clear()
    refused.add((wi, vi, True))
    with pytest.raises(DomainEscape, match="refused"):
        path_from_vertices((v, w) * 5, CONSTS, 0)
    assert calls == [(vi, wi, True), (wi, vi, False), (wi, vi, True)]


def test_distance_requires_matching_windows():
    _, v = fixture_vertex()
    small = PathVertex(v.chart, v.chart.Q.step(3), v.chart.Q.step(3))
    with pytest.raises(ValueError):
        c0_distance(zero_manifold(v, "u"), zero_manifold(small, "u"))


def test_transforms_deterministic():
    _, path = stadium_path()
    v0, v1 = path.vertices[0], path.vertices[1]
    m = const_manifold(v0, "u", 3e-4)
    o1 = graph_transform(path.fwd[0], m, v1)
    o2 = graph_transform(path.fwd[0], m, v1)
    assert np.array_equal(o1.values, o2.values)
    assert np.array_equal(o1.slopes, o2.slopes)
