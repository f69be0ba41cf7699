"""Map stepping, derivatives, discontinuity distances, assumption checks."""
from __future__ import annotations

import math

import numpy as np
import pytest

from pesin_coder.accel import run_orbit
from pesin_coder.dynamics import (
    RegularityConstants,
    billiard_inverse,
    billiard_map,
    derivative_along_orbit,
    dist_to_discontinuity,
    operator_norm,
    singularity_cloud,
    smallest_singular_value,
    verify_assumptions,
)
from pesin_coder.cocycle import orbit_segment
from pesin_coder.errors import (AssumptionViolated, CornerHit, GrazingCollision,
                               MapUndefined, OrbitHitsDiscontinuity)
from pesin_coder.tables import (
    PhasePoint,
    fd_derivative,
    make_circle,
    make_flower,
    make_linear_fixture,
    make_sinai,
    make_stadium,
)


def _sample(table, n, seed=0, cap=1.45):
    """The first n Liouville samples with |theta| < cap of one seeded
    stream: each candidate takes the same three draws, kept or not."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        p, = table.liouville_sample(rng, 1)
        if abs(p.theta) < cap:
            out.append(p)
    return out


# ------------------------------------------------------------ circle oracle
def test_circle_closed_form():
    # on a circle of radius R the map is (r, th) -> (r + (pi - 2 th) R, th)
    for R in (1.0, 2.5):
        tb = make_circle(radius=R)
        L = 2 * math.pi * R
        for r0 in (0.0, 1.1, 5.0):
            for th in (-1.2, -0.3, 0.0, 0.37, 1.2):
                q = billiard_map(tb, PhasePoint(0, r0, th))
                assert abs(q.r - (r0 + (math.pi - 2 * th) * R) % L) < 1e-9
                assert abs(q.theta - th) < 1e-9


def test_circle_normal_incidence_antipodal():
    tb = make_circle()
    q = billiard_map(tb, PhasePoint(0, 1.0, 0.0))
    assert abs(q.r - (1.0 + math.pi)) < 1e-12
    assert abs(q.theta) < 1e-12


def test_circle_quarter_angle_example():
    # theta = pi/4 advances the arclength by exactly pi/2 on the unit circle
    tb = make_circle()
    q = billiard_map(tb, PhasePoint(0, 2.0, math.pi / 4))
    assert abs(q.r - (2.0 + math.pi / 2)) < 1e-12


def test_flight_length_is_chord():
    tb = make_circle(radius=2.0)
    taus = run_orbit(tb.rows, 0, 0.3, 0.5, 1)[3]
    assert abs(taus[0] - 2 * 2.0 * math.cos(0.5)) < 1e-12


# ------------------------------------------------------ exact periodic spine
def test_bitwise_periodic_two_bounce():
    st = make_stadium()
    fl = make_flower()
    sn = make_sinai()
    cases = [
        (st, PhasePoint(1, math.pi / 2, 0.0)),       # cap-to-cap horizontal
        (sn, PhasePoint(1, 1.0, 0.0)),               # wall-to-scatterer
        (fl, PhasePoint(1, fl.lengths[1] / 2, 0.0)),  # tip-to-tip
    ]
    for tb, p0 in cases:
        p1 = billiard_map(tb, p0)
        p2 = billiard_map(tb, p1)
        assert p2 == p0, f"{tb.kind}: {p2} != {p0}"
        # and backwards too
        b1 = billiard_inverse(tb, p0)
        assert billiard_inverse(tb, b1) == p0


def test_stadium_flat_bounce():
    st = make_stadium()
    q = billiard_map(st, PhasePoint(0, 1.0, 0.0))  # bottom midpoint, straight up
    assert q.component == 2 and q.r == 1.0 and q.theta == 0.0


# ------------------------------------------------------------- inverse maps
@pytest.mark.parametrize("mk", [make_stadium, make_sinai, make_flower])
def test_orbit_of_the_reversed_point_is_the_reversed_orbit(mk):
    # time reversal I(c, r, theta) = (c, r, -theta) conjugates f to f^-1:
    # step n of Ix is I of step -n of x, bitwise, on +-60 segments of 40
    # seeded Liouville samples, every one of them defined (ROADMAP item 22)
    tb = mk()
    for x in tb.liouville_sample(np.random.default_rng(0), 40):
        seg = orbit_segment(tb, x, 60, 60, with_rho=False)
        rev = orbit_segment(tb, PhasePoint(x.component, x.r, -x.theta), 60,
                            60, with_rho=False)
        assert rev.comps == seg.comps[::-1]
        assert [r.hex() for r in rev.rs] == [r.hex() for r in seg.rs[::-1]]
        assert [t.hex() for t in rev.thetas] \
            == [(-t).hex() for t in seg.thetas[::-1]]


@pytest.mark.parametrize("mk", [make_stadium, make_sinai, make_flower,
                                make_linear_fixture])
def test_round_trip_inverse(mk):
    tb = mk()
    ok = 0
    for p in _sample(tb, 400, seed=2):
        try:
            q = billiard_map(tb, p)
            b = billiard_inverse(tb, q)
        except (GrazingCollision, CornerHit):
            continue
        assert b.component == p.component
        assert abs(b.r - p.r) < 1e-9 and abs(b.theta - p.theta) < 1e-9
        ok += 1
    assert ok > 300


def test_fixture_map_and_inverse():
    fx = make_linear_fixture()
    p = PhasePoint(0, 0.2, -0.1)
    q = billiard_map(fx, p)
    assert q == PhasePoint(0, 0.2 / math.e, -0.1 * math.e)
    assert billiard_inverse(fx, q) == PhasePoint(0, 0.2, -0.1)


# -------------------------------------------------------------- derivatives
@pytest.mark.parametrize("mk", [make_stadium, make_sinai, make_flower])
def test_determinant_identity(mk):
    # det(df) * cos(theta') = cos(theta): the map preserves cos(th) dr dth
    tb = mk()
    checked = 0
    for p in _sample(tb, 300, seed=3):
        try:
            q = billiard_map(tb, p)
            M = tb.derivative(p, True)
        except (GrazingCollision, CornerHit):
            continue
        resid = abs(np.linalg.det(M) * math.cos(q.theta) - math.cos(p.theta))
        assert resid < 1e-8
        checked += 1
    assert checked > 200


@pytest.mark.parametrize("mk", [make_circle, make_stadium, make_sinai,
                                make_flower, make_linear_fixture])
def test_derivative_matches_finite_differences(mk):
    tb = mk()
    checked = 0
    for p in _sample(tb, 200, seed=4, cap=1.3):
        if dist_to_discontinuity(tb, p) <= 0.05:
            continue
        try:
            ana = tb.derivative(p, True)
            num = fd_derivative(tb, p)
        except (GrazingCollision, CornerHit):
            continue
        rel = np.abs(ana - num).max() / max(1.0, np.abs(num).max())
        assert rel < 1e-5
        checked += 1
        if checked >= 25:
            break
    assert checked >= 10


def test_derivative_makes_no_distance_call(monkeypatch):
    # df is the mirror formula at p alone: the first call on a fresh table
    # runs no self-test through the distance to D
    tb = make_stadium()
    calls = []
    monkeypatch.setattr(tb, "dist_to_D", lambda p: calls.append(p))
    for forward in (True, False):
        tb.derivative(PhasePoint(0, 1.0, 0.3), forward)
    assert calls == []


def test_thin_stadium_derivative_raises_the_step_error():
    # caps below the ulp of the straight half-length: no collision has a
    # next one, and df raises the step's typed error either way
    tb = make_stadium(1e-15, 1.0)
    for p in _sample(tb, 5):
        for forward in (True, False):
            with pytest.raises(MapUndefined):
                tb.step(p, forward)
            with pytest.raises(MapUndefined):
                tb.derivative(p, forward)


def test_inverse_derivative_is_matrix_inverse():
    tb = make_stadium()
    for p in _sample(tb, 40, seed=5):
        try:
            q = billiard_map(tb, p)
            M = tb.derivative(p, True)
            Mi = tb.derivative(q, False)
        except (GrazingCollision, CornerHit):
            continue
        assert np.allclose(Mi @ M, np.eye(2), atol=1e-9)


def test_derivative_along_orbit_matches_pointwise():
    tb = make_flower()
    p = PhasePoint(0, 0.4, 0.23)
    comps, rs, ths, taus, status, k = run_orbit(
        tb.rows, p.component, p.r, p.theta, 25)
    assert status == 0
    mats = derivative_along_orbit(tb, comps, ths, taus)
    for i in range(25):
        M = tb.derivative(PhasePoint(int(comps[i]), float(rs[i]), float(ths[i])),
                          True)
        assert np.allclose(mats[i], M, atol=1e-12)


def test_fixture_derivative():
    fx = make_linear_fixture()
    M = fx.derivative(PhasePoint(0, 0.1, 0.1), True)
    assert np.array_equal(M, np.diag([1 / math.e, math.e]))
    Mi = fx.derivative(PhasePoint(0, 0.1, 0.1), False)
    assert np.array_equal(Mi, np.diag([math.e, 1 / math.e]))


def test_singular_value_helpers():
    rng = np.random.default_rng(8)
    for _ in range(50):
        M = rng.normal(size=(2, 2))
        sv = np.linalg.svd(M, compute_uv=False)
        assert abs(operator_norm(M) - sv[0]) < 1e-12
        assert abs(smallest_singular_value(M) - sv[1]) < 1e-12


# ------------------------------------------------------------ failure modes
def test_grazing_raises():
    tb = make_circle()
    with pytest.raises(GrazingCollision):
        billiard_map(tb, PhasePoint(0, 1.0, math.pi / 2 - 1e-12))


def test_corner_hit_raises():
    st = make_stadium()
    # from the bottom midpoint aim exactly at the (1, 1) junction
    th = math.atan2(1.0, 2.0)
    with pytest.raises(CornerHit):
        billiard_map(st, PhasePoint(0, 1.0, th))


# ------------------------------------------------- discontinuity distances
def test_dist_grazing_fiber_circle():
    tb = make_circle()
    # the circle has no corners and no interior tangency preimages:
    # distance is purely the grazing-fiber gap pi/2 - |theta|, in the
    # unscaled metric
    def unscaled(p):
        return dist_to_discontinuity(tb, p) / tb.metric_scale

    assert abs(unscaled(PhasePoint(0, 1.0, 0.0)) - math.pi / 2) < 1e-12
    for t in (0.3, 1.0, 1.5):
        assert abs(unscaled(PhasePoint(0, 2.0, math.pi / 2 - t)) - t) < 1e-12
    assert singularity_cloud(tb)["px"].size == 0


def test_dist_corner_fiber_stadium():
    st = make_stadium()
    # sitting exactly on the junction between bottom segment and right cap
    p = PhasePoint(0, 2.0, 0.0)
    assert dist_to_discontinuity(st, p) / st.metric_scale < 1e-9


def test_dist_is_one_lipschitz():
    st = make_stadium()
    pts = _sample(st, 60, seed=9)
    for i in range(0, 58, 2):
        x, y = pts[i], pts[i + 1]
        dx = dist_to_discontinuity(st, x)
        dy = dist_to_discontinuity(st, y)
        assert abs(dx - dy) <= st.distance(x, y) + 1e-9


def test_dispersing_tables_have_tangency_preimages():
    for mk in (make_sinai, make_flower):
        tb = mk()
        assert singularity_cloud(tb)["px"].size > 0
    # convex tables have none from their own arcs
    st = make_stadium()
    cloud = singularity_cloud(st)
    kinds = {fam[0] for fam in cloud["fam"]}
    assert kinds <= {1}  # only corner-generated rays


def rho(table, p: PhasePoint) -> float:
    """min distance to D over f^-1(p), p and f(p)."""
    return orbit_segment(table, p, 0, 0).rho(0)


def test_rho_is_min_over_triple():
    fx = make_linear_fixture()  # metric_scale 1, half_width 0.3
    p = PhasePoint(0, 0.1, 0.05)
    # triple: p, (0.1/e, 0.05 e), (0.1 e, 0.05/e); the inverse dominates
    expect = 0.3 - 0.1 * math.e
    assert abs(rho(fx, p) - expect) < 1e-12
    assert rho(fx, PhasePoint(0, 0.0, 0.0)) == 0.3


def test_rho_below_dist():
    st = make_stadium()
    for p in _sample(st, 40, seed=11):
        try:
            r = rho(st, p)
        except OrbitHitsDiscontinuity:  # f(p) or f^-1(p) undefined
            continue
        assert r <= dist_to_discontinuity(st, p) + 1e-12


# --------------------------------------------------------------- assumptions
def test_regularity_constants_validation():
    RegularityConstants(a=1.5, beta=0.5)
    with pytest.raises(ValueError):
        RegularityConstants(a=1.0, beta=0.5)
    with pytest.raises(ValueError):
        RegularityConstants(a=1.5, beta=1.0)
    with pytest.raises(ValueError):
        RegularityConstants(a=1.5, beta=0.5, K=0.5)
    c = RegularityConstants(a=2.0, beta=0.25)
    assert c.b == 2.0
    d = 0.01
    assert d ** c.a < c.r_map(d) < 1.0


def test_assumptions_pass_fixture():
    fx = make_linear_fixture()
    rep = verify_assumptions(fx, RegularityConstants(a=1.5, beta=0.5, K=2.0),
                             fx.liouville_sample(np.random.default_rng(0), 100))
    assert rep["A5"]["min_margin"] > 1.0
    assert rep["A7"]["min_margin"] > 1.0
    assert rep["A1"]["status"].startswith("satisfied")


def test_assumptions_pass_billiards():
    for mk in (make_stadium, make_sinai, make_flower):
        tb = mk()
        sample = tb.liouville_sample(np.random.default_rng(1), 60)
        rep = verify_assumptions(tb, RegularityConstants(a=1.5, beta=0.5, K=20.0),
                                 sample)
        for key in ("A5", "A6", "A7"):
            assert rep[key]["min_margin"] > 1.0, (tb.kind, key)


def test_assumptions_violation_detected():
    # K = 1 cannot Hölder-dominate the derivative jump across a flower sample
    tb = make_flower()
    sample = tb.liouville_sample(np.random.default_rng(1), 80)
    with pytest.raises(AssumptionViolated) as ei:
        verify_assumptions(tb, RegularityConstants(a=1.01, beta=0.5, K=1.0), sample)
    assert ei.value.assumption_id == "A6"
    assert ei.value.margin < 0
    # non-raising mode reports the same margin
    rep = verify_assumptions(tb, RegularityConstants(a=1.01, beta=0.5, K=1.0),
                             sample, raise_on_violation=False)
    assert rep["A6"]["min_margin"] == pytest.approx(ei.value.margin)


def test_assumptions_reuse_sample_distance(monkeypatch):
    """The rho triple of a sample point reuses its own distance: three
    distance calls per point (p, f(p), f^-1(p)), and the A7 margin is the
    one computed from rho(table, p)."""
    tb = make_stadium()
    consts = RegularityConstants(a=1.5, beta=0.5, K=20.0)
    sample = _sample(tb, 10, seed=1)
    calls = []
    inner = tb.dist_to_D
    monkeypatch.setattr(tb, "dist_to_D", lambda p: calls.append(p) or inner(p))
    rep = verify_assumptions(tb, consts, sample)
    assert len(calls) == 3 * len(sample)
    monkeypatch.undo()
    a7 = min(math.log(smallest_singular_value(m)) - consts.a * math.log(rho(tb, p))
             for p in sample
             for m in (tb.derivative(p, True), tb.derivative(p, False)))
    assert rep["A7"]["min_margin"] == a7
