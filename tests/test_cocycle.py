"""Tests for orbit segments, splittings, s/u series, frames, and diagnostics.

Closed forms on the linear fixture anchor every quantity: with multipliers
(1/e, e) the stable/unstable directions are the axes, the one-step factors
are constant, and the weighted series sums to a geometric closed form
s^2 = u^2 = 2 / (1 - e^(2(chi-1))).  Billiard-table checks assert structural
identities (equivariance, the s-recursion, reduced-cocycle entries) rather
than orbit-specific numbers, because trajectories decorrelate across backends.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from pesin_coder import cocycle
from pesin_coder.accel import OK, run_orbit
from pesin_coder.cocycle import (
    OrbitSegment,
    build_frame,
    c_inverse_growth_check,
    frame_at,
    frames_along,
    lyapunov_exponents,
    orbit_segment,
    oseledets_splitting,
    reduced_cocycle,
    s_u_parameters,
)
from pesin_coder.dynamics import (
    billiard_inverse,
    billiard_map,
    dist_to_discontinuity,
)
from pesin_coder.errors import (
    DegenerateAngle,
    InequalityViolated,
    NotDiagonal,
    NotHyperbolic,
    OrbitHitsDiscontinuity,
    SeriesDiverging,
    SplittingNotConverged,
)
from pesin_coder.tables import (
    CORNER_TOL,
    GRAZING_COS_TOL,
    MIN_FLIGHT,
    PhasePoint,
    make_circle,
    make_flower,
    make_linear_fixture,
    make_sinai,
    make_stadium,
)


def fixture_segment(n: int = 40, x: float = 0.0, y: float = 0.0):
    fx = make_linear_fixture()
    seg = orbit_segment(fx, PhasePoint(0, x, y), n, n)
    return fx, seg


def s_closed_form(chi: float) -> float:
    """Exact series value on the fixture: 2 sum e^(2n(chi-1)) = 2/(1-q)."""
    return math.sqrt(2.0 / (1.0 - math.exp(2.0 * (chi - 1.0))))


def kernel_flights(table, seg) -> np.ndarray:
    """The flight lengths between the segment's collisions, from the orbit
    kernel run forward from its first point."""
    p = seg.points[0]
    _, _, _, taus, status, _ = run_orbit(
        table.ctype, table.cpar, p.component, p.r, p.theta, len(seg) - 1,
        GRAZING_COS_TOL, MIN_FLIGHT, CORNER_TOL)
    assert status == OK
    return taus


def first_admitted(table, rng_seed: int, side: int, tries: int = 40):
    """First sampled point whose segment admits a converged splitting."""
    rng = np.random.default_rng(rng_seed)
    for p in table.liouville_sample(rng, tries):
        try:
            seg = orbit_segment(table, p, side, side, with_rho=False)
            return seg, oseledets_splitting(seg)
        except (OrbitHitsDiscontinuity, SplittingNotConverged, SeriesDiverging):
            continue
    raise AssertionError("no admissible sample point found")


# ------------------------------------------------------------ orbit segments
class TestOrbitSegment:
    def test_fixture_fixed_point_is_constant(self):
        fx, seg = fixture_segment()
        assert len(seg) == 81
        assert seg.base == PhasePoint(0, 0.0, 0.0)
        assert all(p == seg.base for p in seg.points)
        assert [seg.rho(n) for n in range(-40, 41)] == [fx.half_width] * 81
        expected = np.array([[fx.lambda_s, 0.0], [0.0, fx.lambda_u]])
        assert np.array_equal(seg.derivs, np.broadcast_to(expected, (81, 2, 2)))
        # without rho the fixture leaves the distances unset, like a billiard
        bare = orbit_segment(fx, seg.base, 40, 40, with_rho=False)
        assert bare.points == seg.points
        assert all(math.isnan(bare.rho(n)) and math.isnan(bare.dist(n))
                   for n in range(-40, 41))

    def test_fixture_escape_indices_are_signed(self):
        fx = make_linear_fixture()
        with pytest.raises(OrbitHitsDiscontinuity) as ei:
            orbit_segment(fx, PhasePoint(0, 0.0, 0.2), 0, 5)
        assert ei.value.n == 1
        with pytest.raises(OrbitHitsDiscontinuity) as ei:
            orbit_segment(fx, PhasePoint(0, 0.2, 0.0), 5, 0)
        assert ei.value.n == -1

    def test_circle_segment_closed_form(self):
        ci = make_circle()
        R = ci.params["radius"]
        theta = math.pi / 4
        advance = (math.pi - 2.0 * theta) * R
        seg = orbit_segment(ci, PhasePoint(0, 0.3, theta), 3, 3, with_rho=False)
        for n in range(-3, 4):
            p = seg.point(n)
            assert p.theta == pytest.approx(theta, abs=1e-12)
            want = (0.3 + n * advance) % (2.0 * math.pi * R)
            assert p.r == pytest.approx(want, abs=1e-9)
        # constant angle means constant flight 2 R cos(theta)
        assert kernel_flights(ci, seg) == pytest.approx(
            np.full(6, 2.0 * R * math.cos(theta)), abs=1e-9)

    def test_index_and_point_addressing(self):
        _, seg = fixture_segment(n=4)
        assert seg.index(-4) == 0
        assert seg.index(0) == 4
        assert seg.index(4) == 8
        assert seg.point(0) == seg.base
        with pytest.raises(IndexError):
            seg.index(5)
        with pytest.raises(IndexError):
            seg.index(-5)

    def test_stadium_segment_is_an_orbit(self):
        from pesin_coder.dynamics import billiard_map

        st = make_stadium()
        seg, _ = first_admitted(st, 2, 30)
        for n in range(-10, 10):
            img = billiard_map(st, seg.point(n))
            nxt = seg.point(n + 1)
            assert img.component == nxt.component
            assert img.r == pytest.approx(nxt.r, abs=1e-9)
            assert img.theta == pytest.approx(nxt.theta, abs=1e-9)
        assert np.all(kernel_flights(st, seg) > 0)

    def test_rho_is_min_over_neighbour_triple(self):
        st = make_stadium()
        rng = np.random.default_rng(4)
        p = st.liouville_sample(rng, 1)[0]
        seg = orbit_segment(st, p, 5, 5, with_rho=True)
        for n in range(-4, 5):
            trip = [dist_to_discontinuity(st, seg.point(m))
                    for m in (n - 1, n, n + 1)]
            assert seg.rho(n) == min(trip)
            assert seg.dist(n) == trip[1]
            assert seg.rho(n) <= seg.dist(n)
        # the padding points are f^-1 of the first point and f of the last
        assert seg.dist(-6) == dist_to_discontinuity(
            st, billiard_inverse(st, seg.point(-5)))
        assert seg.dist(6) == dist_to_discontinuity(
            st, billiard_map(st, seg.point(5)))
        with pytest.raises(IndexError):
            seg.rho(6)
        with pytest.raises(IndexError):
            seg.dist(7)

    def test_with_rho_false_fills_nan(self):
        st = make_stadium()
        rng = np.random.default_rng(4)
        p = st.liouville_sample(rng, 1)[0]
        seg = orbit_segment(st, p, 3, 3, with_rho=False)
        assert all(math.isnan(seg.rho(n)) for n in range(-3, 4))
        assert all(math.isnan(seg.dist(n)) for n in range(-4, 5))

    def test_padding_step_is_taken_at_build_time(self):
        # distances are computed on request, but the preimage of the first
        # point is not: a start whose f^-1 is undefined fails at once
        st = make_stadium()
        p = PhasePoint(1, 0.19634954084936185, 1.4726215563702156)
        with pytest.raises(OrbitHitsDiscontinuity) as ei:
            orbit_segment(st, p, 0, 3)
        assert ei.value.n == -1
        assert len(orbit_segment(st, p, 0, 3, with_rho=False)) == 4

    def test_grazing_start_raises_at_step_zero(self):
        st = make_stadium()
        grazing = PhasePoint(0, 1.0, math.pi / 2 - 1e-12)
        with pytest.raises(OrbitHitsDiscontinuity) as ei:
            orbit_segment(st, grazing, 0, 3, with_rho=False)
        assert ei.value.n == 0
        with pytest.raises(OrbitHitsDiscontinuity) as ei:
            orbit_segment(st, grazing, 3, 0, with_rho=False)
        assert ei.value.n == -1

    def test_negative_window_rejected(self):
        fx = make_linear_fixture()
        with pytest.raises(ValueError):
            orbit_segment(fx, PhasePoint(0, 0.0, 0.0), -1, 3)


# --------------------------------------------------------------- splittings
class TestSplitting:
    def test_fixture_directions_are_axes(self):
        _, seg = fixture_segment()
        sp = oseledets_splitting(seg)
        # rows converge away from their seeding end: e_s is pulled back from
        # the future end, e_u pushed forward from the past end
        assert np.allclose(sp.e_s[:-25], [1.0, 0.0], atol=1e-12)
        assert np.allclose(sp.e_u[25:], [0.0, 1.0], atol=1e-12)
        assert sp.convergence_angle_s <= 1e-12
        assert sp.convergence_angle_u <= 1e-12

    def test_fixture_one_step_factors_are_multipliers(self):
        fx, seg = fixture_segment()
        sp = oseledets_splitting(seg)
        # e_s rows converge going backward from the future end, so the last
        # few factors carry seed remnants; interior rows are machine exact
        assert np.allclose(sp.factor_s[:-25], fx.lambda_s, rtol=1e-14)
        assert np.allclose(sp.factor_u[25:], fx.lambda_u, rtol=1e-14)

    def test_circle_has_no_splitting(self):
        ci = make_circle()
        seg = orbit_segment(ci, PhasePoint(0, 0.3, 0.7), 50, 50, with_rho=False)
        with pytest.raises(SplittingNotConverged):
            oseledets_splitting(seg)

    def test_short_segment_rejected(self):
        _, seg = fixture_segment(n=3)
        with pytest.raises(ValueError):
            oseledets_splitting(seg)

    def test_flower_equivariance_of_fields(self):
        fl = make_flower()
        seg, sp = first_admitted(fl, 5, 60)
        n = len(seg)
        for j in range(25, n - 26):
            img = seg.derivs[j] @ sp.e_s[j]
            img /= np.linalg.norm(img)
            res = min(np.linalg.norm(img - sp.e_s[j + 1]),
                      np.linalg.norm(img + sp.e_s[j + 1]))
            assert res < 1e-6
            img = seg.derivs[j] @ sp.e_u[j]
            img /= np.linalg.norm(img)
            res = min(np.linalg.norm(img - sp.e_u[j + 1]),
                      np.linalg.norm(img + sp.e_u[j + 1]))
            assert res < 1e-6

    def test_flower_directions_stable_under_window_doubling(self):
        fl = make_flower()
        rng = np.random.default_rng(5)
        p = fl.liouville_sample(rng, 1)[0]
        seg60 = orbit_segment(fl, p, 60, 60, with_rho=False)
        seg30 = orbit_segment(fl, p, 30, 30, with_rho=False)
        sp60 = oseledets_splitting(seg60)
        sp30 = oseledets_splitting(seg30)
        for a, b in ((sp60.e_u[seg60.index(0)], sp30.e_u[seg30.index(0)]),
                     (sp60.e_s[seg60.index(0)], sp30.e_s[seg30.index(0)])):
            cross = abs(a[0] * b[1] - a[1] * b[0])
            assert math.asin(min(1.0, cross)) < 1e-9


    @pytest.mark.parametrize("kind, side", [("stadium", 200), ("flower", 1000)])
    def test_pushes_are_bitwise_the_linalg_norm_pushes(self, kind, side):
        # the pushes take the norm as sqrt(w.w) and fix signs in one np.where;
        # the reference below is the np.linalg.norm push with a per-row sign
        table = {"stadium": make_stadium, "flower": make_flower}[kind]()
        seg, sp = first_admitted(table, 3, side)
        ref = reference_splitting(seg)
        for got, want in zip((sp.e_s, sp.e_u, sp.factor_s, sp.factor_u), ref):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["flower", "stadium", "sinai", "fixture"])
    def test_halved_push_lock_exit_is_bitwise_the_whole_push(self, kind):
        # a halved push stops at its first row bitwise equal to the full
        # push and returns the full push's row at the base point: the bytes
        # the whole halved push ends on
        if kind == "fixture":
            _, seg = fixture_segment()
        else:
            table = {"flower": make_flower, "stadium": make_stadium,
                     "sinai": make_sinai}[kind]()
            seg, _ = first_admitted(table, 1, 200)
        derivs, n, base = seg.derivs, len(seg), seg.n_minus
        e_u = np.empty((n, 2))
        e_s = np.empty((n, 2))
        cocycle._push_forward(derivs, 0, n - 1, cocycle._SEED, out=e_u)
        cocycle._push_backward(derivs, n - 1, 0, cocycle._SEED, out=e_s)
        starts = (base - seg.n_minus // 2, base + seg.n_plus - seg.n_plus // 2)
        locks = []
        angles = []
        for push, start, full in ((cocycle._push_forward, starts[0], e_u),
                                  (cocycle._push_backward, starts[1], e_s)):
            rows = np.full((n, 2), np.nan)
            whole = push(derivs, start, base, cocycle._SEED, out=rows)
            assert whole.tobytes() == push(derivs, start, base,
                                           cocycle._SEED).tobytes()
            got = push(derivs, start, base, cocycle._SEED, full=full)
            assert got.tobytes() == whole.tobytes()
            inner = range(start + 1, base + 1) if start < base \
                else range(base, start)
            locks.append(any(rows[i].tobytes() == full[i].tobytes()
                             for i in inner))
            angles.append(cocycle._angle_between(full[base], whole))
        sp = oseledets_splitting(seg)
        assert (sp.convergence_angle_u, sp.convergence_angle_s) == tuple(angles)
        if kind == "flower":
            assert locks == [True, True]  # both exits are taken
        if kind == "fixture":
            assert locks == [False, False]  # the whole push runs

    @pytest.mark.parametrize("kind", ["flower", "stadium"])
    def test_negated_lock_keeps_the_halved_angles(self, kind):
        # a halved push also stops at a row bitwise equal to the negated
        # full push; the angle at the base point reads |cross|, so it is
        # the angle of the same push run without `full`
        table = {"flower": make_flower, "stadium": make_stadium}[kind]()
        negated = 0
        for seed in range(8):
            seg, _ = first_admitted(table, seed, 200)
            derivs, n, base = seg.derivs, len(seg), seg.n_minus
            e_u = np.empty((n, 2))
            e_s = np.empty((n, 2))
            cocycle._push_forward(derivs, 0, n - 1, cocycle._SEED, out=e_u)
            cocycle._push_backward(derivs, n - 1, 0, cocycle._SEED, out=e_s)
            starts = (base - seg.n_minus // 2, base + seg.n_plus - seg.n_plus // 2)
            for push, start, full in ((cocycle._push_forward, starts[0], e_u),
                                      (cocycle._push_backward, starts[1], e_s)):
                whole = push(derivs, start, base, cocycle._SEED)
                got = push(derivs, start, base, cocycle._SEED, full=full)
                assert cocycle._angle_between(full[base], got).hex() \
                    == cocycle._angle_between(full[base], whole).hex()
                negated += got.tobytes() == (-full[base]).tobytes()
        if kind == "flower":
            assert negated > 0  # the negated exit is taken

    @pytest.mark.parametrize("rows", ["random", "stadium", "flower"])
    def test_one_step_norms_are_bitwise_the_einsum_norms(self, rows):
        # the elementwise sqrt(x*x + y*y) against the BLAS-reachable
        # np.linalg.norm of np.einsum that it replaced
        if rows == "random":
            rng = np.random.default_rng(7)
            n = 20000
            derivs = rng.standard_normal((n, 2, 2)) \
                * np.exp(rng.uniform(-20.0, 20.0, (n, 1, 1)))
            fields = [rng.standard_normal((n, 2))
                      * np.exp(rng.uniform(-20.0, 20.0, (n, 1)))]
        else:
            table = {"stadium": make_stadium, "flower": make_flower}[rows]()
            seg, sp = first_admitted(table, 3, 200)
            derivs = seg.derivs[:-1]
            fields = [sp.e_s[:-1], sp.e_u[:-1]]
        for e in fields:
            want = np.linalg.norm(np.einsum("nij,nj->ni", derivs, e), axis=1)
            got = cocycle._one_step_norms(derivs, e)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("with_out", [False, True])
    def test_singular_backward_step_raises_like_linalg_solve(self, with_out):
        # the backward push solves through LAPACK's gufunc under the error
        # settings of np.linalg.solve, so a singular step raises its error
        derivs = np.array([np.diag([2.0, 0.5])] * 6)
        derivs[2] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            np.linalg.solve(derivs[2], cocycle._SEED)
        before = np.geterr()
        out = np.empty((7, 2)) if with_out else None
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            cocycle._push_backward(derivs, 6, 0, cocycle._SEED, out=out)
        assert np.geterr() == before

    def test_fix_sign_rule(self):
        rows = [(0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0),
                (0.5, -0.3), (-0.5, 0.3), (-0.5, -0.3), (5e-324, -1.0),
                (-5e-324, 1.0), (0.0, 0.0), (-0.0, -0.0), (math.nan, 1.0),
                (-math.nan, 1.0), (0.0, math.nan), (-0.0, math.nan),
                (1.0, math.nan), (-1.0, math.nan), (math.nan, math.nan)]
        v = np.array(rows)
        got = cocycle._fix_sign(v)
        assert got.tobytes() == np.array([fix_sign_row(r) for r in v]).tobytes()
        # the first coordinate decides; at +-0.0 the second one does
        assert got[0].tobytes() == np.array([0.0, 1.0]).tobytes()
        assert got[1].tobytes() == np.array([-0.0, 1.0]).tobytes()
        assert got[2].tobytes() == np.array([-0.0, 1.0]).tobytes()
        assert got[3].tobytes() == np.array([0.0, 1.0]).tobytes()
        assert got[5].tolist() == [0.5, -0.3]
        assert got[8].tolist() == [5e-324, -1.0]
        # a NaN deciding coordinate is not > 0, so the row is negated
        assert np.signbit(got[11]).tolist() == [True, True]
        assert np.signbit(got[13]).tolist() == [True, True]
        assert got[15].tolist()[0] == 1.0 and math.isnan(got[15, 1])


def fix_sign_row(v: np.ndarray) -> np.ndarray:
    """The orientation rule one row at a time: first nonzero coordinate
    positive."""
    if v[0] != 0.0:
        return v if v[0] > 0 else -v
    return v if v[1] > 0 else -v


def reference_splitting(seg: OrbitSegment):
    """(e_s, e_u, factor_s, factor_u) from pushes normalised with
    np.linalg.norm and a per-row sign fix."""
    n = len(seg)
    derivs = seg.derivs
    e_u = np.empty((n, 2))
    e_s = np.empty((n, 2))
    w = cocycle._SEED / np.linalg.norm(cocycle._SEED)
    e_u[0] = w
    for i in range(n - 1):
        w = derivs[i] @ w
        w /= np.linalg.norm(w)
        e_u[i + 1] = w
    w = cocycle._SEED / np.linalg.norm(cocycle._SEED)
    e_s[n - 1] = w
    for i in range(n - 2, -1, -1):
        w = np.linalg.solve(derivs[i], w)
        w /= np.linalg.norm(w)
        e_s[i] = w
    e_s = np.array([fix_sign_row(v) for v in e_s])
    e_u = np.array([fix_sign_row(v) for v in e_u])
    factor_s = np.linalg.norm(np.einsum("nij,nj->ni", derivs[:-1], e_s[:-1]), axis=1)
    factor_u = np.linalg.norm(np.einsum("nij,nj->ni", derivs[:-1], e_u[:-1]), axis=1)
    return e_s, e_u, factor_s, factor_u


def qr_exponent_means(derivs: np.ndarray) -> np.ndarray:
    """Sorted means of log|diag R| over the QR iteration D_i Q = Q' R',
    one np.linalg.qr per step."""
    logs = np.zeros((len(derivs), 2))
    Q = np.eye(2)
    for i, D in enumerate(derivs):
        Q, R = np.linalg.qr(D @ Q)
        logs[i] = np.log(np.abs(np.diag(R)))
    return np.sort(logs.mean(axis=0))


# ---------------------------------------------------------------- exponents
class TestLyapunovExponents:
    @pytest.mark.parametrize("kind", ["stadium", "flower", "random"])
    def test_qr_means_match_a_qr_loop(self, kind):
        # the QR diagonal from one pushed vector and det, against real QRs
        if kind == "random":
            rng = np.random.default_rng(7)
            derivs = rng.normal(size=(401, 2, 2))
            n = len(derivs)
            seg = OrbitSegment(None, n // 2, n - 1 - n // 2,
                               (PhasePoint(0, 0.0, 0.0),) * n, derivs)
            e = np.tile([0.6, 0.8], (n, 1))
            sp = cocycle.Splitting(e, e, np.ones(n - 1), np.ones(n - 1), 0.0, 0.0)
        else:
            table = {"stadium": make_stadium, "flower": make_flower}[kind]()
            seg, sp = first_admitted(table, 3, {"stadium": 200, "flower": 1000}[kind])
        le = lyapunov_exponents(seg, sp)
        want = qr_exponent_means(seg.derivs[:-1])
        assert abs(le.qr_lambda1 - want[0]) < 1e-12
        assert abs(le.qr_lambda2 - want[1]) < 1e-12
        if kind == "random":  # a cocycle no billiard gives: no symmetry
            assert abs(want[0] + want[1]) > 0.1

    def test_fixture_exponents_are_exact(self):
        _, seg = fixture_segment()
        sp = oseledets_splitting(seg)
        le = lyapunov_exponents(seg, sp)
        assert le.lambda1 == pytest.approx(-1.0, abs=1e-12)
        assert le.lambda2 == pytest.approx(1.0, abs=1e-12)
        assert le.qr_lambda1 == pytest.approx(-1.0, abs=1e-12)
        assert le.qr_lambda2 == pytest.approx(1.0, abs=1e-12)
        assert le.radius < 1e-10

    def test_stadium_birkhoff_and_qr_agree(self):
        st = make_stadium()
        seg, sp = first_admitted(st, 11, 10000, tries=20)
        le = lyapunov_exponents(seg, sp)
        # area preservation: the two exponents are opposite
        assert le.qr_lambda1 == pytest.approx(-le.qr_lambda2, abs=5e-3)
        assert abs(le.lambda2 - le.qr_lambda2) / le.qr_lambda2 < 0.05
        # 1e5-step reference value for this table geometry
        assert abs(le.qr_lambda2 - 0.9437) / 0.9437 < 0.05


# --------------------------------------------------------------- s/u series
class TestSUSeries:
    def test_fixture_series_matches_geometric_closed_form(self):
        _, seg = fixture_segment(n=200)
        sp = oseledets_splitting(seg)
        for chi in (0.3, 0.5, 0.9):
            su = s_u_parameters(seg, sp, chi, at=0)
            exact = s_closed_form(chi)
            assert su.s == pytest.approx(exact, abs=1e-12)
            assert su.u == pytest.approx(exact, abs=1e-12)

    def test_series_value_is_position_independent_on_fixture(self):
        # constant one-step factors make s independent of the evaluation
        # index; this exercises the slice offsets in the series assembly
        _, seg = fixture_segment(n=200)
        sp = oseledets_splitting(seg)
        vals = [s_u_parameters(seg, sp, 0.5, at=m).s for m in (-5, 0, 7)]
        assert max(vals) - min(vals) < 1e-14 * vals[0]

    def test_truncation_tail_bound_is_exact_for_geometric_terms(
            self, monkeypatch):
        _, seg = fixture_segment(n=200)
        sp = oseledets_splitting(seg)
        # the series reads its term cap at call time: terms n = 0..5
        monkeypatch.setattr(cocycle, "SERIES_MAX_TERMS", 5)
        su = s_u_parameters(seg, sp, 0.9, at=0)
        q = math.exp(2.0 * (0.9 - 1.0))
        partial = (1.0 - q ** 6) / (1.0 - q)
        assert su.s ** 2 == pytest.approx(2.0 * partial, rel=1e-12)
        assert su.s < s_closed_form(0.9)

    def test_minimum_value_sqrt_two_at_series_start(self):
        _, seg = fixture_segment(n=20)
        sp = oseledets_splitting(seg)
        # at the future end the forward series has zero summable terms
        su = s_u_parameters(seg, sp, 0.5, at=20)
        assert su.s == math.sqrt(2.0)
        # at the past end the backward series has zero summable terms
        su = s_u_parameters(seg, sp, 0.5, at=-20)
        assert su.u == math.sqrt(2.0)

    def test_billiard_series_exceed_sqrt_two(self):
        fl = make_flower()
        seg, sp = first_admitted(fl, 5, 60)
        for at in range(-10, 11):
            su = s_u_parameters(seg, sp, 0.512, at=at)
            assert su.s >= math.sqrt(2.0) - 1e-12
            assert su.u >= math.sqrt(2.0) - 1e-12

    def test_chi_above_expansion_rate_diverges(self):
        _, seg = fixture_segment(n=200)
        sp = oseledets_splitting(seg)
        with pytest.raises(SeriesDiverging):
            s_u_parameters(seg, sp, 2.0, at=0)

    def test_nonpositive_chi_rejected(self):
        _, seg = fixture_segment(n=20)
        sp = oseledets_splitting(seg)
        with pytest.raises(ValueError):
            s_u_parameters(seg, sp, 0.0, at=0)

    def test_s_recursion_identity_on_fixture(self):
        # s(fx)^2 e^(2 chi) ||df e_s||^2 = s(x)^2 - 2 for the exact series
        _, seg = fixture_segment(n=200)
        sp = oseledets_splitting(seg)
        chi = 0.5
        su0 = s_u_parameters(seg, sp, chi, at=0)
        su1 = s_u_parameters(seg, sp, chi, at=1)
        g = sp.factor_s[seg.index(0)]
        lhs = su1.s ** 2 * math.exp(2.0 * chi) * g * g
        assert lhs == pytest.approx(su0.s ** 2 - 2.0, rel=1e-12)

    def test_s_recursion_identity_on_flower(self):
        fl = make_flower()
        seg, sp = first_admitted(fl, 5, 80)
        chi = 0.512
        for at in range(-5, 6):
            su0 = s_u_parameters(seg, sp, chi, at=at)
            su1 = s_u_parameters(seg, sp, chi, at=at + 1)
            g = sp.factor_s[seg.index(at)]
            lhs = su1.s ** 2 * math.exp(2.0 * chi) * g * g
            rhs = su0.s ** 2 - 2.0
            assert lhs == pytest.approx(rhs, rel=1e-8)


# ------------------------------------------------------------------- frames
class TestFrames:
    def test_orthogonal_minimal_frame(self):
        fr = build_frame(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                         math.sqrt(2.0), math.sqrt(2.0), 0.5)
        assert fr.alpha == pytest.approx(math.pi / 2, abs=1e-15)
        assert fr.c_frob == pytest.approx(1.0, abs=1e-15)
        assert fr.c_inv_frob == pytest.approx(2.0, abs=1e-14)
        assert np.allclose(fr.C, np.eye(2) / math.sqrt(2.0))

    def test_inverse_norm_closed_form_matches_direct_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.uniform(0.0, 2.0 * math.pi)
            da = rng.uniform(0.05, math.pi - 0.05)
            e_s = np.array([math.cos(a), math.sin(a)])
            e_u = np.array([math.cos(a + da), math.sin(a + da)])
            s = math.sqrt(2.0) * math.exp(rng.uniform(0.0, 12.0))
            u = math.sqrt(2.0) * math.exp(rng.uniform(0.0, 12.0))
            fr = build_frame(e_s, e_u, s, u, 0.5)
            direct = np.sqrt(np.sum(np.linalg.inv(fr.C) ** 2))
            assert fr.c_inv_frob == pytest.approx(direct, rel=1e-10)
            assert fr.c_frob <= 1.0 + 1e-12

    def test_degenerate_angle_raises(self):
        e = np.array([0.6, 0.8])
        with pytest.raises(DegenerateAngle):
            build_frame(e, e, 2.0, 2.0, 0.5)
        with pytest.raises(DegenerateAngle):
            build_frame(e, -e, 2.0, 2.0, 0.5)

    def test_invalid_inputs_rejected(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            build_frame(2.0 * e1, e2, 2.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            build_frame(e1, e2, 1.0, 2.0, 0.5)

    def test_fixture_frames_are_constant_along_orbit(self):
        _, seg = fixture_segment(n=60)
        sp = oseledets_splitting(seg)
        frames = frames_along(seg, sp, 0.5, -10, 10)
        assert len(frames) == 21
        C0 = frames[10].C
        for fr in frames:
            assert fr.alpha == pytest.approx(math.pi / 2, abs=1e-12)
            assert np.allclose(fr.C, C0, atol=1e-13)
        one = frame_at(seg, sp, 0.5, at=3)
        assert np.allclose(one.C, frames[13].C, atol=1e-15)


# --------------------------------------------------------- reduced cocycle
def conjugated(frame_x, frame_fx, df_x):
    """The reduced cocycle C(fx)^-1 df C(x) of two frames."""
    return np.linalg.solve(frame_fx.C, df_x @ frame_x.C)


class TestReducedCocycle:
    def test_fixture_reduction_is_exact_diagonal(self):
        fx, seg = fixture_segment()
        sp = oseledets_splitting(seg)
        f0 = frame_at(seg, sp, 0.5, 0)
        f1 = frame_at(seg, sp, 0.5, 1)
        D = conjugated(f0, f1, seg.derivs[seg.index(0)])
        reduced_cocycle(D, f0.chi)
        assert D[0, 0] == pytest.approx(fx.lambda_s, abs=1e-14)
        assert D[1, 1] == pytest.approx(fx.lambda_u, abs=1e-13)
        assert abs(D[0, 1]) < 1e-15 and abs(D[1, 0]) < 1e-15

    def test_diagonal_entries_factor_through_series(self):
        # |A| = ||df e_s|| s(fx)/s(x) and |B| = ||df e_u|| u(fx)/u(x)
        fl = make_flower()
        seg, sp = first_admitted(fl, 5, 80)
        chi = 0.512
        for at in range(-5, 6):
            f0 = frame_at(seg, sp, chi, at)
            f1 = frame_at(seg, sp, chi, at + 1)
            i = seg.index(at)
            D = conjugated(f0, f1, seg.derivs[i])
            reduced_cocycle(D, chi)
            assert abs(D[0, 0]) == pytest.approx(
                sp.factor_s[i] * f1.s_param / f0.s_param, rel=1e-9)
            assert abs(D[1, 1]) == pytest.approx(
                sp.factor_u[i] * f1.u_param / f0.u_param, rel=1e-9)
            assert abs(D[0, 0]) < math.exp(-chi)
            assert abs(D[1, 1]) > math.exp(chi)

    def test_identity_map_is_not_hyperbolic(self):
        fr = build_frame(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                         math.sqrt(2.0), math.sqrt(2.0), 0.5)
        with pytest.raises(NotHyperbolic):
            reduced_cocycle(conjugated(fr, fr, np.eye(2)), fr.chi)

    def test_mismatched_frames_are_not_diagonal(self):
        fr_x = build_frame(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                           2.0, 2.0, 0.5)
        c, s = math.cos(0.5), math.sin(0.5)
        fr_fx = build_frame(np.array([c, s]), np.array([0.0, 1.0]),
                            2.0, 2.0, 0.5)
        with pytest.raises(NotDiagonal):
            reduced_cocycle(conjugated(fr_x, fr_fx, np.diag([0.1, 10.0])),
                            fr_x.chi)


# ----------------------------------------------------- inequality and proxies
class TestGrowthCheck:
    def test_fixture_margin_matches_hand_computation(self):
        fx, seg = fixture_segment()
        sp = oseledets_splitting(seg)
        frames = frames_along(seg, sp, 0.5, -10, 10)
        rep = c_inverse_growth_check(seg, frames, -10, a=1.5)
        assert rep["checked"] == 20
        # constant c_inv cancels; rho = 0.3 everywhere
        want = (math.log(2.0) - 3.0 * math.log(0.3)
                + math.log1p(math.exp(0.5) * 0.3 ** -1.5))
        assert rep["min_margin"] == pytest.approx(want, rel=1e-12)

    def test_corrupted_frame_violates_inequality(self):
        _, seg = fixture_segment()
        sp = oseledets_splitting(seg)
        frames = frames_along(seg, sp, 0.5, -10, 10)
        bad = build_frame(frames[3].e_s, frames[3].e_u,
                          frames[3].s_param * 1e9, frames[3].u_param, 0.5)
        frames[3] = bad
        with pytest.raises(InequalityViolated) as ei:
            c_inverse_growth_check(seg, frames, -10, a=1.5)
        assert ei.value.witness == -6


class TestDiagnostics:
    def test_fixture_proxies_from_constant_orbit(self):
        from pesin_coder.cocycle import nuh_diagnostics

        fx, seg = fixture_segment()
        sp = oseledets_splitting(seg)
        frames = frames_along(seg, sp, 0.5, -10, 10)
        rep = nuh_diagnostics(seg, frames, -10)
        # far region starts at |n| = 5 for a 21-frame window
        assert rep["reg_slope"] == pytest.approx(abs(math.log(0.3)) / 5, rel=1e-12)
        c_inv = frames[10].c_inv_frob
        assert rep["c_inv_slope"] == pytest.approx(math.log(c_inv) / 5, rel=1e-9)
        # residual seed components decay like e^(-2n) but never vanish
        assert rep["best_return_forward"] < 1e-30
        assert rep["best_return_backward"] < 1e-30
        assert rep["window"] == (-10, 10)

    def test_running_max_fields_present_when_supplied(self):
        from pesin_coder.cocycle import nuh_diagnostics

        _, seg = fixture_segment()
        sp = oseledets_splitting(seg)
        frames = frames_along(seg, sp, 0.5, -10, 10)
        q = np.exp(-np.arange(21.0))
        rep = nuh_diagnostics(seg, frames, -10, q_s=q, q_u=q)
        assert rep["q_s_running_max"] == 1.0
        assert rep["q_s_final_running_max"] == pytest.approx(math.exp(-10.0))
        assert rep["q_u_running_max"] == 1.0

    def test_three_frame_window_is_refused(self):
        from pesin_coder.cocycle import nuh_diagnostics

        _, seg = fixture_segment()
        sp = oseledets_splitting(seg)
        frames = frames_along(seg, sp, 0.5, -1, 1)
        with pytest.raises(ValueError,
                           match=r"window \[-1, 1\] .*\|n\| >= 2"):
            nuh_diagnostics(seg, frames, -1)

    def test_synthetic_grazing_approach_fails_regularity_proxy(self):
        from pesin_coder.cocycle import nuh_diagnostics

        fx = make_linear_fixture()
        # points closing in on the domain boundary, the fixture's D:
        # d(n) = 0.3 e^(-2 max(|n| - 1, 0)), so rho(n) = 0.3 e^(-2|n|)
        ns = np.arange(-11, 12)
        dists = 0.3 * np.exp(-2.0 * np.maximum(np.abs(ns) - 1, 0))
        pts = [PhasePoint(0, fx.half_width - d, 0.0) for d in dists]
        seg = OrbitSegment(
            table=fx, n_minus=10, n_plus=10,
            points=tuple(pts[1:-1]),
            derivs=np.broadcast_to(np.diag([fx.lambda_s, fx.lambda_u]),
                                   (21, 2, 2)).copy(),
            ends=(pts[0], pts[-1]))
        assert [seg.rho(n) for n in range(-10, 11)] == pytest.approx(
            0.3 * np.exp(-2.0 * np.abs(ns[1:-1])), rel=1e-6)
        fr = build_frame(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                         math.sqrt(2.0), math.sqrt(2.0), 0.5)
        rep = nuh_diagnostics(seg, [fr] * 21, -10)
        # |log rho(n)| grows like 2|n|, so the slope proxy detects the decay
        assert rep["reg_slope"] > 2.0
        assert rep["reg_slope"] < 2.5
        assert rep["best_return_forward"] == 0.0

    def test_stadium_long_window_proxies_stay_flat(self):
        from pesin_coder.cocycle import nuh_diagnostics

        st = make_stadium()
        chi = 0.5 * 0.9437
        rng = np.random.default_rng(3)
        built = None
        for p in st.liouville_sample(rng, 40):
            try:
                seg = orbit_segment(st, p, 5200, 5200, with_rho=True)
                sp = oseledets_splitting(seg)
                frames = frames_along(seg, sp, chi, -5000, 5000)
                built = (seg, sp, frames)
                break
            except (OrbitHitsDiscontinuity, SplittingNotConverged,
                    SeriesDiverging):
                continue
        assert built is not None, "no admissible long-window point found"
        seg, sp, frames = built
        rep = nuh_diagnostics(seg, frames, -5000)
        assert rep["reg_slope"] < 0.02
        assert rep["c_inv_slope"] < 0.02
        growth = c_inverse_growth_check(seg, frames, -5000, a=1.5)
        assert growth["checked"] == 10000
        assert growth["min_margin"] > 0.0
        le = lyapunov_exponents(seg, sp)
        assert abs(le.lambda2 - le.qr_lambda2) / le.qr_lambda2 < 0.05
