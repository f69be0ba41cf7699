"""Tests for local charts: size lattice work, realization, chart-coordinate
maps, the overlap test, and the windowed greedy size recursion.

Scale reality baked into these tests: real chart sizes sit at e^-300, so a
chart realized at float scale collapses to its base point (the honest
behaviour), geometric accuracy is exercised through the probe-scale sampling
path, and synthetic charts with large eta (built directly, bypassing the size
validator) drive the non-vacuous bound paths.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from pesin_coder import accel
from pesin_coder import charts as charts_module
from pesin_coder.charts import (
    GRID_N,
    PROBE_FLOOR,
    PesinChart,
    _map_step,
    _probe_halfwidth,
    _sample_grid,
    build_pesin_chart,
    chart_apply,
    chart_from_segment,
    chart_invert,
    chart_map_fxy,
    compute_Q,
    greedy_q,
    overlap_test,
    q_tilde_log,
)
from pesin_coder.cocycle import (
    build_frame,
    frame_at,
    orbit_segment,
    oseledets_splitting,
)
from pesin_coder.dynamics import billiard_map
from pesin_coder.errors import (
    BoundViolated,
    CornerHit,
    DomainEscape,
    GrazingCollision,
    MapUndefined,
    NotDiagonal,
    OrbitHitsDiscontinuity,
    OutOfDomain,
    OverlapMissing,
    SeriesDiverging,
    SplittingNotConverged,
)
from pesin_coder.lattice import EpsilonConfig, LatticeSize
from pesin_coder.tables import (
    PhasePoint,
    make_circle,
    make_flower,
    make_linear_fixture,
    make_sinai,
    make_stadium,
)

from helpers import (
    CFG,
    CHI,
    CONSTS,
    STADIUM_CHI,
    TAME_C_INV,
    TAME_RHO,
    minimal_frame,
)

def fixture_charts(n: int = 60):
    """Charts at steps 0 and 1 of the fixture fixed-point orbit."""
    fx = make_linear_fixture()
    seg = orbit_segment(fx, PhasePoint(0, 0.0, 0.0), n, n)
    sp = oseledets_splitting(seg)
    ch0 = chart_from_segment(seg, sp, CHI, CFG, CONSTS, at=0)
    ch1 = chart_from_segment(seg, sp, CHI, CFG, CONSTS, at=1)
    return fx, seg, sp, ch0, ch1


def off_center_charts():
    """Fixture charts on a genuinely moving orbit (escapes at step 17)."""
    fx = make_linear_fixture()
    seg = orbit_segment(fx, PhasePoint(0, 1e-8, 1e-8), 16, 16)
    sp = oseledets_splitting(seg)
    ch0 = chart_from_segment(seg, sp, CHI, CFG, CONSTS, at=0)
    ch1 = chart_from_segment(seg, sp, CHI, CFG, CONSTS, at=1)
    return fx, seg, sp, ch0, ch1


def synthetic_chart(table, x: PhasePoint, eta_expo: int = 1, eps: float = 0.5,
                    rho: float = 0.3, chi: float = 0.5) -> PesinChart:
    """Large-eta chart built directly (the size validator would reject it)."""
    eta = LatticeSize(eta_expo, eps)
    return PesinChart(table, x, minimal_frame(chi), eta, eta, rho)


def tame_stadium_pair():
    """First seed-11 stadium sample with tame frames and rho at steps 0, 1
    (an orbit on component 2, not the one of `tame_stadium_window`)."""
    st = make_stadium()
    chi = STADIUM_CHI
    rng = np.random.default_rng(11)
    for p in st.liouville_sample(rng, 60):
        try:
            seg = orbit_segment(st, p, 60, 60)
            sp = oseledets_splitting(seg)
            f0 = frame_at(seg, sp, chi, at=0)
            f1 = frame_at(seg, sp, chi, at=1)
        except (OrbitHitsDiscontinuity, SplittingNotConverged, SeriesDiverging):
            continue
        r0 = seg.rho(0)
        r1 = seg.rho(1)
        if max(f0.c_inv_frob, f1.c_inv_frob) < TAME_C_INV and \
                min(r0, r1) > TAME_RHO:
            cha = chart_from_segment(seg, sp, chi, CFG, CONSTS, at=0)
            chb = chart_from_segment(seg, sp, chi, CFG, CONSTS, at=1)
            return st, seg, sp, cha, chb
    raise AssertionError("no moderate stadium point found under this seed")


# --------------------------------------------------------------- size lattice
class TestSizeFunction:
    def test_fixture_q_matches_closed_form(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        s = math.sqrt(2.0 / (1.0 - math.exp(2.0 * (CHI - 1.0))))
        c_inv = math.hypot(s, s)
        hand = 6.0 * math.log(0.01) + min(
            -48.0 * math.log(c_inv),
            -24.0 * math.log(c_inv) + 216.0 * math.log(0.3))
        lq = q_tilde_log(ch0.frame, ch1.frame, 0.3, CFG, CONSTS)
        assert abs(lq - hand) < 1e-10 * abs(hand)
        assert ch0.Q.expo == 92949
        assert abs(ch0.Q.log_value - (-309.83)) < 1e-12
        assert abs(ch0.Q.value - 2.770388475409606e-135) < 1e-147
        assert ch0.eta == ch0.Q

    def test_q_respects_eps_power_bound(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        assert ch0.Q.log_value <= 6.0 * math.log(CFG.eps)

    def test_compute_q_is_exact_floor(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        lq = q_tilde_log(ch0.frame, ch1.frame, 0.3, CFG, CONSTS)
        Q = compute_Q(ch0.frame, ch1.frame, 0.3, CFG, CONSTS)
        assert Q.log_value <= lq
        assert -CFG.eps * (Q.expo - 1) / 3.0 > lq

    def test_doubling_c_inv_scales_q(self):
        # at rho near 1 the own-frame branch is active; doubling both frame
        # stretches multiplies the size by exactly 2^(-24/beta)
        fr = minimal_frame()
        fr2 = build_frame(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                          2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0), 0.5)
        l1 = q_tilde_log(fr, fr, 0.95, CFG, CONSTS)
        l2 = q_tilde_log(fr2, fr2, 0.95, CFG, CONSTS)
        assert abs((l1 - l2) - 48.0 * math.log(2.0)) < 1e-10

    def test_q_monotone_in_rho(self):
        fr = minimal_frame()
        qs = [compute_Q(fr, fr, rho, CFG, CONSTS)
              for rho in (0.3, 0.1, 0.01, 0.001)]
        for a, b in zip(qs, qs[1:]):
            assert b <= a  # lattice order: smaller rho, smaller size

    def test_rho_must_be_positive(self):
        fr = minimal_frame()
        with pytest.raises(ValueError):
            q_tilde_log(fr, fr, 0.0, CFG, CONSTS)

    def test_builder_rejects_eta_above_q(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        with pytest.raises(ValueError):
            build_pesin_chart(fx, ch0.x, ch0.frame, ch0.Q, 0.3, CFG, CONSTS,
                              eta=ch0.Q.step(-3))

    def test_builder_rejects_oversize_q(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        q = LatticeSize(100, 0.01)
        with pytest.raises(ValueError, match="Q bound"):
            build_pesin_chart(fx, ch0.x, ch0.frame, q, 0.3, CFG, CONSTS, q)

    def test_builder_rejects_pinching_violation(self):
        # log Q = -50 passes the plain eps-power bound but breaks the
        # ||C^-1|| Q^(beta/24) <= eps^(1/8) pinching for this frame
        fx, seg, sp, ch0, ch1 = fixture_charts()
        q = LatticeSize(15000, 0.01)
        with pytest.raises(ValueError, match="pinching"):
            build_pesin_chart(fx, ch0.x, ch0.frame, q, 0.3, CFG, CONSTS, q)

    def test_builder_rejects_singularity_violation(self):
        # log Q = -80 passes pinching but rho^-a Q^(beta/72) is not small
        fx, seg, sp, ch0, ch1 = fixture_charts()
        q = LatticeSize(24000, 0.01)
        with pytest.raises(ValueError, match="singularity"):
            build_pesin_chart(fx, ch0.x, ch0.frame, q, 0.3, CFG, CONSTS, q)

    @pytest.mark.parametrize("bound", ["Q", "pinching", "singularity"])
    def test_builder_refuses_a_nan_bound(self, bound):
        # a NaN log Q, ||C^-1|| or rho makes that bound's measured side NaN
        fx, seg, sp, ch0, ch1 = fixture_charts()
        frame, q, rho = ch0.frame, ch0.Q, 0.3
        if bound == "Q":
            q = LatticeSize(ch0.Q.expo, math.nan)
        elif bound == "pinching":
            frame = replace(frame, s_param=math.nan)
        else:
            rho = math.nan
        with pytest.raises(ValueError, match=f"^{bound} bound broken: .* nan "):
            build_pesin_chart(fx, ch0.x, frame, q, rho, CFG, CONSTS, q)

    def test_chart_from_segment_requires_rho_data(self):
        from pesin_coder.cocycle import OrbitSegment

        fx, seg, sp, ch0, ch1 = fixture_charts()
        bare = OrbitSegment(seg.table, seg.n_minus, seg.n_plus, seg.comps,
                            seg.rs, seg.thetas, seg.derivs)
        with pytest.raises(ValueError, match="rho"):
            chart_from_segment(bare, sp, CHI, CFG, CONSTS)

    def test_chart_from_segment_matches_manual_build(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        f0 = frame_at(seg, sp, CHI, at=0)
        f1 = frame_at(seg, sp, CHI, at=1)
        assert compute_Q(f0, f1, seg.rho(0), CFG, CONSTS) == ch0.Q
        assert np.array_equal(f0.C, ch0.frame.C)


# ---------------------------------------------------------------- realization
class TestRealization:
    def test_apply_zero_is_base_point(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        assert chart_apply(ch0, [0.0, 0.0]) == ch0.x

    def test_roundtrip_at_origin_is_exact(self):
        # the fixed point sits at (0, 0), so adding the e^-135 displacement
        # is lossless and the chart realizes its true domain faithfully
        fx, seg, sp, ch0, ch1 = fixture_charts()
        v = np.array([0.5 * ch0.eta.value, -0.25 * ch0.eta.value])
        p = chart_apply(ch0, v)
        assert p != ch0.x
        vv = chart_invert(ch0, p)
        assert np.max(np.abs(vv - v)) < 1e-12 * np.max(np.abs(v))

    def test_apply_collapses_at_order_one_base(self):
        # away from the origin the e^-135 displacement is below the float
        # resolution of the base coordinates: the image is the base point
        st, seg, sp, cha, chb = tame_stadium_pair()
        v = np.array([0.5 * cha.eta.value, 0.5 * cha.eta.value])
        assert chart_apply(cha, v) == cha.x
        assert np.array_equal(chart_invert(cha, cha.x), np.zeros(2))

    def test_embed_pullback_across_component_end(self):
        st = make_stadium()
        # bottom straight segment has length 2; embed past its right end
        x = PhasePoint(0, 1.999, 0.3)
        ch = synthetic_chart(st, x, rho=0.05)
        v = np.array([0.01, 0.0])
        p = chart_apply(ch, v)
        assert p.component == 1
        assert np.max(np.abs(chart_invert(ch, p) - v)) < 1e-12

    # the stadium's left cap precedes its bottom segment; the circle and the
    # Sinai scatterer are loops of one component, which r = 0 wraps onto itself
    @pytest.mark.parametrize("mk, comp, comp_after", [
        (make_stadium, 0, 3), (make_circle, 0, 0), (make_sinai, 4, 4)],
        ids=["stadium", "circle", "sinai"])
    def test_embed_pullback_wraps_backward(self, mk, comp, comp_after):
        x = PhasePoint(comp, 0.001, -0.2)
        ch = synthetic_chart(mk(), x, rho=0.05)
        v = np.array([-0.01, 0.0])
        p = chart_apply(ch, v)
        assert p.component == comp_after and p.r > 1.0
        assert np.max(np.abs(chart_invert(ch, p) - v)) < 1e-12

    def test_embed_angle_escape(self):
        st = make_stadium()
        ch = synthetic_chart(st, PhasePoint(0, 1.0, math.pi / 2 - 1e-9),
                             rho=1e-3)
        with pytest.raises(DomainEscape):
            chart_apply(ch, np.array([0.0, 0.01]))

    def test_pullback_across_loops_rejected(self):
        si = make_sinai()
        ch = synthetic_chart(si, PhasePoint(0, 1.0, 0.0), rho=0.05)
        with pytest.raises(OutOfDomain):
            chart_invert(ch, PhasePoint(4, 0.1, 0.0))


# ------------------------------------------------------------- one-step maps
class TestChartMapFx:
    """The one-step map f_x: chart_map_fxy forward onto the image chart."""

    def test_fixture_linear_part_exact(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        dec = chart_map_fxy(ch0, ch1, CONSTS, True)
        assert abs(dec.A - 1.0 / math.e) < 1e-12
        assert abs(dec.B - math.e) < 1e-12

    def test_fixture_h_fields_vanish(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        dec = chart_map_fxy(ch0, ch1, CONSTS, True)
        assert dec.h0 == (0.0, 0.0)
        assert dec.sup_h < 1e-18
        assert dec.grad_sup < 1e-12
        assert dec.holder_const < 1e-9
        assert dec.holder_half < 1e-9
        assert dec.grad_h0 < 1e-14

    def test_fixture_probe_and_fd(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        dec = chart_map_fxy(ch0, ch1, CONSTS, True)
        assert dec.probe == PROBE_FLOOR
        assert 10.0 * ch0.Q.value < PROBE_FLOOR  # the probe is floored
        *_, J0 = _sample_grid(ch0, ch1, dec.probe, dec.probe / 16.0,
                              math.inf, True)
        assert abs(J0[0, 0] - dec.A) < 1e-8
        assert abs(J0[1, 1] - dec.B) < 1e-8

    def test_fixture_df_sup_is_expansion_rate(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        dec = chart_map_fxy(ch0, ch1, CONSTS, True)
        assert abs(dec.df_sup - math.e) < 1e-10 * math.e

    def test_fixture_off_center_pair(self):
        fx, seg, sp, ch0, ch1 = off_center_charts()
        dec = chart_map_fxy(ch0, ch1, CONSTS, True)
        assert abs(dec.A - 1.0 / math.e) < 5e-7
        assert abs(dec.B - math.e) < 5e-7
        assert dec.sup_h < 1e-18

    def test_tiny_rho_refuses_probe(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        cramped = PesinChart(fx, ch0.x, ch0.frame, ch0.Q, ch0.eta, 5e-5)
        with pytest.raises(DomainEscape, match="floor"):
            chart_map_fxy(cramped, ch1, CONSTS, True)

    def test_stadium_pair_certifies_bounds(self):
        st, seg, sp, cha, chb = tame_stadium_pair()
        assert billiard_map(st, cha.x) == chb.x  # bitwise consecutive
        dec = chart_map_fxy(cha, chb, CONSTS, True)
        chi = cha.frame.chi
        assert abs(dec.A) < math.exp(-chi)
        assert abs(dec.B) > math.exp(chi)
        assert dec.h0 == (0.0, 0.0)
        assert dec.sup_h < 1e-10
        assert dec.grad_sup < 1e-4
        assert dec.holder_const < 5e-3
        assert dec.holder_half < 5e-3
        assert dec.probe == PROBE_FLOOR
        bound = 2.0 * (1.0 + math.exp(2.0 * chi)) / cha.rho_x ** CONSTS.a
        assert dec.df_sup < bound

    def test_tilted_image_frame_is_not_diagonal(self):
        # e_u at step 1 turned by 1e-5 rad: grad h(0) ~ 2.7e-5 stays within
        # the edge bound eps probe^(beta/3) = 1e-3, but the one-step map
        # must reduce the cocycle to a diagonal
        fx, seg, sp, ch0, ch1 = fixture_charts()
        f1 = ch1.frame
        c, s = math.cos(1e-5), math.sin(1e-5)
        e_u = np.array([c * f1.e_u[0] - s * f1.e_u[1],
                        s * f1.e_u[0] + c * f1.e_u[1]])
        tilted = replace(ch1, frame=build_frame(f1.e_s, e_u, f1.s_param,
                                                f1.u_param, f1.chi))
        with pytest.raises(NotDiagonal):
            chart_map_fxy(ch0, tilted, CONSTS, True)
        # backward it is an edge map only, which the tilt passes
        assert chart_map_fxy(tilted, ch0, CONSTS, False).grad_h0 < 1e-3

    @pytest.mark.parametrize("charts", [fixture_charts, tame_stadium_pair],
                             ids=["fixture", "stadium"])
    def test_holder_quotients_match_per_pair_loop(self, charts):
        *_, ch0, ch1 = charts()
        dec = chart_map_fxy(ch0, ch1, CONSTS, True)
        assert dec.holder_const == per_pair_holder(ch0, ch1, dec,
                                                   CONSTS.beta / 3.0)
        assert dec.holder_half == per_pair_holder(ch0, ch1, dec,
                                                  CONSTS.beta / 2.0)

    @pytest.mark.parametrize("charts", [fixture_charts, tame_stadium_pair],
                             ids=["fixture", "stadium"])
    def test_df_sup_matches_per_point_closed_form(self, charts):
        *_, ch0, ch1 = charts()
        dec = chart_map_fxy(ch0, ch1, CONSTS, True)
        xs, U, V, _ = _sample_grid(ch0, ch1, dec.probe, dec.probe / 16.0,
                                   math.inf, True)
        fields = [g for F in (U, V)
                  for g in np.gradient(F, xs[1] - xs[0], edge_order=2)]
        # the largest singular value of each sampled Jacobian, one grid
        # point at a time on Python floats
        worst = 0.0
        for i in range(GRID_N):
            for j in range(GRID_N):
                a, b, c, d = (float(g[i, j]) for g in fields)
                fro2 = a * a + b * b + c * c + d * d
                det = a * d - b * c
                inner = max(fro2 * fro2 - 4.0 * det * det, 0.0)
                worst = max(worst, math.sqrt((fro2 + math.sqrt(inner)) / 2.0))
        assert dec.df_sup == worst


def per_pair_holder(ch0, ch1, dec, exponent: float) -> float:
    """Holder quotient of grad h divided per pair and then maximized, one
    field at a time: the loop the one-pass quotients must match bitwise.
    h is resampled from the forward grid of dec's probe."""
    xs, U, V, _ = _sample_grid(ch0, ch1, dec.probe, dec.probe / 16.0,
                               math.inf, True)
    spacing = xs[1] - xs[0]
    V1, V2 = np.meshgrid(xs, xs, indexing="ij")
    worst = []
    for h in (U - dec.A * V1, V - dec.B * V2):
        g1, g2 = np.gradient(h, spacing, edge_order=2)
        w = 0.0
        for k in (1, 2, 4, 8, 16):
            dist = (k * spacing) ** exponent
            for g in (g1, g2):
                w = max(w, float(np.max(np.abs(g[k:, :] - g[:-k, :]))) / dist,
                        float(np.max(np.abs(g[:, k:] - g[:, :-k]))) / dist)
        worst.append(w)
    return max(worst)


# sha256 (first 16 hex digits) of float.hex of every ChartMapDecomposition
# field in order: A, B, probe, h0, grad0 row by row, grad_h0, sup_h,
# grad_sup, holder_const, holder_half, df_sup
CHART_MAP_PINS = {
    ("fixture", True): "ca71e48af8ccfbbb",
    ("fixture", False): "7051cbb0928d3cd4",
    ("stadium", True): "e88fa32a44aaf2f5",
    ("stadium", False): "979b895bcaf36aa9",
}
PAIRS = {"fixture": fixture_charts, "stadium": tame_stadium_pair}


@pytest.mark.parametrize("pair, forward", list(CHART_MAP_PINS))
def test_chart_map_is_bitwise_pinned(pair, forward):
    *_, ch0, ch1 = PAIRS[pair]()
    dec = (chart_map_fxy(ch0, ch1, CONSTS, True) if forward
           else chart_map_fxy(ch1, ch0, CONSTS, False))
    values = [dec.A, dec.B, dec.probe, *dec.h0, *dec.grad0.ravel().tolist(),
              dec.grad_h0, dec.sup_h, dec.grad_sup, dec.holder_const,
              dec.holder_half, dec.df_sup]
    text = "|".join(float(v).hex() for v in values)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        CHART_MAP_PINS[pair, forward]


@pytest.mark.parametrize("pair", list(PAIRS))
@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("field, node, bound", [
    ("U", (3, 5), "Holder"), ("U", (0, 0), "Holder"),
    ("U", (32, 32), "Holder"), ("U", (16, 16), r"\|h\(0\)\|"),
    ("V", (3, 5), "Holder"), ("V", (32, 0), "Holder"),
    ("J0", (0, 0), "finite-difference"), ("J0", (1, 1), "finite-difference"),
    ("J0", (0, 1), r"\|grad h\(0\)\|")],
    ids=["U-3-5", "U-0-0", "U-32-32", "U-16-16", "V-3-5", "V-32-0",
         "J0-0-0", "J0-1-1", "J0-0-1"])
def test_nan_sample_fails_the_bounds(monkeypatch, pair, forward, field, node,
                                     bound):
    # one NaN in U, in V or in the finite-difference Jacobian fails the
    # first bound it reaches, whatever its place in the grid
    *_, ch0, ch1 = PAIRS[pair]()
    cx, cy = (ch0, ch1) if forward else (ch1, ch0)
    sample = charts_module._sample_grid

    def with_nan(*args):
        out = sample(*args)
        out[("U", "V", "J0").index(field) + 1][node] = math.nan
        return out

    monkeypatch.setattr(charts_module, "_sample_grid", with_nan)
    with pytest.raises(BoundViolated, match=bound):
        chart_map_fxy(cx, cy, CONSTS, forward)


@pytest.mark.parametrize("pair", list(PAIRS))
@pytest.mark.parametrize("field", ["h0", "grad_h0", "holder_const", "sup_h",
                                   "grad_sup", "holder_half", "df_sup"])
def test_nan_statistic_fails_its_bound(monkeypatch, pair, field):
    # the forward pairs are one-step maps, so every bound is checked; a NaN
    # in any one statistic alone must fail
    *_, ch0, ch1 = PAIRS[pair]()
    decompose = charts_module._decompose

    def with_nan(*args):
        dec = decompose(*args)
        value = (dec.h0[0], math.nan) if field == "h0" else math.nan
        return replace(dec, **{field: value})

    monkeypatch.setattr(charts_module, "_decompose", with_nan)
    with pytest.raises(BoundViolated):
        chart_map_fxy(ch0, ch1, CONSTS, True)


@pytest.mark.parametrize("value", ["nan", "eps"])
def test_bound_violated_message_holds_for_every_failure(monkeypatch, value):
    # "Holder(grad h) below eps" is strict, so a quotient equal to eps fails
    # it, as a NaN does; the message claims neither is above eps
    *_, ch0, ch1 = fixture_charts()
    eps = ch0.eps
    measured = math.nan if value == "nan" else eps
    decompose = charts_module._decompose
    monkeypatch.setattr(charts_module, "_decompose", lambda *args: replace(
        decompose(*args), holder_const=measured))
    with pytest.raises(BoundViolated) as err:
        chart_map_fxy(ch0, ch1, CONSTS, True)
    assert err.value.bound_name == "Holder(grad h) below eps"
    assert str(err.value) == (
        f"Holder(grad h) below eps: bound not met, measured "
        f"{'nan' if value == 'nan' else f'{eps:.6e}'}, allowed {eps:.6e}")
    assert ">" not in str(err.value)


class TestChartMapFxy:
    def test_fixture_forward_edge(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        dec = chart_map_fxy(ch0, ch1, CONSTS, True)
        assert abs(dec.A - 1.0 / math.e) < 1e-12
        assert abs(dec.B - math.e) < 1e-12
        assert dec.h0 == (0.0, 0.0)
        assert dec.sup_h < 1e-18
        assert dec.grad_h0 < 1e-12
        assert dec.holder_const < 1e-9

    def test_fixture_backward_edge_swaps_rates(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        dec = chart_map_fxy(ch1, ch0, CONSTS, False)
        assert abs(dec.A - math.e) < 1e-12
        assert abs(dec.B - 1.0 / math.e) < 1e-12

    def test_offset_target_lands_in_h0(self):
        # y = f(x) + (0.05, 0): the offset appears as h(0) = C^-1 (f(x) - y)
        fx = make_linear_fixture()
        x0 = PhasePoint(0, 0.001, 0.0)
        y0 = PhasePoint(0, 0.001 / math.e + 0.05, 0.0)
        cx = synthetic_chart(fx, x0, rho=0.299)
        cy = synthetic_chart(fx, y0, rho=0.23)
        dec = chart_map_fxy(cx, cy, CONSTS, True)
        assert abs(dec.h0[0] - (-0.05 * math.sqrt(2.0))) < 1e-12
        assert abs(dec.h0[1]) < 1e-15
        assert dec.grad_h0 < 1e-12
        assert dec.probe == 0.01 * 0.299  # rho cap, below 10 Q
        assert dec.probe < 10.0 * cx.Q.value

    def test_offset_beyond_overlap_rejected(self):
        fx = make_linear_fixture()
        x0 = PhasePoint(0, 0.001, 0.0)
        y0 = PhasePoint(0, 0.001 / math.e + 0.3, 0.0)
        cx = synthetic_chart(fx, x0, rho=0.299)
        cy = synthetic_chart(fx, y0, rho=0.01)
        with pytest.raises(OverlapMissing):
            chart_map_fxy(cx, cy, CONSTS, True)

    def test_hyperbolicity_gate(self):
        # chi = 1.2 exceeds the fixture rates (log lambda = 1): |A| = 1/e
        # is not below e^-1.2, so the edge map must be refused
        fx = make_linear_fixture()
        x0 = PhasePoint(0, 0.0, 0.0)
        cx = synthetic_chart(fx, x0, chi=1.2)
        cy = synthetic_chart(fx, x0, chi=1.2)
        with pytest.raises(BoundViolated, match="hyperbolicity"):
            chart_map_fxy(cx, cy, CONSTS, True)


# -------------------------------------------------------- batched map step
def grid_rows(chart: PesinChart, probe: float) -> np.ndarray:
    """Displacements C v of the probe grid of half-width probe, row by row."""
    xs = np.linspace(-probe, probe, GRID_N)
    V1, V2 = np.meshgrid(xs, xs, indexing="ij")
    return np.stack([V1.ravel(), V2.ravel()], axis=1) @ chart.frame.C.T


def scalar_rows(table, x: PhasePoint, d: np.ndarray, forward: bool,
                y: PhasePoint) -> np.ndarray:
    """offset(y, f^{+-1}(embed(x, d_k))), one scalar map step per row."""
    return np.array([table.offset(y, table.step(table.embed(x, dr, dth),
                                                forward))
                     for dr, dth in d])


def full_grid(h: float) -> np.ndarray:
    """The GRID_N x GRID_N rows (dr, dtheta) of half-width h, row by row."""
    xs = np.linspace(-h, h, GRID_N)
    return np.stack([a.ravel() for a in np.meshgrid(xs, xs, indexing="ij")],
                    axis=1)


def first_scalar_failure(table, x: PhasePoint, d: np.ndarray, forward: bool,
                         y: PhasePoint):
    """(k, exception) of the first row whose scalar embed -> step -> offset
    raises, or None."""
    for k, (dr, dth) in enumerate(d.tolist()):
        try:
            table.offset(y, table.step(table.embed(x, dr, dth), forward))
        except (DomainEscape, MapUndefined, OutOfDomain) as e:
            return k, e
    return None


def seam_sides(table, pts) -> set:
    """Which side of a junction or loop seam each point is on: (component,
    r in the first half of it)."""
    return {(p.component, p.r < table.lengths[p.component] / 2) for p in pts}


# points z 1e-4 from a junction, or from the seam r = 0 of a one-component
# loop, so that a grid of half-width 1e-3 around z straddles it
JUNCTION_GRIDS = [
    ("circle", PhasePoint(0, 1e-4, 0.3)),
    ("stadium", PhasePoint(0, 1e-4, 0.3)),
    ("stadium", PhasePoint(1, math.pi - 1e-4, -0.4)),
    ("sinai", PhasePoint(4, 1e-4, 0.2)),
    ("sinai", PhasePoint(1, 2.0 - 1e-4, 0.3)),
    ("flower", PhasePoint(0, 1e-4, 0.3)),
    ("flower", PhasePoint(2, make_flower().lengths[2] - 1e-4, -0.3)),
]


def angle_sweep(lo: float, hi: float) -> np.ndarray:
    """GRID_N rows (0, dtheta), dtheta from lo to hi."""
    return np.stack([np.zeros(GRID_N), np.linspace(lo, hi, GRID_N)], axis=1)


def rows_with(bad: tuple) -> np.ndarray:
    """Three rows, the middle one `bad`."""
    return np.array([(0.0, 0.0), bad, (0.0, 0.0)])


MAKERS = {"circle": make_circle, "stadium": make_stadium, "sinai": make_sinai,
          "flower": make_flower}


def reference_grid(chart_x: PesinChart, chart_to: PesinChart, probe: float,
                   forward: bool):
    """The probe grid sampled one point at a time, in (i, j) order."""
    xs = np.linspace(-probe, probe, GRID_N)
    U = np.empty((GRID_N, GRID_N))
    V = np.empty((GRID_N, GRID_N))
    for i, v1 in enumerate(xs):
        for j, v2 in enumerate(xs):
            img = _map_step(chart_x.table,
                            chart_apply(chart_x, np.array([v1, v2])), forward)
            U[i, j], V[i, j] = chart_invert(chart_to, img)
    return U, V


def reference_fd_jacobian(chart_x: PesinChart, chart_to: PesinChart,
                          step: float, forward: bool) -> np.ndarray:
    J = np.empty((2, 2))
    for k, dv in enumerate((np.array([step, 0.0]), np.array([0.0, step]))):
        wp = chart_invert(chart_to, _map_step(
            chart_x.table, chart_apply(chart_x, dv), forward))
        wm = chart_invert(chart_to, _map_step(
            chart_x.table, chart_apply(chart_x, -dv), forward))
        J[:, k] = (wp - wm) / (2.0 * step)
    return J


class RowFailTable:
    """A map whose step_many reports fixed offsets and a fixed failure."""

    def __init__(self, off: np.ndarray, fail):
        self.off = off
        self.fail = fail

    def step_many(self, x, d, forward, y):
        return self.off, self.fail


def row_fail_charts(off: np.ndarray, fail):
    table = RowFailTable(off, fail)
    x = PhasePoint(0, 0.0, 0.0)
    return synthetic_chart(table, x), synthetic_chart(table, x)


class TestBatchedMapStep:
    @pytest.mark.parametrize("forward", [True, False])
    def test_fixture_rows_match_scalar_path(self, forward):
        fx, seg, sp, ch0, ch1 = off_center_charts()
        cx, cy = (ch0, ch1) if forward else (ch1, ch0)
        d = grid_rows(cx, 1e-3)
        off, fail = fx.step_many(cx.x, d, forward, cy.x)
        assert fail is None
        assert off.shape == (GRID_N * GRID_N, 2)
        assert off.tobytes() == scalar_rows(fx, cx.x, d, forward, cy.x).tobytes()

    def test_fixture_other_component_fails_at_first_row(self):
        fx = make_linear_fixture()
        x = PhasePoint(0, 0.01, 0.01)
        off, fail = fx.step_many(x, np.zeros((3, 2)), True, PhasePoint(1, 0.0, 0.0))
        assert fail[0] == 0 and isinstance(fail[1], OutOfDomain)
        assert np.isnan(off).all()
        with pytest.raises(OutOfDomain):
            scalar_rows(fx, x, np.zeros((1, 2)), True, PhasePoint(1, 0.0, 0.0))

    @pytest.mark.parametrize("mk", [make_circle, make_stadium, make_sinai,
                                    make_flower])
    @pytest.mark.parametrize("forward", [True, False])
    def test_billiard_rows_match_scalar_path(self, mk, forward):
        tb = mk()
        rng = np.random.default_rng(5)
        # the first sample with |theta| < 1 farther than 0.05 from D
        x, = tb.liouville_sample(rng, 1)
        while not (abs(x.theta) < 1.0
                   and tb.dist_to_D(x) > 0.05 * tb.metric_scale):
            x, = tb.liouville_sample(rng, 1)
        y = tb.step(x, forward)
        d = full_grid(1e-3)
        off, fail = tb.step_many(x, d, forward, y)
        assert fail is None
        assert off.tobytes() == scalar_rows(tb, x, d, forward, y).tobytes()

    @pytest.mark.parametrize("kind, z", JUNCTION_GRIDS)
    def test_rows_across_a_junction_match_scalar_path(self, kind, z):
        # backward from z: the grid around z straddles the junction, so the
        # loop walk (or the one-component wrap) runs; forward to z: the
        # images straddle it, so offset folds across components
        tb = MAKERS[kind]()
        w = tb.step(z, False)
        d = full_grid(1e-3)
        rows = d.tolist()
        assert len(seam_sides(tb, [tb.embed(z, *v) for v in rows])) == 2
        imgs = [tb.step(tb.embed(w, *v), True) for v in rows]
        assert len(seam_sides(tb, imgs)) == 2
        for x, forward, y in ((z, False, w), (w, True, z)):
            off, fail = tb.step_many(x, d, forward, y)
            assert fail is None
            assert off.tobytes() == scalar_rows(tb, x, d, forward, y).tobytes()

    def test_numpy_remainder_is_python_remainder(self):
        # the wrap and the offset fold take % in numpy, as Python's % did
        # in the scalar walk that the saved alphabets' digests came from:
        # both keep fmod's sign fix and return +0.0 on exact multiples
        for tb in (make_circle(), make_stadium(), make_sinai(), make_flower()):
            for loop in tb.loops:
                total = float(tb._loop_length[loop[0]])
                vals = [0.0, -0.0, total, -total, 2 * total, -3 * total,
                        total / 2.0, -total / 2.0, 1e-300, -1e-300, 5e-324,
                        -5e-324, math.nextafter(total, 0.0),
                        -math.nextafter(total, 0.0), 0.3, -0.3, 7.25, -7.25]
                vals += np.random.default_rng(1).normal(0, total, 200).tolist()
                got = np.array(vals) % total
                want = np.array([v % total for v in vals])
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, x, d, y, cls", [
        # the embedded angle passes pi/2
        ("stadium", PhasePoint(0, 0.5, 1.5), angle_sweep(0.0, 0.2),
         PhasePoint(2, 1.0, 0.0), DomainEscape),
        # a non-finite offset: an infinite dr walked the loop forever
        ("stadium", PhasePoint(0, 0.5, 0.1), rows_with((math.inf, 0.0)),
         PhasePoint(2, 1.0, 0.0), DomainEscape),
        ("stadium", PhasePoint(0, 0.5, 0.1), rows_with((math.nan, 0.0)),
         PhasePoint(2, 1.0, 0.0), DomainEscape),
        ("circle", PhasePoint(0, 0.5, 0.1), rows_with((0.0, math.nan)),
         PhasePoint(0, 1.0, 0.0), DomainEscape),
        # a finite dr longer than the loop: the walk never ended at 1e300
        ("stadium", PhasePoint(0, 0.5, 0.1), rows_with((1e300, 0.0)),
         PhasePoint(2, 1.0, 0.0), DomainEscape),
        ("flower", PhasePoint(0, 0.5, 0.1), rows_with((-1e300, 0.0)),
         PhasePoint(0, 1.0, 0.0), DomainEscape),
        # |cos theta| below GRAZING_COS_TOL at the start
        ("stadium", PhasePoint(0, 0.5, math.pi / 2 - 4e-8),
         angle_sweep(0.0, 6e-8), PhasePoint(2, 1.0, 0.0), GrazingCollision),
        # a near-tangent ray off the cap reaches the bottom wall tangentially
        ("stadium", PhasePoint(1, 1e-5, -math.pi / 2 + 1e-5),
         angle_sweep(-1e-7, 1e-7), PhasePoint(3, 1.5, 0.0), GrazingCollision),
        # the ray from (0.9, -1) sweeps over the square's corner (1, 1)
        ("sinai", PhasePoint(0, 1.9, math.atan(0.05)),
         angle_sweep(-2e-12, 2e-12), PhasePoint(1, 1.9, 0.0), CornerHit),
        # the sweep moves the image from the left wall onto the scatterer
        ("sinai", PhasePoint(0, 1.0, -0.6), angle_sweep(0.0, 0.4),
         PhasePoint(2, 1.0, 0.0), OutOfDomain),
    ], ids=["embed-angle", "inf-dr", "nan-dr", "nan-dtheta", "huge-dr",
            "huge-negative-dr", "grazing-start", "grazing-out", "corner",
            "other-loop"])
    def test_failing_row_matches_scalar_row(self, kind, x, d, y, cls):
        tb = MAKERS[kind]()
        off, fail = tb.step_many(x, d, True, y)
        k, err = first_scalar_failure(tb, x, d, True, y)
        assert 0 < k and type(err) is cls
        assert fail[0] == k and type(fail[1]) is cls
        assert str(fail[1]) == str(err)
        assert off[:k].tobytes() == scalar_rows(tb, x, d[:k], True, y).tobytes()
        assert np.isnan(off[k:]).all()

    def test_billiard_rows_stop_at_first_failure(self):
        st = make_stadium()
        x = PhasePoint(0, 0.5, 1.5)
        d = np.array([[0.0, 0.0], [0.0, 0.1], [0.0, 0.0]])  # row 1: angle > pi/2
        off, fail = st.step_many(x, d, True, st.step(x, True))
        assert fail[0] == 1 and isinstance(fail[1], DomainEscape)
        assert off[0].tobytes() == scalar_rows(st, x, d[:1], True,
                                               st.step(x, True))[0].tobytes()
        assert np.isnan(off[1:]).all()

    @pytest.mark.parametrize("forward", [True, False])
    def test_stadium_grid_matches_scalar_loop(self, forward):
        st, seg, sp, cha, chb = tame_stadium_pair()
        cx, cy = (cha, chb) if forward else (chb, cha)
        probe = _probe_halfwidth(cx)
        xs, U, V, J = _sample_grid(cx, cy, probe, probe / 16.0, math.inf,
                                   forward)
        Ur, Vr = reference_grid(cx, cy, probe, forward)
        assert U.tobytes() == Ur.tobytes()
        assert V.tobytes() == Vr.tobytes()
        assert J.tobytes() == reference_fd_jacobian(cx, cy, probe / 16.0,
                                                    forward).tobytes()

    def test_arc_roots_off_the_arc_take_no_atan2(self, monkeypatch):
        # trace_rays drops the arc roots whose hit lies outside the cone
        # about the arc's midpoint before their atan2; with the cone off
        # (an infinite margin) every root takes one, and the grid's bits
        # are the same either way
        st, seg, sp, cha, chb = tame_stadium_pair()
        probe = _probe_halfwidth(cha)
        math_map = accel._math_map
        rows = []

        def counting(f, *args):
            if f is math.atan2:
                rows.append(len(args[0]))
            return math_map(f, *args)

        monkeypatch.setattr(accel, "_math_map", counting)
        out = {}
        for margin in (accel._CONE_MARGIN, math.inf):
            monkeypatch.setattr(accel, "_CONE_MARGIN", margin)
            rows.clear()
            grids = [_sample_grid(cx, cy, probe, probe / 16.0, math.inf,
                                  forward)[1:]
                     for cx, cy, forward in ((cha, chb, True),
                                             (chb, cha, False))]
            out[margin] = (sum(rows), b"".join(a.tobytes() for g in grids
                                               for a in g))
        (cone_rows, cone_bytes), (all_rows, all_bytes) = out.values()
        assert cone_rows < all_rows
        assert cone_bytes == all_bytes

    def test_square_escape_before_failing_row_wins(self):
        n = GRID_N * GRID_N + 4
        off = np.zeros((n, 2))
        off[40] = (1e6, 0.0)  # grid node (1, 7), before the failing row
        cx, cy = row_fail_charts(off, (500, GrazingCollision("tangent")))
        xs = np.linspace(-0.1, 0.1, GRID_N)
        with pytest.raises(DomainEscape, match="leaves the target square") as ei:
            _sample_grid(cx, cy, 0.1, 0.01, 1.0, True)
        assert f"at v = ({xs[1]:.3e}, {xs[7]:.3e})" in str(ei.value)

    def test_failing_row_raises_when_earlier_rows_stay_inside(self):
        n = GRID_N * GRID_N + 4
        off = np.zeros((n, 2))
        off[501] = (1e6, 0.0)  # after the failing row: never read
        err = GrazingCollision("tangent")
        cx, cy = row_fail_charts(off, (500, err))
        with pytest.raises(DomainEscape,
                           match="map undefined inside probe square: tangent"
                           ) as ei:
            _sample_grid(cx, cy, 0.1, 0.01, 1.0, True)
        assert ei.value.__cause__ is err

    @pytest.mark.parametrize("k", [0, 7])
    @pytest.mark.parametrize("err", [OutOfDomain("across loops"),
                                     DomainEscape("embedded angle")])
    def test_failing_row_keeps_its_own_error(self, err, k):
        cx, cy = row_fail_charts(np.zeros((GRID_N * GRID_N + 4, 2)), (k, err))
        with pytest.raises(type(err)) as ei:
            _sample_grid(cx, cy, 0.1, 0.01, 1.0, True)
        assert ei.value is err

    def test_jacobian_rows_fail_after_the_grid_check(self):
        # the four Jacobian rows follow the grid in one batch: a failing
        # Jacobian row raises only when every grid row stays inside R[allow],
        # and the Jacobian rows themselves are not bounded by allow
        n_grid = GRID_N * GRID_N
        err = GrazingCollision("tangent")
        off = np.zeros((n_grid + 4, 2))
        off[40] = (1e6, 0.0)
        cx, cy = row_fail_charts(off, (n_grid + 1, err))
        with pytest.raises(DomainEscape, match="leaves the target square"):
            _sample_grid(cx, cy, 0.1, 0.01, 1.0, True)
        off[40] = (0.0, 0.0)
        with pytest.raises(DomainEscape,
                           match="map undefined inside probe square: tangent"
                           ) as ei:
            _sample_grid(cx, cy, 0.1, 0.01, 1.0, True)
        assert ei.value.__cause__ is err
        off[n_grid] = (1e6, 0.0)
        cx, cy = row_fail_charts(off, None)
        *_, J = _sample_grid(cx, cy, 0.1, 0.01, 1.0, True)
        assert J[0, 0] >= 1e6 / 0.02  # w = C^-1 off, and C shrinks


# ------------------------------------------------------------------- overlap
def test_map_step_refuses_an_undefined_step():
    p = PhasePoint(0, 0.3, math.pi / 2 - 1e-9)  # grazing
    with pytest.raises(DomainEscape, match="^map undefined inside probe "
                       "square: tangential collision from ") as ei:
        _map_step(make_circle(), p, True)
    assert isinstance(ei.value.__cause__, GrazingCollision)


class TestOverlap:
    def test_chart_overlaps_itself(self):
        fx, seg, sp, ch0, ch1 = fixture_charts()
        assert overlap_test(ch0, ch0)

    def test_rebuilt_chart_is_bitwise_reproducible(self):
        # determinism: the same segment yields the same chart data, so the
        # rebuilt chart overlaps the original exactly
        fx, seg, sp, ch0, ch1 = fixture_charts()
        again = chart_from_segment(seg, sp, CHI, CFG, CONSTS, at=0)
        assert overlap_test(ch0, again)

    def test_distinct_real_charts_never_overlap(self):
        # at real sizes the overlap bound (eta1 eta2)^4 ~ e^-2480 admits only
        # bitwise-equal chart data; consecutive charts differ
        fx, seg, sp, ch0, ch1 = fixture_charts()
        assert not overlap_test(ch0, ch1)

    def test_frames_apart_below_the_squares_range_do_not_overlap(self):
        # C differs in one entry by 1e-170, whose square underflows: the
        # frame distance reads 1e-170, not 0.0, so the two real-size charts
        # do not pass through the exact-zero short circuit
        fx, seg, sp, ch0, ch1 = fixture_charts()
        charts = []
        for entry in (0.0, 1e-170):
            C = ch0.frame.C.copy()
            C[0, 1] = entry
            charts.append(replace(ch0, frame=replace(ch0.frame, C=C)))
        a, b = charts
        assert a.frame.distance(b.frame) == b.frame.distance(a.frame) == 1e-170
        assert overlap_test(a, a)
        assert not overlap_test(a, b)

    def test_eta_ratio_gate(self):
        fx = make_linear_fixture()
        a = synthetic_chart(fx, PhasePoint(0, 0.0, 0.0), eta_expo=1)
        b = synthetic_chart(fx, PhasePoint(0, 0.0, 0.0), eta_expo=7)
        assert not overlap_test(a, b)

    def test_eta_must_not_exceed_q(self):
        fx = make_linear_fixture()
        eta = LatticeSize(1, 0.5)
        bad = PesinChart(fx, PhasePoint(0, 0.0, 0.0), minimal_frame(),
                         LatticeSize(7, 0.5), eta, 0.3)
        with pytest.raises(ValueError, match="eta"):
            overlap_test(bad, bad)

    def test_overlap_gate_admits_small_offset(self):
        # d = 0.05 passes the overlap gate
        fx = make_linear_fixture()
        a = synthetic_chart(fx, PhasePoint(0, 0.0, 0.0))
        b = synthetic_chart(fx, PhasePoint(0, 0.05, 0.0), rho=0.25)
        assert overlap_test(a, b)

    def test_overlap_gate_admits_wide_offset(self):
        # d = 0.2 still passes the overlap gate (< e^(-4/3))
        fx = make_linear_fixture()
        a = synthetic_chart(fx, PhasePoint(0, 0.0, 0.0))
        b = synthetic_chart(fx, PhasePoint(0, 0.2, 0.0), rho=0.1)
        assert overlap_test(a, b)

    def test_overlap_missing_beyond_gate(self):
        fx = make_linear_fixture()
        a = synthetic_chart(fx, PhasePoint(0, 0.0, 0.0))
        b = synthetic_chart(fx, PhasePoint(0, 0.27, 0.0), rho=0.03)
        assert not overlap_test(a, b)


# ------------------------------------------------------------------ greedy q
class TestGreedyQ:
    def test_delta_exponent_frozen(self):
        assert CFG.delta_exponent == 1383
        assert EpsilonConfig(0.05).delta_exponent == 180

    def test_matches_brute_force_window_minimum(self):
        rng = np.random.default_rng(0)
        d = CFG.delta_exponent
        for _ in range(3):
            expos = rng.integers(0, 5000, size=50)
            Qs = [LatticeSize(int(e), 0.01) for e in expos]
            gq = greedy_q(Qs, CFG)
            n = len(Qs)
            for i in range(n):
                bs = max(Qs[j].expo + d - 3 * (j - i) for j in range(i, n))
                bu = max(Qs[j].expo + d - 3 * (i - j) for j in range(i + 1))
                assert gq.qs[i].expo == bs
                assert gq.qu[i].expo == bu
                assert gq.q[i].expo == max(bs, bu)

    def test_constant_q_gives_delta_q(self):
        Qs = [LatticeSize(1000, 0.01)] * 9
        gq = greedy_q(Qs, CFG)
        assert all(q.expo == 1000 + 1383 for q in gq.q)

    def test_one_step_ratio_and_domination(self):
        rng = np.random.default_rng(5)
        Qs = [LatticeSize(int(e), 0.01)
              for e in rng.integers(0, 3000, size=40)]
        gq = greedy_q(Qs, CFG)
        d = CFG.delta_exponent
        for i in range(len(Qs)):
            assert gq.q[i] <= Qs[i].step(d)  # q below delta Q everywhere
            if i < len(Qs) - 1:  # e^(+-eps) steps, the window's ends too
                assert abs(gq.q[i + 1].expo - gq.q[i].expo) <= 3

    def test_single_dip_propagates_both_ways(self):
        expos = [100] * 11
        expos[5] = 4000
        Qs = [LatticeSize(e, 0.01) for e in expos]
        gq = greedy_q(Qs, CFG)
        want = [5368, 5371, 5374, 5377, 5380, 5383,
                5380, 5377, 5374, 5371, 5368]
        assert [q.expo for q in gq.q] == want

    def test_window_too_short(self):
        with pytest.raises(ValueError):
            greedy_q([LatticeSize(10, 0.01)], CFG)
