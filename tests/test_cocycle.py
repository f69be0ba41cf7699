"""Tests for orbit segments, splittings, s/u series, frames, and diagnostics.

Closed forms on the linear fixture anchor every quantity: with multipliers
(1/e, e) the stable/unstable directions are the axes, the one-step factors
are constant, and the weighted series sums to a geometric closed form
s^2 = u^2 = 2 / (1 - e^(2(chi-1))).  Billiard-table checks assert structural
identities (equivariance, the s-recursion, reduced-cocycle entries) rather
than orbit-specific numbers, because trajectories decorrelate across backends.
"""
from __future__ import annotations

import hashlib
import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction

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
    nuh_diagnostics,
    orbit_segment,
    oseledets_splitting,
    reduced_cocycle,
    s_u_parameters,
)
from pesin_coder.coding import gammas_from_segment
from pesin_coder.dynamics import (
    RegularityConstants,
    billiard_inverse,
    billiard_map,
    dist_to_discontinuity,
)
from pesin_coder.errors import (
    BoundViolated,
    DegenerateAngle,
    InequalityViolated,
    NotDiagonal,
    NotHyperbolic,
    OrbitHitsDiscontinuity,
    SeriesDiverging,
    SplittingNotConverged,
)
from pesin_coder.lattice import EpsilonConfig
from pesin_coder.tables import (
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
    p = seg.point(-seg.n_minus)
    _, _, _, taus, status, _ = run_orbit(
        table.rows, p.component, p.r, p.theta, len(seg) - 1)
    assert status == OK
    return np.array(taus)


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


# the splitting's seed row, as an array
SEED = np.array(cocycle._SEED)


def push(mats: np.ndarray, v: np.ndarray, inverse: bool = False,
         out: np.ndarray | None = None,
         full: np.ndarray | None = None) -> np.ndarray:
    """The push of the unit vector of v through every matrix of `mats`,
    with the step columns built for all of them; its last row."""
    return np.array(cocycle._push(cocycle._steps(mats, inverse),
                                  cocycle._unit(*v.tolist()), inverse,
                                  out=out, full=full))


# sha256 (first 16 hex digits) of e_s, e_u and the two convergence angles of
# the splittings of `pinned_segments`, pinned while the stable field was
# still pushed by its own backward loop
SPLITTING_PIN = "f92a90ee851a390a"


def pinned_segments():
    """Seeded segments of every table, with sides of both parities, and
    fixture segments with unequal sides."""
    for mk in (make_stadium, make_sinai, make_flower):
        table = mk()
        for seed, side in ((0, 200), (1, 201), (2, 60)):
            yield first_admitted(table, seed, side)[0]
    fx = make_linear_fixture()
    for n_minus, n_plus in ((390, 390), (23, 390), (390, 17)):
        yield orbit_segment(fx, PhasePoint(0, 1e-170, -1e-170), n_minus, n_plus)


# ------------------------------------------------------------ orbit segments
class TestOrbitSegment:
    def test_fixture_fixed_point_is_constant(self):
        fx, seg = fixture_segment()
        assert len(seg) == 81
        assert seg.point(0) == PhasePoint(0, 0.0, 0.0)
        assert all(seg.point(n) == seg.point(0) for n in range(-40, 41))
        assert [seg.rho(n) for n in range(-40, 41)] == [fx.half_width] * 81
        expected = np.array([[fx.lambda_s, 0.0], [0.0, fx.lambda_u]])
        assert np.array_equal(seg.derivs, np.broadcast_to(expected, (81, 2, 2)))
        # without rho the fixture refuses its distances, like a billiard
        bare = orbit_segment(fx, seg.point(0), 40, 40, with_rho=False)
        assert ((bare.comps, bare.rs, bare.thetas)
                == (seg.comps, seg.rs, seg.thetas))
        for n in (-40, 0, 40):
            for read in (bare.rho, bare.dist):
                with pytest.raises(ValueError,
                                   match="with_rho=False has no rho data"):
                    read(n)

    def test_fixture_escape_indices_are_signed(self):
        fx = make_linear_fixture()
        with pytest.raises(OrbitHitsDiscontinuity) as ei:
            orbit_segment(fx, PhasePoint(0, 0.0, 0.2), 0, 5)
        assert ei.value.n == 1
        with pytest.raises(OrbitHitsDiscontinuity) as ei:
            orbit_segment(fx, PhasePoint(0, 0.2, 0.0), 5, 0)
        assert ei.value.n == -1

    @pytest.mark.parametrize("mk, x", [
        (make_flower, PhasePoint(0, 0.5, 0.2)),
        (make_linear_fixture, PhasePoint(0, 1e-4, -1e-5)),
    ])
    def test_columns_read_as_the_points(self, mk, x):
        # the segment keeps columns; every way of reading a point gives the
        # bits of point(n), which are those of single map steps
        table = mk()
        seg = orbit_segment(table, x, 7, 9, with_rho=False)
        pts = [seg.point(n) for n in range(-7, 10)]
        assert len(seg) == len(seg.rs) == len(seg.thetas) == len(seg.comps) == 17

        def bits(p):
            return p.component, p.r.hex(), p.theta.hex()

        assert bits(seg.point(0)) == bits(pts[7]) == bits(x)
        assert [(c, r.hex(), th.hex()) for c, r, th in
                zip(seg.comps, seg.rs, seg.thetas)] == list(map(bits, pts))
        assert all(type(c) is int and type(r) is float and type(th) is float
                   for c, r, th in zip(seg.comps, seg.rs, seg.thetas))
        walk = [x]
        for _ in range(9):
            walk.append(table.step(walk[-1], True))
        back = [x]
        for _ in range(7):
            back.append(table.step(back[-1], False))
        assert list(map(bits, back[:0:-1] + walk)) == list(map(bits, pts))

    @pytest.mark.parametrize("window", [(2.5, 3), (3, math.nan), (3, math.inf),
                                        ("3", 3), (True, 3), (3, -1)])
    @pytest.mark.parametrize("mk", [make_flower, make_linear_fixture])
    def test_window_lengths_must_be_nonnegative_integers(self, mk, window):
        name = "n_plus" if window[0] == 3 else "n_minus"
        with pytest.raises(ValueError, match=f"^{name} must be a nonnegative "
                                             f"integer, got "):
            orbit_segment(mk(), PhasePoint(0, 0.01, 0.01), *window)

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
        assert seg.point(0) == PhasePoint(0, 0.0, 0.0)
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

    def test_with_rho_false_refuses_distances(self):
        # `dist` is the one refusal of a segment without rho: every step,
        # the padding ones included, raises instead of returning NaN, and
        # `rho` and its readers inherit it, warnings as errors
        st = make_stadium()
        rng = np.random.default_rng(4)
        p = st.liouville_sample(rng, 1)[0]
        seg = orbit_segment(st, p, 3, 3, with_rho=False)
        for n in range(-4, 5):
            with pytest.raises(ValueError, match=rf"^segment built with "
                               rf"with_rho=False has no rho data: no "
                               rf"distance to D at step {n}$"):
                seg.dist(n)
        for n in range(-3, 4):
            with pytest.raises(ValueError, match="has no rho data"):
                seg.rho(n)
        with pytest.raises(IndexError):
            seg.rho(4)  # a step off the segment is still an IndexError

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

    def test_splitting_is_bitwise_pinned(self):
        h = hashlib.sha256()
        for seg in pinned_segments():
            sp = oseledets_splitting(seg)
            h.update(sp.e_s.tobytes() + sp.e_u.tobytes())
            h.update((sp.convergence_angle_s.hex() + "|"
                      + sp.convergence_angle_u.hex()).encode())
        assert h.hexdigest()[:16] == SPLITTING_PIN

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

    @pytest.mark.parametrize("kind", ["flower", "stadium", "sinai", "fixture",
                                      "fixture_long"])
    def test_halved_push_lock_exit_is_bitwise_the_whole_push(self, kind):
        # a halved push stops at its first row with no zero entry bitwise
        # equal to the full push, up to sign, and returns the full push's
        # row at the base point: the bytes the whole halved push ends on
        if kind.startswith("fixture"):
            # on the long fixture both pushes reach rows with a 0 entry
            _, seg = fixture_segment(800 if kind == "fixture_long" else 40)
        else:
            table = {"flower": make_flower, "stadium": make_stadium,
                     "sinai": make_sinai}[kind]()
            seg, _ = first_admitted(table, 1, 200)
        locks = []
        angles = []
        for inverse, mats, full in halved_pushes(seg):
            rows = np.full((len(mats) + 1, 2), np.nan)
            whole = push(mats, SEED, inverse, out=rows)
            assert whole.tobytes() == push(
                mats, SEED, inverse).tobytes()
            taken = np.full((len(mats) + 1, 2), np.nan)
            got = push(mats, SEED, inverse, out=taken,
                       full=full)
            assert got.tobytes() == whole.tobytes()
            locks.append(any(rows[k].tobytes() == full[k].tobytes()
                             for k in range(1, len(rows))))
            # the exit is taken at the first row with no zero entry
            # equal up to sign, and the push writes the rows it computed
            exit_row = next((k for k in range(1, len(rows))
                             if rows[k].all() and rows[k].tobytes() in
                             (full[k].tobytes(), (-full[k]).tobytes())),
                            len(mats))
            assert np.isnan(taken[exit_row + 1:]).all()
            assert taken[:exit_row + 1].tobytes() \
                == rows[:exit_row + 1].tobytes()
            angles.append(cocycle._angle_between(full[-1], whole))
        sp = oseledets_splitting(seg)
        assert (sp.convergence_angle_u, sp.convergence_angle_s) == tuple(angles)
        if kind == "flower":
            assert locks == [True, True]  # both exits are taken
        if kind == "fixture":
            assert locks == [False, False]  # the whole push runs
        if kind == "fixture_long":
            assert locks == [True, True]  # equal rows, but with a 0 entry

    @pytest.mark.parametrize("order", ["window", "exponents", "descending"])
    @pytest.mark.parametrize("kind", ["stadium", "sinai", "flower", "fixture"])
    def test_any_order_of_reads_completes_to_the_eager_push(self, kind, order):
        # the fields are pushed on demand: frames near the base first, the
        # exponents' trimmed range first, or frames walking down from the
        # future end; every order gives the same frames and exponents and
        # completes to the bits of the eager numpy push
        if kind == "fixture":
            seg = orbit_segment(make_linear_fixture(),
                                PhasePoint(0, 1e-170, -1e-170), 390, 390)
            chi = 0.5
        else:
            table = {"stadium": make_stadium, "sinai": make_sinai,
                     "flower": make_flower}[kind]()
            seg = first_admitted(table, 4, 60)[0]
            chi = 0.05
        steps = {"window": range(-5, 7),
                 "descending": range(seg.n_plus, -seg.n_minus - 1, -1)}
        reads = {"window": ("window", "exponents", "descending"),
                 "exponents": ("exponents", "window", "descending"),
                 "descending": ("descending", "window", "exponents")}[order]
        frames = {}
        sp = oseledets_splitting(seg)
        for read in reads:
            if read == "exponents":
                est = lyapunov_exponents(seg, sp)
                continue
            for k in steps[read]:
                frames.setdefault(k, frame_at(seg, sp, chi, at=k))
        for got, want in zip((sp.e_s, sp.e_u, sp.factor_s, sp.factor_u),
                             reference_splitting(seg)):
            assert got.tobytes() == want.tobytes()
        eager = oseledets_splitting(seg)
        eager.e_s  # complete both pushes before any read
        assert est == lyapunov_exponents(seg, eager)
        for k, fr in frames.items():
            want = frame_at(seg, eager, chi, at=k)
            assert fr.C.tobytes() == want.C.tobytes()
            assert (fr.s_param, fr.u_param) == (want.s_param, want.u_param)

    def test_gamma_window_pushes_half_the_rows(self, monkeypatch):
        # each construction push runs _FIRST_CHUNK rows past the base point,
        # so a -4..4 window, which reads frames at -5..6 of a +-390 fixture
        # segment, pushes no further: about half of the 2 x 780 rows of two
        # whole pushes; the halved pushes slice the columns of the two
        # pushes, and the exponents extend each field to exactly the end of
        # their trimmed range, rows 78..701
        seg = orbit_segment(make_linear_fixture(),
                            PhasePoint(0, 1e-170, -1e-170), 390, 390)
        built = []
        for name in ("_product_steps", "_solve_steps"):
            build = getattr(cocycle, name)
            monkeypatch.setattr(cocycle, name, lambda mats, build=build:
                                built.append(len(mats)) or build(mats))
        sp = oseledets_splitting(seg)
        chunk = cocycle._FIRST_CHUNK
        assert built == [390 + chunk, 390 + chunk] == [406, 406]
        gammas_from_segment(seg, sp, 0.5, EpsilonConfig(0.01),
                            RegularityConstants(1.5, 0.5, 100), -4, 4)
        assert built == [406, 406]
        assert sum(built) <= 0.55 * 2 * (len(seg) - 1)
        lyapunov_exponents(seg, sp)
        lo, hi = 78, 780 - 1 - 78  # the trimmed range of 780 steps
        assert built == [406, 406, 374 - lo, hi - 406]
        sp.e_u  # the public arrays finish both pushes
        assert built[4:] == [lo, 780 - hi]
        assert sum(built) == 2 * (len(seg) - 1)

    @pytest.mark.parametrize("kind", ["flower", "stadium"])
    def test_negated_lock_keeps_the_halved_angles(self, kind):
        # a halved push also stops at a row bitwise equal to the negated
        # full push; the angle at the base point reads |cross|, so it is
        # the angle of the same push run without `full`
        table = {"flower": make_flower, "stadium": make_stadium}[kind]()
        negated = 0
        for seed in range(8):
            seg, _ = first_admitted(table, seed, 200)
            for inverse, mats, full in halved_pushes(seg):
                whole = push(mats, SEED, inverse)
                got = push(mats, SEED, inverse, full=full)
                assert cocycle._angle_between(full[-1], got).hex() \
                    == cocycle._angle_between(full[-1], whole).hex()
                negated += got.tobytes() == (-full[-1]).tobytes()
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
        # a singular step is out of the float path's range: its LU pivot u
        # is 0, so where np.linalg.solve raises LinAlgError the stable push
        # raises the typed error, and changes no numpy error setting
        derivs = np.array([np.diag([2.0, 0.5])] * 6)
        derivs[2] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            np.linalg.solve(derivs[2], SEED)
        before = np.geterr()
        out = np.empty((7, 2))[::-1] if with_out else None
        with pytest.raises(SplittingNotConverged,
                           match="^singular push step: LU pivots "):
            push(derivs[::-1], SEED, inverse=True, out=out)
        assert np.geterr() == before

    def test_singular_step_raises_from_the_splitting(self):
        # oseledets_splitting checks every derivative before it pushes
        fx = make_linear_fixture()
        derivs = np.array([np.diag([2.0, 0.5])] * 9)
        derivs[2] = [[1.0, 2.0], [2.0, 4.0]]
        seg = OrbitSegment(fx, 4, 4, [0] * 9, [0.0] * 9, [0.0] * 9, derivs)
        before = np.geterr()
        with pytest.raises(SplittingNotConverged,
                           match=r"^derivative at segment row 2 \(step -2\) is "
                                 r"singular or not finite: \[\[1\.0, 2\.0\], "
                                 r"\[2\.0, 4\.0\]\], det 0\.0$"):
            oseledets_splitting(seg)
        assert np.geterr() == before

    @pytest.mark.parametrize("bad", ["singular", "inf", "nan"])
    @pytest.mark.parametrize("side, row", [(8, 10), (40, 3)])
    def test_bad_derivative_raises_naming_its_row(self, bad, side, row):
        # a derivative that is singular or not finite, at a row that the
        # construction pushes cross (of a +-8 segment) or at one that only
        # the readers would reach (row 3 of a +-40 segment, below the
        # stable construction push and first met by the exponents' own
        # push), is refused by name before anything reads it; nothing raw
        # comes out of the splitting or its readers, warnings as errors
        n = 2 * side + 1
        derivs = np.array([np.diag([1e3, 1e-3])] * n)
        derivs[row] = {"singular": [[1.0, 2.0], [2.0, 4.0]],
                       "inf": [[math.inf, 0.0], [0.0, 1.0]],
                       "nan": [[1.0, math.nan], [0.0, 1.0]]}[bad]
        seg = OrbitSegment(make_linear_fixture(), side, side, [0] * n,
                           [0.0] * n, [0.0] * n, derivs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SplittingNotConverged,
                               match=f"^derivative at segment row {row} "
                                     f"\\(step {row - side}\\) "):
                sp = oseledets_splitting(seg)
                frames_along(seg, sp, 0.5, -side, side)
                lyapunov_exponents(seg, sp)
                sp.e_s
            # the last row's derivative, from the probe step, is read by
            # none of them
            derivs[row] = derivs[0]
            derivs[-1] = [[1.0, 2.0], [2.0, 4.0]]
            sp = oseledets_splitting(seg)
            frames_along(seg, sp, 0.5, -side, side)
            lyapunov_exponents(seg, sp)
            assert np.isfinite(sp.e_s).all()

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


# ------------------------------------------------------------ float pushes
def exact_fma(a: float, x: float, p: float) -> float:
    """a*x + p rounded once, from exact rationals: IEEE's fma on finite
    floats.  An exactly zero product keeps IEEE's signed zeros, and an exact
    cancellation is +0."""
    if a == 0.0 or x == 0.0:
        return a * x + p
    total = Fraction(a) * Fraction(x) + Fraction(p)
    try:
        return float(total) if total else 0.0
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def exact_unit(x: float, y: float) -> tuple[float, float]:
    s = math.sqrt(exact_fma(y, y, x * x))
    return x / s, y / s


def exact_step(m, x: float, y: float, inverse: bool) -> tuple[float, float]:
    """One push step by the formulas of the cocycle docstring, each fma from
    exact rationals."""
    (a, b), (c, d) = m
    if not inverse:
        return exact_unit(exact_fma(a, x, b * y) + 0.0,
                          exact_fma(c, x, d * y) + 0.0)
    p, q = x, y
    if abs(c) > abs(a):
        a, b, c, d, p, q = c, d, a, b, q, p
    l = c * (1.0 / a)
    u = d - l * b
    y2 = exact_fma(-l, p, q) / u
    return exact_unit(exact_fma(-b, y2, p) / a, y2)


def numpy_push(mats: np.ndarray, v: np.ndarray, inverse: bool) -> np.ndarray:
    """Every row of the push as numpy computes it: `np.matmul` or
    `np.linalg.solve`, under its own error settings, per step, over
    sqrt(w.dot(w))."""
    step = np.linalg.solve if inverse else np.matmul
    w = v / math.sqrt(v.dot(v))
    rows = [w]
    for M in mats:
        w = step(M, w)
        w /= math.sqrt(w.dot(w))
        rows.append(w)
    return np.array(rows)


def push_rows(rng, kind: str, n: int) -> np.ndarray:
    """n nonsingular 2x2 matrices of one kind."""
    if kind == "random":
        return rng.standard_normal((n, 2, 2)) \
            * np.exp(rng.uniform(-20.0, 20.0, (n, 1, 1)))
    if kind == "wide":  # past the float path's range: `_fma` steps
        return rng.standard_normal((n, 2, 2)) \
            * np.exp(rng.uniform(-300.0, 300.0, (n, 2, 2)))
    if kind == "diagonal":  # the row's small entry goes subnormal, then 0
        lam = math.exp(rng.uniform(0.5, 2.0))
        mats = np.zeros((n, 2, 2))
        mats[:, 0, 0], mats[:, 1, 1] = 1.0 / lam, lam
        return mats[:, ::-1, ::-1].copy() if rng.random() < 0.5 else mats
    if kind == "near_singular":  # second row nearly a multiple of the first
        mats = rng.standard_normal((n, 2, 2))
        mats[:, 1] = mats[:, 0] * rng.uniform(0.5, 2.0, (n, 1)) \
            + rng.standard_normal((n, 2)) \
            * np.exp(rng.uniform(-25.0, -10.0, (n, 1)))
        return mats
    mats = rng.standard_normal((n, 2, 2))  # "zeros"
    mats[rng.random((n, 2, 2)) < 0.3] = 0.0
    mats[np.linalg.det(mats) == 0.0] = np.eye(2)
    return mats


class TestFloatPush:
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("kind", ["random", "diagonal", "near_singular",
                                      "zeros", "wide"])
    def test_push_is_the_exact_fma_formulas(self, kind, inverse):
        # portable: on any IEEE platform the push computes the docstring's
        # formulas with each fma rounded once, on the float path and off it
        rng = np.random.default_rng(["random", "diagonal", "near_singular",
                                     "zeros", "wide"].index(kind))
        mats = push_rows(rng, kind, 800 if kind == "diagonal" else 300)
        on_path = cocycle._steps(mats, inverse)[0]
        if kind == "wide":  # steps off the float path take `_fma` alone
            assert not all(on_path)
        else:
            assert all(on_path)  # every step takes the float path
        for v in (SEED, -SEED,
                  rng.standard_normal(2) * 1e-30):
            rows = np.empty((len(mats) + 1, 2))
            push(mats, v, inverse, out=rows)
            x, y = exact_unit(*v.tolist())
            want = [(x, y)]
            for m in mats.tolist():
                x, y = exact_step(m, x, y, inverse)
                want.append((x, y))
            assert rows.tobytes() == np.array(want).tobytes()
        if kind == "diagonal":  # the tails went subnormal, then to 0
            small = np.abs(rows).min(axis=1)
            assert np.count_nonzero((0.0 < small) & (small < 2.0 ** -1022)) > 10
            assert (small == 0.0).any()

    def test_singular_steps_and_zero_rows_raise(self):
        # a singular solve step off the float path (a zero LU pivot), a
        # product that maps the row to 0 and one whose norm overflows each
        # raise the typed error, as does a row whose norm is 0 or not finite
        pivot_zero = np.array([[[0.0, 1.0], [0.0, 1.0]]])
        assert cocycle._steps(pivot_zero, True)[0] == [False]
        with pytest.raises(SplittingNotConverged,
                           match="^singular push step: LU pivots 0.0 and "):
            push(pivot_zero, SEED, inverse=True)
        rank_one = np.array([[[1.0, -1.0], [2.0, -2.0]]])
        assert cocycle._steps(rank_one, False)[0] == [True]
        with pytest.raises(SplittingNotConverged,
                           match=r"^push row \(0\.0, 0\.0\) has norm 0\.0"):
            push(rank_one, np.array([1.0, 1.0]))
        huge = np.full((1, 2, 2), 1e300)
        assert cocycle._steps(huge, False)[0] == [False]
        with pytest.raises(SplittingNotConverged, match="has norm inf"):
            push(huge, SEED)
        for row in ((0.0, 0.0), (math.inf, 1.0), (math.nan, 1.0)):
            with pytest.raises(SplittingNotConverged, match="has norm"):
                cocycle._unit(*row)

    def test_seed_is_a_unit_row(self):
        # the pushes start from the seed as it is: `_unit` keeps its bits
        assert cocycle._unit(*cocycle._SEED) == cocycle._SEED == (0.6, 0.8)

    def test_fma_is_exact(self):
        edge = [0.0, -0.0, 1.5, -2.25, 0.1, 3.0 * 2.0 ** -1074, -5e-324,
                -1e-310, 1e-200, -3e-170, 3.3e-160, 2.0 ** -1017, 1e150,
                -1e300, 1.7e308]
        triples = [(a, x, p) for a in edge for x in edge for p in edge]
        rng = np.random.default_rng(2)
        for top in (60, 1100):
            triples += (rng.standard_normal((10000, 3)) * np.exp2(
                rng.integers(-top, min(top, 1000), (10000, 3)))).tolist()
        for a, x, p in triples:
            assert cocycle._fma(a, x, p).hex() == exact_fma(a, x, p).hex(), \
                (a, x, p)
        # non-finite operands follow IEEE
        inf = math.inf
        assert cocycle._fma(inf, 2.0, 1.0) == inf
        assert math.isnan(cocycle._fma(inf, 0.0, 1.0))
        assert math.isnan(cocycle._fma(inf, 1.0, -inf))
        assert cocycle._fma(1e300, 1e10, -inf) == -inf  # a*x alone overflows
        assert cocycle._fma(1e300, 1e10, -1e308) == inf

    def test_push_is_bitwise_the_numpy_loop(self):
        # this pins the platform's kernels, not only the formulas: with
        # numpy 2.4 and OpenBLAS 0.3.31 on x86-64 with FMA, np.matmul,
        # ndarray.dot and the LAPACK solve round as the fma formulas do; a
        # BLAS that rounds otherwise fails here and nowhere above
        rng = np.random.default_rng(17)
        pushes = [push_rows(rng, "random", 20000)]
        pushes += [push_rows(rng, kind, 400) for kind in
                   ("wide", "diagonal", "near_singular", "zeros")]
        for mats in pushes:
            for inverse in (False, True):
                rows = np.empty((len(mats) + 1, 2))
                push(mats, SEED, inverse, out=rows)
                want = numpy_push(mats, SEED, inverse)
                assert rows.tobytes() == want.tobytes()


def fix_sign_row(v: np.ndarray) -> np.ndarray:
    """The orientation rule one row at a time: first nonzero coordinate
    positive."""
    if v[0] != 0.0:
        return v if v[0] > 0 else -v
    return v if v[1] > 0 else -v


def halved_pushes(seg: OrbitSegment):
    """(inverse, matrices, full push aligned row for row) of the
    halved-window pushes of the unstable and the stable field, as
    `oseledets_splitting` runs them."""
    D, n, base = seg.derivs, len(seg), seg.n_minus
    e_u = np.empty((n, 2))
    e_s = np.empty((n, 2))
    lo = base - seg.n_minus // 2
    hi = base + seg.n_plus - seg.n_plus // 2
    push(D[:n - 1], SEED, out=e_u)
    push(D[:n - 1][::-1], SEED, inverse=True, out=e_s[::-1])
    return ((False, D[lo:base], e_u[lo:base + 1]),
            (True, D[base:hi][::-1], e_s[base:hi + 1][::-1]))


def reference_splitting(seg: OrbitSegment):
    """(e_s, e_u, factor_s, factor_u) from pushes normalised with
    np.linalg.norm and a per-row sign fix."""
    n = len(seg)
    derivs = seg.derivs
    e_u = np.empty((n, 2))
    e_s = np.empty((n, 2))
    w = SEED / np.linalg.norm(SEED)
    e_u[0] = w
    for i in range(n - 1):
        w = derivs[i] @ w
        w /= np.linalg.norm(w)
        e_u[i + 1] = w
    w = SEED / np.linalg.norm(SEED)
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
                               [0] * n, [0.0] * n, [0.0] * n, derivs)
            # fields pushed on demand, with no convergence check
            sp = cocycle.Splitting(cocycle._Field(derivs, True),
                                   cocycle._Field(derivs, False), 0.0, 0.0)
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

    @pytest.mark.parametrize("chi", [math.nan, 0.0, -1.0])
    def test_chi_that_is_not_positive_is_named(self, chi):
        # a NaN chi would sum the whole segment and fail in build_frame
        _, seg = fixture_segment(n=20)
        sp = oseledets_splitting(seg)
        for read in (s_u_parameters, frame_at):
            with pytest.raises(ValueError,
                               match=rf"^chi must be positive, got chi={chi!r}$"):
                read(seg, sp, chi, at=0)

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
        assert math.sqrt(np.sum(fr.C * fr.C)) == pytest.approx(1.0, abs=1e-15)
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
            assert math.sqrt(np.sum(fr.C * fr.C)) <= 1.0 + 1e-12

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

    def test_frame_identity_breaks_raise_bound_violated(self):
        # sinai witness: the closed form of ||C^-1||_F and the direct
        # inverse differ by more than 1e-10 of it in the first frame of the
        # window, at both chi
        table = make_sinai(scatterer_radius=0.6364995317549043)
        x = PhasePoint(1, float.fromhex("0x1.149c2807aa328p-3"),
                       float.fromhex("0x1.5973a83c3968dp-7"))
        seg = orbit_segment(table, x, 60, 60)
        sp = oseledets_splitting(seg)
        for chi in (0.3, 0.472):
            with pytest.raises(BoundViolated, match="closed form") as err:
                gammas_from_segment(seg, sp, chi, EpsilonConfig(0.01),
                                    RegularityConstants(1.5, 0.5, 100), -6, 6)
            assert err.value.measured > err.value.allowed > 1e-10
        # directions pass as unit vectors to within 1e-9, so ||C||_F can
        # exceed 1 while the identity holds
        with pytest.raises(BoundViolated, match=r"^\|\|C\|\|_F - 1") as err:
            build_frame(np.array([1.0 + 1e-10, 0.0]), np.array([0.0, 1.0]),
                        math.sqrt(2.0), math.sqrt(2.0), 0.5)
        assert err.value.measured > err.value.allowed == 1e-12

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

    def test_non_finite_inputs_are_named(self):
        # a NaN direction passed the unit check and an infinite s or u the
        # sqrt(2) floor; both then divided by zero inside build_frame
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        with pytest.raises(ValueError,
                           match=r"^frame direction e_u must be finite, "
                                 r"got \(0\.0, nan\)$"):
            build_frame([1, 0], [0, math.nan], 2, 2, 0.5)
        with pytest.raises(ValueError, match=r"^frame direction e_s must be "
                                             r"finite, got \(inf, 0\.0\)$"):
            build_frame([math.inf, 0.0], e2, 2.0, 2.0, 0.5)
        for s, u, name in ((math.inf, 2.0, "s_param"), (2.0, -math.inf, "u_param"),
                           (math.nan, 2.0, "s_param")):
            with pytest.raises(ValueError, match=rf"^{name} must be finite, "):
                build_frame(e1, e2, s, u, 0.5)

    def test_singular_c_is_a_bound_violation(self):
        # s = u = 1e200 make det C = pt - qr underflow to 0, so the direct
        # ||C^-1||_F divided by zero; at 1e160 the gap check already fails
        e1, e2 = [1.0, 0.0], [0.0, 1.0]
        with pytest.raises(BoundViolated, match="closed form") as err:
            build_frame(e1, e2, 1e200, 1e200, 0.5)
        assert err.value.measured == math.inf
        assert err.value.allowed == 1e-10 * math.hypot(1e200, 1e200)
        with pytest.raises(BoundViolated, match="closed form") as err:
            build_frame(e1, e2, 1e160, 1e160, 0.5)
        assert err.value.allowed < err.value.measured < math.inf

    def test_alpha_that_rounds_to_zero_is_degenerate(self):
        # |sin alpha| = 1e-10 passes DEGENERATE_SIN, but e_s . e_u rounds to
        # 1, so alpha = 0 and the closed form of ||C^-1||_F divided by zero
        e_u = np.array([math.cos(1e-10), math.sin(1e-10)])
        with pytest.raises(DegenerateAngle, match="rounds to 0"):
            build_frame(np.array([1.0, 0.0]), e_u, 2.0, 2.0, 0.5)


# ------------------------------------------------------------- frame pass
def weighted_series(expansions, chi: float) -> tuple[float, int]:
    """The scalar loop of the s/u series that `frames_along` sums in one
    pass: sum of e^(2 n chi) * (prod of expansion factors up to n)^2 for
    n >= 0, the n = 0 term 1, with a weight past `math.exp`'s range taken
    as inf.  It stops after SERIES_MAX_TERMS terms, read at call time, and
    raises SeriesDiverging on a partial sum that is not <= SERIES_SUM_CAP.
    Returns the partial sum and the number of terms."""
    partial = 1.0
    c = 1.0  # running ||df^n e||
    n = 0
    for g in expansions:
        n += 1
        c *= g
        try:
            weight = math.exp(2.0 * n * chi)
        except OverflowError:
            weight = math.inf
        term = weight * c * c
        partial += term
        if not partial <= cocycle.SERIES_SUM_CAP:
            raise SeriesDiverging(
                f"partial sum {partial:.3e} exceeds cap "
                f"{cocycle.SERIES_SUM_CAP:.1e} after {n} terms "
                f"(chi={chi} too large here)")
        if term < cocycle.SERIES_TERM_CUTOFF * partial:
            break
        if n >= cocycle.SERIES_MAX_TERMS:
            break
    return partial, n


def reference_frame(seg: OrbitSegment, sp, chi: float, at: int):
    """The frame at `at` from the scalar series loop over the completed
    one-step factors, then `build_frame`; 1/0 is inf, as in numpy."""
    i = seg.index(at)
    ssum, _ = weighted_series(sp.factor_s[i:].tolist(), chi)
    usum, _ = weighted_series(
        (1.0 / g if g else math.inf for g in sp.factor_u[i - 1::-1].tolist())
        if i > 0 else (), chi)
    return build_frame(sp.e_s[i], sp.e_u[i], math.sqrt(2.0 * ssum),
                       math.sqrt(2.0 * usum), chi)


def frame_bits(fr) -> tuple:
    return (fr.e_s.tobytes(), fr.e_u.tobytes(), fr.alpha, fr.s_param,
            fr.u_param, fr.C.tobytes(), fr.chi)


def reference_window(seg: OrbitSegment, sp, chi: float, lo: int, hi: int):
    """(frame bits of lo..hi, None), or (frame bits before the first step
    that raises, that step and the class and message it raises), frames
    built one step at a time.  A window that leaves the segment raises
    IndexError at lo, before any frame."""
    bits = []
    try:
        seg.index(lo), seg.index(hi)
    except IndexError as err:
        return bits, (lo, IndexError, str(err))
    for m in range(lo, hi + 1):
        try:
            bits.append(frame_bits(reference_frame(seg, sp, chi, m)))
        except Exception as err:  # each error is compared, not handled
            return bits, (m, type(err), str(err))
    return bits, None


def assert_pass_is_the_reference(seg: OrbitSegment, chi: float, lo: int,
                                 hi: int):
    """frames_along on a fresh splitting gives the reference's frames, or
    raises its error after passing every step before it; returns the
    reference's error, if any."""
    want, err = reference_window(seg, oseledets_splitting(seg), chi, lo, hi)
    if err is None:
        got = frames_along(seg, oseledets_splitting(seg), chi, lo, hi)
        assert [frame_bits(fr) for fr in got] == want
        return None
    with pytest.raises(err[1]) as raised:
        frames_along(seg, oseledets_splitting(seg), chi, lo, hi)
    assert str(raised.value) == err[2]
    if err[0] > lo:
        got = frames_along(seg, oseledets_splitting(seg), chi, lo, err[0] - 1)
        assert [frame_bits(fr) for fr in got] == want
    return err


class TestFramePass:
    @pytest.mark.parametrize("kind", ["stadium", "sinai", "flower", "fixture"])
    def test_frames_are_bitwise_the_scalar_reference(self, kind):
        # seeded windows of every builder table with a splitting, and of
        # the fixture, at chi below and above their exponents; each
        # raises, if it does, as the steps one at a time would
        rng = np.random.default_rng(11)
        if kind == "fixture":
            segs = [orbit_segment(make_linear_fixture(),
                                  PhasePoint(0, 1e-170, -1e-170), n, n)
                    for n in (40, 390)]
        else:
            table = {"stadium": make_stadium, "sinai": make_sinai,
                     "flower": make_flower}[kind]()
            segs = [first_admitted(table, seed, 60)[0] for seed in (0, 1)]
        for seg in segs:
            for chi in (0.05, 0.3, 0.472, 0.9):
                lo = int(rng.integers(-seg.n_minus, 0))
                hi = int(rng.integers(0, seg.n_plus + 1))
                # the whole +-390 fixture segment is 1562 series rows, so
                # _SERIES_ENTRIES holds its first block to 41 terms
                for window in ((lo, hi), (-7, 8), (-seg.n_minus, seg.n_plus)):
                    assert_pass_is_the_reference(seg, chi, *window)

    @pytest.mark.parametrize("kind", ["stadium", "sinai", "flower", "fixture"])
    def test_gamma_window_frames_are_the_reference(self, kind):
        # each gamma carries the frames at its step and both neighbours
        if kind == "fixture":
            seg = orbit_segment(make_linear_fixture(),
                                PhasePoint(0, 1e-170, -1e-170), 390, 390)
        else:
            table = {"stadium": make_stadium, "sinai": make_sinai,
                     "flower": make_flower}[kind]()
            x = first_admitted(table, 0, 60)[0].point(0)
            seg = orbit_segment(table, x, 60, 60)
        gammas = gammas_from_segment(seg, oseledets_splitting(seg), 0.05,
                                     EpsilonConfig(0.01),
                                     RegularityConstants(1.5, 0.5, 100), -6, 6)
        want, err = reference_window(seg, oseledets_splitting(seg), 0.05,
                                     -7, 7)
        assert err is None
        assert [frame_bits(g.frame) for g in gammas] == want[1:-1]
        assert [frame_bits(fr) for g in gammas for fr in g.frames[::2]] == [
            b for k in range(1, 14) for b in (want[k - 1], want[k + 1])]

    def test_long_series_runs_on_in_a_second_block(self):
        # at chi = 0.9 the fixture's terms shrink by e^-0.2 a step, so each
        # series runs about 160 terms, past the first block
        seg = orbit_segment(make_linear_fixture(),
                            PhasePoint(0, 1e-170, -1e-170), 390, 390)
        sp = oseledets_splitting(seg)
        _, terms = weighted_series(sp.factor_s[seg.index(0):].tolist(), 0.9)
        assert terms > 2 * cocycle._SERIES_BLOCK
        assert_pass_is_the_reference(seg, 0.9, -5, 6)

    def test_term_cap_is_read_at_call_time(self, monkeypatch):
        seg = orbit_segment(make_linear_fixture(),
                            PhasePoint(0, 1e-170, -1e-170), 40, 40)
        monkeypatch.setattr(cocycle, "SERIES_MAX_TERMS", 5)
        assert_pass_is_the_reference(seg, 0.9, -40, 40)
        # and so does the one-point window of s_u_parameters
        sp = oseledets_splitting(seg)
        for m in (-40, 36, 40):
            want, terms = weighted_series(sp.factor_s[seg.index(m):].tolist(),
                                          0.9)
            assert terms == min(5, 40 - m)
            assert s_u_parameters(seg, sp, 0.9, at=m).s == math.sqrt(2.0 * want)

    @pytest.mark.parametrize("n_minus, n_plus, chi, lo, hi, error", [
        (200, 200, 2.0, -10, 10, SeriesDiverging),  # at the first step
        (60, 150, 2.0, 40, 80, SeriesDiverging),  # later, in a second block
        (100, 390, 1.1, 215, 230, SeriesDiverging),  # math.exp overflows
        (40, 40, 400.0, -3, 3, SeriesDiverging),  # at the first term
        (40, 40, 0.5, 38, 45, IndexError),  # past the segment's end
        (40, 40, 0.5, -45, -38, IndexError),  # before its start
    ])
    def test_first_error_is_the_reference_error(self, n_minus, n_plus, chi,
                                                lo, hi, error):
        seg = orbit_segment(make_linear_fixture(),
                            PhasePoint(0, 1e-170, -1e-170), n_minus, n_plus)
        err = assert_pass_is_the_reference(seg, chi, lo, hi)
        assert err is not None and err[1] is error
        if error is IndexError:  # named up front, before any frame
            assert err[0] == lo
            named = hi if hi > n_plus else lo
            assert err[2].startswith(f"step {named} outside")

    def test_frame_error_comes_at_its_step(self):
        # the sinai witness of test_frame_identity_breaks_raise_bound_violated
        table = make_sinai(scatterer_radius=0.6364995317549043)
        x = PhasePoint(1, float.fromhex("0x1.149c2807aa328p-3"),
                       float.fromhex("0x1.5973a83c3968dp-7"))
        seg = orbit_segment(table, x, 60, 60)
        err = assert_pass_is_the_reference(seg, 0.3, -12, 8)
        assert err[1] is BoundViolated and err[0] > -12

    def test_zero_factor_raises_where_the_loop_divides(self):
        # 1/0 = inf at the first u term that reads the zero factor, so the
        # partial sum is not <= the cap there
        seg = orbit_segment(make_linear_fixture(),
                            PhasePoint(0, 1e-170, -1e-170), 40, 40)
        want = oseledets_splitting(seg)
        got = oseledets_splitting(seg)
        for sp in (want, got):
            sp.factor_u[seg.index(3)] = 0.0
        bits, err = reference_window(seg, want, 0.5, -2, 8)
        assert err == (4, SeriesDiverging, "partial sum inf exceeds cap "
                       "1.0e+100 after 1 terms (chi=0.5 too large here)")
        with pytest.raises(SeriesDiverging, match=f"^{re.escape(err[2])}$"):
            frames_along(seg, got, 0.5, -2, 8)
        assert [frame_bits(fr) for fr in frames_along(seg, got, 0.5, -2, 3)] == bits

    def test_nan_factor_stops_where_the_loop_reads_it(self):
        # a NaN partial sum is not <= the cap: the s series at step 2 reads
        # the NaN factor at step 5 as its fourth term
        seg = orbit_segment(make_linear_fixture(),
                            PhasePoint(0, 1e-170, -1e-170), 40, 40)
        want = oseledets_splitting(seg)
        got = oseledets_splitting(seg)
        for sp in (want, got):
            sp.factor_s[seg.index(5)] = math.nan
        bits, err = reference_window(seg, want, 0.5, 2, 8)
        assert err == (2, SeriesDiverging, "partial sum nan exceeds cap "
                       "1.0e+100 after 4 terms (chi=0.5 too large here)")
        with pytest.raises(SeriesDiverging, match=f"^{re.escape(err[2])}$"):
            frames_along(seg, got, 0.5, 2, 8)

    def test_window_past_the_end_builds_nothing(self):
        # the window is checked against the segment before any push
        seg = orbit_segment(make_linear_fixture(),
                            PhasePoint(0, 1e-170, -1e-170), 40, 40)
        sp = oseledets_splitting(seg)
        ends = sp._stable.end, sp._unstable.end
        with pytest.raises(IndexError, match=r"^step 45 outside \[-40, 40\]$"):
            frames_along(seg, sp, 0.5, -38, 45)
        assert (sp._stable.end, sp._unstable.end) == ends

    def test_weight_overflow_below_the_exponent_is_typed(self):
        # chi = 0.99 is below the fixture's exponent 1, but e^(2n chi)
        # leaves the float range at term 359, before the terms fall below
        # the cutoff: every user path raises SeriesDiverging there
        seg = orbit_segment(make_linear_fixture(), PhasePoint(0, 0.0, 0.0),
                            400, 400)
        msg = "^" + re.escape("partial sum inf exceeds cap 1.0e+100 after "
                              "359 terms (chi=0.99 too large here)") + "$"
        with pytest.raises(SeriesDiverging, match=msg):
            frames_along(seg, oseledets_splitting(seg), 0.99, -4, 4)
        with pytest.raises(SeriesDiverging, match=msg):
            gammas_from_segment(seg, oseledets_splitting(seg), 0.99,
                                EpsilonConfig(0.01),
                                RegularityConstants(1.5, 0.5, 100), -4, 4)
        with pytest.raises(SeriesDiverging, match=msg):
            s_u_parameters(seg, oseledets_splitting(seg), 0.99, at=0)
        assert_pass_is_the_reference(seg, 0.99, -4, 4)

    @pytest.mark.parametrize("kind", ["stadium", "fixture"])
    def test_blocks_move_no_bit(self, kind, monkeypatch):
        # one-term first blocks and at most 8 entries a block: every block
        # boundary falls somewhere else, and the bits stay the reference's
        monkeypatch.setattr(cocycle, "_SERIES_BLOCK", 1)
        monkeypatch.setattr(cocycle, "_SERIES_ENTRIES", 8)
        if kind == "fixture":
            seg = orbit_segment(make_linear_fixture(),
                                PhasePoint(0, 1e-170, -1e-170), 60, 60)
        else:
            seg = first_admitted(make_stadium(), 0, 60)[0]
        rng = np.random.default_rng(5)
        for chi in (0.05, 0.3, 0.9):
            lo = int(rng.integers(-seg.n_minus, 0))
            hi = int(rng.integers(0, seg.n_plus + 1))
            for window in ((lo, hi), (-seg.n_minus, seg.n_plus)):
                assert_pass_is_the_reference(seg, chi, *window)

    def test_empty_window_reads_nothing(self):
        _, seg = fixture_segment(n=20)
        sp = oseledets_splitting(seg)
        assert frames_along(seg, sp, math.nan, 30, 29) == []


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

    def test_refuses_a_segment_without_rho(self):
        # the segment's rho refuses, so no margin could be taken
        seg = orbit_segment(make_linear_fixture(), PhasePoint(0, 0.0, 0.0),
                            40, 40, with_rho=False)
        sp = oseledets_splitting(seg)
        frames = frames_along(seg, sp, 0.5, -5, 5)
        with pytest.raises(ValueError, match="with_rho=False has no rho"):
            c_inverse_growth_check(seg, frames, -5, a=1.5)

    def test_nuh_diagnostics_refuses_a_segment_without_rho(self):
        # a segment without rho gives no reg_slope rather than a NaN one;
        # with rho = 0.3 everywhere the slope is |log 0.3| over the nearest
        # far step, |n| = 17 // 4 = 4
        fx, seg = fixture_segment()
        frames = frames_along(seg, oseledets_splitting(seg), 0.5, -8, 8)
        rep = nuh_diagnostics(seg, frames, -8)
        assert rep["reg_slope"] == pytest.approx(-math.log(0.3) / 4,
                                                 rel=1e-15)
        bare = orbit_segment(fx, seg.point(0), 40, 40, with_rho=False)
        with pytest.raises(ValueError, match="with_rho=False has no rho"):
            nuh_diagnostics(bare, frames, -8)

    def test_nan_margin_fails(self):
        # a NaN ||C^-1|| makes the margin NaN, which fails the bound
        _, seg = fixture_segment()
        sp = oseledets_splitting(seg)
        frames = frames_along(seg, sp, 0.5, -10, 10)
        frames[3] = replace(frames[3], s_param=math.nan)
        with pytest.raises(InequalityViolated, match="log-margin nan") as ei:
            c_inverse_growth_check(seg, frames, -10, a=1.5)
        assert ei.value.witness == -7


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
            comps=[0] * 21, rs=[p.r for p in pts[1:-1]], thetas=[0.0] * 21,
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
