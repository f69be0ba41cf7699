"""Local linearizing charts, their size functions, and chart-coordinate maps.

A chart at x sends v in the square R[eta] = [-eta, eta]^2 to x + C(x) v in
component coordinates (arclength, angle).  The size Q(x) comes from a pinching
formula in ||C^-1||, ||C(fx)^-1|| and the singularity distance rho(x), floored
to the exact lattice of module `lattice`.

Scale note, central to the whole module: the size formula carries exponents
like 24/beta and 72a/beta, so even the smallest possible frame norm
(||C^-1|| = 2) gives Q <= eps^(3/beta) 2^(-24/beta) ~ 3.5e-27 at eps = 0.01,
beta = 1/2, and realistic billiard values sit at e^-300 and below.  Sizes are
therefore never trusted as floats: all size arithmetic is exact integer lattice
work, all comparisons against analog quantities run in log space, and the
geometric sampling of chart-coordinate maps happens on a probe square of
half-width max(10 Q, PROBE_FLOOR) — the smallest scale at which float
finite differences still resolve the map.  Norm bounds are asserted at the
sampled scale; the grid estimators are lower bounds on the analytic norms.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .cocycle import HyperbolicFrame, OrbitSegment, Splitting, frame_at, reduced_cocycle
from .dynamics import (RegularityConstants, billiard_inverse, billiard_map,
                       operator_norm)
from .errors import (
    BoundViolated,
    DomainEscape,
    MapUndefined,
    OverlapMissing,
)
from .lattice import EpsilonConfig, LatticeSize
from .tables import PhasePoint

__all__ = [
    "PesinChart",
    "ChartMapDecomposition",
    "GreedyQ",
    "PROBE_FLOOR",
    "GRID_N",
    "q_tilde_log",
    "compute_Q",
    "build_pesin_chart",
    "chart_from_segment",
    "chart_apply",
    "chart_invert",
    "chart_map_fxy",
    "overlap_test",
    "greedy_q",
    "holder_quotients",
]

# smallest half-width at which chart-coordinate maps are grid-sampled; below
# it, float cancellation in x + Cv wipes out the displacement entirely
PROBE_FLOOR = 1e-6
# probe squares larger than this fraction of rho(x) risk crossing the
# singularity set during sampling
PROBE_RHO_FRACTION = 1e-2
# grid resolution for h-field sampling (odd, so v = 0 is a grid node)
GRID_N = 33
# resolution of the overlap precondition between a mapped center and the
# next chart center: one map/inverse-map float round trip leaves ~1e-16 of
# displacement, so distances below this floor are measured zeros, while any
# genuinely distinct collision pair sits far above it
OVERLAP_DISTANCE_FLOOR = 1e-9


# ------------------------------------------------------------------- types
@dataclass(frozen=True)
class PesinChart:
    """Chart data at one orbit point: frame, exact size, domain half-width."""

    table: object
    x: PhasePoint
    frame: HyperbolicFrame
    Q: LatticeSize
    eta: LatticeSize
    rho_x: float

    @property
    def eps(self) -> float:
        return self.Q.eps


@dataclass(frozen=True)
class ChartMapDecomposition:
    """Sampled chart-coordinate map w = (A v1 + h1(v), B v2 + h2(v)).

    All norms are measured on the probe square R[probe].  The analytic A, B
    (from df and the frames) are checked against the finite-difference
    derivative at 0 whenever its noise is below a tenth of the
    hyperbolicity gap, to catch a linear part the sampled map lacks.
    `holder_const` and `holder_half` are the Holder quotients of grad h at
    exponents beta/3 (the edge bound) and beta/2 (the one-step bound), and
    `df_sup` is the largest closed-form operator norm of the sampled
    Jacobian (grad U, grad V).  `sup_h`, `grad_sup`, the Holder quotients
    and `df_sup` are read from one stacked array of (h1, h2, U, V) and its
    one gradient (`_decompose`); a NaN sample makes them NaN, which fails
    every bound on them.
    """

    A: float
    B: float
    probe: float
    h0: tuple[float, float]
    grad0: np.ndarray
    grad_h0: float
    sup_h: float
    grad_sup: float
    holder_const: float
    holder_half: float
    df_sup: float


@dataclass(frozen=True)
class GreedyQ:
    """Windowed size sequences: the one-sided mins and their meet."""

    qs: tuple[LatticeSize, ...]
    qu: tuple[LatticeSize, ...]
    q: tuple[LatticeSize, ...]


# ------------------------------------------------------------ size function
def q_tilde_log(frame_x: HyperbolicFrame, frame_fx: HyperbolicFrame,
                rho_x: float, cfg: EpsilonConfig,
                consts: RegularityConstants) -> float:
    """log of the un-floored chart size; the value itself underflows."""
    if not rho_x > 0.0:
        raise ValueError(f"rho must be positive, got {rho_x}")
    b = consts.beta
    t1 = -(24.0 / b) * math.log(frame_x.c_inv_frob)
    t2 = (-(12.0 / b) * math.log(frame_fx.c_inv_frob)
          + (72.0 * consts.a / b) * math.log(rho_x))
    return (3.0 / b) * math.log(cfg.eps) + min(t1, t2)


def compute_Q(frame_x: HyperbolicFrame, frame_fx: HyperbolicFrame,
              rho_x: float, cfg: EpsilonConfig,
              consts: RegularityConstants) -> LatticeSize:
    """Largest lattice element below the un-floored size (log-space floor)."""
    return cfg.floor_log(q_tilde_log(frame_x, frame_fx, rho_x, cfg, consts))


def build_pesin_chart(table, x: PhasePoint, frame: HyperbolicFrame,
                      Q: LatticeSize, rho_x: float, cfg: EpsilonConfig,
                      consts: RegularityConstants,
                      eta: LatticeSize) -> PesinChart:
    """Assemble a chart and check the size bounds, which a NaN fails."""
    if not eta <= Q:
        raise ValueError("chart half-width eta must not exceed Q")
    b = consts.beta
    log_eps = math.log(cfg.eps)
    slack = 1e-9
    if not Q.log_value <= (3.0 / b) * log_eps + slack:
        raise ValueError(
            f"Q bound broken: log Q = {Q.log_value:.6g} exceeds "
            f"(3/beta) log eps = {(3.0 / b) * log_eps:.6g}")
    lhs = math.log(frame.c_inv_frob) + (b / 24.0) * Q.log_value
    if not lhs <= log_eps / 8.0 + slack:
        raise ValueError(
            f"pinching bound broken: log(||C^-1|| Q^(beta/24)) = {lhs:.6g} "
            f"exceeds (1/8) log eps = {log_eps / 8.0:.6g}")
    lhs = -consts.a * math.log(rho_x) + (b / 72.0) * Q.log_value
    if not lhs < log_eps / 24.0 + slack:
        raise ValueError(
            f"singularity bound broken: log(rho^-a Q^(beta/72)) = {lhs:.6g} "
            f"not below (1/24) log eps = {log_eps / 24.0:.6g}")
    return PesinChart(table, x, frame, Q, eta, float(rho_x))


def chart_from_segment(seg: OrbitSegment, splitting: Splitting, chi: float,
                       cfg: EpsilonConfig, consts: RegularityConstants,
                       at: int = 0) -> PesinChart:
    """Chart at relative step `at`, sized from this and the next frame."""
    rho_x = seg.rho(at)  # a segment without rho data raises here
    fr_x = frame_at(seg, splitting, chi, at=at)
    fr_fx = frame_at(seg, splitting, chi, at=at + 1)
    Q = compute_Q(fr_x, fr_fx, rho_x, cfg, consts)
    return build_pesin_chart(seg.table, seg.point(at), fr_x, Q, rho_x,
                             cfg, consts, eta=Q)


# --------------------------------------------------------------- realization
def chart_apply(chart: PesinChart, v: np.ndarray) -> PhasePoint:
    """x + C v in component coordinates.

    No domain check against eta: at real chart sizes the check passes
    vacuously, and `manifolds.shadow` checks its windows on the pullbacks.
    """
    w = chart.frame.C @ v
    return chart.table.embed(chart.x, w[0], w[1])


def chart_invert(chart: PesinChart, p: PhasePoint) -> np.ndarray:
    """C^-1 (p - x) in component coordinates; no domain check (see
    `chart_apply`)."""
    return np.linalg.solve(chart.frame.C, chart.table.offset(chart.x, p))


# ----------------------------------------------------------- map sampling
def _probe_halfwidth(chart: PesinChart) -> float:
    want = 10.0 * chart.Q.value
    cap = PROBE_RHO_FRACTION * chart.rho_x
    if cap < PROBE_FLOOR:
        raise DomainEscape(
            f"cannot probe: {PROBE_RHO_FRACTION:g} of the singularity "
            f"distance {chart.rho_x:.3e} is below the float floor "
            f"{PROBE_FLOOR:g}")
    return min(max(want, PROBE_FLOOR), cap)


@contextmanager
def _inside_probe_square():
    """Raise a MapUndefined from the block as the probe's DomainEscape."""
    try:
        yield
    except MapUndefined as e:
        raise DomainEscape(f"map undefined inside probe square: {e}") from e


def _map_step(table, p: PhasePoint, forward: bool) -> PhasePoint:
    with _inside_probe_square():
        return billiard_map(table, p) if forward else billiard_inverse(table, p)


def _sample_grid(chart_x: PesinChart, chart_to: PesinChart, probe: float,
                 fd_step: float, allow: float, forward: bool):
    """Sample w(v) = pullback(f(embed(v))) on the probe grid, and its
    central-difference Jacobian at v = 0 with step fd_step, in one batch.

    Returns (xs, U, V, J0).  The four Jacobian rows follow the grid rows in
    one `step_many` call; each row maps on its own, so the bits are those of
    two separate calls.  Raises what sampling the grid, then the Jacobian,
    would raise first: DomainEscape for the first grid row whose image
    leaves R[allow] (Jacobian rows are not bounded) or whose map step is
    undefined, else the embed or offset error of the first failing row.
    """
    xs = np.linspace(-probe, probe, GRID_N)
    V1, V2 = np.meshgrid(xs, xs, indexing="ij")
    e = fd_step * np.eye(2)
    vs = np.concatenate([np.stack([V1.ravel(), V2.ravel()], axis=1),
                         np.stack([e[0], -e[0], e[1], -e[1]])])
    # matmul over (N, 2, 1) makes the same per-row gemv as C @ v
    d = np.matmul(chart_x.frame.C, vs[:, :, None])[:, :, 0]
    off, fail = chart_x.table.step_many(chart_x.x, d, forward, chart_to.x)
    n = len(vs) if fail is None else fail[0]
    # one (2, 1) right-hand side per row: bitwise the scalar solve, whereas
    # solving all rows as one (2, N) block differs in the last bits on more
    # than half of them (20 000 random rows, a fixture and a stadium frame)
    w = np.linalg.solve(chart_to.frame.C, off[:n, :, None])[:, :, 0]
    n_grid = GRID_N * GRID_N
    w_inf = np.maximum(np.abs(w[:n_grid, 0]), np.abs(w[:n_grid, 1]))
    escaped = np.flatnonzero(~(w_inf <= allow))
    if escaped.size:
        k = escaped[0]
        raise DomainEscape(
            f"image |w|_inf = {w_inf[k]:.3e} leaves the target square of "
            f"half-width {allow:.3e} at v = ({vs[k, 0]:.3e}, {vs[k, 1]:.3e})")
    if fail is not None:
        with _inside_probe_square():
            raise fail[1]
    jac = w[n_grid:]
    J0 = np.stack([jac[0] - jac[1], jac[2] - jac[3]], axis=1) / (2.0 * fd_step)
    return (xs, w[:n_grid, 0].reshape(V1.shape), w[:n_grid, 1].reshape(V1.shape),
            J0)


def holder_quotients(fields: np.ndarray, spacing: float,
                     exponents) -> list[float]:
    """Holder quotients of sampled fields along the last axis of `fields`
    (any leading axes index the fields), one per exponent e: the largest
    jump at grid separation k, over k = 1, 2, 4, ... with 2k below the
    last axis's length, divided by (k spacing)^e.

    Each separation's largest jump over all fields is taken once and then
    divided: division by a positive number rounds monotonically, so this
    has the bits of the max over every per-pair quotient.  A NaN anywhere
    in the fields makes every quotient NaN.
    """
    jumps = []
    k = 1
    while 2 * k < fields.shape[-1]:
        jump = abs(fields[..., k:] - fields[..., :-k]).max()
        jumps.append((k * spacing, float(jump)))
        k *= 2
    return [float(np.max([jump / dist ** e for dist, jump in jumps]))
            for e in exponents]


def _decompose(chart_x: PesinChart, chart_to: PesinChart, A: float, B: float,
               consts: RegularityConstants, forward: bool
               ) -> ChartMapDecomposition:
    """Sample the chart map on the probe grid and measure its h fields.

    h1 = U - A v1 and h2 = V - B v2 are stacked with U and V into one array,
    whose gradient is taken once; sup|h|, sup|grad h|, the Holder quotients
    of grad h (jumps along both grid axes) and the closed-form operator norm
    of (grad U, grad V) are all read from these two arrays.  Every statistic
    is a NaN when a sampled value is, so the bounds on them fail.
    """
    probe = _probe_halfwidth(chart_x)
    chi = chart_x.frame.chi
    headroom = 4.0 * (1.0 + math.exp(2.0 * chi)) / chart_x.rho_x ** consts.a
    allow = max(10.0 * chart_to.Q.value, headroom * probe)
    fd_step = probe / 16.0
    xs, U, V, J0 = _sample_grid(chart_x, chart_to, probe, fd_step, allow,
                                forward)
    spacing = xs[1] - xs[0]
    c = GRID_N // 2  # v = 0 node

    # (h1, h2, U, V) on the grid, v1 along axis 1 and v2 along axis 2
    H = np.stack([U - A * xs[:, None], V - B * xs, U, V])
    h0 = (float(H[0, c, c]), float(H[1, c, c]))

    noise = 2e-15 * chart_to.frame.c_inv_frob / fd_step
    gap = min(abs(A), abs(B), math.exp(-chi))
    if noise <= 0.1 * gap:
        tol = max(1e-6, 10.0 * noise)
        miss = (abs(J0[0, 0] - A), abs(J0[1, 1] - B))
        if not (miss[0] <= tol and miss[1] <= tol):
            raise BoundViolated("finite-difference check of the linear part",
                                float(np.max(miss)), tol)
    grad0 = J0 - np.diag([A, B])
    grad_h0 = float(np.max(np.abs(grad0)))

    # G[a, f] is the derivative of field f along v_(a+1)
    G = np.stack(np.gradient(H, spacing, axis=(1, 2), edge_order=2))
    grad_h = G[:, :2]
    # both grid axes made last in one contiguous array: one jump per k
    hol3, hol2 = holder_quotients(
        np.concatenate((grad_h, grad_h.swapaxes(-1, -2))), spacing,
        (consts.beta / 3.0, consts.beta / 2.0))
    return ChartMapDecomposition(
        A=A, B=B, probe=probe, h0=h0,
        grad0=grad0, grad_h0=grad_h0, sup_h=float(np.max(np.abs(H[:2]))),
        grad_sup=float(np.max(np.hypot(grad_h[0], grad_h[1]))),
        holder_const=hol3, holder_half=hol2,
        df_sup=float(np.max(operator_norm(G[:, 2:].swapaxes(0, 1)))))


def chart_map_fxy(chart_x: PesinChart, chart_y: PesinChart,
                  consts: RegularityConstants, forward: bool
                  ) -> ChartMapDecomposition:
    """Chart-to-chart map for an edge: y near f(x), or near f^-1(x) when not
    forward.

    The linear part is read from the frame reduction across the two charts;
    frame mismatch lands in grad h(0), bounded by eps eta^(beta/3); the
    offset of y from the true image lands in h(0), bounded by eps eta; the
    Holder quotient of grad h at beta/3 stays below eps.  At underflowed eta
    the bounds are asserted at the realized probe scale.

    When forward and y sits at the measured image of x (distance at most
    OVERLAP_DISTANCE_FLOOR), the map is the one-step map f_x, and it also
    carries the one-step bounds, checked after the edge bounds: the edge
    map's M = C(y)^-1 df C(x) passes `reduced_cocycle` (NotDiagonal when it
    is not diagonal), |h(0)| <= 1e-12, sup|h|,
    sup|grad h| and the beta/2 Holder quotient of grad h below eps, and
    sup||df_x|| below 2 (1 + e^(2 chi)) / rho(x)^a.
    """
    table = chart_x.table
    img = _map_step(table, chart_x.x, forward)
    d = table.distance(img, chart_y.x)
    # overlap precondition in log space: d < (eta_x eta_y)^4, readable at
    # desk scale only down to the round-trip measurement floor
    if not d <= OVERLAP_DISTANCE_FLOOR:
        log_bound = 4.0 * (chart_x.eta.log_value + chart_y.eta.log_value)
        if not math.log(d) < log_bound:
            raise OverlapMissing(
                f"target chart too far from the image: d = {d:.3e}, "
                f"log bound {log_bound:.6g}")
    df_x = table.derivative(chart_x.x, forward)
    M = np.linalg.solve(chart_y.frame.C, df_x @ chart_x.frame.C)
    A, B = float(M[0, 0]), float(M[1, 1])
    chi = chart_x.frame.chi
    (contracting, expanding), gate = (
        ((A, B), "edge-map hyperbolicity |A| < e^-chi < e^chi < |B|")
        if forward else
        ((B, A), "inverse edge-map hyperbolicity |B| < e^-chi < e^chi < |A|"))
    if not (abs(contracting) < math.exp(-chi) < math.exp(chi)
            < abs(expanding)):
        raise BoundViolated(gate, max(abs(contracting),
                                      1.0 / max(abs(expanding), 1e-300)),
                            math.exp(-chi))
    dec = _decompose(chart_x, chart_y, A, B, consts, forward)

    eps = chart_x.eps
    # assert at the realized scale: eta when representable, else the probe
    eta_eff = max(min(chart_x.eta.value, chart_y.eta.value), dec.probe)
    h0_norm = math.hypot(*dec.h0)
    if not h0_norm <= eps * eta_eff:
        raise BoundViolated("|h(0)| < eps eta", h0_norm, eps * eta_eff)
    if not dec.grad_h0 <= eps * eta_eff ** (consts.beta / 3.0):
        raise BoundViolated("|grad h(0)| < eps eta^(beta/3)", dec.grad_h0,
                            eps * eta_eff ** (consts.beta / 3.0))
    if not dec.holder_const < eps:
        raise BoundViolated("Holder(grad h) below eps", dec.holder_const, eps)
    if forward and d <= OVERLAP_DISTANCE_FLOOR:
        # y is the measured image f(x): the map is the one-step f_x
        reduced_cocycle(M, chi)
        h0_inf = float(np.max(np.abs(dec.h0)))
        if not h0_inf <= 1e-12:
            raise BoundViolated("h(0) = 0 for the one-step chart map",
                                h0_inf, 1e-12)
        for name, measured in (("sup|h|", dec.sup_h),
                               ("sup|grad h|", dec.grad_sup),
                               ("Holder_(beta/2)(grad h)",
                                dec.holder_half)):
            if not measured < eps:
                raise BoundViolated(name + " below eps", measured, eps)
        df_bound = 2.0 * (1.0 + math.exp(2.0 * chi)) \
            / chart_x.rho_x ** consts.a
        if not dec.df_sup < df_bound:
            raise BoundViolated("sup||d(f_x)|| within the blowup bound",
                                dec.df_sup, df_bound)
    return dec


# ------------------------------------------------------------------ overlap
def overlap_test(chart1: PesinChart, chart2: PesinChart) -> bool:
    """Charts interchange coordinates: eta ratio e^(+-eps) on the lattice and
    base distance plus frame distance below (eta1 eta2)^4 (log space)."""
    for c in (chart1, chart2):
        if not c.eta <= c.Q:
            raise ValueError("chart eta exceeds its Q")
    if not chart1.eta.ratio_within_e_eps(chart2.eta):
        return False
    d = chart1.table.distance(chart1.x, chart2.x)
    total = d + chart1.frame.distance(chart2.frame)
    if total == 0.0:
        return True
    log_bound = 4.0 * (chart1.eta.log_value + chart2.eta.log_value)
    return math.log(total) < log_bound


# ------------------------------------------------------------------ greedy q
def greedy_q(Qs, cfg: EpsilonConfig) -> GreedyQ:
    """One-sided greedy size recursions over a finite window, exact.

    Backward pass: qs[i] = min(e^eps qs[i+1], delta Q[i]); forward pass
    symmetric for qu; q = qs min qu.

    Both certificates hold by construction.  In lattice exponents (larger
    is smaller), with D[i] >= 0 that of delta Q[i], qs[i] = max(qs[i+1] - 3,
    D[i]) and qu[i] = max(qu[i-1] - 3, D[i]), so q[i] >= qs[i] >= D[i] (q <=
    delta Q < eps Q) and |q[i+1] - q[i]| <= 3 (ratio e^(+-eps)) at every i.
    q[i+1] >= q[i] - 3 in three cases: q[i+1] >= qu[i+1] >= qu[i] - 3; if
    qs[i] = qs[i+1] - 3, q[i+1] >= qs[i+1]; else qs[i] = D[i] <= qu[i], the
    first case.  The other side is the mirror image (qs, qu and i, i+1 swap).
    """
    Qs = list(Qs)
    n = len(Qs)
    if n < 2:
        raise ValueError("greedy recursion needs at least two points")
    d = cfg.delta_exponent
    qs = [None] * n
    qu = [None] * n
    qs[n - 1] = Qs[n - 1].step(d)
    for i in range(n - 2, -1, -1):
        qs[i] = qs[i + 1].times_e_eps().min_with(Qs[i].step(d))
    qu[0] = Qs[0].step(d)
    for i in range(1, n):
        qu[i] = qu[i - 1].times_e_eps().min_with(Qs[i].step(d))
    q = [a.min_with(b) for a, b in zip(qs, qu)]
    return GreedyQ(tuple(qs), tuple(qu), tuple(q))
