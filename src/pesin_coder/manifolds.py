"""Admissible manifolds, graph transforms, shadowing, and their diagnostics.

A manifold at a vertex is a graph over one chart axis: kind "u" gives the
first coordinate as a function of the second on [-p^u, p^u], kind "s" the
second as a function of the first on [-p^s, p^s].  Samples are stored in
normalized coordinates (parameter tau in [-1, 1], values divided by the
domain half-width p), because real chart sizes sit at e^-300: the values
themselves stay representable, but only scale-free arithmetic keeps the
estimators meaningful.  Slopes are invariant under this normalization.

Between the nodes a graph is read by monotone cubic Hermite interpolation
(PCHIP: Fritsch-Carlson, with Fritsch-Butland harmonic-mean node slopes and
one-sided three-point end slopes); past [-1, 1] the end cubics extend, which
`intersect` relies on.  The ends and the arithmetic are those of scipy's
PchipInterpolator, step for step, so the values are bitwise scipy's.

Graph transforms evaluate the edge map through its affine model
w = (A v1, B v2) + h(0) + grad h(0) v, read from the chart-map decomposition.
At real chart sizes this model is exact to float precision (higher-order
terms of h vanish relatively); on the exactly-affine fixture it is exact at
every scale.  Time runs one way in the code: an s-graph pushed backward along
a path is a u-graph pushed forward along the reversed path, so a stable
manifold is the unstable manifold of the reversed path.

Asserted bounds follow the same desk-scale reading as module charts: the
value bound AM1 runs exactly in log space, while slope-type bounds (AM2, the
intersection angle ratio) are asserted against max(true bound, measurement
floor) since their true right-hand sides shrink below float measurement
noise; Holder quotients of slopes use normalized separations once the domain
is below float-literal scale.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .charts import ChartMapDecomposition, PesinChart, chart_apply, \
    chart_invert, chart_map_fxy, holder_quotients
from .dynamics import RegularityConstants, billiard_inverse, billiard_map
from .errors import (
    AdmissibilityViolated,
    ContractionViolated,
    DomainEscape,
    GraphFolded,
    MapUndefined,
    MultipleIntersections,
    NoIntersection,
    NotConverged,
    OutOfDomain,
    ShadowEscape,
)
from .lattice import LatticeSize

__all__ = [
    "MANIFOLD_GRID_N",
    "C1_CUTOFF",
    "MAX_SWEEPS",
    "SLOPE_NOISE_FLOOR",
    "ANGLE_NOISE_FLOOR",
    "LITERAL_SCALE_FLOOR",
    "PathVertex",
    "GpoPath",
    "AdmissibleManifold",
    "make_manifold",
    "zero_manifold",
    "validate_admissible",
    "path_from_vertices",
    "graph_transform",
    "c0_distance",
    "c1_distance",
    "contraction_measurement",
    "stable_manifold",
    "unstable_manifold",
    "intersect",
    "shadow",
]

# 65-point uniform grid on [-1, 1]; odd so tau = 0 is a node
MANIFOLD_GRID_N = 65
TAU = np.linspace(-1.0, 1.0, MANIFOLD_GRID_N)
# iteration cutoffs: e^(-chi/2) contraction reaches 1e-10 within ~100 sweeps
C1_CUTOFF = 1e-10
MAX_SWEEPS = 200
# measurement floors for bounds whose true right-hand sides underflow float
# resolution at real chart sizes (documented desk-scale reading).  Slopes of
# transformed graphs inherit the probe-scale curvature of the chart maps
# (gradient fields measured below 1e-4 on the dispersing tables), so the
# slope floor sits one decade above that; it stays 500x below the 1/2
# Lipschitz budget, so gross errors still trip it.
SLOPE_NOISE_FLOOR = 1e-3
ANGLE_NOISE_FLOOR = 1e-8
# domains at least this wide use literal (true-separation) Holder quotients
LITERAL_SCALE_FLOOR = 1e-12
# back-mapping residual allowance for the containment check, relative to the
# input domain half-width
CONTAINMENT_RTOL = 1e-8
SEED_AGREEMENT_TOL = 1e-8
# C1 radius containing every admissible seed and limit (values within the
# 1e-3 centering budget, slopes within their floor, with margin); after n
# contracting edges two sweeps must agree within this times e^(-n chi/2)
SEED_ENVELOPE = 1e-2
# center offsets of an edge map below this (table units) are float round-trip
# residue of a point that maps exactly onto the next center; above it they
# are genuine offsets and enter the transform literally
CENTER_OFFSET_NOISE = 1e-12
# seed of the independent admissible seed that cross-checks each limit
SEED_RNG = 0


# ----------------------------------------------------------- interpolation
def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point end slope, zeroed or capped to stay monotone."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


def _pchip(x, y, derivative: bool = False) -> Callable:
    """Monotone cubic through (x, y), or its derivative, as a function of t.

    The arithmetic is scipy's PchipInterpolator step for step, so results
    are bitwise equal; the end cubics extend past [x[0], x[-1]].
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("interpolation nodes and values must be finite")
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    keep = np.sign(m[1:]) * np.sign(m[:-1]) > 0  # same sign, neither zero
    d = np.zeros_like(y)
    d[1:-1][keep] = 1.0 / whmean[keep]
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    if not np.all(np.isfinite(d)):
        raise ValueError("interpolation node slopes overflow")
    t = (d[:-1] + d[1:] - 2 * m) / h
    rows = [t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]]
    if derivative:
        rows = [3.0 * rows[0], 2.0 * rows[1], rows[2]]

    def evaluate(at):
        at = np.asarray(at, dtype=float)
        i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, len(x) - 2)
        s = at - x[i]
        res, z = 0.0, 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for c in reversed(rows):
                res = res + c[i] * z
                z = z * s
        return res
    return evaluate


# ------------------------------------------------------------------- types
@dataclass(frozen=True)
class PathVertex:
    """A chart with its stable/unstable window half-widths."""

    chart: PesinChart
    p_s: LatticeSize
    p_u: LatticeSize

    def __post_init__(self):
        if not (self.p_s <= self.chart.Q and self.p_u <= self.chart.Q):
            raise ValueError("window sizes must not exceed the chart size Q")

    @property
    def p_min(self) -> LatticeSize:
        return self.p_s.min_with(self.p_u)


@dataclass(frozen=True)
class GpoPath:
    """Chart path with precomputed forward/backward edge decompositions.

    Vertices are listed in increasing time order; `base_index` marks the
    anchor vertex (0 for one-sided positive paths, the center for
    bi-truncated ones).  Edge validity in the alphabet sense is the coding
    module's concern; here consecutive charts only need workable chart-to-
    chart maps.
    """

    vertices: tuple[PathVertex, ...]
    fwd: tuple[ChartMapDecomposition, ...]
    bwd: tuple[ChartMapDecomposition, ...]
    base_index: int = 0

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class AdmissibleManifold:
    """Normalized graph samples over one chart axis at a vertex.

    `values[i]` is F(p * TAU[i]) / p and `slopes[i]` is F'(p * TAU[i]);
    the represented true-unit function follows as F(t) = p * G(t / p).
    """

    vertex: PathVertex
    kind: str
    values: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        if self.kind not in ("s", "u"):
            raise ValueError(f"kind must be 's' or 'u', got {self.kind!r}")
        if self.values.shape != (MANIFOLD_GRID_N,) or \
                self.slopes.shape != (MANIFOLD_GRID_N,):
            raise ValueError("manifold samples must live on the module grid")

    @property
    def p(self) -> LatticeSize:
        return self.vertex.p_s if self.kind == "s" else self.vertex.p_u

    @property
    def value_at_zero(self) -> float:
        return float(self.values[MANIFOLD_GRID_N // 2])

    @property
    def slope_at_zero(self) -> float:
        return float(self.slopes[MANIFOLD_GRID_N // 2])

    @property
    def sup_slope(self) -> float:
        return float(np.max(np.abs(self.slopes)))

    def value_fn(self) -> Callable:
        return _pchip(TAU, self.values)

    def slope_fn(self) -> Callable:
        return _pchip(TAU, self.slopes)


# ----------------------------------------------------------- construction
def make_manifold(vertex: PathVertex, kind: str, values,
                  slopes=None) -> AdmissibleManifold:
    """Assemble a manifold from normalized samples; slopes fitted if absent.

    Nothing is validated here: `validate_admissible` asserts the bounds.
    """
    values = np.asarray(values, dtype=float)
    if values.shape == ():
        values = np.full(MANIFOLD_GRID_N, float(values))
    if slopes is None:
        slopes = _pchip(TAU, values, derivative=True)(TAU)
    return AdmissibleManifold(vertex, kind, values,
                              np.asarray(slopes, dtype=float))


def zero_manifold(vertex: PathVertex, kind: str) -> AdmissibleManifold:
    return make_manifold(vertex, kind, np.zeros(MANIFOLD_GRID_N),
                         np.zeros(MANIFOLD_GRID_N))


def validate_admissible(m: AdmissibleManifold,
                        consts: RegularityConstants) -> dict:
    """Assert the three admissibility bounds; return the margins.

    AM1 compares exactly in log space.  AM2 allows the measurement floor when
    its true bound (p_min^(beta/3)/2) is below slope noise.  AM3 uses literal
    Holder separations when the domain is wide enough to resolve them, else
    normalized separations.
    """
    p = m.p
    p_min = m.vertex.p_min
    b3 = consts.beta / 3.0

    g0 = abs(m.value_at_zero)
    allowed1_log = math.log(1e-3) + p_min.log_value
    if g0 > 0.0 and math.log(g0) + p.log_value > allowed1_log:
        raise AdmissibilityViolated("AM1", g0 * p.value,
                                    1e-3 * p_min.value)
    am1_margin = math.inf if g0 == 0.0 else \
        allowed1_log - (math.log(g0) + p.log_value)

    s0 = abs(m.slope_at_zero)
    true2 = 0.5 * math.exp(b3 * p_min.log_value)
    allowed2 = max(true2, SLOPE_NOISE_FLOOR)
    if s0 > allowed2:
        raise AdmissibilityViolated("AM2", s0, allowed2)

    literal = p.value >= LITERAL_SCALE_FLOOR
    [hol] = holder_quotients([m.slopes], TAU[1] - TAU[0], (b3,))
    if literal:
        hol = hol / p.value ** b3
    am3 = m.sup_slope + hol
    if am3 > 0.5:
        raise AdmissibilityViolated("AM3", am3, 0.5)
    return {
        "kind": m.kind,
        "am1_log_margin": am1_margin,
        "am2_margin": allowed2 - s0,
        "am2_floor_used": allowed2 > true2,
        "am3_margin": 0.5 - am3,
        "holder_literal_scale": literal,
        "sup_slope": m.sup_slope,
        "slope_holder": hol,
    }


# ------------------------------------------------------------------ paths
def path_from_vertices(vertices, consts: RegularityConstants,
                       base_index: int) -> GpoPath:
    """Precompute both edge decompositions along a chart path, once per
    distinct (chart, chart) edge by identity; a repeated edge reuses them."""
    vertices = tuple(vertices)
    if len(vertices) < 2:
        raise ValueError("a path needs at least two vertices")
    maps = {}
    edges = []
    for a, b in zip(vertices, vertices[1:]):
        key = (id(a.chart), id(b.chart))
        if key not in maps:
            maps[key] = (chart_map_fxy(a.chart, b.chart, consts, True),
                         chart_map_fxy(b.chart, a.chart, consts, False))
        edges.append(maps[key])
    fwd, bwd = zip(*edges)
    return GpoPath(vertices, fwd, bwd, base_index)


# -------------------------------------------------------------- transforms
def _normalized_offset(dec: ChartMapDecomposition,
                       p_out: LatticeSize) -> np.ndarray:
    """Edge center offset in units of the output window half-width.

    Offsets below the round-trip noise floor are measured zeros (real chart
    windows sit far below float resolution, so a literal division would turn
    pure float residue into a huge spurious displacement); genuine offsets
    divide literally and fail the coverage check honestly when they dwarf
    the window.
    """
    out = np.zeros(2)
    for i, h in enumerate(dec.h0):
        if abs(h) <= CENTER_OFFSET_NOISE:
            continue
        if p_out.value == 0.0 or not math.isfinite(h / p_out.value):
            raise DomainEscape(
                f"edge center offset {h:.3e} dwarfs the output window "
                f"(log half-width {p_out.log_value:.6g})")
        out[i] = h / p_out.value
    return out


def _push_graph(A: float, B: float, H: np.ndarray, values: np.ndarray,
                slopes: np.ndarray, ratio: float, h0n: np.ndarray):
    """Push a normalized u-graph through an affine edge model, reparametrize.

    The model is w = (A v1, B v2) + h0n + H v in output-window units and the
    graph gives the first coordinate over the second.  `values` are input
    samples over TAU in input-window units; `ratio` is (input half-width) /
    (output half-width), from the size lattice.  Returns output samples on
    TAU in output-window units and the normalized containment residual of
    mapping output points back.
    """
    a, b = A + H[0, 0], B + H[1, 1]
    out_param = ratio * (H[1, 0] * values + b * TAU) + h0n[1]

    dp = np.diff(out_param)
    if np.all(dp < 0.0):
        flip = slice(None, None, -1)
    elif np.all(dp > 0.0):
        flip = slice(None)
    else:
        raise GraphFolded(
            "projected coordinate is not strictly monotone along the image")

    lo, hi = out_param[flip][0], out_param[flip][-1]
    if lo > -1.0 or hi < 1.0:
        raise DomainEscape(
            f"image parameter range [{lo:.3e}, {hi:.3e}] does not cover "
            f"the output window [-1, 1] (normalized)")

    # source parameter at each output node, then exact affine re-evaluation
    src = _pchip(out_param[flip], TAU[flip])(TAU)
    val_fn = _pchip(TAU, values)
    slope_fn = _pchip(TAU, slopes)
    v_src = val_fn(src)
    g_src = slope_fn(src)
    out_vals = ratio * (a * v_src + H[0, 1] * src) + h0n[0]

    # slopes by the chain rule on the affine model (window scales cancel)
    out_slopes = (a * g_src + H[0, 1]) / (H[1, 0] * g_src + b)

    # containment: map the output nodes back and compare to the input graph
    M = np.array([[a, H[0, 1]], [H[1, 0], b]])
    back = np.linalg.solve(M, np.stack([out_vals, TAU]) - h0n[:, None]) / ratio
    resid = float(np.max(np.abs(back[0] - val_fn(back[1]))))
    return out_vals, out_slopes, resid


def graph_transform(dec: ChartMapDecomposition, m: AdmissibleManifold,
                    target: PathVertex) -> AdmissibleManifold:
    """Image of a graph along an edge, as a graph of the same kind at target.

    A u-graph goes forward (dec is the edge's forward map, target its end
    vertex), an s-graph backward (dec is the backward map, target the start
    vertex).  An s-graph over the first axis is a u-graph over the second
    axis of the axis-swapped model, so both kinds run one push.
    """
    p_out = target.p_s if m.kind == "s" else target.p_u
    ratio = math.exp(m.p.log_value - p_out.log_value)
    A, B, H = dec.A, dec.B, dec.grad0
    h0n = _normalized_offset(dec, p_out)
    if m.kind == "s":
        A, B, H, h0n = B, A, H[::-1, ::-1], h0n[::-1]
    vals, slopes, resid = _push_graph(A, B, H, m.values, m.slopes, ratio, h0n)
    if resid > CONTAINMENT_RTOL:
        raise DomainEscape(
            f"containment back-check residual {resid:.3e} of the input "
            f"window exceeds {CONTAINMENT_RTOL:g}")
    return make_manifold(target, m.kind, vals, slopes)


# ------------------------------------------------------------- distances
def c0_distance(m1: AdmissibleManifold, m2: AdmissibleManifold,
                normalized: bool = False) -> float:
    """sup |F1 - F2| on the common grid (true units unless normalized)."""
    if m1.kind != m2.kind or m1.p != m2.p:
        raise ValueError("distances compare manifolds of one kind and size")
    d = float(np.max(np.abs(m1.values - m2.values)))
    return d if normalized else d * m1.p.value


def c1_distance(m1: AdmissibleManifold, m2: AdmissibleManifold,
                normalized: bool = False) -> float:
    """C0 distance plus the sup slope difference."""
    return c0_distance(m1, m2, normalized) + \
        float(np.max(np.abs(m1.slopes - m2.slopes)))


def contraction_measurement(dec: ChartMapDecomposition,
                            m1: AdmissibleManifold, m2: AdmissibleManifold,
                            target: PathVertex,
                            consts: RegularityConstants) -> dict:
    """One-transform contraction factors for a pair at a common vertex.

    c0 is the true-unit C0-distance ratio (size ratio handled on the
    lattice); asserts c0 <= e^(-chi/2) and the compound C1 bound
    d_C1(out) <= e^(-chi/2) (d_C1(in) + d_C0(in)^(beta/3)).
    """
    o1 = graph_transform(dec, m1, target)
    o2 = graph_transform(dec, m2, target)
    d0_in = c0_distance(m1, m2, normalized=True)
    d0_out = c0_distance(o1, o2, normalized=True)
    p_in, p_out = m1.p, o1.p
    size_ratio = math.exp(p_out.log_value - p_in.log_value)
    chi = m1.vertex.chart.frame.chi
    bound = math.exp(-chi / 2.0)
    if d0_in == 0.0:
        c0 = 0.0 if d0_out == 0.0 else math.inf
    else:
        c0 = (d0_out / d0_in) * size_ratio
    if c0 > bound:
        raise ContractionViolated(
            f"C0 factor {c0:.6f} exceeds e^(-chi/2) = {bound:.6f}")

    # compound C1 bound in true units; the beta/3-power of the C0 distance
    # is taken in log space so real chart sizes cannot underflow it
    d1_in = c1_distance(m1, m2)
    d1_out = c1_distance(o1, o2)
    if d0_in > 0.0:
        holder_term = math.exp(
            (consts.beta / 3.0) * (math.log(d0_in) + p_in.log_value))
        c1_allowed = bound * (d1_in + holder_term)
        if d1_out > c1_allowed and d1_out > 1e-14:
            raise ContractionViolated(
                f"C1 value {d1_out:.3e} exceeds the compound bound "
                f"{c1_allowed:.3e}")
        c1 = d1_out / (d1_in + holder_term)
    else:
        c1 = 0.0
    return {"c0": c0, "c1": c1, "bound": bound, "d0_in": d0_in,
            "d0_out": d0_out, "d1_in": d1_in, "d1_out": d1_out}


# ------------------------------------------------------- manifold limits
def _sweep(path: GpoPath, start: int,
           seed: AdmissibleManifold) -> AdmissibleManifold:
    """Push a graph at vertex `start` forward to the last vertex."""
    m = seed
    for k in range(start, len(path) - 1):
        m = graph_transform(path.fwd[k], m, path.vertices[k + 1])
    return m


def _random_admissible_seed(vertex: PathVertex, kind: str,
                            rng: np.random.Generator) -> AdmissibleManifold:
    p = vertex.p_s if kind == "s" else vertex.p_u
    scale = 1e-3 * math.exp(vertex.p_min.log_value - p.log_value)
    c = float(rng.uniform(-0.9, 0.9)) * scale
    return make_manifold(vertex, kind, np.full(MANIFOLD_GRID_N, c),
                         np.zeros(MANIFOLD_GRID_N))


def _manifold_limit(path: GpoPath, kind: str,
                    consts: RegularityConstants) -> tuple:
    n_edges = len(path) - 1
    if n_edges < 1:
        raise ValueError("need at least one edge to iterate")
    if kind == "s":
        # time reversal: V^s of the path is V^u of the reversed path, whose
        # forward edge maps are the backward maps of the original
        path = GpoPath(path.vertices[::-1], path.bwd[::-1], path.fwd[::-1])
    base = path.vertices[-1]

    history = []
    prev = None
    result = None
    converged = False
    used = 0
    for d in range(1, n_edges + 1):
        cur = _sweep(path, n_edges - d,
                     zero_manifold(path.vertices[n_edges - d], kind))
        used = d
        if prev is not None:
            dc1 = c1_distance(cur, prev, normalized=True)
            history.append(dc1)
            if dc1 < C1_CUTOFF:
                converged = True
                result = cur
                break
        prev = cur
        result = cur

    report = validate_admissible(result, consts)
    rate = None
    if len(history) >= 2 and history[-2] > 0.0 and history[-1] > 0.0:
        rate = history[-1] / history[-2]

    # cross-check from an independent admissible seed, swept over the whole
    # path (a shallow sweep would not have contracted the seed away yet);
    # the enforceable agreement is what n contracting edges certify, and it
    # tightens to the hard tolerance once the envelope reaches it
    rng = np.random.default_rng(SEED_RNG)
    alt = _sweep(path, 0, _random_admissible_seed(path.vertices[0], kind, rng))
    seed_gap = c1_distance(result, alt, normalized=True)
    chi = base.chart.frame.chi
    seed_allow = max(SEED_AGREEMENT_TOL,
                     SEED_ENVELOPE * math.exp(-0.5 * chi * n_edges))
    if converged and seed_gap > seed_allow:
        raise NotConverged(
            f"limits from independent seeds differ by {seed_gap:.3e} "
            f"(> {seed_allow:.3e}) after {n_edges} edges")
    log = {"converged": converged, "depth_used": used,
           "c1_steps": history, "rate": rate, "seed_gap": seed_gap,
           "seed_allowance": seed_allow, "admissibility": report,
           "base": base}
    return result, log


def stable_manifold(path: GpoPath, consts: RegularityConstants):
    """Limit of backward s-transform sweeps from ever-deeper zero seeds.

    Returns (manifold at the first vertex, convergence log).  Deepens until
    successive results differ by less than C1_CUTOFF or every edge of the
    path is used; the limit is cross-checked from an independent random seed.
    """
    return _manifold_limit(path, "s", consts)


def unstable_manifold(path: GpoPath, consts: RegularityConstants):
    """Mirror of stable_manifold: forward u-sweeps ending at the last vertex."""
    return _manifold_limit(path, "u", consts)


# ------------------------------------------------------------ intersection
def intersect(ms: AdmissibleManifold, mu: AdmissibleManifold,
              consts: RegularityConstants) -> tuple[np.ndarray, dict]:
    """Unique crossing of an s-graph and a u-graph in one chart.

    Solves t = G_u(F_s(t)) by the contraction iteration (slope product is
    at most 1/4), confirms uniqueness by a monotone sign scan, and checks
    the infinity-norm bound and the tangent-angle ratio.
    """
    if ms.kind != "s" or mu.kind != "u":
        raise ValueError("intersect needs an s-manifold and a u-manifold")
    va, vb = ms.vertex, mu.vertex
    if va.chart.x != vb.chart.x or \
            not np.array_equal(va.chart.frame.C, vb.chart.frame.C):
        raise ValueError("manifolds must live in the same chart")
    F = ms.value_fn()
    G = mu.value_fn()
    # all arithmetic in units of the s-window; r rescales s-window values
    # into u-window parameters and is an exact lattice ratio
    r = math.exp(ms.p.log_value - mu.p.log_value)

    def step(tau):
        return G(r * F(tau)) / r

    # sign scan for existence and uniqueness
    phi = TAU - step(TAU)
    if phi[0] > 0.0 or phi[-1] < 0.0:
        raise NoIntersection(
            "phi = t - G(F(t)) does not change sign over the window")
    if not np.all(np.diff(phi) > 0.0):
        raise MultipleIntersections(
            "phi = t - G(F(t)) is not strictly increasing on the grid")

    t = 0.0
    residual = math.inf
    residuals = []
    iters = 0
    for iters in range(1, 101):
        t_new = float(step(t))
        residual = abs(t_new - t)
        residuals.append(residual)
        t = t_new
        if residual <= 1e-14:
            break
    w_norm = np.array([t, float(F(t))])
    w = ms.p.value * w_norm

    m_log = ms.vertex.p_min.min_with(mu.vertex.p_min).log_value
    wn_inf = float(np.max(np.abs(w_norm)))
    w_inf = float(np.max(np.abs(w)))
    if wn_inf > 0.0 and \
            math.log(wn_inf) + ms.p.log_value >= math.log(1e-2) + m_log:
        raise NoIntersection(
            f"crossing at log |w|_inf = "
            f"{math.log(wn_inf) + ms.p.log_value:.6g} violates the "
            f"10^-2 (p^s ^ p^u) localization")

    # tangent-angle ratio against the frame angle.  Probe-scale slope noise
    # |fp|, |gp| tilts the measured log-ratio by at most (s/u + u/s) times
    # the slopes, which the frame norm bounds by c_inv^2 / 2; the allowance
    # propagates that (with a factor-2 safety) on top of the true bound.
    C = va.chart.frame.C
    fp = float(ms.slope_fn()(t))
    gp = float(mu.slope_fn()(r * float(F(t))))
    a = C @ np.array([1.0, fp])
    b = C @ np.array([gp, 1.0])
    sin_t = abs(a[0] * b[1] - a[1] * b[0]) / (
        np.linalg.norm(a) * np.linalg.norm(b))
    ratio = sin_t / math.sin(va.chart.frame.alpha)
    slope_noise = va.chart.frame.c_inv_frob ** 2 * (abs(fp) + abs(gp))
    angle_allow = max(math.exp((consts.beta / 4.0) * m_log),
                      ANGLE_NOISE_FLOOR + slope_noise)
    log_ratio = math.inf if ratio == 0.0 else abs(math.log(ratio))
    if log_ratio > angle_allow:
        raise NoIntersection(
            f"tangent angle ratio e^{log_ratio:.3e} leaves the "
            f"e^(+-{angle_allow:.3e}) band")
    return w, {"iterations": iters, "residual": residual,
               "residuals": residuals, "w_norm": w_norm,
               "log_scale": ms.p.log_value, "w_inf": w_inf,
               "angle_log_ratio": log_ratio,
               "angle_allowance": angle_allow}


# --------------------------------------------------------------- shadowing
def shadow(path: GpoPath, consts: RegularityConstants):
    """Point whose orbit tracks the path's chart windows.

    Computes V^s forward of the base vertex and V^u backward of it,
    intersects them in the base chart, realizes the crossing, and verifies
    f^n(x) stays in the window R[p^s ^ p^u] and in R[10 Q] at every path
    vertex (pulled back through that vertex's chart).
    """
    i0 = path.base_index
    if not (0 <= i0 < len(path)):
        raise ValueError("base index outside the path")
    if i0 == 0 or i0 == len(path) - 1:
        raise ValueError("shadowing needs vertices on both sides of the base")
    fwd_part = GpoPath(path.vertices[i0:], path.fwd[i0:], path.bwd[i0:], 0)
    bwd_part = GpoPath(path.vertices[:i0 + 1], path.fwd[:i0], path.bwd[:i0],
                       i0)
    ms, slog = stable_manifold(fwd_part, consts)
    mu, ulog = unstable_manifold(bwd_part, consts)
    w, ilog = intersect(ms, mu, consts)

    base = path.vertices[i0]
    table = base.chart.table
    x = chart_apply(base.chart, w)

    # verify the window membership along the whole path
    p = x
    for n in range(0, len(path) - i0):
        _check_window(path.vertices[i0 + n], p, n)
        if i0 + n < len(path) - 1:
            p = _advance(table, p, n + 1, billiard_map)
    p = x
    for n in range(1, i0 + 1):
        p = _advance(table, p, -n, billiard_inverse)
        _check_window(path.vertices[i0 - n], p, -n)
    return x, {"w": w, "intersect": ilog, "stable": slog, "unstable": ulog}


def _advance(table, p, n: int, step):
    try:
        return step(table, p)
    except (MapUndefined, ValueError) as e:
        raise ShadowEscape(n, f"orbit becomes undefined before step {n}: "
                              f"{e}") from e


def _check_window(vertex: PathVertex, p, n: int):
    try:
        v = chart_invert(vertex.chart, p)
    except OutOfDomain as e:
        raise ShadowEscape(n, f"orbit leaves the chart component chain at "
                              f"step {n}: {e}") from e
    w_inf = float(np.max(np.abs(v)))
    for name, size in (("p^s ^ p^u", vertex.p_min.value),
                       ("10 Q", 10.0 * vertex.chart.Q.value)):
        if w_inf > size * (1.0 + 1e-9):
            raise ShadowEscape(
                n, f"pullback |v|_inf = {w_inf:.3e} leaves R[{name}] "
                   f"= {size:.3e} at step {n}")
