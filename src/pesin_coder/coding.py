"""Coarse-grained double-chart alphabet and shadowing-based coding.

The alphabet construction bins sampled orbit data by integer coarse
signatures, picks net centers inside each bin, attaches one-sided window
sizes from the greedy recursions, and connects charts whose overlap and
size-recursion conditions hold.  Itineraries through the alphabet are
verified by the manifold shadowing machinery and projected back to phase
points.

Scale reality: the net radius e^(-8(j+2)) is far below the float64 range
for every chart the size formula admits (the size bounds force
|log Q| >~ 150 on any table of diameter < 1, and j grows like |log Q|).
Every closeness test here therefore runs in log space with an exact-zero
short circuit: distinct sampled points never merge, and two data points
are "close" precisely when they are bitwise identical.  The code is honest
about this — the inequality branches are real and take over whenever the
radius is representable — but at realistic sizes the net is a bitwise
dedup, itineraries exist exactly for sampled windows, and graph recurrence
requires genuinely (bitwise) periodic orbits.  The edge relation's overlap
bound p_min^8 underflows the same way, so an edge v -> w needs f(x_v) = x_w
up to the few denormals that the metric rounds to 0.0.  `coarse_grain`
therefore does not scan all vertex pairs: it indexes the points f(x_v) by
cells whose side covers the largest such bound in the alphabet (a normal
double when it is representable), and sends `edge_report` only the pairs
in neighbouring cells.  No pair that can pass lies outside them, so the
choice is exact, and the work grows with the edges, not with the square
of the vertices.  Net selection finds its candidate centers the same way,
in an index per bin and level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .charts import (build_pesin_chart, chart_invert, compute_Q, greedy_q,
                     overlap_test)
from .cocycle import (HyperbolicFrame, OrbitSegment, Splitting, build_frame,
                      frames_along)
from .dynamics import RegularityConstants, billiard_map, operator_norm
from .errors import (DiagnosticFailed, EmptyAlphabet, InequalityViolated,
                     NoBinCenter)
from .lattice import EpsilonConfig, LatticeSize
from .manifolds import GpoPath, PathVertex, path_from_vertices, shadow
from .tables import PhasePoint, make_table

__all__ = [
    "GridCover", "GammaPoint", "BinSignature", "DoubleChart", "ShiftGraph",
    "Alphabet", "Itinerary", "gammas_from_segment", "bin_signature",
    "gamma_close", "double_chart", "make_graph", "prune_graph",
    "edge_report", "coarse_grain", "assign_centers", "sufficiency_itinerary",
    "make_itinerary", "sigma_sharp_filter", "project_pi",
    "detect_double_codings", "inverse_diagnostics",
    "discreteness_certificate", "save_alphabet",
    "load_alphabet", "COVER_SIDE", "NET_EXPONENT", "SHADOW_TOL",
]

# side of the cover's coordinate boxes in (r, theta)
COVER_SIDE = 0.25
# radius exponent of the bin nets: members merge below e^(-NET_EXPONENT*(j+2))
NET_EXPONENT = 8.0
# largest distance from a word's shadow to the point it must land on: the
# coded window's base point, or the image of the anchor's shadow
SHADOW_TOL = 1e-6


def _log0(value: float) -> float:
    """log value with log 0 = -inf: the exact-zero short circuit of the
    log-space bounds, which routinely underflow float64, so that a measured
    zero passes every one of them."""
    return -math.inf if value == 0.0 else math.log(value)


# -------------------------------------------------------------- point index
def _metric_radius(table, bound: float) -> float:
    """A radius r on the coordinates of ``table.metric_coords``: two points
    whose computed ``table.distance`` d is below 2 bound + 2^-1074 differ by
    less than r in every coordinate, exactly.

    d = fl(metric_scale h), where h is the hypot of the computed coordinate
    differences (the fixture has metric_scale 1 and takes h itself).  The
    product rounds by at most d 2^-53 or 2^-1075, so h is below
    (2 bound + 2^-1073)(1 + 2^-52) / metric_scale.  A faithful hypot is at
    least each of its float arguments, and a difference fl(a - b) is
    within 2^-53 of a - b relatively, so |a - b| < (2 bound + 2^-1073)
    (1 + 2^-50) / metric_scale, which the value below exceeds after its
    own rounding.  When bound underflows to 0, only d = 0.0 is below
    2^-1074, and r is the few denormals that metric_scale h rounds to 0.0
    from.
    """
    return 4.0 * (bound + 2.0 ** -1073) / table.metric_scale


class _CellIndex:
    """Points by the cell of their coordinates on a grid of side 2^e at
    least the radius; an infinite radius puts every point in one cell.

    Two points whose coordinates differ by at most the radius, exactly,
    lie in the same or neighbouring cells: |a - b| <= 2^e gives
    |floor(a / 2^e) - floor(b / 2^e)| <= 1.  A cell index is exact: a
    float is n / 2^k (`float.as_integer_ratio`), so its floor over 2^e is
    one integer division, with no overflow and no rounding across a cell
    edge, and -0.0 lies in the cell of 0.0.  So `near` finds every point
    within the radius of its key.
    """

    def __init__(self, keys, radius: float):
        # 2^e > radius, from radius = m 2^e with 1/2 <= m < 1
        self._e = math.frexp(radius)[1] if radius < math.inf else None
        # cells nested by coordinate: cell[0] -> cell[1] -> ... -> ids
        self._root: dict = {}
        self._size = 0
        for key in keys:
            self.add(key)

    def add(self, key) -> None:
        """Index key as the next id, one past the last."""
        *head, last = self._cell(key)
        node = self._root
        for c in head:
            node = node.setdefault(c, {})
        node.setdefault(last, []).append(self._size)
        self._size += 1

    def _cell(self, key) -> list[int]:
        e = self._e
        if e is None:
            return [0] * len(key)
        out = []
        for c in key:
            num, den = c.as_integer_ratio()
            out.append(num // (den << e) if e >= 0 else (num << -e) // den)
        return out

    def near(self, key) -> list[int]:
        """Ids of the points in the cells next to key's and in key's own,
        ascending."""
        nodes = [self._root]
        for c in self._cell(key):
            nodes = [child for node in nodes for k in (c - 1, c, c + 1)
                     if (child := node.get(k)) is not None]
        return sorted(i for ids in nodes for i in ids)


# ------------------------------------------------------------------- cover
class GridCover:
    """Countable cover of phase space by half-open coordinate boxes.

    Boxes have side ``COVER_SIDE``.  Box ids are assigned on first sight, so
    signatures are deterministic for a fixed insertion history; persistence
    freezes the id map.  ``box_id`` registers an unseen box, ``find_box``
    only looks one up.
    """

    def __init__(self):
        self._ids: dict[tuple[int, int, int], int] = {}

    def box_key(self, p: PhasePoint) -> tuple[int, int, int]:
        return (p.component, math.floor(p.r / COVER_SIDE),
                math.floor(p.theta / COVER_SIDE))

    def box_id(self, p: PhasePoint) -> int:
        k = self.box_key(p)
        if k not in self._ids:
            self._ids[k] = len(self._ids)
        return self._ids[k]

    def find_box(self, p: PhasePoint) -> int | None:
        return self._ids.get(self.box_key(p))

    @property
    def n_boxes(self) -> int:
        return len(self._ids)

    def to_json(self) -> dict:
        boxes = [[c, ir, it, i] for (c, ir, it), i in self._ids.items()]
        boxes.sort(key=lambda row: row[3])
        return {"side": COVER_SIDE, "boxes": boxes}

    @classmethod
    def from_json(cls, obj: dict) -> "GridCover":
        side = _get(obj, "side", "cover")
        if side != COVER_SIDE:
            raise ValueError(f"cover built with box side {side}, "
                             f"this code uses {COVER_SIDE}")
        cover = cls()
        for n, row in enumerate(_list(_get(obj, "boxes", "cover"),
                                      "cover.boxes")):
            c, ir, it, i = (_integer(x, f"cover.boxes[{n}]")
                            for x in _list(row, f"cover.boxes[{n}]", 4))
            if i != n:
                raise ValueError("cover box ids must be dense and ordered")
            if (c, ir, it) in cover._ids:
                raise ValueError(f"cover.boxes[{n}] repeats box "
                                 f"{[c, ir, it]}")
            cover._ids[(c, ir, it)] = i
        return cover


# ------------------------------------------------------------- gamma points
@dataclass(frozen=True, eq=False)
class GammaPoint:
    """One sampled point with chart data at it and both neighbours.

    ``points``/``frames``/``Qs``/``dists``/``rhos`` are indexed by relative
    step (-1, 0, +1); ``q`` is the two-sided windowed size at the point and
    ``p_s``/``p_u`` the one-sided greedy window sizes, all exact lattice
    elements carried over from the window the point was sampled in.
    """

    table: object
    points: tuple[PhasePoint, PhasePoint, PhasePoint]
    frames: tuple[HyperbolicFrame, HyperbolicFrame, HyperbolicFrame]
    Qs: tuple[LatticeSize, LatticeSize, LatticeSize]
    dists: tuple[float, float, float]
    rhos: tuple[float, float, float]
    q: LatticeSize
    p_s: LatticeSize
    p_u: LatticeSize

    @property
    def x(self) -> PhasePoint:
        return self.points[1]

    @property
    def frame(self) -> HyperbolicFrame:
        return self.frames[1]

    @property
    def Q(self) -> LatticeSize:
        return self.Qs[1]

    @property
    def rho(self) -> float:
        return self.rhos[1]

    @property
    def j(self) -> int:
        """Window level: q sits in [e^(-j-1), e^(-j))."""
        return math.floor(-self.q.log_value)


def gammas_from_segment(seg: OrbitSegment, splitting: Splitting, chi: float,
                        cfg: EpsilonConfig, consts: RegularityConstants,
                        lo: int, hi: int) -> list[GammaPoint]:
    """Gamma points with greedy window sizes at steps lo..hi inclusive.

    Needs segment data one step beyond each end (frames two beyond the
    top) because every gamma carries its neighbours' charts.
    """
    if hi - lo + 1 < 2:
        raise ValueError("a gamma window needs at least two steps")
    if lo - 1 < -seg.n_minus or hi + 2 > seg.n_plus:
        raise ValueError(
            f"segment [{-seg.n_minus}, {seg.n_plus}] too short for gammas on "
            f"[{lo}, {hi}] (needs [{lo - 1}, {hi + 2}])")
    frames = dict(zip(range(lo - 1, hi + 3),
                      frames_along(seg, splitting, chi, lo - 1, hi + 2)))
    Qs = {k: compute_Q(frames[k], frames[k + 1], seg.rho(k), cfg, consts)
          for k in range(lo - 1, hi + 2)}
    gq = greedy_q([Qs[k] for k in range(lo, hi + 1)], cfg)
    out = []
    for n in range(lo, hi + 1):
        i = n - lo
        out.append(GammaPoint(
            table=seg.table,
            points=tuple(seg.point(k) for k in (n - 1, n, n + 1)),
            frames=(frames[n - 1], frames[n], frames[n + 1]),
            Qs=(Qs[n - 1], Qs[n], Qs[n + 1]),
            dists=tuple(seg.dist(k) for k in (n - 1, n, n + 1)),
            rhos=tuple(seg.rho(k) for k in (n - 1, n, n + 1)),
            q=gq.q[i], p_s=gq.qs[i], p_u=gq.qu[i]))
    return out


# ------------------------------------------------------------------ binning
@dataclass(frozen=True)
class BinSignature:
    """Integer coarse data: distance, frame-norm, box, size and level bins.

    A box the cover has never seen is None in a lookup signature.
    """

    k: tuple[int, int, int]
    l: tuple[int, int, int]
    a: tuple[int | None, int | None, int | None]
    m: int
    j: int

    def base(self) -> tuple:
        """Grouping key without the net level j."""
        return (self.k, self.l, self.a, self.m)


def bin_signature(gamma: GammaPoint, cover: GridCover) -> BinSignature:
    """Bin data of one gamma point, registering its boxes in the cover;
    distances must be in (0, 1)."""
    return _signature(gamma, cover.box_id)


def _signature(gamma: GammaPoint, box) -> BinSignature:
    ks, ls, as_ = [], [], []
    for d, fr, p in zip(gamma.dists, gamma.frames, gamma.points):
        if not 0.0 < d < 1.0:
            raise ValueError(
                f"distance to the singular set must be in (0,1), got {d}")
        ks.append(math.floor(-math.log(d)))
        ls.append(math.floor(math.log(fr.c_inv_frob)))
        as_.append(box(p))
    m = math.floor(-gamma.Q.log_value)
    return BinSignature(tuple(ks), tuple(ls), tuple(as_), m, gamma.j)


def gamma_close(g1: GammaPoint, g2: GammaPoint, j: int) -> bool:
    """Net-level closeness: triple distances below e^(-NET_EXPONENT*(j+2))
    and exact size ratio within one lattice third."""
    if not g1.Q.ratio_within_e_eps_third(g2.Q):
        return False
    log_r = -NET_EXPONENT * (j + 2.0)
    for p1, f1, p2, f2 in zip(g1.points, g1.frames, g2.points, g2.frames):
        d = g1.table.distance(p1, p2) + f1.distance(f2)
        if not _log0(d) < log_r:
            return False
    return True


def _first_close(gamma: GammaPoint, net, centers, j: int) -> int | None:
    """First center id of a net that is level-j close to gamma, if any."""
    return next((cid for cid in net if gamma_close(gamma, centers[cid], j)),
                None)


# ------------------------------------------------------------ double charts
@dataclass(frozen=True, eq=False)
class DoubleChart(PathVertex):
    """A path vertex built at a sampled center, with its coarse bin data.

    Compared and hashed by identity: each emitted chart is its own symbol.
    """

    gamma: GammaPoint
    signature: BinSignature

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def x(self) -> PhasePoint:
        return self.gamma.x

    @property
    def symbol(self) -> tuple:
        """Hashable identity: center object plus exact size exponents."""
        return (id(self.gamma), self.p_s.expo, self.p_u.expo)


def _level_window_miss(p_min: LatticeSize, j: int) -> str:
    """'' if p_s^p_u = p_min is within e^(+-2) of e^-j, else why not."""
    t = -p_min.log_value
    return "" if j - 2.0 - 1e-9 <= t <= j + 2.0 + 1e-9 else (
        f"p_s^p_u = e^-{t:.6g} outside the level window "
        f"[e^-{j + 2}, e^-{j - 2}]")


def double_chart(gamma: GammaPoint, cover: GridCover, cfg: EpsilonConfig,
                 consts: RegularityConstants, p_s: LatticeSize,
                 p_u: LatticeSize, j: int) -> DoubleChart:
    """Build one alphabet element, checking the size conditions.

    Validates that both sizes stay below delta Q on the lattice and that
    their meet sits within e^(+-2) of the level scale e^(-j).
    """
    cap = gamma.Q.step(cfg.delta_exponent)
    for name, p in (("p_s", p_s), ("p_u", p_u)):
        if not p <= cap:
            raise ValueError(
                f"{name} = e^{p.log_value:.6g} exceeds delta Q = "
                f"e^{cap.log_value:.6g}")
    p_min = p_s.min_with(p_u)
    if miss := _level_window_miss(p_min, j):
        raise ValueError(miss)
    sig = replace(bin_signature(gamma, cover), j=j)
    chart = build_pesin_chart(gamma.table, gamma.x, gamma.frame, gamma.Q,
                              gamma.rho, cfg, consts, eta=p_min)
    return DoubleChart(chart=chart, p_s=p_s, p_u=p_u, gamma=gamma,
                       signature=sig)


# -------------------------------------------------------------- shift graph
@dataclass(frozen=True, eq=False)
class ShiftGraph:
    """Directed graph over alphabet elements: its vertices and its distinct
    edges (i, j), sorted.  Built by `make_graph`."""

    vertices: tuple
    edges: tuple[tuple[int, int], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def make_graph(vertices, edges) -> ShiftGraph:
    """Graph from an edge list, sorted and deduplicated; an edge must join
    two of the vertices."""
    vertices = tuple(vertices)
    n = len(vertices)
    edges = sorted({(i, j) for i, j in edges})
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) outside vertex range 0..{n - 1}")
    return ShiftGraph(vertices, tuple(edges))


def prune_graph(g: ShiftGraph) -> ShiftGraph:
    """Iteratively drop vertices with zero in- or out-degree.

    Returns the maximal subgraph in which every vertex has both an
    incoming and an outgoing edge, in time linear in vertices plus edges.
    """
    n = g.n_vertices
    outs: list[list[int]] = [[] for _ in range(n)]
    ins: list[list[int]] = [[] for _ in range(n)]
    for i, j in g.edges:
        outs[i].append(j)
        ins[j].append(i)
    alive = [True] * n
    out_deg = [len(row) for row in outs]
    in_deg = [len(row) for row in ins]
    stack = [i for i in range(n) if out_deg[i] == 0 or in_deg[i] == 0]
    while stack:
        i = stack.pop()
        if not alive[i]:
            continue
        alive[i] = False
        for j in outs[i]:
            if alive[j]:
                in_deg[j] -= 1
                if in_deg[j] == 0:
                    stack.append(j)
        for j in ins[i]:
            if alive[j]:
                out_deg[j] -= 1
                if out_deg[j] == 0:
                    stack.append(j)
    kept = tuple(i for i in range(n) if alive[i])
    remap = {old: new for new, old in enumerate(kept)}
    edges = [(remap[i], remap[j]) for i, j in g.edges
             if alive[i] and alive[j]]
    return make_graph(tuple(g.vertices[i] for i in kept), edges)


# -------------------------------------------------------------- edge relation
def _size_misses(v: DoubleChart, w: DoubleChart, d: int) -> list[str]:
    """The greedy size equations of the pair v -> w that fail, in their
    exact integer form (d is the delta exponent)."""
    out = []
    if v.p_s.expo != max(w.p_s.expo - 3, v.gamma.Q.expo + d):
        out.append("stable size recursion broken")
    if w.p_u.expo != max(v.p_u.expo - 3, w.gamma.Q.expo + d):
        out.append("unstable size recursion broken")
    return out


def edge_report(v: DoubleChart, w: DoubleChart, cfg: EpsilonConfig,
                consts: RegularityConstants) -> list[str]:
    """Reasons the pair fails the edge relation (empty list = edge): the
    exact integer forms of the two greedy size equations, then the forward
    and backward overlaps."""
    out = _size_misses(v, w, cfg.delta_exponent)
    gv, gw = v.gamma, w.gamma
    qm = w.p_min
    if not qm <= gv.Qs[2]:
        out.append("forward window exceeds the image chart size")
    else:
        fwd = build_pesin_chart(gv.table, gv.points[2], gv.frames[2],
                                gv.Qs[2], gv.rhos[2], cfg, consts, eta=qm)
        if not overlap_test(fwd, w.chart):
            out.append("forward overlap fails")
    pm = v.p_min
    if not pm <= gw.Qs[0]:
        out.append("backward window exceeds the preimage chart size")
    else:
        bwd = build_pesin_chart(gw.table, gw.points[0], gw.frames[0],
                                gw.Qs[0], gw.rhos[0], cfg, consts, eta=pm)
        if not overlap_test(bwd, v.chart):
            out.append("backward overlap fails")
    return out


# ----------------------------------------------------------------- alphabet
@dataclass(eq=False)
class Alphabet:
    """Coarse-grained chart alphabet with its transition graph.

    ``graph`` holds every emitted chart and every passing edge; ``core``
    is the recurrent part (both degrees positive after trimming), which a
    finite aperiodic corpus legitimately leaves empty.  ``core`` and
    ``vertex_index`` are derived from the graph and ``center_of_vertex``.
    """

    cfg: EpsilonConfig
    consts: RegularityConstants
    cover: GridCover
    centers: tuple[GammaPoint, ...]
    nets: dict
    graph: ShiftGraph
    center_of_vertex: tuple[int, ...]
    stats: dict
    core: ShiftGraph = field(init=False)
    vertex_index: dict = field(init=False)

    def __post_init__(self):
        self.core = prune_graph(self.graph)
        self.vertex_index = {
            (c, v.p_s.expo, v.p_u.expo): i for i, (c, v)
            in enumerate(zip(self.center_of_vertex, self.graph.vertices))}

    def find_center(self, gamma: GammaPoint) -> int | None:
        """Net center covering this gamma at its own level, if any; the
        lookup registers no box in the cover."""
        sig = _signature(gamma, self.cover.find_box)
        return _first_close(gamma, self.nets.get((sig.base(), sig.j), ()),
                            self.centers, sig.j)

    def vertex_id(self, center_id: int, p_s: LatticeSize,
                  p_u: LatticeSize) -> int | None:
        return self.vertex_index.get((center_id, p_s.expo, p_u.expo))


def _emit_charts(rows, centers, cover: GridCover, cfg: EpsilonConfig,
                 consts: RegularityConstants) -> list[DoubleChart]:
    """Alphabet elements for (center id, p_s, p_u, level j) rows, in order."""
    return [double_chart(centers[c], cover, cfg, consts, p_s, p_u, j)
            for c, p_s, p_u, j in rows]


def coarse_grain(windows, cfg: EpsilonConfig, consts: RegularityConstants
                 ) -> Alphabet:
    """Bin sampled gammas, select net centers, emit charts, build edges.

    ``windows`` is a list of gamma-point lists, each one orbit window in
    consecutive order.  Charts are emitted for the size pairs realized by
    re-running the window recursions over the selected centers, so every
    emitted pair is one a sampled orbit actually uses; the full admissible
    pair set per center is astronomically large and its unused part would
    be trimmed as non-relevant anyway.

    Edge candidates come from a `_CellIndex` of the points f(x_v), and the
    choice drops no edge.  The forward half of `edge_report` overlaps the
    chart at f(x_v) with eta = p_min(w) against w's chart, whose eta is
    also p_min(w), so it passes only when d(f(x_v), x_w) plus the frame
    distance is 0.0 or has its log below 8 log p_min(w).  Both terms are
    at least 0 and math.log is within an ulp, so the computed distance is
    then below 2 e^(8 log p_min(w)) + 2^-1074 (only 0.0 when the bound
    underflows).  `_metric_radius` turns the largest such bound of the
    alphabet into a radius on the coordinates of `metric_coords`, and
    `_CellIndex.near` returns every point within it.  The candidates of w
    then meet the integer size equations and `edge_report`, the only
    judge of an edge.  As `edge_report` sees only candidates, a forward
    chart that its own size bounds refuse raises only for a pair that
    could overlap.

    Net selection takes its candidates from a `_CellIndex` too, one per
    (bin, level j), of the middle points of the net's centers, and picks
    the center that a scan of the whole net picks.  `gamma_close` passes
    only when the middle points' distance plus the frame distance is 0.0
    or has its log below -NET_EXPONENT (j + 2), so, as above, the
    distance is below 2 e^(-NET_EXPONENT (j + 2)) + 2^-1074 and the
    center lies in the cells that `near` looks up.  Its ids ascend in net
    order, so the first candidate that `gamma_close` passes is the first
    center of the net that it passes.
    """
    windows = [list(w) for w in windows]
    flat: list[GammaPoint] = [g for w in windows for g in w]
    if not flat:
        raise EmptyAlphabet("no sampled windows given")
    cover = GridCover()

    sigs = [bin_signature(g, cover) for g in flat]
    bins: dict[tuple, list[int]] = {}
    for fi, sig in enumerate(sigs):
        bins.setdefault(sig.base(), []).append(fi)

    # net selection: every bin member is net material at every level j the
    # bin is queried at; a member is assigned a center at its own level,
    # the first close one of the candidates that its net's index gives
    table = flat[0].table
    centers: list[GammaPoint] = []
    center_ids: dict[int, int] = {}
    nets: dict[tuple, tuple[int, ...]] = {}
    assign: list[int | None] = [None] * len(flat)
    for base, members in bins.items():
        levels = sorted({sigs[fi].j for fi in members})
        for j in levels:
            net: list[int] = []
            index = _CellIndex((), _metric_radius(
                table, math.exp(-NET_EXPONENT * (j + 2.0))))
            for fi in members:
                g = flat[fi]
                key = table.metric_coords(g.points[1])
                hit = _first_close(g, [net[k] for k in index.near(key)],
                                   centers, j)
                if hit is None:
                    cid = center_ids.get(fi)
                    if cid is None:
                        cid = len(centers)
                        centers.append(g)
                        center_ids[fi] = cid
                    net.append(cid)
                    index.add(key)
                    hit = cid
                if sigs[fi].j == j:
                    assign[fi] = hit
            nets[(base, j)] = tuple(net)

    # vertex emission: window recursions over the selected centers' sizes,
    # one row per distinct (center, p_s, p_u) in first-seen order
    seen: dict[tuple[int, int, int], tuple] = {}
    pos = 0
    for w in windows:
        cids = [assign[pos + k] for k in range(len(w))]
        gq = greedy_q([centers[c].Q for c in cids], cfg)
        for k, c in enumerate(cids):
            seen.setdefault((c, gq.qs[k].expo, gq.qu[k].expo),
                            (c, gq.qs[k], gq.qu[k], sigs[pos + k].j))
        pos += len(w)
    rows = list(seen.values())
    vlist = _emit_charts(rows, centers, cover, cfg, consts)

    # edges: the candidates v of each w from an index of f(x_v), then the
    # integer size equations, then edge_report
    index = _CellIndex(
        [table.metric_coords(v.gamma.points[2]) for v in vlist],
        _metric_radius(table, math.exp(
            8.0 * max(w.p_min.log_value for w in vlist))))
    d = cfg.delta_exponent
    edges = []
    for w_id, w in enumerate(vlist):
        for v_id in index.near(table.metric_coords(w.x)):
            v = vlist[v_id]
            if (not _size_misses(v, w, d)
                    and not edge_report(v, w, cfg, consts)):
                edges.append((v_id, w_id))

    alphabet = Alphabet(cfg, consts, cover, tuple(centers), nets,
                        make_graph(vlist, edges),
                        tuple(row[0] for row in rows), stats={})
    graph, core = alphabet.graph, alphabet.core
    alphabet.stats.update({
        "samples": len(flat),
        "windows": len(windows),
        "bins": len(bins),
        "nets": len(nets),
        "centers": len(centers),
        "vertices": graph.n_vertices,
        "edges": graph.n_edges,
        "core_vertices": core.n_vertices,
        "core_edges": core.n_edges,
        "cover_boxes": cover.n_boxes,
        "net_exponent": NET_EXPONENT,
    })
    return alphabet


# -------------------------------------------------------------- itineraries
@dataclass(frozen=True, eq=False)
class Itinerary:
    """Finite alphabet word, every consecutive pair an edge, with its chart
    path."""

    vertices: tuple[DoubleChart, ...]
    anchor: int
    in_alphabet: tuple[bool, ...]
    path: GpoPath
    meta: dict

    def __post_init__(self):
        if not 0 <= self.anchor < len(self.vertices):
            raise ValueError("anchor outside the word")

    def __len__(self) -> int:
        return len(self.vertices)

    def symbols(self) -> tuple:
        return tuple(v.symbol for v in self.vertices)


def make_itinerary(vertices, anchor: int, cfg: EpsilonConfig,
                   consts: RegularityConstants, in_alphabet,
                   meta: dict) -> Itinerary:
    """Assemble a word, verifying every consecutive pair and building the
    chart path used for projection.

    The first pair that fails the edge relation raises InequalityViolated
    with the pair's index as witness.  `in_alphabet` holds one flag per
    chart.
    """
    vertices = tuple(vertices)
    in_alphabet = tuple(in_alphabet)
    if len(vertices) < 2:
        raise ValueError("a word needs at least two charts")
    if len(in_alphabet) != len(vertices):
        raise ValueError(f"in_alphabet has {len(in_alphabet)} flags for "
                         f"{len(vertices)} charts")
    for k, (a, b) in enumerate(zip(vertices, vertices[1:])):
        reasons = edge_report(a, b, cfg, consts)
        if reasons:
            raise InequalityViolated(
                f"coded charts fail the edge relation at step {k}: "
                + "; ".join(reasons), witness=k)
    path = path_from_vertices(vertices, consts, base_index=anchor)
    return Itinerary(vertices, anchor, in_alphabet, path, dict(meta))


def assign_centers(alphabet: Alphabet, gammas, offset: int) -> list[int]:
    """Net center ids covering each window step, or NoBinCenter.

    ``offset`` shifts the step index reported on failure (the negated
    anchor reports window-relative steps).
    """
    out = []
    for k, g in enumerate(gammas):
        cid = alphabet.find_center(g)
        if cid is None:
            raise NoBinCenter(offset + k,
                              _signature(g, alphabet.cover.find_box))
        out.append(cid)
    return out


def sufficiency_itinerary(alphabet: Alphabet, gammas, anchor: int
                          ) -> Itinerary:
    """Code one orbit window through the alphabet.

    Per step, finds a net center covering the sampled gamma, then re-runs
    the one-sided size recursions over the selected centers and assembles
    the word; verifies the edges and that the word's shadow comes back to
    the window's base point within ``SHADOW_TOL``.  The shadow is the
    word's projection: ``meta`` keeps it as ``shadow_point``/``shadow_w``
    with its ``shadow_gap``, and `project_pi` reads it from there.  A
    chart off its level window raises InequalityViolated at its step.
    """
    gammas = list(gammas)
    cfg, consts = alphabet.cfg, alphabet.consts
    cids = assign_centers(alphabet, gammas, offset=-anchor)
    gq = greedy_q([alphabet.centers[c].Q for c in cids], cfg)
    vertices = []
    in_alpha = []
    for k, (c, g) in enumerate(zip(cids, gammas)):
        vid = alphabet.vertex_id(c, gq.qs[k], gq.qu[k])
        if vid is not None:
            vertices.append(alphabet.graph.vertices[vid])
            in_alpha.append(True)
        else:
            if miss := _level_window_miss(gq.qs[k].min_with(gq.qu[k]), g.j):
                raise InequalityViolated(
                    f"off-alphabet chart at step {k - anchor}: {miss}",
                    witness=k - anchor)
            vertices.append(double_chart(alphabet.centers[c], alphabet.cover,
                                         cfg, consts, gq.qs[k], gq.qu[k], g.j))
            in_alpha.append(False)
    it = make_itinerary(vertices, anchor, cfg, consts, in_alpha, {})
    x_hat, info = shadow(it.path, consts)
    gap = gammas[anchor].table.distance(x_hat, gammas[anchor].x)
    if gap > SHADOW_TOL:
        raise InequalityViolated(
            f"shadow misses the coded point by {gap:.3e} > {SHADOW_TOL:.1e}",
            witness=anchor)
    it.meta["shadow_gap"] = gap
    it.meta["shadow_point"] = x_hat
    it.meta["shadow_w"] = info["w"]
    return it


def sigma_sharp_filter(syms) -> bool:
    """Finite-horizon recurrence proxy on a symbol sequence (an itinerary's
    `symbols()`, say): some symbol repeats in the forward third and some
    symbol repeats in the backward third of the window."""
    n = len(syms)
    if n < 2:
        return False
    third = max(2, n // 3)

    def has_repeat(part) -> bool:
        return len(set(part)) < len(part)

    return has_repeat(syms[:third]) and has_repeat(syms[n - third:])


def project_pi(itinerary: Itinerary, consts: RegularityConstants
               ) -> tuple[PhasePoint, dict]:
    """Phase point shadowed by a word that `sufficiency_itinerary` coded,
    with an anchor-shift consistency check: projecting the shifted word
    must land within ``SHADOW_TOL`` of the mapped point."""
    if "shadow_point" not in itinerary.meta:
        raise ValueError("project_pi needs a word coded by "
                         "sufficiency_itinerary, which stores its shadow")
    x = itinerary.meta["shadow_point"]
    path = itinerary.path
    k = itinerary.anchor + 1
    if k >= len(path) - 1:
        raise ValueError("equivariance check needs an interior shifted anchor")
    x1, _ = shadow(GpoPath(path.vertices, path.fwd, path.bwd, k), consts)
    table = itinerary.vertices[0].gamma.table
    gap = table.distance(billiard_map(table, x), x1)
    if gap > SHADOW_TOL:
        raise InequalityViolated(
            f"shift/projection mismatch {gap:.3e} > {SHADOW_TOL:.1e}",
            witness=k)
    return x, {"w": itinerary.meta["shadow_w"], "equivariance_gap": gap}


def detect_double_codings(points, table, tol: float = 1e-6
                          ) -> list[tuple[int, int, float]]:
    """Index pairs (i, j, distance) of projected points closer than
    ``tol`` in the table's metric, i < j, sorted.  Each j looks up its
    partners i in a `_CellIndex` whose radius covers ``tol``."""
    pts = list(points)
    if not tol > 0.0:  # no distance is below it
        return []
    keys = [table.metric_coords(p) for p in pts]
    index = _CellIndex(keys, _metric_radius(table, tol))
    out = []
    for j, key in enumerate(keys):
        for i in index.near(key):
            if i < j and (d := table.distance(pts[i], pts[j])) < tol:
                out.append((i, j, d))
    out.sort()
    return out


# ----------------------------------------------------- inverse diagnostics
def _bound(slack: dict, name: str, item, n: int, measured: float,
           allowed: float, strict: bool, tol: float) -> None:
    """One measured bound of a coding diagnostic: measured < allowed + tol
    when strict, <= otherwise, written so that a NaN fails it.  A failure
    raises DiagnosticFailed(item, n) naming the bound and both values; a
    pass records allowed - measured as the bound's least slack (tol, which
    forgives rounding, stays out of it)."""
    if not (measured < allowed + tol if strict
            else measured <= allowed + tol):
        raise DiagnosticFailed(
            item, n, f"{name} bound: measured {measured:.6g} is not "
                     f"{'<' if strict else '<='} allowed {allowed:.6g} "
                     f"(item {item} at {n})")
    slack[name] = min(slack.get(name, math.inf), allowed - measured)


def inverse_diagnostics(it1: Itinerary, it2: Itinerary, cfg: EpsilonConfig,
                        consts: RegularityConstants) -> dict:
    """Per-step consistency bounds for two words coding the same point.

    Asserts, at every common index: the center distance bound, the frame
    angle and stretch ratios, the size ratios, and the affine-plus-small
    form of the chart interchange; also the finite-window maximality
    proxy (each word's forward sizes and backward sizes touch delta Q at
    least once).  Reports the orientation bit sequence and the minimum
    slack left per bound, in log units for the distance and the offset.
    """
    if len(it1) != len(it2) or it1.anchor != it2.anchor:
        raise ValueError("words must share window shape and anchor")
    eps = cfg.eps
    sqrt_e = math.sqrt(eps)
    cbrt_e = eps ** (1.0 / 3.0)
    slack: dict[str, float] = {}
    sigmas = []
    for i, (v, w) in enumerate(zip(it1.vertices, it2.vertices)):
        n = i - it1.anchor
        x, y = v.x, w.x
        fv, fw = v.gamma.frame, w.gamma.frame

        def check(name, item, measured, allowed, strict):
            # a ratio or lattice bound forgives 1e-12 of rounding
            _bound(slack, name, item, n, measured, allowed, strict,
                   0.0 if strict else 1e-12)

        # (1) centers within a fraction of the larger window (log space)
        check("distance", 1, _log0(v.gamma.table.distance(x, y)),
              math.log(1.0 / 25.0) + max(v.p_min.log_value,
                                         w.p_min.log_value), strict=True)

        # (2) frame angles
        check("sin_alpha", 2,
              abs(math.log(math.sin(fv.alpha) / math.sin(fw.alpha))), sqrt_e,
              strict=False)
        check("cos_alpha", 2, abs(math.cos(fv.alpha) - math.cos(fw.alpha)),
              sqrt_e, strict=True)

        # (3) stretch parameters
        check("s_param", 3, abs(math.log(fv.s_param / fw.s_param)),
              4.0 * sqrt_e, strict=False)
        check("u_param", 3, abs(math.log(fv.u_param / fw.u_param)),
              4.0 * sqrt_e, strict=False)

        # (4) chart sizes, (5) window sizes (exact lattice logs)
        for name, item, a, b in (("Q", 4, v.gamma.Q, w.gamma.Q),
                                 ("p_s", 5, v.p_s, w.p_s),
                                 ("p_u", 5, v.p_u, w.p_u)):
            check(name, item, abs(a.log_value - b.log_value), cbrt_e,
                  strict=False)

        # (6) interchange map: affine offset below a tenth of the window
        # (log space), linear part a near-identity up to orientation
        if x.component != y.component:
            raise DiagnosticFailed(
                6, n, f"centers on different components at step {n}")
        t = chart_invert(w.chart, x)
        L = np.linalg.solve(fw.C, fv.C)
        sigma = 0 if float(np.trace(L)) > 0.0 else 1
        sigmas.append(sigma)
        check("offset", 6, _log0(math.hypot(*t)),
              math.log(0.1) + w.p_min.log_value, strict=True)
        check("d_delta", 6, operator_norm(L - ((-1.0) ** sigma) * np.eye(2)),
              cbrt_e, strict=True)

    # finite-window maximality proxy: the forward sizes and the backward
    # sizes each touch their cap delta Q somewhere in the window
    d = cfg.delta_exponent
    for label, it in (("first", it1), ("second", it2)):
        fwd = any(v.p_s.expo == v.gamma.Q.expo + d
                  for v in it.vertices[it.anchor:])
        bwd = any(v.p_u.expo == v.gamma.Q.expo + d
                  for v in it.vertices[:it.anchor + 1])
        if not (fwd and bwd):
            raise DiagnosticFailed(
                "maximality", 0,
                f"{label} word never touches delta Q "
                f"(forward {fwd}, backward {bwd})")
    return {"checked": len(it1), "sigma": tuple(sigmas),
            "slack": slack}


# ---------------------------------------------------------- certificates
def discreteness_certificate(alphabet: Alphabet,
                             t_log: float | None = None) -> dict:
    """Count charts with both sizes above a threshold, and the bin groups
    they fall in.

    Every passing chart's integer bin data must respect the a-priori bounds
    implied by sizes above t (all finite): a bin that does not raises
    DiagnosticFailed("discreteness", vertex index).  Reports the least
    slack left per bound.
    """
    verts = alphabet.graph.vertices
    if t_log is None:
        logs = sorted(v.p_s.log_value for v in verts)
        t_log = logs[len(logs) // 2]
    direct = [(i, v) for i, v in enumerate(verts)
              if v.p_s.log_value > t_log and v.p_u.log_value > t_log]
    groups = {(v.signature.base(), v.signature.j) for _, v in direct}

    abs_log_t = -t_log
    slack: dict[str, float] = {}
    max_k = max_l = max_m = max_j = 0
    for i, v in direct:
        sig = v.signature
        t_cap = math.log(4.0) + v.gamma.frame.chi + 3.0 * abs_log_t

        def check(name, measured, allowed, strict):
            _bound(slack, name, "discreteness", i, measured, allowed, strict,
                   1e-9)

        for ki in sig.k:
            check("distance bin", ki, abs_log_t, strict=True)
        # the past frame norm only admits the looser growth cap
        for li, cap in zip(sig.l, (t_cap, abs_log_t, abs_log_t)):
            check("frame bin", li, cap, strict=True)
        check("size bin", sig.m, abs_log_t, strict=True)
        check("level", sig.j, abs_log_t + 2.0, strict=False)
        max_k = max(max_k, *sig.k)
        max_l = max(max_l, *sig.l)
        max_m = max(max_m, sig.m)
        max_j = max(max_j, sig.j)
    return {"t_log": t_log, "count": len(direct), "groups": len(groups),
            "max_k": max_k, "max_l": max_l, "max_m": max_m, "max_j": max_j,
            "slack": slack}


# ------------------------------------------------------------- persistence
def _frame_to_json(fr: HyperbolicFrame) -> list:
    return [float(fr.e_s[0]), float(fr.e_s[1]), float(fr.e_u[0]),
            float(fr.e_u[1]), fr.s_param, fr.u_param, fr.chi]


def _frame_from_json(row, where: str, i: int) -> HyperbolicFrame:
    row = [_real(v, where) for v in row]
    if not 0.0 < row[6] < math.inf:
        raise ValueError(f"{where}[{i}] chi = {row[6]!r} is not in (0, inf)")
    return build_frame(np.array(row[0:2]), np.array(row[2:4]), row[4],
                       row[5], row[6])


def _point_to_json(p: PhasePoint) -> list:
    return [p.component, p.r, p.theta]


def _gamma_to_json(g: GammaPoint) -> dict:
    return {
        "points": [_point_to_json(p) for p in g.points],
        "frames": [_frame_to_json(fr) for fr in g.frames],
        "Q_expos": [q.expo for q in g.Qs],
        "dists": list(g.dists),
        "rhos": list(g.rhos),
        "q": g.q.expo, "p_s": g.p_s.expo, "p_u": g.p_u.expo,
    }


def _get(obj, key: str, where: str):
    """Member ``key`` of the file's object at ``where`` ("" at the top)."""
    if type(obj) is not dict:
        raise ValueError(f"{where or 'the file'} is not an object with {key}")
    if key not in obj:
        raise ValueError(f"{where + '.' if where else ''}{key} is missing")
    return obj[key]


def _list(value, where: str, n: int | None = None) -> list:
    """A file's list field, of exactly ``n`` entries when ``n`` is given."""
    if type(value) is not list or n is not None and len(value) != n:
        raise ValueError(f"{where} is not a list"
                         + ("" if n is None else f" of {n} entries"))
    return value


def _integer(value, where: str) -> int:
    """A file's integer field: a JSON int, not a bool, a float or a string."""
    if type(value) is not int:
        raise ValueError(f"{where} = {value!r} is not an integer")
    return value


def _real(value, where: str) -> float:
    """A file's real field: a JSON int or float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} = {value!r} is not a number")
    return value


def _gamma_from_json(obj, table, cfg: EpsilonConfig,
                     where: str) -> GammaPoint:
    def triple(name: str) -> list:
        return _list(_get(obj, name, where), f"{where}.{name}", 3)

    def rows(name: str, n: int) -> list:
        return [_list(row, f"{where}.{name}[{i}]", n)
                for i, row in enumerate(triple(name))]

    def size(value, name: str) -> LatticeSize:
        return cfg.size(_integer(value, f"{where}.{name}"))

    def point(row, i: int) -> PhasePoint:
        c, r, th = row
        name = f"{where}.points"
        p = PhasePoint(_integer(c, name), _real(r, name), _real(th, name))
        try:
            table.validate_point(p)
        except ValueError as err:
            raise ValueError(f"{name}[{i}]: {err}") from None
        return p

    def distances(name: str) -> tuple[float, float, float]:
        out = tuple(_real(v, f"{where}.{name}") for v in triple(name))
        for i, v in enumerate(out):
            if not 0.0 < v < 1.0:
                raise ValueError(f"{where}.{name}[{i}] = {v!r} is not in (0, 1)")
        return out

    return GammaPoint(
        table=table,
        points=tuple(point(row, i) for i, row in enumerate(rows("points", 3))),
        frames=tuple(_frame_from_json(row, f"{where}.frames", i)
                     for i, row in enumerate(rows("frames", 7))),
        Qs=tuple(size(e, "Q_expos") for e in triple("Q_expos")),
        dists=distances("dists"),
        rhos=distances("rhos"),
        q=size(_get(obj, "q", where), "q"),
        p_s=size(_get(obj, "p_s", where), "p_s"),
        p_u=size(_get(obj, "p_u", where), "p_u"))


def save_alphabet(alphabet: Alphabet, path) -> None:
    """Write the full alphabet to a JSON file (floats round-trip exactly)."""
    g = alphabet.graph
    doc = {
        "eps": alphabet.cfg.eps,
        "consts": {"a": alphabet.consts.a, "beta": alphabet.consts.beta,
                   "K": alphabet.consts.K},
        "table": {"kind": alphabet.centers[0].table.kind,
                  "params": alphabet.centers[0].table.params,
                  "metric_scale": alphabet.centers[0].table.metric_scale},
        "cover": alphabet.cover.to_json(),
        "centers": [_gamma_to_json(c) for c in alphabet.centers],
        "nets": [[list(base[0]), list(base[1]), list(base[2]), base[3], j,
                  list(cids)]
                 for (base, j), cids in alphabet.nets.items()],
        "vertices": [{
            "center": alphabet.center_of_vertex[i],
            "p_s": v.p_s.expo, "p_u": v.p_u.expo, "j": v.signature.j,
        } for i, v in enumerate(g.vertices)],
        "edges": list(g.edges),
        "stats": alphabet.stats,
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_alphabet(path) -> Alphabet:
    """Rebuild an alphabet from its JSON file; charts are revalidated.

    A malformed file raises ValueError naming the field: a missing one, a
    list of the wrong length, or a value of the wrong type or range."""
    doc = json.loads(Path(path).read_text())

    def top(key: str):
        return _get(doc, key, "")

    net_exponent = _get(top("stats"), "net_exponent", "stats")
    if net_exponent != NET_EXPONENT:
        raise ValueError(
            f"alphabet built with net exponent {net_exponent}, "
            f"this code uses {NET_EXPONENT}")
    if not _list(top("vertices"), "vertices"):
        raise EmptyAlphabet("alphabet file lists no vertices")
    cfg = EpsilonConfig(_real(top("eps"), "eps"))
    consts = RegularityConstants(**{
        name: _real(_get(top("consts"), name, "consts"), f"consts.{name}")
        for name in ("a", "beta", "K")})
    table = make_table(*(_get(top("table"), name, "table")
                         for name in ("kind", "params")))
    scale = _get(top("table"), "metric_scale", "table")
    if scale != table.metric_scale:
        raise ValueError(f"table.metric_scale = {scale!r} is not the rebuilt "
                         f"table's {table.metric_scale!r}")
    cover = GridCover.from_json(top("cover"))
    centers = tuple(_gamma_from_json(obj, table, cfg, f"centers[{i}]")
                    for i, obj in enumerate(_list(top("centers"), "centers")))

    def file_id(value, n: int, where: str, what: str) -> int:
        if type(value) is not int or not 0 <= value < n:
            raise ValueError(f"{where} names {what} {value!r}; the file "
                             f"has {what}s 0..{n - 1}")
        return value

    def center_id(value, where: str) -> int:
        return file_id(value, len(centers), where, "center")

    nets = {}
    for i, row in enumerate(_list(top("nets"), "nets")):
        k3, l3, a3, m, j, cids = _list(row, f"nets[{i}]", 6)
        k, l, a = (tuple(_integer(x, f"nets[{i}].{name}")
                         for x in _list(v3, f"nets[{i}].{name}", 3))
                   for name, v3 in (("k", k3), ("l", l3), ("a", a3)))
        base = (k, l, a, _integer(m, f"nets[{i}].m"))
        nets[(base, _integer(j, f"nets[{i}].j"))] = tuple(
            center_id(x, f"nets[{i}] center list")
            for x in _list(cids, f"nets[{i}] center list"))

    rows = []
    for i, row in enumerate(top("vertices")):
        where = f"vertices[{i}]"
        c, p_s, p_u, j = (_get(row, key, where)
                          for key in ("center", "p_s", "p_u", "j"))
        rows.append((center_id(c, f"{where}.center"),
                     cfg.size(_integer(p_s, f"{where}.p_s")),
                     cfg.size(_integer(p_u, f"{where}.p_u")),
                     _integer(j, f"{where}.j")))
    edges = [tuple(file_id(x, len(rows), f"edges[{k}]", "vertex")
                   for x in _list(e, f"edges[{k}]", 2))
             for k, e in enumerate(_list(top("edges"), "edges"))]
    vlist = _emit_charts(rows, centers, cover, cfg, consts)
    return Alphabet(cfg, consts, cover, centers, nets, make_graph(vlist, edges),
                    tuple(row[0] for row in rows), dict(top("stats")))
