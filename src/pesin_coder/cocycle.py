"""Hyperbolic splittings, Lyapunov data, and adapted frame reductions.

Along a finite orbit segment the stable/unstable directions are produced by
push-forward from the segment ends (forward pushes converge to the unstable
direction, inverse pushes to the stable one).  From the directions, weighted
series define the parameters s(x), u(x) >= sqrt(2); the frame matrix C sends
the standard basis to e_s/s and e_u/u, and conjugating df by consecutive
frames reduces the dynamics to a diagonal hyperbolic cocycle.  All limits are
replaced by finite-window proxies: fitted slopes, running extrema, and best
return distances.

The cocycle is 2x2, so the per-step loops avoid numpy calls where the bits
allow it.  The exponents push one vector on Python floats and take the
second QR diagonal entry from the determinant, with no QR per step.  The
splitting pushes keep numpy's product and solve, whose bits come from the
host's BLAS/LAPACK kernels (ROADMAP item 10), but take the norm as
sqrt(w.w), which is what `np.linalg.norm` computes for a real vector.  The
backward push calls LAPACK's solve gufunc, the one `np.linalg.solve`
dispatches to for a vector right-hand side, without numpy's per-call
wrapper: the same LAPACK call on the same float64 data, so the same bits.
The one-step norms along the fields are elementwise, with no BLAS call;
a test pins them bitwise to the norm of numpy's einsum product.
The halved-window pushes that measure convergence stop at the first row
where they equal the full push bitwise and take the full push's row at the
base point.  Each push step is a function of its row and that step's matrix
alone, so from an equal row on the two pushes compute the same bits; the
exit returns what the whole halved push would.  They also stop at a row
bitwise equal to the negated full push, and take the negated row at the
base point.  Under round-to-nearest a push step is odd up to the sign of an
exact zero: negating the row negates every product, sum and LAPACK
substitution exactly (the LU pivots read the matrix alone), except that an
exact cancellation gives +0 either way; the norm is even and the divide
odd.  So the whole push would end on the negated row up to the signs of its
zero entries, and the only reader, `_angle_between`, takes |cross|, which
is the same for a vector and its negation and ignores the signs of zeros.
On the flower a forward halved push locks after about 20 of its 500 steps,
and a backward one often locks onto the negation.  On the linear fixture no
halved push locks.
The s/u series run over Python floats.  The splitting, the series and the
frames keep every bit; the QR means move in their last bits only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .dynamics import billiard_inverse, dist_to_discontinuity
from .errors import (
    DegenerateAngle,
    InequalityViolated,
    MapUndefined,
    NotDiagonal,
    NotHyperbolic,
    OrbitHitsDiscontinuity,
    SeriesDiverging,
    SplittingNotConverged,
)
from .tables import PhasePoint

__all__ = [
    "OrbitSegment",
    "Splitting",
    "SUParams",
    "HyperbolicFrame",
    "LyapunovEstimate",
    "orbit_segment",
    "oseledets_splitting",
    "lyapunov_exponents",
    "s_u_parameters",
    "build_frame",
    "frame_at",
    "frames_along",
    "reduced_cocycle",
    "c_inverse_growth_check",
    "nuh_diagnostics",
]

# series term below this fraction of the partial sum ends the truncation
SERIES_TERM_CUTOFF = 1e-14
# number of terms cap for the s/u series
SERIES_MAX_TERMS = 10_000
# partial sums past this cap mean the weighted series is not summable; the
# cap is deliberately huge — whispering-gallery passages yield genuine s, u
# of 1e10 and beyond, and only sustained geometric growth (chi above the
# local contraction rate) should trip it
SERIES_SUM_CAP = 1e100
# |sin(angle)| below this makes a frame unusable
DEGENERATE_SIN = 1e-12
# relative off-diagonal mass allowed in the reduced cocycle
OFFDIAG_REL_TOL = 1e-8
# largest angle change under push-window halving that counts as converged
CONVERGENCE_TOL = 1e-6
# burn-in floor on both segment sides of a splitting
MIN_WINDOW = 4
# number of blocks whose mean spread bounds the exponent estimate
LYAPUNOV_BLOCKS = 10


# --------------------------------------------------------------- containers
@dataclass(frozen=True)
class OrbitSegment:
    """Orbit points f^n(x) for n in [-n_minus, n_plus] with step data.

    Index-0 of the arrays is n = -n_minus; the base point sits at array index
    `n_minus`.  `derivs[i]` is df at point i (for the last point, computed
    from a probe step that is not part of the segment).

    Distances to the discontinuity set are computed on first request and
    kept: `dist(n)` is d(f^n x, D), also at the two padding points
    n = -n_minus-1 and n_plus+1 held in `ends`, and `rho(n)` is the min of
    `dist` over n-1, n, n+1.  Without `ends` (a segment built with
    `with_rho=False`) both return NaN.
    """

    table: object
    n_minus: int
    n_plus: int
    points: tuple[PhasePoint, ...]
    derivs: np.ndarray  # (len, 2, 2)
    ends: tuple[PhasePoint, PhasePoint] | None = None  # f^-1 of first, f of last
    _dists: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __len__(self) -> int:
        return len(self.points)

    def index(self, n: int) -> int:
        """Array index of relative step n in [-n_minus, n_plus]."""
        if not (-self.n_minus <= n <= self.n_plus):
            raise IndexError(f"step {n} outside [-{self.n_minus}, {self.n_plus}]")
        return n + self.n_minus

    def point(self, n: int) -> PhasePoint:
        return self.points[self.index(n)]

    @property
    def base(self) -> PhasePoint:
        return self.points[self.n_minus]

    def dist(self, n: int) -> float:
        """Distance of f^n x to D, for n in [-n_minus-1, n_plus+1]."""
        if n not in self._dists:
            if n == -self.n_minus - 1 or n == self.n_plus + 1:
                p = self.ends[n > 0] if self.ends else None
            else:
                p = self.point(n)
            self._dists[n] = (math.nan if self.ends is None
                              else dist_to_discontinuity(self.table, p))
        return self._dists[n]

    def rho(self, n: int) -> float:
        """Min distance to D over f^(n-1) x, f^n x and f^(n+1) x."""
        self.index(n)  # raises outside [-n_minus, n_plus]
        return min(self.dist(n - 1), self.dist(n), self.dist(n + 1))


@dataclass(frozen=True)
class Splitting:
    """Unit stable/unstable directions at every segment point.

    Rows i of e_s/e_u correspond to points[i]; the sign convention makes the
    first nonzero coordinate positive.  The convergence fields record the
    angle change when the push-forward window is halved (measured at the base
    point).

    factor_s[j] = ||df_j e_s(j)|| and factor_u[j] = ||df_j e_u(j)|| are the
    one-step norms along the fields.  n-step norms are products of these:
    because each field row is independently accurate, the products track the
    true decay/growth with only linearly accumulating error, whereas pushing
    a single vector n steps lets the complementary component (present at
    machine epsilon) take over after ~|log eps|/(2 lambda) steps.
    """

    e_s: np.ndarray  # (len, 2)
    e_u: np.ndarray  # (len, 2)
    factor_s: np.ndarray  # (len-1,)
    factor_u: np.ndarray  # (len-1,)
    convergence_angle_s: float
    convergence_angle_u: float


@dataclass(frozen=True)
class SUParams:
    """Truncated series parameters at one orbit point."""

    s: float
    u: float


@dataclass(frozen=True)
class HyperbolicFrame:
    """Adapted frame at one point: directions, angle, series weights, C."""

    e_s: np.ndarray
    e_u: np.ndarray
    alpha: float
    s_param: float
    u_param: float
    C: np.ndarray
    chi: float

    @property
    def c_inv_frob(self) -> float:
        """Frobenius norm of C^-1: sqrt(s^2+u^2)/|sin alpha| (closed form)."""
        return math.hypot(self.s_param, self.u_param) / abs(math.sin(self.alpha))

    @property
    def c_frob(self) -> float:
        return float(np.sqrt(np.sum(self.C * self.C)))

    def distance(self, other: HyperbolicFrame) -> float:
        """Frobenius distance ||C - C'||_F between two frames."""
        return float(np.sqrt(np.sum((self.C - other.C) ** 2)))


@dataclass(frozen=True)
class LyapunovEstimate:
    """Birkhoff means of log||df e|| along e_s (lambda1) and e_u (lambda2),
    the sorted means of the QR diagonal's log|R_ii| (computed without a QR,
    see `lyapunov_exponents`) and the confidence radius."""

    lambda1: float
    lambda2: float
    qr_lambda1: float
    qr_lambda2: float
    radius: float


# ------------------------------------------------------------ orbit segment
def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Deterministic orientation of each row of v (N x 2): the first
    coordinate decides its sign, and the second where the first is 0.0.
    A row whose deciding coordinate is not > 0 (NaN included) is negated."""
    keep = np.where(v[:, 0] != 0.0, v[:, 0] > 0.0, v[:, 1] > 0.0)
    return np.where(keep[:, None], v, -v)


def orbit_segment(table, x: PhasePoint, n_minus: int, n_plus: int,
                  with_rho: bool = True) -> OrbitSegment:
    """Collect f^n(x) for n in [-n_minus, n_plus] with derivatives.

    With rho (the default) the segment also keeps the padding points f^-1
    of the first point and f of the last, so that `seg.dist`/`seg.rho` can
    compute distances to D on request; a first point whose preimage is
    undefined raises OrbitHitsDiscontinuity at step -n_minus-1.
    `with_rho=False` takes no padding step and its `dist`/`rho` are NaN —
    intended for long exponent runs where only the derivative cocycle
    matters.
    """
    if n_minus < 0 or n_plus < 0:
        raise ValueError("window lengths must be nonnegative")
    pts, derivs, after = table.orbit(x, n_minus, n_plus)
    ends = None
    if with_rho:
        try:
            ends = (billiard_inverse(table, pts[0]), after)
        except MapUndefined as e:
            raise OrbitHitsDiscontinuity(-n_minus - 1, str(e)) from e
    return OrbitSegment(table, n_minus, n_plus, pts, derivs, ends)


# ------------------------------------------------------------- splitting
def _push_forward(derivs: np.ndarray, start: int, stop: int, v: np.ndarray,
                  out: np.ndarray | None = None, full: np.ndarray | None = None):
    """Multiply v by derivs[start..stop-1], renormalizing; store at [i+1].

    The norm is sqrt(w.w), bit for bit what `np.linalg.norm` returns for a
    real vector, without its wrapper; the product is `np.matmul` (numpy's
    `@`), written straight into its row of `out`.  `full` is an earlier
    push over the same derivs, row i at index i: at the first row where w
    equals it or its negation bitwise the push returns full[stop] or
    -full[stop] (see `_locked`)."""
    w = v / math.sqrt(v.dot(v))
    if out is not None:
        out[start] = w
    lock = None if full is None else _lock_rows(full)
    for i in range(start, stop):
        w = np.matmul(derivs[i], w, out=None if out is None else out[i + 1])
        w /= math.sqrt(w.dot(w))
        if lock is not None and (sign := _locked(w, lock, i + 1)):
            return sign * full[stop]
    return w


def _lock_rows(full: np.ndarray) -> tuple[bytes, bytes]:
    """The bytes of the full push and of its negation, for `_locked`."""
    return full.tobytes(), (-full).tobytes()


def _locked(w: np.ndarray, lock: tuple[bytes, bytes], i: int) -> int:
    """1 when the 2-vector w is bitwise row i of the (N, 2) float64 array
    whose bytes and negation's bytes are `lock`, -1 when it is that row
    negated, 0 otherwise (see the module docstring for why it suffices)."""
    row = w.tobytes()
    if row == lock[0][16 * i:16 * i + 16]:
        return 1
    if row == lock[1][16 * i:16 * i + 16]:
        return -1
    return 0


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def _push_backward(derivs: np.ndarray, start: int, stop: int, v: np.ndarray,
                   out: np.ndarray | None = None, full: np.ndarray | None = None):
    """Multiply v by inverse derivatives from index start down to stop.

    Each step solves with `_umath_linalg.solve1`, the LAPACK gufunc that
    `np.linalg.solve` calls for a 1-D right-hand side, on the same float64
    data, so its bits are `np.linalg.solve`'s; the wrapper's conversions
    and its error settings per call are skipped.  The settings are
    `np.linalg.solve`'s, entered once per push: a singular step raises
    LinAlgError("Singular matrix").  The norm is as in `_push_forward` but
    runs under these settings too, so a solve that overflows (inverse
    entries near 1e308, far from any table's derivatives) gives a zero row
    or raises that error instead of a RuntimeWarning.  `full` stops the
    push at a bitwise match, or a match of the negation, as in
    `_push_forward`."""
    w = v / math.sqrt(v.dot(v))
    if out is not None:
        out[start] = w
    lock = None if full is None else _lock_rows(full)
    with np.errstate(call=_raise_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        for i in range(start - 1, stop - 1, -1):
            w = _umath_linalg.solve1(derivs[i], w, signature="dd->d",
                                     out=None if out is None else out[i])
            w /= math.sqrt(w.dot(w))
            if lock is not None and (sign := _locked(w, lock, i)):
                return sign * full[stop]
    return w


def _angle_between(a: np.ndarray, b: np.ndarray) -> float:
    return math.asin(min(1.0, abs(a[0] * b[1] - a[1] * b[0])))


# generic seed: avoid axis directions so diagonal fixtures don't get stuck on
# the wrong eigendirection
_SEED = np.array([0.6, 0.8])


def oseledets_splitting(seg: OrbitSegment) -> Splitting:
    """Stable/unstable directions by push-forward from the segment ends.

    The unstable direction at index i is the forward push of a generic seed
    from the past end; the stable direction is the backward (inverse-cocycle)
    push from the future end.  Convergence is measured by the angle change at
    the base point when each push window is halved; above `CONVERGENCE_TOL`
    the splitting is rejected.

    `MIN_WINDOW` is only a burn-in floor: sides at or above it can still be
    rejected, because the halving check alone decides convergence.  The
    halved-window angle decays like exp(-gap * side / 2) for an exponent gap
    `gap`, so the sides needed grow like 2 log(1/CONVERGENCE_TOL) / gap.  On
    the default linear fixture (gap 2, tol 1e-6) 5-step sides leave an angle
    of ~1.4e-2 and 15 is the first side length that converges.
    """
    n = len(seg)
    if seg.n_minus < MIN_WINDOW or seg.n_plus < MIN_WINDOW:
        raise ValueError(
            f"segment sides ({seg.n_minus}, {seg.n_plus}) below burn-in {MIN_WINDOW}")
    base = seg.n_minus
    e_u = np.empty((n, 2))
    e_s = np.empty((n, 2))
    _push_forward(seg.derivs, 0, n - 1, _SEED, out=e_u)
    _push_backward(seg.derivs, n - 1, 0, _SEED, out=e_s)

    # halved-window candidates at the base point
    u_half = _push_forward(seg.derivs, base - seg.n_minus // 2, base, _SEED,
                           full=e_u)
    s_half = _push_backward(seg.derivs, base + seg.n_plus - seg.n_plus // 2,
                            base, _SEED, full=e_s)
    ang_u = _angle_between(e_u[base], u_half)
    ang_s = _angle_between(e_s[base], s_half)
    if ang_u > CONVERGENCE_TOL or ang_s > CONVERGENCE_TOL:
        raise SplittingNotConverged(
            f"angle change under window halving: unstable {ang_u:.3e}, "
            f"stable {ang_s:.3e} (tol {CONVERGENCE_TOL:.1e})")
    sep = _angle_between(e_s[base], e_u[base])
    if sep < DEGENERATE_SIN:
        raise SplittingNotConverged(
            f"stable and unstable directions collapse (angle {sep:.3e})")
    e_u = _fix_sign(e_u)
    e_s = _fix_sign(e_s)
    return Splitting(e_s, e_u, _one_step_norms(seg.derivs[:-1], e_s[:-1]),
                     _one_step_norms(seg.derivs[:-1], e_u[:-1]), ang_s, ang_u)


def _one_step_norms(derivs: np.ndarray, e: np.ndarray) -> np.ndarray:
    """||D_j e_j|| for each row j, elementwise: no BLAS call."""
    x = derivs[:, 0, 0] * e[:, 0] + derivs[:, 0, 1] * e[:, 1]
    y = derivs[:, 1, 0] * e[:, 0] + derivs[:, 1, 1] * e[:, 1]
    return np.sqrt(x * x + y * y)


# ------------------------------------------------------------------ exponents
def lyapunov_exponents(seg: OrbitSegment, splitting: Splitting
                       ) -> LyapunovEstimate:
    """Finite-window exponents: Birkhoff means along the splitting, checked
    against the QR cocycle.  The confidence radius is the larger of the
    QR/Birkhoff discrepancy and the spread of LYAPUNOV_BLOCKS block means.

    `qr_lambda1`/`qr_lambda2` are the means of log|R_11| and log|R_22| of
    the QR iteration D_i Q_(i-1) = Q_i R_i started at Q_0 = I, computed
    without a QR: in 2x2, |R_11| is the growth g_i of the first column of
    Q pushed by D_i, and |R_11 R_22| = |det D_i|.  So one unit vector
    starting at e_1 is pushed on Python floats, and log|R_22| is
    log|det D_i| - log g_i.  Unlike the Birkhoff means this push is not
    trimmed, which keeps the cross-check independent."""
    n = len(seg) - 1
    D = seg.derivs[:n]
    growth = []
    x, y = 1.0, 0.0
    for a, b, c, d in D.reshape(n, 4).tolist():
        x, y = a * x + b * y, c * x + d * y
        g = math.sqrt(x * x + y * y)
        x, y = x / g, y / g
        growth.append(g)
    log_g = np.log(growth)
    log_det = np.log(np.abs(D[:, 0, 0] * D[:, 1, 1] - D[:, 0, 1] * D[:, 1, 0]))
    logs = np.column_stack([log_g, log_det - log_g])
    qr_means = np.sort(logs.mean(axis=0))
    qr_l1, qr_l2 = float(qr_means[0]), float(qr_means[1])

    block_means = np.array([
        b.mean(axis=0) for b in np.array_split(logs, min(LYAPUNOV_BLOCKS, n)) if len(b)])
    spread = float(np.max(block_means.std(axis=0))) if len(block_means) > 1 else 0.0

    # trim the seed-contaminated indices near each end: e_u is unreliable
    # close to the past end, e_s close to the future end
    trim = min(max(4, n // 10), max((n - 2) // 2, 0))
    sl = slice(trim, n - trim)
    l1 = float(np.mean(np.log(splitting.factor_s[sl])))
    l2 = float(np.mean(np.log(splitting.factor_u[sl])))
    radius = max(spread, abs(l1 - qr_l1), abs(l2 - qr_l2))
    return LyapunovEstimate(l1, l2, qr_l1, qr_l2, radius)


# --------------------------------------------------------------- s, u series
def _weighted_series(expansions, chi: float) -> float:
    """sum of e^(2 n chi) * (prod of expansion factors up to n)^2, n >= 0.

    `expansions` yields per-step norms; the n=0 term is 1.  At most
    SERIES_MAX_TERMS terms are summed, and a partial sum past SERIES_SUM_CAP
    raises SeriesDiverging.  Returns the partial sum.
    """
    partial = 1.0
    c = 1.0  # running ||df^n e||
    n = 0
    for g in expansions:
        n += 1
        c *= g
        term = math.exp(2.0 * n * chi) * c * c
        partial += term
        if partial > SERIES_SUM_CAP:
            raise SeriesDiverging(
                f"partial sum {partial:.3e} exceeds cap {SERIES_SUM_CAP:.1e} "
                f"after {n} terms (chi={chi} too large here)")
        if term < SERIES_TERM_CUTOFF * partial:
            break
        if n >= SERIES_MAX_TERMS:
            break
    return partial


def _as_floats(a: np.ndarray):
    """The entries of a 1-D array as Python floats, converted in slices of
    doubling length: a series cut short after n terms converts fewer than
    2n + 16 entries, however long the segment."""
    lo, size = 0, 16
    while lo < len(a):
        yield from a[lo:lo + size].tolist()
        lo, size = lo + size, 2 * size


def s_u_parameters(seg: OrbitSegment, splitting: Splitting, chi: float,
                   at: int) -> SUParams:
    """Truncated series parameters at relative step `at`:
    s^2 = 2 sum e^(2n chi) ||df^n e_s||^2 (forward),
    u^2 = 2 sum e^(2n chi) ||df^-n e_u||^2 (backward).

    The n-step norms are products of the splitting's one-step factors; the
    backward unstable norm uses ||df^-1 e_u(x_j)|| = 1/factor_u[j-1] (df maps
    the unstable field to itself up to sign).
    """
    if chi <= 0:
        raise ValueError("chi must be positive")
    i = seg.index(at)
    ssum = _weighted_series(_as_floats(splitting.factor_s[i:]), chi)
    usum = _weighted_series(
        (1.0 / g for g in _as_floats(splitting.factor_u[i - 1::-1])) if i > 0 else (),
        chi)
    return SUParams(math.sqrt(2.0 * ssum), math.sqrt(2.0 * usum))


# -------------------------------------------------------------------- frames
def build_frame(e_s: np.ndarray, e_u: np.ndarray, s_param: float,
                u_param: float, chi: float) -> HyperbolicFrame:
    """Assemble C with columns e_s/s and e_u/u; assert the frame identities.

    The closed form ||C^-1||_F = sqrt(s^2+u^2)/|sin alpha| (`c_inv_frob`) is
    checked against the 2x2 inverse written out: for C = [[p, q], [r, t]],
    ||C^-1||_F = sqrt(p^2+q^2+r^2+t^2)/|pt - qr|.  alpha keeps numpy's
    `np.dot`, because it reaches `c_inv_frob` and the outputs."""
    e_s = np.asarray(e_s, dtype=float)
    e_u = np.asarray(e_u, dtype=float)
    for v in (e_s, e_u):
        if abs(math.hypot(*v.tolist()) - 1.0) > 1e-9:
            raise ValueError("frame directions must be unit vectors")
    if not (s_param >= math.sqrt(2.0) - 1e-12 and u_param >= math.sqrt(2.0) - 1e-12):
        raise ValueError("s and u parameters must be >= sqrt(2)")
    cross = e_s[0] * e_u[1] - e_s[1] * e_u[0]
    if abs(cross) < DEGENERATE_SIN:
        raise DegenerateAngle(f"|sin alpha| = {abs(cross):.3e}")
    alpha = math.acos(max(-1.0, min(1.0, float(np.dot(e_s, e_u)))))
    C = np.column_stack([e_s / s_param, e_u / u_param])
    frame = HyperbolicFrame(e_s, e_u, alpha, float(s_param), float(u_param),
                            C, float(chi))
    # closed-form ||C^-1||_F must match the inverse's own (consistency check)
    (p, q), (r, t) = C.tolist()
    direct = math.sqrt(p * p + q * q + r * r + t * t) / abs(p * t - q * r)
    if abs(direct - frame.c_inv_frob) > 1e-10 * max(1.0, direct):
        raise AssertionError(
            f"frame inverse-norm identity broke: {direct} vs {frame.c_inv_frob}")
    if frame.c_frob > 1.0 + 1e-12:
        raise AssertionError(f"||C||_F = {frame.c_frob} exceeds 1")
    return frame


def frame_at(seg: OrbitSegment, splitting: Splitting, chi: float,
             at: int) -> HyperbolicFrame:
    i = seg.index(at)
    su = s_u_parameters(seg, splitting, chi, at=at)
    return build_frame(splitting.e_s[i], splitting.e_u[i], su.s, su.u, chi)


def frames_along(seg: OrbitSegment, splitting: Splitting, chi: float,
                 lo: int, hi: int) -> list[HyperbolicFrame]:
    """Frames at relative steps lo..hi inclusive."""
    return [frame_at(seg, splitting, chi, at=m) for m in range(lo, hi + 1)]


def reduced_cocycle(D: np.ndarray, chi: float) -> None:
    """Check the reduced cocycle D = C(fx)^-1 df C(x) of frames at level chi:
    it must be diagonal with |A| < e^-chi < e^chi < |B|."""
    scale = float(np.max(np.abs(D)))
    off = max(abs(D[0, 1]), abs(D[1, 0]))
    if off > OFFDIAG_REL_TOL * scale:
        raise NotDiagonal(
            f"off-diagonal mass {off:.3e} vs scale {scale:.3e} "
            f"(frames not from one splitting?)")
    A, B = float(D[0, 0]), float(D[1, 1])
    if not (abs(A) < math.exp(-chi) and abs(B) > math.exp(chi)):
        raise NotHyperbolic(
            f"diagonal ({A:.6f}, {B:.6f}) fails |A| < e^-chi < e^chi < |B| "
            f"for chi={chi}")


# ------------------------------------------------------------------- checks
def c_inverse_growth_check(seg: OrbitSegment, frames: list[HyperbolicFrame],
                           lo: int, a: float) -> dict:
    """Backward growth control of ||C^-1|| by powers of rho.

    frames[k] must be the frame at relative step lo+k.  At every consecutive
    pair, with x the later point: ||C(f^-1 x)^-1|| <= 2 rho(x)^(-2a) *
    (1 + e^chi rho(x)^(-a)) * ||C(x)^-1||.  Log-space margins; raises on a
    negative one.
    """
    worst = (math.inf, None)
    for k in range(1, len(frames)):
        rho_x = seg.rho(lo + k)
        if rho_x <= 0:
            raise InequalityViolated("rho = 0 at an interior point", lo + k)
        chi = frames[k].chi
        lhs = math.log(frames[k - 1].c_inv_frob)
        rhs = (math.log(2.0) - 2.0 * a * math.log(rho_x)
               + math.log1p(math.exp(chi) * rho_x ** (-a))
               + math.log(frames[k].c_inv_frob))
        margin = rhs - lhs
        if margin < worst[0]:
            worst = (margin, lo + k)
        if margin < 0:
            raise InequalityViolated(
                f"||C^-1|| backward growth bound fails at step {lo + k}: "
                f"log-margin {margin:.3e}", lo + k)
    return {"min_margin": worst[0], "at": worst[1], "checked": len(frames) - 1}


def nuh_diagnostics(seg: OrbitSegment, frames: list[HyperbolicFrame],
                    lo: int, q_s: np.ndarray | None = None,
                    q_u: np.ndarray | None = None) -> dict:
    """Finite-window membership proxies for the hyperbolic regular set.

    Reports (no raising): the large-|n| slope of |log rho|, the best return
    distance of C to its base value (forward and backward), the slope of
    |log ||C^-1|| |, and — when the caller supplies chart-size sequences —
    the running max of q_s forward / q_u backward.
    """
    base_k = -lo
    if not (0 <= base_k < len(frames)):
        raise ValueError("frames must cover the base point (lo <= 0 <= hi)")
    ns = np.arange(lo, lo + len(frames))
    far = np.abs(ns) >= max(2, len(frames) // 4)
    if not far.any():
        raise ValueError(
            f"window [{ns[0]}, {ns[-1]}] has no far step: the slopes need a "
            f"step with |n| >= 2")

    rho_at = np.array([seg.rho(int(n)) for n in ns])
    with np.errstate(divide="ignore"):
        log_rho = np.log(rho_at)
    reg_slope = float(np.max(np.abs(log_rho[far]) / np.abs(ns[far])))

    c_inv = np.array([f.c_inv_frob for f in frames])
    c_slope = float(np.max(np.abs(np.log(c_inv[far])) / np.abs(ns[far])))

    dC = np.array([f.distance(frames[base_k]) for f in frames])
    fwd = dC[base_k + 1:]
    bwd = dC[:base_k]
    report = {
        "reg_slope": reg_slope,
        "c_inv_slope": c_slope,
        "best_return_forward": float(fwd.min()) if fwd.size else math.inf,
        "best_return_backward": float(bwd.min()) if bwd.size else math.inf,
        "window": (int(ns[0]), int(ns[-1])),
    }
    if q_s is not None:
        report["q_s_running_max"] = float(np.max(q_s))
        report["q_s_final_running_max"] = float(np.max(q_s[len(q_s) // 2:]))
    if q_u is not None:
        report["q_u_running_max"] = float(np.max(q_u))
        report["q_u_final_running_max"] = float(np.max(q_u[len(q_u) // 2:]))
    return report
