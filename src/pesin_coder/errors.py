"""Exception types shared across the package.

Every error carries enough context (witness point, failing index, violated
bound) to reproduce the failure from a report line.
"""
from __future__ import annotations


class PesinCoderError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- geometry
class MapUndefined(PesinCoderError):
    """The map (or a geometric search it relies on) is undefined here."""


class GrazingCollision(MapUndefined):
    """Ray meets the boundary tangentially (|cos theta'| below tolerance)."""


class CornerHit(MapUndefined):
    """Traced ray lands on a boundary junction within tolerance."""


class NoIntersection(MapUndefined):
    """Ray-boundary intersection search failed (geometry inconsistency)."""


class AssumptionViolated(PesinCoderError):
    """A regularity assumption fails at a sampled point.

    Attributes: assumption_id (str, e.g. "A5"), witness (the offending point),
    margin (signed; negative = violated).
    """

    def __init__(self, assumption_id: str, witness, margin: float):
        self.assumption_id = assumption_id
        self.witness = witness
        self.margin = margin
        super().__init__(f"{assumption_id} violated (margin {margin:.3e}) at {witness}")


class FormsDisagree(PesinCoderError):
    """A billiard table's `step_many` refused a row that its scalar rerun
    maps.  The rerun's embed shares the rows' refusal and loop walk, and
    its offset their junction offset, so only the step can disagree:
    `accel.run_step_many` refused a step that `accel.run_orbit` takes, and
    the bitwise pin between the two forms is broken.

    Attributes: row (the row's index), point (its embedded start point).
    """

    def __init__(self, row: int, point):
        self.row = row
        self.point = point
        super().__init__(f"row {row} of step_many fails in the array form "
                         f"only, from {point}")


# ---------------------------------------------------------------- cocycle
class OrbitHitsDiscontinuity(PesinCoderError):
    """Orbit generation failed at step n (grazing/corner/escape)."""

    def __init__(self, n: int, reason: str):
        self.n = n
        self.reason = reason
        super().__init__(f"orbit hits discontinuity at step {n}: {reason}")


class SplittingNotConverged(PesinCoderError):
    """Push-forward directions keep oscillating; no hyperbolic splitting."""


class SeriesDiverging(PesinCoderError):
    """A partial sum of the s/u series is not <= the configured cap: it
    grew past it, a weight e^(2n chi) overflowed, or a factor was 0."""


class DegenerateAngle(PesinCoderError):
    """|sin(angle between e_s and e_u)| below 1e-12."""


class NotDiagonal(PesinCoderError):
    """Reduced cocycle has off-diagonal mass above tolerance."""


class NotHyperbolic(PesinCoderError):
    """Reduced cocycle diagonal fails |A| < e^-chi or |B| > e^chi."""


class InequalityViolated(PesinCoderError):
    """A per-point inequality check failed (carries the witness index)."""

    def __init__(self, message: str, witness):
        self.witness = witness
        super().__init__(message)


# ---------------------------------------------------------------- charts
class OutOfDomain(PesinCoderError):
    """Offset asked between points that share no coordinates: points on
    different boundary loops of a billiard table, or on different components
    of the linear fixture (`offset` and `step_many`; `chart_invert` passes
    it on)."""


class DomainEscape(PesinCoderError):
    """Image of a chart-coordinate map leaves the target chart domain."""


class BoundViolated(PesinCoderError):
    """A measured value fails its asserted bound: it lies above the bound,
    or at it for a strict bound, or it is NaN.  The message names the bound
    and both values and claims no order between them.

    Attributes: bound_name, measured, allowed.
    """

    def __init__(self, bound_name: str, measured: float, allowed: float):
        self.bound_name = bound_name
        self.measured = measured
        self.allowed = allowed
        super().__init__(f"{bound_name}: bound not met, measured "
                         f"{measured:.6e}, allowed {allowed:.6e}")


class OverlapMissing(PesinCoderError):
    """chart_map_fxy's target chart is too far from the image of the source
    chart's center: d(f x, y) >= (eta_x eta_y)^4, compared in log space and
    only for d above OVERLAP_DISTANCE_FLOOR."""


# ---------------------------------------------------------------- manifolds
class AdmissibilityViolated(PesinCoderError):
    """One of the three admissibility conditions fails.

    Attributes: condition (str: "AM1"|"AM2"|"AM3"), measured, allowed.
    """

    def __init__(self, condition: str, measured: float, allowed: float):
        self.condition = condition
        self.measured = measured
        self.allowed = allowed
        super().__init__(f"{condition}: measured {measured:.6e} > allowed {allowed:.6e}")


class GraphFolded(PesinCoderError):
    """Transformed graph lost monotonicity of the projected coordinate."""


class ContractionViolated(PesinCoderError):
    """Measured graph-transform contraction factor exceeds its bound."""


class NotConverged(PesinCoderError):
    """A manifold limit disagrees with the limit swept from an independent
    admissible seed by more than the allowance.  A limit that misses the
    C1 convergence cutoff is not an error: its log reads converged False."""


class MultipleIntersections(PesinCoderError):
    """Sign scan found more than one stable/unstable crossing."""


class ShadowEscape(PesinCoderError):
    """Shadowed orbit leaves a chart window.

    Attribute: n (first violating index).
    """

    def __init__(self, n: int, message: str):
        self.n = n
        super().__init__(message)


# ---------------------------------------------------------------- coding
class NoBinCenter(PesinCoderError):
    """No selected alphabet center covers this orbit point's bin.

    Attributes: n (orbit index), signature (the missing bin signature).
    """

    def __init__(self, n: int, signature):
        self.n = n
        self.signature = signature
        super().__init__(f"no alphabet center covers orbit index {n} (bin {signature})")


class EmptyAlphabet(PesinCoderError):
    """Coarse graining produced no vertices (sampling too sparse)."""


class DiagnosticFailed(PesinCoderError):
    """A coding diagnostic failed: an inverse-theorem item or a
    discreteness bound.

    Attributes: item (int 1..6, "maximality" or "discreteness"), n (the
    step, or the vertex index of a discreteness bound).
    """

    def __init__(self, item, n: int, message: str):
        self.item = item
        self.n = n
        super().__init__(message)
