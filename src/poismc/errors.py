"""Exception hierarchy shared by all poismc modules."""


class PoismcError(Exception):
    """Base class for every error this package raises deliberately.

    ``report`` is ``None`` unless the error left a loop that had a last
    good state to hand back. A ``ProjectionFailure`` raised by
    ``alternating_projection`` carries the ``ProjectionReport`` of its
    last sweep. Any error raised inside a solver's iterations, that one
    included, leaves the solver as it was raised, with ``report``
    replaced by the ``SolverReport`` of the last good iterate, whose
    ``termination`` is the error's class name.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# --- region / input validation ---------------------------------------------

class BadShape(PoismcError):
    """Matrix dimensions are missing, non-positive, or non-integer."""


class BadBounds(PoismcError):
    """Entry bounds violate 0 < beta <= alpha, or a rate is too large to draw.

    numpy's Poisson sampler refuses rates above ``synth.POISSON_RATE_MAX``.
    """


class BadRank(PoismcError):
    """Rank budget outside 1..min(d1, d2)."""


class BadObservations(PoismcError):
    """Observation triples are out of range, duplicated, or non-integer."""


class ShapeMismatch(PoismcError):
    """Operands do not share the required shape."""


class NonPositiveParameter(PoismcError):
    """A divergence was evaluated at a non-positive rate."""


class NonPositiveEntryAtObservation(PoismcError):
    """The objective was evaluated at a non-positive entry on the sample set."""


# --- projections / factorizations -------------------------------------------

class BadRadius(PoismcError):
    """Nuclear-ball radius must be strictly positive."""


class BadTau(PoismcError):
    """Shrinkage threshold must be nonnegative."""


class SvdFailure(PoismcError):
    """The underlying SVD routine did not converge."""


class ProjectionFailure(PoismcError):
    """Alternating projection hit its iteration cap with gap above tolerance.

    Raised by ``alternating_projection`` with the ``ProjectionReport`` of
    the last sweep in ``.report``; a solver whose projection fails passes
    it on with the ``SolverReport`` of the last good iterate there
    instead.
    """


# --- solvers -----------------------------------------------------------------

class BacktrackOverflow(PoismcError):
    """Backtracking inflated the reciprocal step size past 1e15."""


# --- synthesis ----------------------------------------------------------------

class BadM(PoismcError):
    """Requested expected sample count outside (0, d1*d2]."""


class NonPositiveIntensity(PoismcError):
    """Poisson rates must be strictly positive on the sampled cells."""


class RankInfeasible(PoismcError):
    """Requested rank too small for a non-constant ground truth."""


class DegenerateRange(PoismcError):
    """Generated factor product is constant; cannot rescale."""


# --- imaging / file I/O --------------------------------------------------------

class IndivisibleLayout(PoismcError):
    """Patch size does not divide the image dimensions."""


class UnsupportedFormat(PoismcError):
    """File magic or extension is not one of the supported formats."""


class CorruptFile(PoismcError):
    """File content does not parse under its declared format."""


class IoFailure(PoismcError):
    """Underlying OS-level read or write failed."""

