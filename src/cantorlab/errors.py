"""Exception types shared across the laboratory.

Every named failure mode of an operation gets its own class so that batch
reports (and tests) can key on the class name.  All of them derive from
CantorLabError; payload-carrying errors keep their data as attributes.
"""

from __future__ import annotations


class CantorLabError(Exception):
    """Base class for all operation-level failures."""


class PowerOfEpsilon(CantorLabError):
    """Concatenation power requested with the empty string as a generator."""


class InvalidThreshold(CantorLabError):
    """Winning-set threshold must be a rational strictly greater than 1."""


class ZeroPrefix(CantorLabError):
    """Averaging base has a zero-capital prefix and the positivity shift is off."""


class NotWinningSet(CantorLabError):
    """Claimed winning set is inconsistent with the supplied martingale."""


class DeadCapital(CantorLabError):
    """A construction divides by the martingale value at a zero-capital node."""


class AlreadyWon(CantorLabError):
    """Capital at the conditioning node already reached the threshold."""


class Unbounded(CantorLabError):
    """A bounded (measure < 1) generator set was required."""


class TailEscapes(CantorLabError):
    """Some tail of the supplied point is outside the covering open set."""

    def __init__(self, tail):
        self.tail = tail
        super().__init__(f"tail {tail} escapes the cover")


class MissingLevel(CantorLabError):
    """Test family does not supply the level index the construction needs."""


class MissingStage(CantorLabError):
    """Staged open set does not supply the requested stage."""


class FullConditional(CantorLabError):
    """Conditional measure equals 1 where a strict bound was required."""


class BadThreshold(CantorLabError):
    """Cylinder-selection threshold is outside the admissible range."""


class SlackViolated(CantorLabError):
    """Measure slack precondition (strict room below 1) does not hold."""


class SearchExhausted(CantorLabError):
    """A bounded search hit its cap before finding a witness."""

    def __init__(self, message, frontier=None):
        self.frontier = frontier
        super().__init__(message)


class NoEscape(CantorLabError):
    """Diagonalization found no extension in W with conditional measure < 1.

    This is the contradiction branch of the finite-extension construction;
    the attached certificate shows [W] covered by a set of the provider's
    class.
    """

    def __init__(self, stage, sigma, certificate):
        self.stage = stage
        self.sigma = sigma
        self.certificate = certificate
        super().__init__(f"no escape at stage {stage} (prefix {sigma!r})")


class WeightOverflow(CantorLabError):
    """Kraft weight of a request list exceeds 1."""


class AllocationFailed(CantorLabError):
    """Leftmost fit found no free interval for a request of an admissible list."""


class SumMismatch(CantorLabError):
    """A flattened series lost or gained sum against its last stage."""


class NTooSmall(CantorLabError):
    """Normalization target is below the current sum."""


class NonMonotone(CantorLabError):
    """Staged table fails to be nondecreasing."""


class NonDyadicAlpha(CantorLabError):
    """Coordinate-interval endpoint must be a dyadic rational."""


class ValueOverOne(CantorLabError):
    """Series value exceeds 1 where a probability was required."""


class WeightTooLarge(CantorLabError):
    """Reserved betting weight is incompatible with the target threshold."""


class ParseError(CantorLabError):
    """Input document does not parse into the expected shape."""


class UnknownSubcommand(CantorLabError):
    """Batch front door received an unknown operation name."""
