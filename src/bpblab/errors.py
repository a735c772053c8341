"""Exception hierarchy for bpblab."""


class BpbLabError(Exception):
    """Base class for all bpblab errors."""


class UnsupportedExponentError(BpbLabError):
    """Exponent outside the range an operation supports."""


class UnsupportedSpaceError(BpbLabError):
    """Space (exponent/dimension combination) not handled by this operation."""


class MixedSpacesError(BpbLabError):
    """Arguments live in different spaces."""


class NonFiniteError(BpbLabError):
    """Numeric input holds NaN or an infinity."""


class ZeroVectorError(BpbLabError):
    """A nonzero vector was required."""


class OutOfRangeError(BpbLabError):
    """Numeric argument outside its admissible interval."""


class ZeroOperatorError(BpbLabError):
    """The zero operator has no norm attainment set."""


class WrongSpacesError(BpbLabError):
    """Operator domain/codomain do not match what the operation requires."""


class NormNotOneError(BpbLabError):
    """Operator must have norm one (within tolerance)."""


class DegenerateBasisError(BpbLabError):
    """Supplied basis vectors are linearly dependent."""


class InfiniteGroupError(BpbLabError):
    """The requested enumeration is infinite (Hilbert isometry group)."""


class ConstructionError(BpbLabError):
    """An approximant constructor's preconditions failed."""


class NotRankOneError(ConstructionError):
    """Rank-one constructor applied to an operator of different rank."""


class CodomainDimOneError(ConstructionError):
    """Rank-one construction needs a codomain of dimension > 1."""


class NotAMidpointError(ConstructionError):
    """T is not the midpoint of the supplied pair."""


class DegenerateWitnessError(ConstructionError):
    """Midpoint witness coincides with the operator itself."""


class NotComplementaryError(ConstructionError):
    """The two subspaces do not decompose the domain."""


class OrthogonalityError(ConstructionError):
    """Required Birkhoff-James orthogonality fails on basis probes."""


class ZeroOnX2Error(ConstructionError):
    """Operator vanishes on the shrink component; construction is trivial."""


class IsIsometryError(ConstructionError):
    """Operation excludes isometries."""


class ConditionFailsError(ConstructionError):
    """Required sign-pattern condition (row/column) fails."""


class NotInEnumerationError(ConstructionError):
    """Operator is not one of the enumerated extreme contractions."""


class ObstructionError(ConstructionError):
    """Full norm on the attainment complement; preservation impossible."""


class BadIndexError(ConstructionError):
    """Family index must exceed one."""


class NotDiscreteError(BpbLabError):
    """Attainment set is not a finite point set."""


class BadExponentError(BpbLabError):
    """Integer exponent outside the supported set."""


class UnsupportedPairError(UnsupportedSpaceError):
    """Domain and codomain pair outside the geometries an operation covers."""


class MalformedInputError(BpbLabError):
    """Malformed JSON payload or unusable file; `field` names the entry or flag."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
