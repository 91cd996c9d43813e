"""Exception types shared by all srlkit modules."""


class SrlkitError(Exception):
    """Base class for all srlkit errors."""


class MalformedTable(SrlkitError):
    """An operation table has the wrong shape, an out-of-range entry, or a
    meet table that is not a semilattice table."""


class NotResiduated(SrlkitError):
    """No residual table exists: some pair (b, c) has no maximum a with
    a*b <= c."""

    def __init__(self, b, c, message=None):
        self.b = b
        self.c = c
        super().__init__(message or f"no maximum witness for residual({b}, {c})")


class DerivedLawFailure(SrlkitError):
    """A law that is a theorem for every valid algebra failed; this signals
    an internal soundness bug, not bad input."""


class NotASubalgebra(SrlkitError):
    """The given element set is not closed under the operations (or misses a
    distinguished constant)."""


class NotAFilter(SrlkitError):
    """The given element set is not a (deductive) filter of the algebra."""


class NotBrouwerian(SrlkitError):
    """A duality operation was applied to an algebra outside the class the
    requested mode supports."""


class NoTop(SrlkitError):
    """Pointed-mode duality requires a poset with a greatest element."""


class NoBottom(NotBrouwerian):
    """Proper-mode duality requires a Heyting algebra, and the Brouwerian
    algebra given has no designated bottom."""


class WrongSignature(SrlkitError):
    """Operands have incompatible signatures, or a construction received an
    algebra of the wrong signature."""


class VerificationFailure(SrlkitError):
    """An internal cross-check of a mathematically guaranteed fact failed;
    always indicates an implementation bug."""


class HypothesesNotMet(SrlkitError):
    """A precondition of the epimorphism machinery does not hold.

    The message names the failing hypothesis.
    """


class UnknownName(SrlkitError):
    """No catalog entry with the requested name."""


class BadParams(SrlkitError):
    """Catalog entry parameters are missing, extraneous, or out of range."""


class ParseError(SrlkitError):
    """An algebra document could not be parsed."""


class ValidationError(SrlkitError):
    """A parsed algebra document failed axiom validation.

    Carries the axiom report so callers can inspect the witnesses.
    """

    def __init__(self, report, message="document describes an invalid algebra"):
        self.report = report
        super().__init__(message)


class BoundExceeded(SrlkitError):
    """Requested enumeration size exceeds the configured bound."""
