"""Exception types shared across the toolkit."""


class SaetError(Exception):
    pass


class DegenerateSimplex(SaetError):
    """Vertex positions are affinely dependent."""


class BadGlue(SaetError):
    """Two simplices meet outside a common face."""


class NotInClosure(SaetError):
    """Queried simplex is not a face of any member simplex."""


class NotCommonFace(SaetError):
    """The two simplices do not intersect in a common face."""


class CertificationFailure(SaetError):
    """Interval refinement exceeded its cap while certifying an inequality."""


class NotAFace(SaetError):
    pass


class BadOrder(SaetError):
    """Deformation scales must satisfy 0 < s < s'."""


class OutOfDomain(SaetError):
    pass


class NotEventuallyInDomain(SaetError):
    """The path germ does not settle into a single member open simplex."""


class PoleAtZero(SaetError):
    """The denominator germ vanishes to higher order than the numerator."""


class LimitOutsideClosure(SaetError):
    pass


class GermInBadSet(SaetError):
    """The germ lies in the conflict set or outside the extension domain."""


class PreconditionViolated(SaetError):
    pass


class SameApex(SaetError):
    pass


class GermNotInTau(SaetError):
    pass


class Unbounded(SaetError):
    pass


class ParseError(SaetError):
    pass


class DimensionTooHigh(SaetError):
    pass
