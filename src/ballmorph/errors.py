"""Exception types shared across the library."""


class GeometryError(Exception):
    """Base class for geometric failures."""


class CoincidentCenters(GeometryError):
    """Two ball centers closer than the geometric tolerance."""


class NoIntersection(GeometryError):
    """A pair of spheres does not intersect in a circle."""


class NonRealizableTriangle(GeometryError):
    """Squared-cosine parameters do not describe a spherical triangle; the
    first such triangle of a call on arrays is at ``index``."""

    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index


class DegenerateState(GeometryError):
    """The ball configuration violates general position.

    ``simplex`` identifies the offending tuple of ball indices and
    ``residual`` how far the configuration is from the exact degeneracy.
    """

    def __init__(self, message, simplex=None, residual=None):
        super().__init__(message)
        self.simplex = tuple(simplex) if simplex is not None else None
        self.residual = residual


class OracleDegenerate(GeometryError):
    """A finite-difference probe stepped across a degenerate state."""


class Unclassifiable(GeometryError):
    """A topological event whose side tests are themselves degenerate."""


class DimensionMismatch(ValueError):
    """Vector lengths do not agree with the number of balls."""


class ParseError(ValueError):
    """Malformed diagram or momentum file."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ValidationError(ValueError):
    """Input values violate an invariant (for instance r <= 0)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line
