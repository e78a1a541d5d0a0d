"""Exception types shared across the package."""


class CapacityError(ValueError):
    """Requested size exceeds a hard limit (64 vertices,
    oracle.MAX_ENUM_VERTICES for enumeration, or one of the arithmetic
    limits in qfunction)."""


class InvalidVertexError(ValueError):
    """A vertex index is outside the graph's vertex range."""


class InvalidEdgeError(ValueError):
    """An edge is malformed (loop, or invalid circulant connection distance)."""


class Graph6Error(ValueError):
    """A graph6 string is malformed, truncated, or has trailing bytes."""


class UnsupportedWitnessError(LookupError):
    """No verified witness graph is available for the requested vertex count."""


class PreconditionError(ValueError):
    """An operation's precondition does not hold for the given input."""
