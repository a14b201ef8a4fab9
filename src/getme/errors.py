"""Exception types shared across the package."""


class GetmeError(Exception):
    """Base class for all package errors."""


class DegenerateElement(GetmeError):
    """An element is too close to degenerate for the requested operation.
    Only the single-element API raises it; the mesh path never does."""


class InvalidTopology(GetmeError):
    """Mesh connectivity is inconsistent (e.g. a facet shared by >2 elements)."""


class InvalidMesh(GetmeError):
    """A mesh does not satisfy the preconditions of an operation."""


class InvalidSpec(GetmeError):
    """A generator specification is out of range."""


class ParseError(GetmeError):
    """A mesh file could not be parsed.

    Carries the offending line number and token where available.
    """

    def __init__(self, message, line=None, token=None):
        self.line = line
        self.token = token
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedElementType(ParseError):
    """The file contains an element type this package does not handle."""


class MixedElementTypes(ParseError):
    """The file mixes more than one element type."""
