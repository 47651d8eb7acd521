"""Exception hierarchy shared by every module in the package.

Everything raised on purpose derives from EnetError so callers (and the CLI)
can catch one type and map it to a nonzero exit code.
"""


class EnetError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(EnetError):
    """Tensor shape or kernel-geometry precondition violated."""


class BuildError(EnetError):
    """Graph construction asked for an unsatisfiable configuration."""


class ValidationError(EnetError):
    """A graph or weight store failed structural validation."""


class FoldError(EnetError):
    """Batch-norm statistics cannot be folded into a convolution."""


class CorruptIndicesError(EnetError):
    """A pooling window code is outside 0..3 (2*row + col)."""


class ExecutionError(EnetError):
    """Runtime failure while executing a graph."""


class FormatError(EnetError):
    """A serialized file (weights, image, histogram) is malformed."""


class PaletteError(EnetError):
    """A color palette is missing or does not cover a requested class."""
