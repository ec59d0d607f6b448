"""The base class of every error netctrl raises for a bad input or request."""


class NetctrlError(Exception):
    """Base of ParseError, ValidationError, PreconditionError, UnsolvableError
    and SingularSampleError.  Each also keeps its ValueError or RuntimeError
    base, so ``except NetctrlError`` catches any of them and older handlers
    keep working."""
