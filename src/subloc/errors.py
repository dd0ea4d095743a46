"""Exception types shared across the package."""


class NotAFrame(ValueError):
    """The lattice fails the (finite) frame distributivity law."""


class NotACoframe(ValueError):
    """The lattice fails the (finite) coframe distributivity law."""


class NotProper(ValueError):
    """A fitted-sublocale collection failed a properness-dependent check."""


class SizeLimit(RuntimeError):
    """An input or enumeration exceeded its configured bound."""


class InternalInconsistency(RuntimeError):
    """Two computations of the same thing disagree: a bug, not bad input.

    Raised explicitly rather than asserted, so the cross-checks also run
    under ``python -O``.
    """
