"""Exception types shared across the package, one per refusal exit code."""


class QisimError(Exception):
    """Base class for all qisim errors."""


class InputError(QisimError):
    """An argument or the run configuration violates a documented
    precondition (exit 2)."""


class ModelError(QisimError):
    """The model or its grid cannot answer: a grid too narrow, too coarse
    or aliased, no transparency window, zero retrieval probability,
    classical photon statistics, a failed fit (exit 3)."""
