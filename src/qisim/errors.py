"""Exception types shared across the package."""


class QisimError(Exception):
    """Base class for all qisim errors."""


class InputError(QisimError):
    """An argument violates a documented precondition."""


class ResolutionError(QisimError):
    """A grid is too narrow, too coarse, or aliased for the requested
    computation."""


class ModelError(QisimError):
    """The model left its validity regime (no transparency window, zero
    retrieval probability, classical photon statistics, failed fit)."""


class ConfigError(QisimError):
    """Malformed or inconsistent run configuration."""
