"""Exception hierarchy shared across the package."""


class PrunelabError(Exception):
    """Base class for every error raised by this package."""


class AlignmentError(PrunelabError):
    """Layer counts or array shapes do not line up."""


class DomainError(PrunelabError):
    """An argument is outside its documented domain."""


class NumericsError(PrunelabError):
    """A computation produced a non-finite value."""


class DegenerateStepError(PrunelabError):
    """A finite-difference probe had zero direction or vanishing step."""


class DegenerateGradientError(PrunelabError):
    """A criterion needed a nonzero gradient but got none."""


class EmptyNetworkError(PrunelabError):
    """A pruning target would retain zero weights overall."""


class InfeasibleSparsityError(PrunelabError):
    """No schedule can meet the requested sparsity on this architecture."""


class TrainingDivergedError(PrunelabError):
    """Training produced a non-finite loss or non-finite weights."""

    def __init__(self, message, epoch):
        super().__init__(message)
        self.epoch = epoch


class DatasetError(PrunelabError):
    """A dataset source could not be parsed or validated."""


class ConfigError(PrunelabError):
    """An experiment configuration is malformed."""
