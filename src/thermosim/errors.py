"""Shared exception types."""


class ContractViolationError(ValueError):
    """An argument breaks a documented precondition (shape, sign, domain)."""


class DivergenceError(RuntimeError):
    """A numerical integration produced non-finite or runaway values.

    Raising sites record where as attributes, None where they do not apply:
    ``trajectory`` (ensemble member index); ``step``, the step the message
    names (for an integrator the steps taken when the bad state appeared,
    for training the 0-based optimizer step whose loss was non-finite);
    ``t``, the time of that state; and ``max_abs``, its largest |v| (nan if
    it holds a nan).
    """

    def __init__(self, message, *, trajectory=None, step=None, t=None, max_abs=None):
        super().__init__(message)
        self.trajectory, self.step, self.t, self.max_abs = trajectory, step, t, max_abs


class ConfigError(ValueError):
    """An experiment configuration failed validation."""
