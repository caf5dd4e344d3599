"""Exception types shared across the package, and the whole-number check
of every count knob."""


class ConfigurationError(ValueError):
    """Invalid geometry, grid, or solver configuration."""


class DivergenceError(RuntimeError):
    """Iterative solver left its stability envelope.

    Carries the objective trace collected up to the failing iteration so the
    caller can inspect what happened, and the failing ``column`` of a fiber
    batch (None for a single problem).
    """

    def __init__(self, message, objective_trace=None, column=None):
        super().__init__(message)
        self.objective_trace = list(objective_trace) if objective_trace else []
        self.column = column


def whole_number(name, v, least=1):
    """v as an int; ConfigurationError naming the knob unless it is a whole number >= ``least``."""
    if not float(v).is_integer():
        raise ConfigurationError(f"{name} must be a whole number, got {v!r}")
    if v < least:
        raise ConfigurationError(f"{name} must be >= {least}, got {v!r}")
    return int(v)
