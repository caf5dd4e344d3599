"""Exception types shared across the package."""


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
