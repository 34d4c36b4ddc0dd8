"""The three error kinds, one CLI exit code each, and the few subclasses that
something catches by type or reads a field of."""


class ConfigError(Exception):
    """Experiment config validation failure (exit 2); carries the offending key path."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class NumericalFailure(Exception):
    """A computation could not produce a usable result (exit 3)."""


class SimulationDiverged(NumericalFailure):
    """Numerical blow-up during a simulation or a model rollout."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


class ControllerFault(NumericalFailure):
    """A controller produced or received a non-finite value."""


class DataError(Exception):
    """A data file or series unusable for the requested operation (exit 4)."""


class ParseError(DataError):
    """Malformed file; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MustResample(DataError):
    """Operation requires a uniformly sampled series."""
