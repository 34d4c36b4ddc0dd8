"""Exception types shared across the workbench."""


class LoopbenchError(Exception):
    """Base class for all workbench errors."""


class SimulationDiverged(LoopbenchError):
    """Numerical blow-up during a simulation run."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


class ControllerFault(LoopbenchError):
    """A controller produced or received a non-finite value."""


class SyncImpossible(LoopbenchError):
    """Bumpless-transfer sync cannot reach the requested output (no integral action)."""


class IdentificationError(LoopbenchError):
    """Base for step-test identification failures."""


class NotSettled(IdentificationError):
    """Step response never reached a steady final value within the horizon."""


class IdentificationFailed(IdentificationError):
    """Step response unusable (flat, non-monotone, or missing a step)."""


class NoLimitCycle(LoopbenchError):
    """Relay experiment produced no sustained oscillation."""


class RuleInapplicable(LoopbenchError):
    """Tuning rule preconditions violated (e.g. zero dead time)."""


class TrainingDiverged(LoopbenchError):
    """Loss became non-finite during training."""

    def __init__(self, message: str, epoch: int):
        super().__init__(f"{message} (epoch {epoch})")
        self.epoch = epoch


class TrainingUnstable(LoopbenchError):
    """Too many rollout episodes diverged in one epoch."""


class TuningFailed(LoopbenchError):
    """Every candidate evaluation diverged during gain search."""


class RolloutDiverged(LoopbenchError):
    """Free-running model prediction became non-finite."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


class MustResample(LoopbenchError):
    """Operation requires a uniformly sampled series."""


class TooShort(LoopbenchError):
    """Series or split block too short for the requested operation."""


class UnrecoverableFault(LoopbenchError):
    """The fallback path itself failed; the run cannot continue safely."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


class IncomparableError(LoopbenchError):
    """Trajectories do not share a reference/disturbance and cannot be compared."""


class ParseError(LoopbenchError):
    """Malformed time-series file; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(LoopbenchError):
    """Experiment config validation failure; carries the offending key path."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
