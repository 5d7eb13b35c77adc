"""Failures of the model stack, kept free of imports so the CLI can map them
to exit code 4 without loading the model stack."""


class NonFiniteError(FloatingPointError):
    """Raised when a primitive produces a non-finite value."""

    def __init__(self, op: str):
        super().__init__(f"{op}: non-finite output")
        self.op = op


class TrainingDiverged(RuntimeError):
    """A training step's forward pass made a non-finite value; raised from
    the tape's NonFiniteError, whose op it names."""

    def __init__(self, epoch: int, step: int, op: str):
        super().__init__(f"training diverged at epoch {epoch}, step {step}: "
                         f"non-finite output of {op}")
        self.epoch = epoch
        self.step = step


class RolloutDivergence(RuntimeError):
    def __init__(self, step: int, reason: str):
        super().__init__(f"latent rollout diverged at step {step}: {reason}")
        self.step = step
