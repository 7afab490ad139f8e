"""Exception types shared across the package."""


class GaspError(Exception):
    """Base class for all package-specific failures."""


class ParameterError(GaspError, ValueError):
    """Invalid argument, out-of-range parameter, or shape mismatch."""


class SingularMatrixError(GaspError, ArithmeticError):
    """A linear solve or inversion hit a singular matrix."""


class PlanSearchError(GaspError, RuntimeError):
    """Evaluation-point search exhausted its attempt budget.

    ``rejections`` maps each plan condition ("gv", "alpha_mds",
    "beta_mds") to the number of candidates that failed it first.
    """

    def __init__(self, attempts: int, rejections: dict[str, int]):
        reasons = ", ".join(f"{name} {count}" for name, count in rejections.items() if count)
        message = f"no valid evaluation points after {attempts} attempts"
        super().__init__(f"{message}: {reasons}" if reasons else message)
        self.attempts = attempts
        self.rejections = dict(rejections)


class PlanVerificationError(GaspError, RuntimeError):
    """Explicitly supplied evaluation points failed verification."""


class VerificationError(GaspError, RuntimeError):
    """A decoded product did not match the directly computed one."""


class BudgetExceededError(GaspError, RuntimeError):
    """An exhaustive audit refused to run past its step budget."""
