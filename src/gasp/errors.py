"""Exception types shared across the package."""


class GaspError(Exception):
    """Base class for all package-specific failures."""


class ParameterError(GaspError, ValueError):
    """Invalid argument, out-of-range parameter, or shape mismatch."""


class SingularMatrixError(GaspError, ArithmeticError):
    """A matrix inversion hit a singular matrix."""


class PlanSearchError(GaspError, RuntimeError):
    """Plan search rejected every candidate generator.

    ``attempts`` is the number of generators tried, and ``rejections``
    maps each plan condition ("gv", "alpha_mds", "beta_mds") to the
    number of candidates that failed it first.
    """

    def __init__(self, attempts: int, rejections: dict[str, int]):
        reasons = ", ".join(f"{name} {count}" for name, count in rejections.items() if count)
        message = f"no valid generator among {attempts} candidates"
        super().__init__(f"{message}: {reasons}" if reasons else message)
        self.attempts = attempts
        self.rejections = dict(rejections)


class VerificationError(GaspError, RuntimeError):
    """A decoded product did not match the directly computed one."""


class BudgetExceededError(GaspError, RuntimeError):
    """An enumeration refused to start because it would exceed its step budget.

    Raised by the exhaustive privacy audit and by the MDS walk of
    ``gf.is_mds``, each before doing any work.
    """
