"""Exception types shared across the package, and the argument type check that raises one."""


class GaspError(Exception):
    """Base class for all package-specific failures."""


class ParameterError(GaspError, ValueError):
    """Invalid argument, out-of-range parameter, or shape mismatch."""


def check_type(name: str, value, cls: type) -> None:
    """Raise :class:`ParameterError` unless ``value`` is a ``cls``.

    Called where an argument enters the package: None, a tuple of sizes,
    a list of rows or a bare modulus would otherwise fail later on an
    attribute or ``len()`` with a bare ``AttributeError`` or ``TypeError``.
    """
    if not isinstance(value, cls):
        kind = f"an {cls.__name__}" if cls.__name__[0] in "AEIOUaeiou" else f"a {cls.__name__}"
        raise ParameterError(f"{name} must be {kind}, got {type(value).__name__}")


def check_positive(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an int >= 1, not a bool or float."""
    if type(value) is not int or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")


def check_int(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an int, not a bool or float."""
    if type(value) is not int:
        raise ParameterError(f"{name} must be an int, got {value!r}")


class SingularMatrixError(GaspError, ArithmeticError):
    """A matrix inversion hit a singular matrix."""


class PlanSearchError(GaspError, RuntimeError):
    """Plan search rejected every candidate generator.

    ``attempts`` is the number of generators tried, and ``rejections``
    maps each plan condition ("gv", "alpha_mds", "beta_mds") to the
    number of candidates that failed it first.
    """

    def __init__(self, attempts: int, rejections: dict[str, int]):
        check_type("rejections", rejections, dict)
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
    ``gf.is_power_mds``, each before doing any work.  Plan search and the
    algebraic audit take that walk only for mask exponents that are no
    arithmetic progression (grouped codes); it is anchored at column 0 on
    a plan's geometric points, and its cost is checked as such.  The
    small and big codes take the O(N) certificate and never raise it.
    """
