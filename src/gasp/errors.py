"""Exception types shared across the package, the argument checks that raise
them, and ``_Value``, the base of the package's value classes.

Every module imports this one, so the value classes' shared methods live
here too.  A value class is declared by subclassing ``_Value`` alone:
``_Value.__init_subclass__`` makes each subclass a dataclass, asking
``dataclasses`` for no methods at all: ``__eq__``,
``__hash__``, ``__repr__``, ``__setattr__`` and ``__delattr__`` come from
``_Value``.  A class writes its own ``__init__`` only when it checks or
derives a field; the others take ``_Value``'s, whose signature comes from
their fields.  A frozen dataclass compiles about six method sources per
class with ``exec``; for the package's 13 value classes that was most of
its import time.
"""

import inspect
import operator
from dataclasses import FrozenInstanceError, dataclass, fields


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


class _Value:
    """Base of the value classes: frozen, compared and hashed by their fields.

    The methods behave as those of ``@dataclass(frozen=True)``: equality
    holds between instances of one class whose compared fields are equal,
    the hash is that of the compared fields' tuple, the repr is
    ``Name(field=value, ...)``, and setting or deleting any attribute
    raises :class:`dataclasses.FrozenInstanceError`.
    ``__init_subclass__`` fixes each class's ``_compared`` and ``_shown``
    when the class is made.

    A class writes its own ``__init__`` only when it checks or derives a
    field, and sets its fields there through ``object.__setattr__``.  The
    others take the default here, which stores each init field in order
    in the instance dict; ``__init_subclass__`` gives such a class
    ``_init``, the field names, and a ``__signature__`` built from its
    fields.  One positional argument per field is stored directly; any
    other call is bound to the signature, which raises ``TypeError`` as a
    written-out constructor would.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        """Make ``cls`` a dataclass with no generated method.

        ``dataclasses.fields``, ``replace``, ``is_dataclass`` and
        ``__match_args__`` work as for any dataclass.  ``_compared``
        returns the tuple of the fields that take part in equality and
        hashing, and ``_shown`` names the fields of the repr, as the
        ``compare`` and ``repr`` flags of each field say.
        """
        dataclass(cls, init=False, repr=False, eq=False)
        if "__init__" not in vars(cls):
            cls._init = tuple(f.name for f in fields(cls) if f.init)
            cls.__signature__ = _FieldSignature()
        names = [f.name for f in fields(cls) if f.compare]
        compared = operator.attrgetter(*names)
        # attrgetter of one name returns the value itself, not a 1-tuple.
        cls._compared = compared if len(names) > 1 else staticmethod(lambda obj: (compared(obj),))
        cls._shown = tuple(f.name for f in fields(cls) if f.repr)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._init):
            args = self.__signature__.bind(*args, **kwargs).args
        self.__dict__.update(zip(self._init, args))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _FieldSignature:
    """``__signature__`` of a class that takes the default constructor.

    It lists ``name: type`` per init field and returns None, as a
    written-out ``__init__`` would.  It is built on first read, by
    ``inspect.signature`` or by a call that must be bound, and stored on
    the class: building all five at import added about 0.1 ms to a 3 ms
    import (Python 3.11, 2 shared CPUs).
    """

    def __get__(self, obj, cls):
        kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
        init = [inspect.Parameter(f.name, kind, annotation=f.type) for f in fields(cls) if f.init]
        cls.__signature__ = inspect.Signature(init, return_annotation="None")
        return cls.__signature__


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
    ``gf._is_power_mds``, each before doing any work.  Plan search and the
    algebraic audit take that walk only for mask exponents that are no
    arithmetic progression (grouped codes); it is anchored at column 0 on
    a plan's geometric points, and its cost is checked as such.  The
    small and big codes take the O(N) certificate and never raise it.
    """
