"""Shared exception types, and ``Record``, the base of the value classes.

``Record`` lives in this leaf module because every module imports it.  It
does a frozen dataclass's work without generating code: ``@dataclass``
compiles each generated method with its own ``exec``, which took most of
the library's import time.
"""


class WordmapsError(Exception):
    """Base class for all library errors."""


class DomainError(WordmapsError):
    """An argument violates an operation's precondition."""


class ParseError(WordmapsError):
    """Malformed textual input.

    Carries enough position information to point at the offending spot.
    """

    def __init__(self, message, line=None, column=None, filename=None):
        self.line = line
        self.column = column
        self.filename = filename
        where = ""
        if filename is not None:
            where += f"{filename}:"
        if line is not None:
            where += f"{line}:"
            if column is not None:
                where += f"{column}:"
        super().__init__(f"{where} {message}" if where else message)


class FuelExhaustedError(WordmapsError):
    """A fuel-bounded evaluation ran out of budget before finishing."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class BudgetExceededError(WordmapsError):
    """A decision procedure hit its resource budget.

    Raised instead of returning a possibly wrong verdict.
    """


class Record:
    """An immutable value with named fields, compared and hashed by them.

    A subclass's fields are the names it annotates that do not start with
    ``_``, after its bases' fields; a class attribute of a field's name is
    that field's default.  The constructor takes the fields positionally or
    by name, sets them in field order, so that the instances of a class
    share one attribute layout, and then calls ``__post_init__``.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = (*cls._fields, *(n for n in cls.__annotations__ if not n.startswith("_")))
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """Every field's value, from a constructor call's arguments and the
        defaults."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{cls.__name__} got {name!r} {'twice' if name in fields else 'which is not a field'}")
        return values

    def __post_init__(self):
        """Checks and derived attributes; a subclass overrides it."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")
