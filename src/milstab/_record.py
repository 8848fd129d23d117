"""The package's one record form: frozen field records without dataclasses.

A record class states its fields as class annotations, in order, with any
default as the class attribute of the same name. A subclass extends its
parent's fields, so a subclass with no annotations has its parent's. The
field list is read once, when the class is created, so defining a record
runs no generated code: importing dataclasses pulls in inspect, ast, dis
and tokenize, and its code generation for each class costs every process
that imports the package.

An instance takes its fields positionally or by keyword, runs the class's
__post_init__ check, refuses assignment and deletion, and compares and
hashes by its fields, as a frozen dataclass does. Its repr is the
dataclass text, leaving out the fields a class names in _hidden. vars() of
a record is its field dict, in field order.
"""

_MISSING = object()


class Record:
    """Base of the package's frozen records (see the module docstring)."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        cls._fields = (*cls._fields, *own)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}

    def __init__(self, *args, **kwargs) -> None:
        cls, fields = type(self), self._fields
        given = dict(zip(fields, args))
        extra = kwargs.keys() - (set(fields) - given.keys())
        if len(args) > len(fields) or extra:
            raise TypeError(f"{cls.__name__}() takes the fields {fields}, got {args!r}, {kwargs!r}")
        given.update(kwargs)
        state = vars(self)
        for name in fields:
            state[name] = given.get(name, self._defaults.get(name, _MISSING))
            if state[name] is _MISSING:
                raise TypeError(f"{cls.__name__}() missing the field {name!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = (f"{n}={getattr(self, n)!r}" for n in self._fields if n not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"
