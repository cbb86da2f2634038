"""Frozen records: the one class decorator of the package's value types.

``@record`` turns the annotated names of a class body, in order, into the
fields of an immutable value, as ``@dataclass(frozen=True)`` would, but
attaches ready-made closures instead of compiling methods from source, so
that building a record class costs next to nothing at import:

- ``__init__`` takes the fields positionally or by keyword, fills a left
  out one from its class-level default, raises TypeError for a missing,
  unknown or repeated argument, and then calls ``__post_init__`` if the
  class has one;
- ``__eq__`` compares the field tuples of two instances of one class
  (``NotImplemented`` otherwise), and ``__hash__`` hashes that tuple;
- ``__repr__`` reads ``Name(field=value, ...)``;
- ``__setattr__`` and ``__delattr__`` raise AttributeError.

A ``functools.cached_property`` keeps working, as it writes to the
instance ``__dict__`` directly.
"""

_set = object.__setattr__


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    title = cls.__name__

    def values(self):
        return tuple([getattr(self, name) for name in names])

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} arguments, {len(args)} given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{title}() got an unexpected argument {name!r}")
            if name in given:
                raise TypeError(f"{title}() got multiple values for argument {name!r}")
            given[name] = value
        # object.__setattr__ keeps the instance's attributes inline, where
        # reads are fast; writing through self.__dict__ would give that up
        for name in names:
            if name in given:
                _set(self, name, given[name])
            elif name in defaults:
                _set(self, name, defaults[name])
            else:
                raise TypeError(f"{title}() missing argument {name!r}")
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {title} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {title} is frozen")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
