"""Record classes built from their annotations, without generated source.

`record` gives a class what `dataclasses.dataclass` gave it here: an
`__init__` over the annotated fields (then `__post_init__`, if any),
`__match_args__`, the dataclass `__repr__`, value `__eq__` and `__hash__`
over the field tuple, and for frozen classes assignment that raises.  It
attaches plain closures instead of compiling source for each class, so an
import compiles no code and loads no `inspect`.  Fields are the class's own
annotations; a method the class defines itself is kept.
"""

from operator import attrgetter

_MISSING = object()


class field:
    """A default built per instance: `items: list = field(default_factory=list)`."""

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(cls=None, /, *, frozen=False):
    """Class decorator, `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen):
    body = vars(cls)
    names = tuple(cls.__annotations__)
    defaults = {name: body[name] for name in names if name in body}
    for name, value in defaults.items():
        if isinstance(value, field):
            delattr(cls, name)
    post_init = hasattr(cls, "__post_init__")
    set_ = object.__setattr__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, {len(args)} given")
        for name, value in zip(names, args):
            set_(self, name, value)
        for name in names[len(args):]:
            value = kwargs.pop(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            set_(self, name, value.default_factory() if isinstance(value, field) else value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        if post_init:
            self.__post_init__()

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({inner})"

    # the key of one field is its value; hashes are those of the field tuple
    key = attrgetter(*names) if names else lambda self: ()
    single = len(names) == 1

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash((key(self),) if single else key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{cls.__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{cls.__name__} is frozen: cannot delete {name!r}")

    methods = [__init__, __repr__, __eq__]
    if frozen:
        methods += [__setattr__, __delattr__]
    for method in methods + [__hash__]:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    for method in methods:
        if method.__name__ not in body:
            setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    # a class body that defines __eq__ gets __hash__ = None from Python itself
    if body.get("__hash__") is None:
        cls.__hash__ = __hash__ if frozen else None
    return cls
