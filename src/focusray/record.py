"""Frozen slotted records without `dataclasses`: a `Record` subclass decorated
with `record` has the fields annotated in its own body, in order, and the
body's values as defaults. `__init__` is compiled per class, and `__eq__` and
`__hash__` on its first comparison or hash."""

import operator


class FrozenInstanceError(AttributeError):
    """A field of a record was assigned or deleted."""


class Record:
    __slots__ = ()
    __match_args__ = ()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    # Field-wise `==` and `hash`, as `dataclasses` writes them, are compiled for a class on its first
    # comparison or hash and set on it: compiled with each class's `__init__`, they cost every import 1.5 ms.
    def __eq__(self, other):
        return _compile_eq(type(self))[0](self, other)

    def __hash__(self):
        return _compile_eq(type(self))[1](self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):  # copy and pickle restore the fields by __setstate__, and read-only arrays read-only
        values = self._values(self)
        return values, [not getattr(getattr(v, "flags", None), "writeable", True) for v in values]

    def __setstate__(self, state):
        for name, value, read_only in zip(self.__match_args__, *state):
            if read_only and value.flags.writeable:  # a numpy scalar is read-only already, and keeps its flags
                value.flags.writeable = False
            object.__setattr__(self, name, value)


def record(cls=None, /, *, eq=True, init=True):
    """Build `cls`, a subclass of `Record`, as a record; `eq=False` keeps
    identity equality and hashing, `init=False` the class's own `__init__`."""

    def build(cls):
        names = tuple(cls.__dict__.get("__annotations__", {}))
        ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
        defaults = {f"_default_{n}": ns.pop(n) for n in names if n in ns}
        # the field values as one tuple, as attrgetter returns them for two or more names
        values = operator.attrgetter(*names) if len(names) > 1 else lambda self: tuple(getattr(self, n) for n in names)
        ns.update(__slots__=names, __match_args__=names, _values=staticmethod(values))
        if not eq:
            ns.update(__eq__=object.__eq__, __hash__=object.__hash__)
        if init:
            params = ", ".join(f"{n}=_default_{n}" if f"_default_{n}" in defaults else n for n in names)
            body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
            post = "\n    self.__post_init__()" if "__post_init__" in ns else ""
            exec(f"def __init__(self, {params}):{body}{post}", scope := {"_set": object.__setattr__, **defaults})
            ns["__init__"] = scope["__init__"]
            ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"  # so arity errors name the class
        return type(cls)(cls.__name__, cls.__bases__, ns)

    return build if cls is None else build(cls)


def _compile_eq(cls):
    """Compile `cls`'s `__eq__` and `__hash__` over its fields as one tuple, set them on `cls`, and return them."""
    mine, theirs = (f"({''.join(f'{side}.{n}, ' for n in cls.__match_args__)})" for side in ("self", "other"))
    exec(f"def __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return {mine} == {theirs}\n"
         f"    return NotImplemented\ndef __hash__(self):\n    return hash({mine})", scope := {})
    for name in ("__eq__", "__hash__"):
        scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, scope[name])
    return scope["__eq__"], scope["__hash__"]
