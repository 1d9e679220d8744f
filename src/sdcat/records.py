"""Frozen records without ``dataclasses``, whose import (it loads
``inspect``) and six ``exec``s per class every fresh process pays.  One
``exec`` per class makes ``__init__``, ``__eq__`` and ``__hash__``; the
other methods are shared.  Instances keep ``__dict__`` for cached facts."""


class FrozenInstanceError(AttributeError):
    """Assigning to or deleting a field of a record."""


class uncompared:
    """A field default that also keeps the field out of ``==`` and ``hash``."""

    def __init__(self, default=None):
        self.default = default


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
    return f"{type(self).__qualname__}({shown})"


def record(cls):
    """``dataclass(frozen=True)`` on ``cls``; methods it defines are kept."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params, compared, env = [], [], {}
    for n in names:
        default = cls.__dict__.get(n)
        if isinstance(default, uncompared):
            default = default.default
            setattr(cls, n, default)
        else:
            compared.append(n)
        env[f"_d_{n}"] = default
        params.append(f"{n}=_d_{n}" if n in cls.__dict__ else n)
    mine, theirs = ("".join(f"{s}.{n}, " for n in compared) for s in ("self", "other"))
    # fields go straight into the instance dict, past the frozen __setattr__
    d = "_d"
    while d in names:
        d += "_"
    body = f"\n    {d} = self.__dict__" + "".join(f"\n    {d}[{n!r}] = {n}" for n in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    exec(f"def __init__(self, {', '.join(params)}):{body}{post}\n"
         f"def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n    return NotImplemented\n"
         f"def __hash__(self):\n    return hash(({mine}))\n", env)
    methods = {n: env[n] for n in ("__init__", "__eq__", "__hash__")}
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
    methods.update(__repr__=_repr, __setattr__=_setattr, __delattr__=_delattr)
    for name, fn in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    cls.__match_args__ = names
    return cls
