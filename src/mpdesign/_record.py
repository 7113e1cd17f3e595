"""The base of the package's immutable value types.

A subclass names its fields, in order, in ``__slots__`` and sets them in its
own ``__init__`` with ``object.__setattr__``, after checking them. The base
gives the rest of what a value needs: assignment and deletion raise
``AttributeError``; ``==`` holds between instances of the same class whose
field tuples are equal, and ``hash`` is the hash of that tuple; ``repr``
reads ``GammaParams(shape=28.0, rate=0.3225)``; ``__match_args__`` lists the
fields; and ``pickle`` and ``copy`` rebuild a value through its ``__init__``,
so that its checks run again. The module imports nothing, so a command that
builds values loads no code generator and no ``inspect``.
"""

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
