"""The common base of the package's immutable value objects."""


class Value:
    """An immutable value whose fields are the ``__slots__`` of its class.

    A subclass lists its fields in ``__slots__``, in the order its
    constructor takes them, and sets each one once in ``__init__`` with
    ``object.__setattr__``.  Its instances then refuse assignment and
    deletion, equal instances of the same class with equal fields, hash and
    print field by field, and pickle and copy by calling the constructor on
    the fields again, which repeats its validation.  A field that holds a
    dict or another unhashable value makes the instance unhashable.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
