"""The immutable value types' shared base class.

A value class lists its attributes in ``__slots__`` and sets them once, in
its own ``__init__``, with ``object.__setattr__``.  Its fields are
``_fields`` when the class names them and its ``__slots__`` otherwise, in
constructor order; any other slot holds data derived from the fields at
construction, which stays out of ``==``, ``hash`` and ``repr``.  An
instance equals only an instance of the very same class with equal fields,
hashes as the tuple of its fields, and refuses assignment and deletion.
A class hashed in an inner loop writes ``__hash__`` out with the same
value, which saves the generic key's call.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls.__dict__.get("_fields") or cls.__dict__.get("__slots__") or cls._fields
        get = attrgetter(*fields)
        cls._fields = fields
        # a 1-tuple for one field too: the hash is always that of the fields'
        # tuple, and __reduce__ gets the constructor's argument tuple
        cls._key = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the constructor takes the fields in order, so copy and pickle
        # rebuild (and re-validate) an instance from them
        return type(self), self._key(self)
