"""The immutable value types' shared base class.

A value class lists its attributes in ``__slots__``.  Its fields are
``_fields`` when the class names them and its ``__slots__`` otherwise, in
constructor order; any other slot holds data derived from the fields at
construction, which stays out of ``==``, ``hash`` and ``repr``.  An
instance equals only an instance of the very same class with equal fields,
hashes as the tuple of its fields, and refuses assignment and deletion.

The base writes each class's ``__hash__``, and its ``__init__`` taking the
fields in order, with the defaults the class declares in ``_defaults``,
the way ``collections.namedtuple`` writes its methods: from source, so
signatures, keywords, ``copy`` and ``pickle`` behave as if written by hand.
A class that validates its fields or derives slots writes its own
``__init__`` (with ``object.__setattr__``), and its subclasses inherit it.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls.__dict__.get("_fields") or cls.__dict__.get("__slots__") or cls._fields
        get = attrgetter(*fields)
        cls._fields = fields
        # a 1-tuple for one field too: the hash is always that of the fields'
        # tuple, and __reduce__ gets the constructor's argument tuple
        cls._key = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))
        source = []
        # Value's __eq__ leaves its __hash__ None, so each class right below
        # Value gets a written hash, which its own subclasses inherit
        if cls.__hash__ is None:
            source.append("def __hash__(self): return hash(({}))".format(
                "".join(f"self.{name}, " for name in fields)))
        # only when no base class has a constructor, whose checks it would skip
        if cls.__init__ is object.__init__:
            params = "".join(f", {name}=_defaults[{name!r}]" if name in cls._defaults
                             else f", {name}" for name in fields)
            source.append(f"def __init__(self{params}): " + "; ".join(
                f"_set(self, {name!r}, {name})" for name in fields))
        if source:
            namespace = {"__name__": cls.__module__, "_set": object.__setattr__,
                         "_defaults": cls._defaults}
            exec("\n".join(source), namespace)
            for name in ("__hash__", "__init__"):
                if name in namespace:
                    namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
                    setattr(cls, name, namespace[name])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

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
