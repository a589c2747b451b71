"""Immutable value records with their methods written in the source.  A record class names
its compared fields in ``FIELDS`` (its ``__slots__`` too, unless it keeps a ``__dict__`` for
cached properties) and the defaults of trailing fields in ``DEFAULTS``.  Records take their
fields in order or by name, are equal when their fields are, hash on them, refuse assignment,
and copy and pickle through their constructor.  Caches go in through ``set_uncompared``."""

from operator import attrgetter


class Record:
    __slots__ = ()
    FIELDS: tuple = ()
    DEFAULTS: dict = {}

    def __init_subclass__(cls):
        cls.values = property(attrgetter(*cls.FIELDS), doc="The fields, in order.")

    def __init__(self, *values, **named):
        fields = self.FIELDS
        if named or len(values) != len(fields):
            given = {**self.DEFAULTS, **dict(zip(fields, values)), **named}
            if len(values) > len(fields) or given.keys() != set(fields) \
                    or not named.keys().isdisjoint(fields[:len(values)]):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
            values = map(given.__getitem__, fields)
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def set_uncompared(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __reduce__(self):
        return type(self), self.values

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.FIELDS, self.values))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, *name_value):
        raise AttributeError(f"{type(self).__name__}.{name_value[0]} is read-only")

    __delattr__ = __setattr__
