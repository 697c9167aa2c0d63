"""Base class of the package's frozen result records.

It imports nothing, like :mod:`treeasym.errors`, and compiles no methods per
class, so defining the records loads no ``inspect``, ``ast`` or ``tokenize``.
"""


class Record:
    """Frozen record whose fields are the subclass's annotations, in order.

    ``Cls(*args, **kwargs)`` takes every field (no defaults), then calls
    ``__post_init__``.  Equality, hash and repr follow the field values.
    Instances keep a ``__dict__``: ``object.__setattr__`` still sets an
    attribute, as ``__post_init__`` does to normalise a field and perfbench
    does to wrap ``count_source``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        defaults = [name for name in cls._fields if name in cls.__dict__]
        if defaults:
            raise TypeError(f"{cls.__name__}: record fields take no defaults, "
                            f"got one for {', '.join(defaults)}")

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)} positional")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key in values:
                raise TypeError(f"{name}() got multiple values for field {key!r}")
        values.update(kwargs)
        try:
            self.__dict__.update({field: values.pop(field) for field in fields})
        except KeyError as missing:
            raise TypeError(f"{name}() missing field {missing}") from None
        if values:
            raise TypeError(f"{name}() got unknown field {next(iter(values))!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A copy with ``changes`` applied to its fields; ``__post_init__`` runs again."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
