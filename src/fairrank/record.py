"""``Record``, the base of fairrank's value types.

A record is a plain class.  Its fields are the parameters of its ``__init__``,
in order, and that ``__init__`` checks its arguments and stores them; a
field's default is also a class attribute.  The base reads ``==``, ``hash``
and ``repr`` from the field names and refuses assignment and deletion after
construction.  Nothing is compiled or executed when a record type is defined,
and this module imports nothing.
"""


class Record:
    """An immutable value.  It equals a record of the same class whose fields are equal,
    hashes as the tuple of its fields (so not at all when a field does not hash) and
    shows as ``Name(field=value, ...)``.  A subclass's ``__init__`` stores its fields
    with ``_set``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = fields = code.co_varnames[1:code.co_argcount]
        defaults = cls.__init__.__defaults__ or ()
        for name, default in zip(fields[len(fields) - len(defaults):], defaults):
            setattr(cls, name, default)

    def _set(self, *values, **derived) -> None:
        """Store the fields, in ``__init__``'s parameter order, and any attributes derived
        from them."""
        self.__dict__.update(zip(self._fields, values), **derived)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
