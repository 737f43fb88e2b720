"""Immutable value records, without the dataclasses machinery.

A Record subclass writes its own __init__: it checks its arguments and sets
each field with set_field, in the order of its parameters, which name the
fields.  It also writes == and the hash out over a tuple of its fields, as
a frozen dataclass generates them: == compares that tuple with the same
tuple of another instance of the same class and is NotImplemented against
any other class, and the hash is the tuple's hash, so equal records hash
alike.  The base adds the rest:

- the repr Class(a=..., b=...), unless the class writes its own;
- AttributeError on assigning or deleting any attribute;
- replace(record, **changes), a new record built through __init__, so its
  checks run again.

copy, deepcopy and pickle work as for any class.  CPython 3.11 keeps
attributes set one by one in the object rather than in a dict, so a record
costs what the dataclass cost: the same memory and the same time to read a
field, and the tuples built inline keep == and the hash as fast.  Importing
dataclasses would load inspect, ast, dis and tokenize into every process,
and each @dataclass compiles its methods at import.
"""

# how a record's __init__ sets a field, Record.__setattr__ refusing
set_field = object.__setattr__


class Record:
    """Base of the package's value records; each subclass writes its own ==
    and hash over its fields."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record, **changes):
    """A copy of record with the given fields changed."""
    fields = {f: getattr(record, f) for f in record._fields}
    return record.__class__(**{**fields, **changes})
