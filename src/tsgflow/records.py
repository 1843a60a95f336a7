"""Frozen, slotted dataclass records that are cheap to build.

A frozen dataclass's generated __init__ stores each field with
object.__setattr__, because its own __setattr__ refuses assignment. That
generic call costs more than the field store itself, and the document and
DAG layers build thousands of these records per guide. `frozen_record`
keeps what dataclass(frozen=True, slots=True) generates for fields, repr,
eq, hash, replace and pickling, and replaces __init__ with one that stores
each argument through the class's slot descriptor.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


def frozen_record(cls: type) -> type:
    """Decorate `cls` as dataclass(frozen=True, slots=True) with a faster
    __init__ of the same signature: field names, order and defaults, and
    the same TypeError for a missing argument. Fields must be plain ones,
    with no default_factory, init=False or kw_only, and the class must have
    no __post_init__.

    Assigning or deleting any attribute of a record raises
    FrozenInstanceError, as it does on a frozen dataclass without slots.
    The generated __setattr__ and __delattr__ are replaced too: they test
    the class from before slots were added, so on Python 3.11 an undeclared
    name reached super() with an instance of another class and raised
    TypeError.
    """
    cls = dataclass(cls, frozen=True, slots=True)  # a new class, with the slots
    record_fields = fields(cls)
    if hasattr(cls, "__post_init__") or any(
        f.default_factory is not MISSING or not f.init or f.kw_only for f in record_fields
    ):
        raise TypeError(f"{cls.__qualname__}: frozen_record takes plain fields only")
    names = [f.name for f in record_fields]
    setters = [f"_set_{name}" for name in names]
    source = (
        f"def __create_init__({', '.join(setters)}):\n"
        f" def __init__(self, {', '.join(names)}):\n"
        + "".join(f"  {setter}(self, {name})\n" for setter, name in zip(setters, names))
        + " return __init__\n"
    )
    namespace: dict = {}
    exec(source, {}, namespace)
    init = namespace["__create_init__"](*(getattr(cls, name).__set__ for name in names))
    init.__defaults__ = tuple(f.default for f in record_fields if f.default is not MISSING) or None
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    for method in (init, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        method.__module__ = cls.__module__
    return cls
