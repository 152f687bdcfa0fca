"""The frozen record base of the package's value classes: what @dataclass(frozen=True)
gave them, without the start-up cost of importing dataclasses and processing each class."""


class Record:
    """A frozen value class.  Its fields, kept as __match_args__, are the names annotated
    in its own body, in order; an annotated class attribute is that field's default, and
    defaulted fields come last.  This base declares no annotations, so get_type_hints of
    a subclass sees its fields alone.  Each subclass gets a frozen dataclass's __init__
    (which stores exactly the fields in __dict__, then calls __post_init__ if the class
    has one), __eq__ (true only against the same class with equal fields) and __hash__,
    generated from the field names, so that on the routing path they cost what generated
    code costs."""

    def __init_subclass__(cls):
        names = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        mine, theirs = ("".join(f"{obj}.{f}, " for f in names) for obj in ("self", "other"))
        params = "".join(f", {f}=_defaults[{f!r}]" if f in cls.__dict__ else f", {f}"
                         for f in names)
        # object.__setattr__ keeps the values inline, which read faster than a filled __dict__
        sets = "".join(f"\n    _set(self, {f!r}, {f})" for f in names)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        scope = {"_defaults": cls.__dict__, "_set": object.__setattr__}
        exec(f"def __init__(self{params}):{sets}{post}\n"
             "def __eq__(self, other):\n"
             f"    if other.__class__ is self.__class__: return ({mine}) == ({theirs})\n"
             "    return NotImplemented\n"
             f"def __hash__(self): return hash(({mine}))\n", scope)
        for name in ("__init__", "__eq__", "__hash__"):
            scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, scope[name])

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__

    def as_dict(self) -> dict:
        return dict(self.__dict__)
