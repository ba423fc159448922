"""Immutable value records, built without generated code."""


class Record:
    """What ``@dataclass(frozen=True)`` gives, for the fields annotated on a
    subclass: ``__init__`` by position or keyword with class-level defaults,
    then ``__post_init__``; no assignment or deletion; its ``repr``; and
    ``==`` and ``hash`` over the fields not in the class keyword
    ``uncompared``.  Fields live in the instance ``__dict__``.  (Plain
    methods: a dataclass compiles its methods from source, which cost about
    7 ms of each start for the package's 20 value classes.)
    """

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._compared = tuple(f for f in cls._fields if f not in uncompared)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields
                         if f in cls.__dict__}
        # positional count -> the defaults of every field after it
        cls._tails = {k: tuple(cls._defaults[f] for f in cls._fields[k:])
                      for k in range(len(cls._fields))
                      if all(f in cls._defaults for f in cls._fields[k:])}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            if not kwargs and len(args) in self._tails:
                args += self._tails[len(args)]
            else:
                args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        fields = self._fields
        named = dict(zip(fields, args))
        bad = [*args[len(fields):],
               *(k for k in kwargs if k in named or k not in fields)]
        given = {**self._defaults, **named, **kwargs}
        missing = [f for f in fields if f not in given]
        if bad or missing:
            raise TypeError(f"{type(self).__qualname__}(): unexpected or "
                            f"repeated {bad}, missing {missing}")
        return [given[f] for f in fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        return (self._key() == other._key()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
