"""Exception types, the parameter convention and the immutable value base
shared across the package."""

DEFAULT_MAX_ATTEMPTS = 64
DEFAULT_NODE_CAP = 10**9
DEFAULT_ORDER_CAP = 512
DEFAULT_SUBSET_CAP = 10**8

_set = object.__setattr__


class ParameterError(ValueError):
    """A caller-supplied parameter violates an operation's preconditions."""


class ResourceCapError(RuntimeError):
    """An enumeration or construction would exceed its configured cap.

    Raised instead of returning a possibly-wrong answer.  Caps are counted
    in enumerated objects, never wall time, so the outcome is deterministic
    across machines.
    """


class RetryExhaustedError(RuntimeError):
    """Every attempt of a randomized construction failed its acceptance test.

    ``attempts`` holds one ``(attempt_index, sample_size, bad_size)`` triple
    per failed attempt, for post-mortem reporting.
    """

    def __init__(self, message: str, attempts):
        super().__init__(message)
        self.attempts = list(attempts)


def check_hg(h: int, g: int) -> None:
    """Reject (h, g) outside the convention g >= h >= 2 of C_h[g]-sets."""
    if h < 2 or g < h:
        raise ParameterError(f"need g >= h >= 2, got h={h}, g={g}")


def check_cap(name: str, cap: int) -> None:
    """Reject a resource cap below 1, under which no work fits."""
    if cap < 1:
        raise ParameterError(f"{name} must be >= 1, got {cap}")


class Value:
    """Immutable record: a subclass names its fields in ``__slots__``, the
    defaults of the fields a caller may leave out in ``_defaults``, and may
    check the fields in ``_validate``.

    Fields are set once, positionally or by name; setting or deleting one
    afterwards raises ``AttributeError``.  Two values are equal when they
    have the same type and equal fields, and equal values hash alike.
    Pickling and copying rebuild through the constructor, so ``_validate``
    runs on those paths too.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or kwargs.keys() & given or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            _set(self, name, value)
        self._validate()

    def _validate(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
