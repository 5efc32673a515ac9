"""Exception types and the parameter convention shared across the package."""


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
