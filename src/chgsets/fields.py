"""Prime-field and extension-field arithmetic for the norm construction.

Extension fields F_{q^h} (q prime) are represented in the polynomial basis
1, t, ..., t^{h-1}: an element is an h-tuple of residues mod q, constant
term first.  The defining modulus is the lexicographically smallest monic
irreducible polynomial of degree h, found by exhaustive testing, so every
run builds the identical field.

The norm map N(x) = x^{1+q+...+q^{h-1}} lands in the base field; ``norm``
evaluates it by square-and-multiply on the explicit exponent and serves as
the definition-level check.  The norm-1 elements form the cyclic subgroup
of order (q^h - 1)/(q - 1) (Lidl & Niederreiter, *Finite Fields*,
Thm 2.18), which holds every x^(q-1); the norm construction walks the
powers of such a step with one multiplication per element, and a walk of
full length proves that its step generates the subgroup.
"""

from __future__ import annotations

from itertools import product as iter_product

from .errors import ParameterError, ResourceCapError, Value

DEFAULT_FIELD_CAP = 4096

# Deterministic Miller-Rabin witness set, exact for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def quadratic_character(p: int, a: int) -> int:
    """Euler's criterion: +1 for a nonzero square mod p, -1 otherwise, 0 at 0."""
    if p == 2 or not is_prime(p):
        raise ParameterError(f"need an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, constant term first, over F_q)


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(q, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    return _poly_trim(out)


def _poly_mod(q, a, m):
    # m monic
    a = _poly_trim(list(a))
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * c) % q
        _poly_trim(a)
    return a


def is_poly_irreducible(q: int, f) -> bool:
    """Whether f (constant term first, leading coefficient nonzero) is
    irreducible over F_q: degree >= 1 and no monic divisor of degree
    1..deg/2, by trial division by every such polynomial, no cached tables."""
    deg = len(f) - 1
    return deg >= 1 and all(_poly_mod(q, f, [*c, 1])
                            for d in range(1, deg // 2 + 1)
                            for c in iter_product(range(q), repeat=d))


def find_irreducible(q: int, h: int, cap: int = DEFAULT_FIELD_CAP) -> tuple:
    """Smallest monic irreducible of degree h over F_q.

    Candidates are ordered by their value at t = q (lexicographic on
    coefficients from the highest power down), the usual way these tables
    are written.  The result is returned constant term first, leading 1
    included.
    """
    if not is_prime(q):
        raise ParameterError(f"base {q} is not prime")
    if h < 2:
        raise ParameterError(f"extension degree must be >= 2, got {h}")
    if q**h > cap:
        raise ResourceCapError(f"field size {q}^{h} exceeds cap {cap}")
    for c in iter_product(range(q), repeat=h):
        f = (*reversed(c), 1)
        if is_poly_irreducible(q, f):
            return f
    raise RuntimeError("no irreducible polynomial found (impossible)")


class ExtField(Value):
    """F_{q^h} = F_q[t] / (modulus); modulus is monic irreducible of degree h."""

    __slots__ = ("q", "h", "modulus")

    def _validate(self):
        if not is_prime(self.q):
            raise ParameterError(f"base {self.q} is not prime")
        if self.h < 2:
            raise ParameterError(f"extension degree must be >= 2, got {self.h}")
        m = self.modulus
        if len(m) != self.h + 1 or m[-1] != 1:
            raise ParameterError(f"modulus {m} is not monic of degree {self.h}")
        if not all(0 <= c < self.q for c in m):
            raise ParameterError(f"modulus {m} has coefficients out of range mod {self.q}")
        if not is_poly_irreducible(self.q, m):
            raise ParameterError(f"modulus {m} is reducible over F_{self.q}")

    def one(self):
        return (1,) + (0,) * (self.h - 1)


def ext_field(q: int, h: int, cap: int = DEFAULT_FIELD_CAP) -> ExtField:
    return ExtField(q, h, find_irreducible(q, h, cap))


def _pad(field, coeffs):
    return tuple(coeffs) + (0,) * (field.h - len(coeffs))


def ext_mul(field: ExtField, a, b):
    prod = _poly_mul(field.q, list(a), list(b))
    return _pad(field, _poly_mod(field.q, prod, list(field.modulus)))


def ext_pow(field: ExtField, a, e: int):
    result = field.one()
    base = a
    while e:
        if e & 1:
            result = ext_mul(field, result, base)
        base = ext_mul(field, base, base)
        e >>= 1
    return result


def iter_field(field: ExtField):
    """All q^h elements, lexicographic on coefficient tuples (the t^(h-1)
    coefficient varies fastest)."""
    for coeffs in iter_product(range(field.q), repeat=field.h):
        yield coeffs


def norm(field: ExtField, x) -> int:
    """The norm to F_q: x^((q^h - 1) / (q - 1)), returned as a residue.

    A non-constant result means the modulus was not irreducible, which the
    constructor rules out, so it is reported as an internal error.
    """
    e = (field.q**field.h - 1) // (field.q - 1)
    y = ext_pow(field, x, e)
    if any(c != 0 for c in y[1:]):
        raise RuntimeError(f"norm of {x} not in base field: {y} (broken modulus?)")
    return y[0]
