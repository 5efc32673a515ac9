import math
from itertools import product

import pytest
from hypothesis import given, strategies as st

from chgsets import (
    ExtField,
    ParameterError,
    Product,
    ResourceCapError,
    ext_field,
    ext_mul,
    find_irreducible,
    is_prime,
    iter_field,
    norm,
    quadratic_character,
)
from chgsets.fields import is_poly_irreducible
from oracles import add


def ext_add(field, a, b):
    # field addition is the addition of Z_q^h on the coefficient vectors
    return add(Product(field.q, field.h), a, b)


F4 = ext_field(2, 2)
F9 = ext_field(3, 2)


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_larger(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31)
        assert is_prime(1_000_003)
        assert not is_prime(1_000_001)  # 101 * 9901


class TestIrreducible:
    def test_known_smallest(self):
        assert find_irreducible(2, 2) == (1, 1, 1)  # t^2 + t + 1
        assert find_irreducible(3, 2) == (1, 0, 1)  # t^2 + 1
        assert find_irreducible(2, 3) == (1, 1, 0, 1)  # t^3 + t + 1
        assert find_irreducible(2, 4) == (1, 1, 0, 0, 1)  # t^4 + t + 1
        assert find_irreducible(19, 2) == (1, 0, 1)  # t^2 + 1
        assert find_irreducible(3, 3) == (1, 2, 0, 1)  # t^3 + 2t + 1
        assert find_irreducible(2, 12) == (1, 0, 0, 1) + (0,) * 8 + (1,)  # t^12 + t^3 + 1
        assert find_irreducible(7, 4) == (1, 1, 0, 0, 1)  # t^4 + t + 1
        assert find_irreducible(3, 7) == (2, 0, 1, 0, 0, 0, 0, 1)  # t^7 + t^2 + 2

    @pytest.mark.parametrize("q,max_deg", [(2, 8), (3, 5), (5, 4), (7, 3)])
    def test_count_matches_gauss(self, q, max_deg):
        # (1/d) sum_{e | d} mu(e) q^(d/e) monic irreducibles of degree d
        # (Lidl & Niederreiter, *Finite Fields*, ch. 3)
        def mobius(e):
            primes = [r for r in range(2, e + 1) if e % r == 0 and is_prime(r)]
            squarefree = math.prod(primes) == e
            return (-1) ** len(primes) if squarefree else 0

        assert not is_poly_irreducible(q, (1,))  # units are not irreducible
        for d in range(1, max_deg + 1):
            found = sum(is_poly_irreducible(q, (*c, 1)) for c in product(range(q), repeat=d))
            gauss = sum(mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
            assert found == gauss

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            find_irreducible(2, 2, cap=2)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ParameterError):
            ExtField(2, 2, (1, 0, 1))  # t^2 + 1 = (t+1)^2 over F_2

    @pytest.mark.parametrize("q,h,modulus,message", [
        (4, 2, (1, 1, 1), "base 4 is not prime"),
        (2, 1, (1, 1), "extension degree must be >= 2"),
        (2, 2, (1, 1, 1, 1), "is not monic of degree 2"),
        (2, 2, (1, 1, 2), "is not monic of degree 2"),
        (2, 2, (1, 3, 1), "out of range mod 2"),
    ])
    def test_malformed_field_rejected(self, q, h, modulus, message):
        with pytest.raises(ParameterError, match=message):
            ExtField(q, h, modulus)

    def test_nonprime_base_rejected(self):
        with pytest.raises(ParameterError):
            ext_field(4, 2)


class TestExtArithmetic:
    def test_f4_t_squared(self):
        t = (0, 1)
        assert ext_mul(F4, t, t) == (1, 1)  # t^2 = t + 1

    def test_multiplicative_identity(self):
        for x in iter_field(F9):
            assert ext_mul(F9, x, F9.one()) == x

    def test_f9_t_squared(self):
        t = (0, 1)
        assert ext_mul(F9, t, t) == (2, 0)  # t^2 = -1 = 2

    @pytest.mark.parametrize("q,h", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3)])
    def test_commutative_distributive(self, q, h):
        field = ext_field(q, h)
        elems = list(iter_field(field))[: min(9, q**h)]
        for a in elems:
            for b in elems:
                assert ext_mul(field, a, b) == ext_mul(field, b, a)
                for c in elems[:3]:
                    lhs = ext_mul(field, a, ext_add(field, b, c))
                    rhs = ext_add(field, ext_mul(field, a, b), ext_mul(field, a, c))
                    assert lhs == rhs


class TestNorm:
    def test_f4_examples(self):
        assert norm(F4, (0, 1)) == 1  # t^3 = 1
        assert norm(F4, (0, 0)) == 0
        assert norm(F4, F4.one()) == 1

    @pytest.mark.parametrize("q,h", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (2, 4), (3, 4)])
    def test_multiplicative_exhaustive(self, q, h):
        field = ext_field(q, h)
        elems = list(iter_field(field))
        norms = {x: norm(field, x) for x in elems}
        for a in elems:
            for b in elems:
                assert norms[ext_mul(field, a, b)] == norms[a] * norms[b] % q

    @pytest.mark.parametrize("q,h", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (7, 2)])
    def test_norm_one_count(self, q, h):
        field = ext_field(q, h)
        count = sum(1 for x in iter_field(field) if norm(field, x) == 1)
        assert count == (q**h - 1) // (q - 1)

    @pytest.mark.parametrize("q,h", [(3, 2), (5, 2), (3, 3)])
    def test_norm_onto_base(self, q, h):
        field = ext_field(q, h)
        images = {norm(field, x) for x in iter_field(field)}
        assert images == set(range(q))


class TestAdditiveCoords:
    def test_read_off(self):
        # field elements are their own coefficient vectors in Z_q^h
        assert (1, 2) in set(iter_field(F9))

    def test_characteristic_two_spot(self):
        assert ext_add(F4, (0, 1), (1, 1)) == (1, 0)

    @pytest.mark.parametrize("q,h", [(2, 2), (3, 2), (2, 3)])
    def test_bijective_homomorphism(self, q, h):
        field = ext_field(q, h)
        elems = list(iter_field(field))
        assert len(set(elems)) == q**h
        for a in elems:
            for b in elems:
                lhs = ext_add(field, a, b)
                rhs = tuple((x + y) % q for x, y in zip(a, b))
                assert lhs == rhs


class TestQuadraticCharacter:
    def test_examples(self):
        assert quadratic_character(5, 2) == -1
        assert quadratic_character(7, 1) == 1
        assert quadratic_character(5, 0) == 0

    def test_p_two_unsupported(self):
        with pytest.raises(ParameterError):
            quadratic_character(2, 1)

    def test_matches_square_table(self):
        for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 97]:
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                want = 0 if a == 0 else (1 if a in squares else -1)
                assert quadratic_character(p, a) == want

    @given(st.sampled_from([3, 5, 7, 11, 13, 17]), st.integers(1, 100))
    def test_squares_are_residues(self, p, a):
        if a % p != 0:
            assert quadratic_character(p, a * a) == 1
