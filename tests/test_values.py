"""The immutable value types: equality, hashing, immutability, pickling."""

import copy
import pickle

import pytest

from chgsets import (
    Cyclic,
    ExtField,
    GSet,
    Interval,
    ParameterError,
    PatternClass,
    Product,
    SearchResult,
    Verdict,
    Witness,
    build_zmatrix,
    ext_field,
    gset,
)


def _values():
    host = gset(Cyclic(7), [0, 1, 3])
    pattern = gset(Cyclic(7), [0, 1])
    return {
        "cyclic": Cyclic(7),
        "product": Product(3, 2),
        "interval": Interval(10),
        "gset": host,
        "pattern_class": PatternClass(pattern, (0,)),
        "witness": Witness(pattern, (0, 2)),
        "verdict": Verdict(False, Witness(pattern, (0, 2))),
        "zmatrix": build_zmatrix(host),
        "search_result": SearchResult(4, 2, 2, 3, gset(Interval(4), [0, 1, 3]), 9, True),
        "ext_field": ext_field(3, 2),
    }


VALUES = _values()


@pytest.mark.parametrize("name", sorted(VALUES))
class TestEveryValueType:
    def test_pickle_round_trip(self, name):
        value = VALUES[name]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value)
            assert back == value

    def test_copy_and_deepcopy(self, name):
        value = VALUES[name]
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value

    def test_equal_values_hash_alike(self, name):
        value = VALUES[name]
        twin = _values()[name]
        assert twin is not value
        assert twin == value
        assert hash(twin) == hash(value)

    def test_fields_cannot_be_set_or_deleted(self, name):
        value = VALUES[name]
        field = type(value).__slots__[0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) is before


class TestEquality:
    def test_kinds_with_equal_fields_differ(self):
        assert Cyclic(5) != Interval(5)
        assert Cyclic(5) == Cyclic(5)
        assert {Cyclic(5), Interval(5)} == {Interval(5), Cyclic(5)}
        assert len({Cyclic(5), Interval(5)}) == 2

    def test_gset_never_equals_a_tuple(self):
        xs = gset(Cyclic(5), [1, 2])
        assert xs != (Cyclic(5), (1, 2))
        assert (Cyclic(5), (1, 2)) != xs
        assert xs != (1, 2)
        assert Product(3, 2) != (3, 2)

    def test_witness_and_pattern_class_differ(self):
        pattern = gset(Cyclic(7), [0, 1])
        assert Witness(pattern, (0,)) != PatternClass(pattern, (0,))

    def test_repr_names_the_fields(self):
        assert repr(Product(3, 2)) == "Product(q=3, d=2)"
        assert repr(Verdict(True)) == "Verdict(holds=True, witness=None)"


class TestConstruction:
    def test_keywords_and_defaults(self):
        assert Verdict(holds=True) == Verdict(True) == Verdict(True, None)
        assert GSet(group=Cyclic(3), elems=(1,)) == GSet(Cyclic(3), (1,))

    @pytest.mark.parametrize("args,kwargs", [
        ((), {}),
        ((True, None, 1), {}),
        ((True,), {"holds": False}),
        ((True,), {"other": 1}),
    ])
    def test_bad_fields_rejected(self, args, kwargs):
        with pytest.raises(TypeError):
            Verdict(*args, **kwargs)

    @pytest.mark.parametrize("build", [
        lambda: Cyclic(0),
        lambda: Interval(-1),
        lambda: Product(1, 2),
        lambda: Product(3, 0),
        lambda: ExtField(3, 2, (2, 0, 1)),  # t^2 - 1 is reducible
    ])
    def test_validation_on_construction(self, build):
        with pytest.raises(ParameterError):
            build()

    @pytest.mark.parametrize("value,field,bad", [
        (Cyclic(5), "n", 0),
        (Interval(5), "n", -3),
        (Product(3, 2), "d", 0),
        (ext_field(3, 2), "modulus", (2, 0, 1)),
    ])
    def test_validation_on_unpickling(self, value, field, bad):
        # corrupt a live value behind the guard, as a tampered pickle would
        # carry it; loading rebuilds through the constructor, which rejects it
        broken = copy.copy(value)
        object.__setattr__(broken, field, bad)
        data = pickle.dumps(broken)
        with pytest.raises(ParameterError):
            pickle.loads(data)
