"""The contract of the four value types, whatever class machinery builds them.

`StirlingWord`, `ColoredPartition`, `IntPolynomial` and `EgfSeries` compare
equal only to their own type, hash by value, print their fields, refuse
assignment and are not sequences or numbers.
"""

import pytest

from flatstir.partitions import ColoredPartition, _trusted_partition
from flatstir.series import EgfSeries, IntPolynomial
from flatstir.words import StirlingWord, _trusted_word

# (a value, an equal value built another way, a different value of the
# same type, its repr, one field name)
CASES = {
    "word": (
        lambda: StirlingWord((1, 1), 1, 2),
        lambda: _trusted_word((1, 1), 1, 2),
        lambda: StirlingWord((1, 2, 2, 1), 2, 2),
        "StirlingWord(letters=(1, 1), order=1, multiplicity=2)",
        "letters",
    ),
    "partition": (
        lambda: ColoredPartition(1, 1, (((1, 1),),)),
        lambda: _trusted_partition(1, 1, (((1, 1),),)),
        lambda: ColoredPartition(2, 2, (((1, 1),), ((2, 1),))),
        "ColoredPartition(n=1, k=1, blocks=(((1, 1),),))",
        "blocks",
    ),
    "polynomial": (
        lambda: IntPolynomial((1, 26, 36)),
        lambda: IntPolynomial((1, 26, 36, 0, 0)),
        lambda: IntPolynomial((1, 26)),
        "IntPolynomial(coeffs=(1, 26, 36))",
        "coeffs",
    ),
    "series": (
        lambda: EgfSeries(((1,), (1, 2))),
        lambda: EgfSeries(((1, 0), (1, 2, 0))),
        lambda: EgfSeries(((1,), (1, 3))),
        "EgfSeries(coeffs=((1,), (1, 2)))",
        "coeffs",
    ),
}
KINDS = sorted(CASES)


def fields_of(value):
    """The field values, in declaration order, read through attributes."""
    names = {
        StirlingWord: ("letters", "order", "multiplicity"),
        ColoredPartition: ("n", "k", "blocks"),
        IntPolynomial: ("coeffs",),
        EgfSeries: ("coeffs",),
    }[type(value)]
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("kind", KINDS)
class TestValueContract:
    def test_equal_by_value_and_hash_equal(self, kind):
        make, other_way, different, _, _ = CASES[kind]
        a, b = make(), other_way()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != different()

    def test_equal_only_to_the_same_type(self, kind):
        a = CASES[kind][0]()
        assert a != fields_of(a)
        assert a != fields_of(a)[0]
        for other in KINDS:
            if other != kind:
                assert a != CASES[other][0]()
        assert a != None  # noqa: E711

    def test_repr_is_the_field_listing(self, kind):
        make, other_way, _, text, _ = CASES[kind]
        assert repr(make()) == text
        assert repr(other_way()) == text

    def test_fields_cannot_be_assigned_or_deleted(self, kind):
        a = CASES[kind][0]()
        name = CASES[kind][4]
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == before

    def test_not_a_sequence_or_a_number(self, kind):
        a = CASES[kind][0]()
        with pytest.raises(TypeError):
            len(a)
        with pytest.raises(TypeError):
            iter(a)
        with pytest.raises(TypeError):
            a + a
        with pytest.raises(TypeError):
            2 * a
        with pytest.raises(TypeError):  # only a series times a series is defined
            a * 2


@pytest.mark.parametrize("coeffs", [[1, 2], [1, 2, 0], range(1, 3)])
def test_polynomial_stores_a_tuple_whatever_it_is_given(coeffs):
    a = IntPolynomial(coeffs)
    assert type(a.coeffs) is tuple
    assert a == IntPolynomial((1, 2))
    assert hash(a) == hash(IntPolynomial((1, 2)))
