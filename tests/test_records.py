from fractions import Fraction

import pytest

from treeasym.counts import HIERARCHY, POLYA, CountSequence, VarietySpec
from treeasym.expansions import AsymptoticExpansion, PuiseuxExpansion
from treeasym.oeis import BFileFormatError, OeisFixture
from treeasym.records import Record
from treeasym.solver import RhoResult


def test_fields_are_the_annotations_in_order():
    assert VarietySpec._fields == ("name", "prefactor", "z_exponent", "shift_sign",
                                   "alternating_signs")
    assert CountSequence._fields == ("variety", "values")


@pytest.mark.parametrize("name", ["name", "shift_sign", "count_source", "new"])
def test_setting_or_deleting_an_attribute_raises(name):
    spec = HIERARCHY.replace(name="copy")
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(spec, name, 0)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(spec, name)
    assert spec == HIERARCHY.replace(name="copy")


def test_positional_and_keyword_construction_agree():
    by_position = CountSequence("polya", (0, 1, 1, 2))
    by_keyword = CountSequence(values=(0, 1, 1, 2), variety="polya")
    mixed = CountSequence("polya", values=(0, 1, 1, 2))
    assert by_position == by_keyword == mixed
    assert by_position.values == (0, 1, 1, 2)


@pytest.mark.parametrize("args, kwargs, message", [
    (("polya",), {}, "missing field 'values'"),
    ((), {"values": ()}, "missing field 'variety'"),
    (("polya", ()), {"extra": 1}, "unknown field 'extra'"),
    (("polya", ()), {"variety": "identity"}, "multiple values for field 'variety'"),
    (("polya", (), 3), {}, "takes 2 fields, got 3 positional"),
])
def test_missing_unknown_or_repeated_fields_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        CountSequence(*args, **kwargs)


def test_annotated_default_is_rejected_when_the_class_is_made():
    with pytest.raises(TypeError, match="no defaults, got one for size"):
        class Sized(Record):
            name: str
            size: int = 0


def test_post_init_normalises_count_values():
    seq = CountSequence("polya", [0, True, 1.0, 2])
    assert seq.values == (0, 1, 1, 2)
    assert all(type(v) is int for v in seq.values)
    assert seq.replace(values=[5]).values == (5,)


@pytest.mark.parametrize("rho", [0, 1, -0.5, 1.5])
def test_post_init_rejects_rho_outside_the_unit_interval(rho):
    with pytest.raises(ValueError, match="rho out of range"):
        RhoResult("polya", rho, 10, 10, 100, 60, 3, 40, None)


def test_post_init_rejects_b_file_indices_that_do_not_increase():
    assert len(OeisFixture("A000081", ((0, 0), (1, 1)))) == 2
    with pytest.raises(BFileFormatError, match="not strictly increasing at 1"):
        OeisFixture("A000081", ((0, 0), (1, 1), (1, 1)))


def test_equality_and_hash_follow_the_fields():
    copy = VarietySpec("hierarchy", Fraction(1, 2), 0, -1, False)
    assert copy == HIERARCHY and copy is not HIERARCHY
    assert hash(copy) == hash(HIERARCHY)
    assert len({POLYA, HIERARCHY, copy}) == 2
    flipped = HIERARCHY.replace(shift_sign=+1)
    assert flipped != HIERARCHY and flipped.shift_sign == 1 and HIERARCHY.shift_sign == -1
    values = ("polya", 0.3, (1,), (9,), 100, 40, None)
    assert PuiseuxExpansion(*values) != AsymptoticExpansion(*values)
    assert PuiseuxExpansion(*values) != values


def test_replace_rejects_an_unknown_field():
    with pytest.raises(TypeError, match="unknown field 'shift'"):
        HIERARCHY.replace(shift=1)


def test_repr_lists_the_fields():
    assert repr(HIERARCHY) == ("VarietySpec(name='hierarchy', prefactor=Fraction(1, 2), "
                               "z_exponent=0, shift_sign=-1, alternating_signs=False)")


def test_object_setattr_patches_and_restores_a_method():
    # perfbench wraps count_source on each VARIETIES instance this way
    original = POLYA.count_source
    try:
        object.__setattr__(POLYA, "count_source", lambda n: ("patched", n))
        assert POLYA.count_source(3) == ("patched", 3)
    finally:
        object.__setattr__(POLYA, "count_source", original)
    assert POLYA.count_source(3).values == (0, 1, 1, 2)
    assert POLYA == VarietySpec("polya", Fraction(1), 1, 0, False)
