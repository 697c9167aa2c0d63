from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeasym.counts import (
    HIERARCHY,
    POLYA,
    VARIETIES,
    _divide_exactly,
    counts_for,
    product_form_oracle,
)

from reference_values import PREFIXES


@pytest.mark.parametrize("variety", VARIETIES, ids="{}_counts".format)
def test_listed_prefixes(variety):
    seq = counts_for(variety, len(PREFIXES[variety]) - 1)
    assert list(seq.values) == PREFIXES[variety]


@pytest.mark.parametrize("variety", VARIETIES, ids="{}_counts".format)
def test_base_cases(variety):
    spec = VARIETIES[variety]
    assert list(spec.count_source(1).values) == [0, 1]
    assert list(spec.count_source(0).values) == [0]


def test_known_single_values():
    assert counts_for("polya", 12)[12] == 4766
    assert counts_for("identity", 15)[15] == 6299
    assert counts_for("hierarchy", 15)[15] == 699534


def test_hierarchy_n4_hand_evaluation():
    # evaluate the published recurrence directly, with the -1/2 correction
    # applied inside the inner sum on every term that reaches T_1
    T = {0: 0, 1: 1, 2: 1, 3: 2}
    n = 4
    divisor_part = Fraction(sum(m * T[m] for m in (1, 2)), n)  # proper divisors of 4
    double_sum = Fraction(0)
    for i in range(1, n):
        inner = Fraction(0)
        for m in range(1, (n - 1) // i + 1):
            inner += T[n - m * i] - (Fraction(1, 2) if n - m * i == 1 else 0)
        double_sum += i * T[i] * inner
    value = divisor_part + Fraction(2, n) * double_sum
    assert value == 5
    # and the terms i=1..3 are 3.5, 2, 3 as in the module-level derivation
    assert divisor_part == Fraction(3, 4)
    assert counts_for("hierarchy", 4)[4] == 5


def test_counts_dispatch():
    assert counts_for("polya", 5).values == POLYA.count_source(5).values
    with pytest.raises(ValueError, match="unknown variety"):
        counts_for("cayley", 5)
    with pytest.raises(ValueError):
        counts_for("polya", -1)


@pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
def test_oracle_equals_recurrence_to_200(variety):
    oracle = product_form_oracle(variety, 200)
    recurrence = counts_for(variety, 200)
    assert oracle.values == recurrence.values


def test_oracle_bound_enforced():
    with pytest.raises(ValueError, match="oracle bound"):
        product_form_oracle("polya", 300)
    # raising the bound explicitly is allowed
    assert product_form_oracle("polya", 210, bound=210)[210] > 0


def test_oracle_listed_prefixes():
    for variety in ("identity", "hierarchy"):
        seq = product_form_oracle(variety, 15)
        assert list(seq.values) == PREFIXES[variety]


def test_nondecreasing_and_nonnegative(counts500):
    for seq in counts500.values():
        assert all(v >= 0 for v in seq.values)
        assert all(seq[n] >= seq[n - 1] for n in range(2, seq.n_max + 1))


def test_polya_dominates_identity(counts500):
    polya, identity = counts500["polya"], counts500["identity"]
    assert all(polya[n] >= identity[n] for n in range(501))


@settings(max_examples=25, deadline=None)
@given(shorter=st.integers(min_value=0, max_value=60), longer=st.integers(min_value=0, max_value=60))
def test_prefix_stability(shorter, longer):
    # recomputing with a larger bound never changes earlier values
    lo, hi = sorted((shorter, longer))
    for variety in VARIETIES:
        assert counts_for(variety, hi).values[: lo + 1] == counts_for(variety, lo).values


def test_inexact_division_raises():
    # an explicit raise, so the integrality check also runs under python -O
    assert _divide_exactly(12, 4, 5) == 3
    with pytest.raises(ArithmeticError, match="inexact division at n=5"):
        _divide_exactly(13, 4, 5)


def test_spec_without_integer_counts_raises():
    # the shift of the wrong sign: the engine meets the remainder at once
    with pytest.raises(ArithmeticError, match="inexact division at n=2"):
        HIERARCHY.replace(shift_sign=+1).count_source(10)
