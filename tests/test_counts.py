import hashlib
import os
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeasym.counts
from treeasym.counts import (
    HIERARCHY,
    POLYA,
    VARIETIES,
    _divide_exactly,
    counts_for,
    product_form_oracle,
)

from reference_values import COUNTS_2000_SHA256, PREFIXES


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
    for unknown in (counts_for, product_form_oracle):
        with pytest.raises(ValueError, match="unknown variety"):
            unknown("cayley", 5)
    with pytest.raises(ValueError):
        counts_for("polya", -1)


def test_a_key_error_inside_a_recurrence_is_not_an_unknown_variety(monkeypatch):
    def failing(n_max):
        raise KeyError("inside the recurrence")

    monkeypatch.setitem(treeasym.counts._RECURRENCES, "polya", failing)
    with pytest.raises(KeyError, match="inside the recurrence"):
        counts_for("polya", 5)


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


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls of one test; afterwards no child may be left."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forks_expected():
    # the split needs two usable CPUs; elsewhere these tests run the fallback
    return 1 if treeasym.counts._worker_cpus() else 0


@pytest.mark.parametrize("handoff", [2, 41, 150])
@pytest.mark.parametrize("variety", VARIETIES)
def test_split_counts_equal_the_sequential_ones(monkeypatch, forks, variety, handoff):
    sequential = counts_for(variety, 300).values  # 300 < SPLIT_FROM: no worker
    monkeypatch.setattr(treeasym.counts, "SPLIT_FROM", handoff)
    assert counts_for(variety, 300).values == sequential
    assert len(forks) == _forks_expected()


def test_split_keeps_the_exactness_check_in_the_parent(monkeypatch, forks):
    monkeypatch.setattr(treeasym.counts, "SPLIT_FROM", 2)
    with pytest.raises(ArithmeticError, match="inexact division at n=2"):
        HIERARCHY.replace(shift_sign=+1).count_source(10)
    assert len(forks) == _forks_expected()


@pytest.mark.parametrize("start", [30, 41, 120])
@pytest.mark.parametrize("variety", VARIETIES)
def test_counts_continued_from_a_prefix_equal_a_fresh_run(monkeypatch, forks, variety, start):
    # with the split from step 41, the continuation starts below, at and past
    # it; the worker forks at its first step from 41 on all the same
    spec = VARIETIES[variety]
    fresh = counts_for(variety, 300).values  # 300 < SPLIT_FROM: no worker
    prefix = spec.count_source(start)
    monkeypatch.setattr(treeasym.counts, "SPLIT_FROM", 41)
    assert spec.count_source(300, prefix).values == fresh
    assert len(forks) == _forks_expected()


@pytest.mark.parametrize("variety", VARIETIES)
def test_short_and_long_prefixes(variety):
    spec = VARIETIES[variety]
    fresh = counts_for(variety, 60).values
    for start in (0, 1, 2):
        assert spec.count_source(60, spec.count_source(start)).values == fresh
    # a prefix past n_max is cut to it
    assert spec.count_source(20, spec.count_source(60)).values == fresh[:21]


def test_a_prefix_of_another_variety_is_rejected():
    with pytest.raises(ValueError, match="count/variety mismatch: identity vs polya"):
        POLYA.count_source(30, counts_for("identity", 10))


@pytest.mark.parametrize("where", ["add_to_multiples", "_receive"])
def test_split_survives_a_worker_that_dies(monkeypatch, forks, where):
    # the worker exits at step 100, after reading T_100 (add_to_multiples)
    # or after sending its half and before reading T_100 (_receive); the
    # parent meets EOF at step 101 and runs alone from there
    sequential = counts_for("polya", 300).values
    parent, real, real_send = os.getpid(), getattr(treeasym.counts, where), treeasym.counts._send
    calls, sent = [], []

    def dying(*args):
        if os.getpid() != parent:
            calls.append(None)  # one call a step, from step 41 on
            if len(calls) == 100 - 40:
                os._exit(3)
        return real(*args)

    def send(stream, value):
        if os.getpid() == parent:
            sent.append(value)
        return real_send(stream, value)

    monkeypatch.setattr(treeasym.counts, "SPLIT_FROM", 41)
    monkeypatch.setattr(treeasym.counts, where, dying)
    monkeypatch.setattr(treeasym.counts, "_send", send)
    assert counts_for("polya", 300).values == sequential
    assert len(forks) == _forks_expected()
    # T_41 .. T_100, and nothing once the worker has gone
    assert sent == (list(sequential[41:101]) if forks else [])


@pytest.mark.parametrize("case", ["one usable CPU", "a second thread"])
def test_no_worker_without_a_free_cpu_or_with_threads(monkeypatch, forks, case):
    sequential = counts_for("identity", 300).values
    monkeypatch.setattr(treeasym.counts, "SPLIT_FROM", 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "one usable CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        thread.start()
    try:
        assert counts_for("identity", 300).values == sequential
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert forks == [] and not thread.is_alive()


def test_hierarchy_counts_to_2000_match_the_pinned_digest(forks):
    # nothing else checks T_501 .. T_2000 but exact divisibility; this runs
    # the default path, split from SPLIT_FROM on where two CPUs are usable
    values = counts_for("hierarchy", 2000).values
    digest = hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()
    assert digest == COUNTS_2000_SHA256["hierarchy"]
    assert len(forks) == _forks_expected()
