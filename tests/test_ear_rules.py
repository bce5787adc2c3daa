"""The stride rule that fills an ear's interior, against the tables it replaced.

A kernel takes every second interior vertex back from xr, a small
quasi-kernel every third.  The reference copies below are the per-pattern
tables the rule was written as before; the rule must agree with them
everywhere in its domain and reject every length below its stride.
"""

from itertools import product

import pytest

from earlab.constructions import (_stride_back, cycle_quasi_kernel_indices,
                                  quasi_kernel_ear_indices)
from earlab.errors import InvalidInputError
from earlab.kernels import extend_case, restrict_condition

PATTERNS = list(product((False, True), (False, True)))


def ref_progression(start, stop, step=3):
    if start > stop:
        return []
    return list(range(start, stop + 1, step))


def ref_ear_indices(x0_in, xr_in, r):
    m = r % 3
    if x0_in and xr_in:
        if m == 0:
            return ref_progression(3, r - 3)
        if m == 1:
            return [2] + ref_progression(4, r - 3)
        return ref_progression(2, r - 3)
    if not x0_in and xr_in:
        if m == 0:
            return ref_progression(3, r - 3)
        if m == 1:
            return ref_progression(1, r - 3)
        return ref_progression(2, r - 3)
    if x0_in and not xr_in:
        if m == 0:
            return ref_progression(2, r - 1)
        if m == 1:
            return ref_progression(3, r - 1)
        return [2] + ref_progression(4, r - 1)
    if m == 0:
        return ref_progression(2, r - 1)
    if m == 1:
        return ref_progression(3, r - 1)
    return ref_progression(1, r - 1)


def ref_cycle_indices(n):
    m = n % 3
    if m == 0:
        return ref_progression(0, n - 3)
    if m == 1:
        return ref_progression(0, n - 4) + [n - 2]
    return ref_progression(0, n - 2)


def ref_restrict_condition(x0_in, xr_in, length):
    if x0_in and xr_in:
        return 1
    if x0_in:
        return 2
    if xr_in:
        return 3 if length % 2 == 0 else None
    return 4 if length % 2 == 1 else None


def ref_extend_case(x0_in, xr_in, length):
    even = length % 2 == 0
    if x0_in and xr_in:
        return (1, 2, length - 2) if even else None
    if x0_in:
        return None if even else (2, 2, length - 1)
    if xr_in:
        return (3, 2, length - 2) if even else (3, 1, length - 2)
    return (4, 1, length - 1) if even else (4, 2, length - 1)


def test_quasi_kernel_ear_rule_matches_the_twelve_row_table():
    for (x0_in, xr_in), r in product(PATTERNS, range(3, 61)):
        assert (quasi_kernel_ear_indices(x0_in, xr_in, r)
                == ref_ear_indices(x0_in, xr_in, r)), (x0_in, xr_in, r)


def test_cycle_rule_matches_the_three_row_table():
    for n in range(2, 61):
        assert cycle_quasi_kernel_indices(n) == ref_cycle_indices(n), n


def test_kernel_rules_match_the_parity_tables():
    for (x0_in, xr_in), length in product(PATTERNS, range(2, 41)):
        ends = (x0_in, xr_in, length)
        ref = ref_extend_case(*ends)
        assert extend_case(*ends) == (ref and ref[0]), ends
        if ref is not None:
            _, start, stop = ref
            assert _stride_back(length, xr_in, 2) == list(range(start, stop + 1, 2)), ends
        assert restrict_condition(*ends) == ref_restrict_condition(*ends), ends


@pytest.mark.parametrize("x0_in,xr_in", PATTERNS)
@pytest.mark.parametrize("r", range(-1, 3))
def test_quasi_kernel_ear_rule_rejects_ears_shorter_than_three(x0_in, xr_in, r):
    with pytest.raises(InvalidInputError, match="length >= 3"):
        quasi_kernel_ear_indices(x0_in, xr_in, r)


@pytest.mark.parametrize("rule", [extend_case, restrict_condition])
@pytest.mark.parametrize("x0_in,xr_in", PATTERNS)
@pytest.mark.parametrize("length", range(-1, 2))
def test_kernel_rules_reject_ears_shorter_than_two(rule, x0_in, xr_in, length):
    with pytest.raises(InvalidInputError, match="length >= 2"):
        rule(x0_in, xr_in, length)
