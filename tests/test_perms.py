import math
import random
import re
from fractions import Fraction

import pytest

from traceinv import perms

import oracles


def test_check_perm_accepts_bijection():
    assert perms.check_perm([2, 0, 1]) == (2, 0, 1)


# the last four are not truncated to a bijection by int()
@pytest.mark.parametrize("bad", [[0, 0], [1, 2], [], [0, 2], [0, 1.9, 2.2], [1.0, 0.0], ["1", "0"], [True, False]])
def test_check_perm_rejects(bad):
    with pytest.raises(ValueError):
        perms.check_perm(bad)


def test_check_perm_keeps_numpy_integers():
    import numpy as np

    p = perms.check_perm(np.array([2, 0, 1]))
    assert p == (2, 0, 1) and all(type(x) is int for x in p)


def test_compose_convention():
    p = (1, 2, 0)  # x -> x+1 mod 3
    q = (0, 2, 1)
    assert perms.compose(p, q) == (1, 0, 2)  # p[q[x]]


def test_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        k = rng.randint(1, 9)
        p = perms.random_permutation(rng, k)
        assert perms.compose(p, perms.inverse(p)) == perms.identity(k)
        assert perms.inverse(perms.inverse(p)) == p


def test_cycle_count_matches_naive():
    rng = random.Random(11)
    for _ in range(100):
        k = rng.randint(1, 10)
        p = perms.random_permutation(rng, k)
        assert perms.cycle_count(p) == oracles.cycle_count_naive(p)


def test_cycle_count_of_pair_matches_naive():
    # cycle_count(p, q) counts the cycles of x -> q[p[x]] without composing
    rng = random.Random(13)
    for _ in range(200):
        k = rng.randint(1, 10)
        p, q = perms.random_permutation(rng, k), perms.random_permutation(rng, k)
        assert perms.cycle_count(p, q) == oracles.cycle_count_naive(perms.compose(q, p))
        # q as a dict over labels that are not 0..k-1
        labels = rng.sample(range(3 * k + 5), k)
        to_label = tuple(labels[y] for y in p)
        back = {labels[y]: q[y] for y in range(k)}
        assert perms.cycle_count(to_label, back) == oracles.cycle_count_naive(perms.compose(q, p))


def test_cycle_count_bounds():
    assert perms.cycle_count(perms.identity(5)) == 5
    assert perms.cycle_count((1, 2, 3, 4, 0)) == 1


def test_cycle_string_roundtrip():
    p = perms.from_cycle_string(4, "(1 2 3)(4)")
    assert p == (1, 2, 0, 3)
    assert perms.to_cycle_string(p) == "(1 2 3)(4)"
    assert perms.from_cycle_string(3, "") == (0, 1, 2)


@pytest.mark.parametrize("text", ["(1 2", "(1 2)(2 3)", "(0 1)", "(1 4)"])
def test_cycle_string_rejects(text):
    with pytest.raises(ValueError):
        perms.from_cycle_string(3, text)


# int() reads each of these as a label: "1_0" as 10, "+1" as 1, "\u0661" (Arabic-Indic one) as 1
@pytest.mark.parametrize("text", ["(1_0 2)", "(+1 2)", "(\u0661 2)", "(-1 2)", "(1.0 2)"])
def test_cycle_string_labels_are_ascii_digits(text):
    with pytest.raises(ValueError, match="ASCII digits"):
        perms.from_cycle_string(12, text)
    assert perms.from_cycle_string(12, "( 10 , 2 )") == perms.from_cycle_string(12, "(10 2)")


@pytest.mark.parametrize("text, value", [("7", 7), (" 12 ", 12), ("007", 7)])
def test_from_digits_reads_ascii_digits(text, value):
    assert perms.from_digits(text) == value


@pytest.mark.parametrize("text", ["", " ", "1_0", "+1", "-1", "1.0", "\u0661", "1 0", "0x1"])
def test_from_digits_refuses_everything_else(text):
    with pytest.raises(ValueError, match="ASCII digits"):
        perms.from_digits(text)


def test_random_permutation_deterministic():
    a = perms.random_permutation(random.Random(7), 8)
    b = perms.random_permutation(random.Random(7), 8)
    assert a == b


@pytest.mark.parametrize("text, value", [("7", 7), ("-12", -12), ("007", 7), ("-0", 0)])
def test_from_decimal_reads_signed_ascii_digits(text, value):
    assert perms.from_decimal(text) == value


@pytest.mark.parametrize("text", ["", "-", "--1", " 1", "1 ", "1\n", "1_0", "+1", "1.0", "\u0661", "0x1"])
def test_from_decimal_refuses_everything_else(text):
    with pytest.raises(ValueError, match="ASCII digits"):
        perms.from_decimal(text)


@pytest.mark.parametrize("value", [3, -2, 2.5, -0.0, math.inf, math.nan, Fraction(1, 4)])
def test_as_real_reads_ints_and_floats(value):
    got = perms.as_real(value)
    assert type(got) is float and (got == float(value) or math.isnan(value))


@pytest.mark.parametrize("value", [True, False, "0.5", b"1", 1j, None, [0.5], 10**400])
def test_as_real_refuses_everything_else(value):
    with pytest.raises(ValueError, match="expected a real number"):
        perms.as_real(value)
    with pytest.raises(ValueError, match=f"^epsilon must be a real number, got {re.escape(repr(value))}$"):
        perms.as_real(value, "epsilon")
