import json
import math
import random
import re
from fractions import Fraction

import pytest

from traceinv import cli, families, perms
from traceinv.graphs import cycle_string_ks, graph_from_json_dict

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


# int() reads each of these as a label: "1_0" as 10, "+1" as 1, "\u0661" (Arabic-Indic one) as 1;
# a label is read by from_decimal, so "-1" is an integer, refused as out of range
@pytest.mark.parametrize("text", ["(1_0 2)", "(+1 2)", "(\u0661 2)", "(-1 2)", "(1.0 2)"])
def test_cycle_string_labels_are_ascii_digits(text):
    message = "label -1 out of range 1..12" if text == "(-1 2)" else "ASCII digits"
    with pytest.raises(ValueError, match=re.escape(message)):
        perms.from_cycle_string(12, text)
    assert perms.from_cycle_string(12, "( 10 , 2 )") == perms.from_cycle_string(12, "(10 2)")


def _generate_cyclic(M, capsys):
    """(exit code, stdout, stderr) of generate cyclic with D = 30, k = 2 and the text M as --M."""
    code = cli.main(["generate", "cyclic", "--D", "30", "--M", M, "--k", "2", "--no-timestamp"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a color of --M is stripped of surrounding spaces and read by from_decimal
@pytest.mark.parametrize("text, value", [("7", 7), (" 12 ", 12), ("007", 7)])
def test_from_digits_reads_ascii_digits(text, value, capsys):
    code, out, _ = _generate_cyclic(text, capsys)
    assert code == 0 and json.loads(out)["sigma"] == families.cyclic(30, {value - 1}, 2).to_json_dict()["sigma"]


# each is read as colors and refused after: no color as an empty M by the builder, and
# "-1" as out of range by the spec path, which names colors as given
SPEC_REFUSALS = {
    "": "nonempty color subset M",
    " ": "nonempty color subset M",
    "-1": "M=[-1] has colors out of range 1..30",
}


@pytest.mark.parametrize("text", ["", " ", "1_0", "+1", "-1", "1.0", "\u0661", "1 0", "0x1"])
def test_from_digits_refuses_everything_else(text, capsys):
    code, out, err = _generate_cyclic(text, capsys)
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    if text in SPEC_REFUSALS:
        assert SPEC_REFUSALS[text] in err
    else:
        message = f"--M is malformed: expected ASCII digits with an optional leading minus, got {text.strip()!r}"
        assert err == f"error: {message}\n"


def test_random_permutation_deterministic():
    a = perms.random_permutation(random.Random(7), 8)
    b = perms.random_permutation(random.Random(7), 8)
    assert a == b


@pytest.mark.parametrize("text, value", [("7", 7), ("-12", -12), ("007", 7), ("-0", 0)])
def test_from_decimal_reads_signed_ascii_digits(text, value):
    assert perms.from_decimal(text) == value


@pytest.mark.parametrize("text", ["", " ", "-", "--1", " 1", "1 ", "1 0", "1\n", "1_0", "+1", "1.0", "\u0661", "0x1"])
def test_from_decimal_refuses_everything_else(text):
    with pytest.raises(ValueError, match="ASCII digits"):
        perms.from_decimal(text)


@pytest.mark.parametrize(
    "text, value", [("7", 7.0), ("-12", -12.0), ("2.5", 2.5), ("-1.5e-3", -0.0015), ("1E+300", 1e300), ("007.50", 7.5)]
)
def test_from_decimal_reads_reals_when_kind_is_float(text, value):
    got = perms.from_decimal(text, float)
    assert type(got) is float and got == value


@pytest.mark.parametrize(
    "text", ["", "-", "nan", "inf", "-inf", "Infinity", "+9", "1_0", "\u0663", " 3", "3 ", "0x3", ".5", "2.", "1e", "1e5.5"]
)
def test_from_decimal_refuses_other_reals(text):
    message = f"expected ASCII digits with an optional leading minus, fraction and exponent, got {text!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        perms.from_decimal(text, float)


def test_as_int_is_the_rule_of_check_perm():
    import numpy as np

    for value in (3, -1, np.int64(3), np.uint8(2)):
        got = perms.as_int(value)
        assert type(got) is int and got == value
    for value in (True, np.True_, 3.0, 3.7, "3", None, [3]):
        with pytest.raises(ValueError, match="expected an integer"):
            perms.as_int(value)
        with pytest.raises(ValueError, match=f"^N must be an integer, got {re.escape(repr(value))}$"):
            perms.as_int(value, "N")


# graph JSON, the walk for cycle-string k (the CLI's budget check) and family specs read their integers by as_int
@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: graph_from_json_dict({"D": 3.0, "sigma": [[1], [1], [1]]}), "D must be an integer, got 3.0"),
        (lambda: list(cycle_string_ks({"D": 3, "k": 1.5, "sigma_cycles": ["", "", ""]})), "k must be an integer, got 1.5"),
        (lambda: graph_from_json_dict({"D": 3, "sigma": [[1], ["2"], [1]]}), "sigma[1] entry must be an integer, got '2'"),
        (
            lambda: families.generate_from_spec({"kind": "cyclic", "D": 3, "M": [1.5], "k": 2}),
            "family spec field 'M' is malformed: M entry must be an integer, got 1.5",
        ),
    ],
    ids=["graph-D", "cycle-string-k", "sigma-entry", "spec-M"],
)
def test_json_and_spec_integer_refusals_name_their_field(read, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read()


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
