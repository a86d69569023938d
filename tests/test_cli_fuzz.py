"""Arbitrary graph and family JSON against the CLI's exit-code contract.

Every input either runs (exit 0, or 3 when a check fails or the verdict is
undecidable) or is refused with exit 2 and one ``error:`` line; nothing
escapes as a traceback.  Generated graphs have at most five whites in
total, so every valid input is answered in milliseconds; ``quenched``
walks the pair of a graph and its conjugate, at most ten whites.
Cycle-string graphs may also declare any k up to 10^9, far over the
budget, which must be refused before the loader builds anything.

Experiment configs for ``mc-moment``, ``concentration`` and
``entropy-slope`` carry such a graph or family, N of 2..4 and at most 30
samples, or one entry dropped or broken, so every valid config is answered
in milliseconds.

``generate`` argv draws a kind (or junk), mostly that kind's own fields,
sometimes one foreign field, and the common flags before or after the kind.
Integers stay in -2..8, since generate has no budget on the size it builds.

``annealed`` argv draws a regime (or junk), mu and lambda among them nan,
inf, 0 and negatives, and D and k in -2..8; ``counterexample`` argv draws
--kmax in -1..12.  An argv that exits 0 with JSON output must print strict
JSON: Python's NaN and Infinity are refused.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceinv.cli import main
from traceinv.search import DEFAULT_KMAX

K = 5

scalars = st.none() | st.booleans() | st.integers(-2, K + 2) | st.floats(-3, 8) | st.text(max_size=3)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def graphs(draw, kmax=K):
    """Graph JSON with at most kmax whites: valid, or with one field broken."""
    k = draw(st.integers(1, kmax))
    D = draw(st.integers(2, 4))
    out = {"D": D, "sigma": draw(st.lists(st.permutations(range(1, k + 1)), min_size=D, max_size=D))}
    flaw = draw(st.sampled_from([None, None, "D", "k", "sigma", "row"]))
    if flaw == "row":
        bad = st.lists(st.integers(-1, k + 1), max_size=k + 1) | junk
        out["sigma"][draw(st.integers(0, D - 1))] = draw(bad)
    elif flaw == "k":
        out["k"] = draw(st.integers(0, K + 1) | junk)
    elif flaw is not None:
        out[flaw] = draw(junk)
    return out


@st.composite
def cycle_graphs(draw, kmax=K):
    """Cycle-string graph JSON declaring at most kmax whites, or far more than the budget."""
    k = draw(st.integers(1, kmax) | st.integers(DEFAULT_KMAX + 1, 10**9))
    D = draw(st.integers(2, 4))
    cycle = st.lists(st.integers(1, K + 1), max_size=3, unique=True).map(lambda c: f"({' '.join(map(str, c))})")
    texts = st.lists(cycle, max_size=2).map("".join) | st.text(max_size=3)
    return {"D": D, "k": k, "sigma_cycles": draw(st.lists(texts, min_size=D, max_size=D))}


@st.composite
def families(draw):
    """Family JSON of 1-3 members with at most K whites in total, or a broken member list."""
    p = draw(st.integers(1, 3))
    graph = graphs(K // p) | cycle_graphs(K // p)
    member = st.fixed_dictionaries({"graph": graph}, optional={"name": st.text(max_size=3) | junk})
    return {"members": draw(st.lists(member | junk, min_size=1, max_size=p) | junk)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from([["analyze"], ["moment"], ["factorize"], ["cumulant"], ["quenched", "--N", "3"]]),
    payload=graphs() | cycle_graphs() | families() | junk,
)
def test_arbitrary_json_holds_the_exit_code_contract(command, payload):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], path, *command[1:], "--no-timestamp"])
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err + out.getvalue()
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@st.composite
def configs(draw):
    """Experiment config JSON over a small graph or family: valid, or with one entry dropped or broken."""
    k, D = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    valid = {"D": D, "sigma": draw(st.lists(st.permutations(range(1, k + 1)), min_size=D, max_size=D))}
    cfg = {
        "N": draw(st.lists(st.integers(2, 4), min_size=3, max_size=4) | st.integers(2, 4)),
        "samples": draw(st.integers(2, 30)),
        "seed": draw(st.integers(0, 2**40)),
    }
    entry = draw(st.sampled_from(["graph", "family"]))
    if draw(st.integers(0, 2)):
        cfg[entry] = valid if entry == "graph" else {"members": [{"graph": valid}] * draw(st.integers(1, 2))}
    else:
        cfg[entry] = draw(graphs(3) | cycle_graphs(3) if entry == "graph" else families())
    if draw(st.booleans()):
        cfg["kind"] = draw(st.sampled_from(["gaussian", "haar"]) | junk)
    if draw(st.booleans()):
        cfg["epsilon"] = draw(st.floats(-1, 2) | junk)
    flaw = draw(st.sampled_from([None, None, None, *sorted(cfg)]))
    if flaw is not None and draw(st.booleans()):
        del cfg[flaw]
    elif flaw is not None:
        cfg[flaw] = draw(junk | st.integers(-1, 1))
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(["mc-moment", "concentration", "entropy-slope"]), payload=configs())
def test_arbitrary_experiment_config_holds_the_exit_code_contract(command, payload):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, "--no-timestamp"])
    err = err.getvalue()
    assert code in (0, 2)
    assert "Traceback" not in err + out.getvalue()
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


# the fields each generate kind reads
KIND_FIELDS = {
    "two-vertex": ["D"],
    "melonic": ["D", "script"],
    "cyclic": ["D", "M", "k"],
    "realignment": ["M1", "M2", "M3", "k"],
    "joint-realignment": ["D", "M3", "links"],
    "fig7": [],
    "random": ["D", "k", "seed"],
    "with-delta": ["D", "delta"],
}
small_int = st.integers(-2, 8).map(str)
fragments = st.sampled_from(["", "[", "[[1,", "{}", "null", "1,", "[[1, 2.5]]", '"x"']) | st.text(max_size=4)
color_list = st.lists(st.integers(-2, 8), max_size=4).map(lambda cs: ",".join(map(str, cs)))
nested = st.lists(st.lists(st.integers(-2, 8), max_size=3), max_size=4).map(json.dumps)
FIELD_VALUES = {
    **dict.fromkeys(["D", "k", "seed", "delta"], small_int),
    **dict.fromkeys(["M", "M1", "M2", "M3"], color_list),
    **dict.fromkeys(["script", "links"], nested),
}


@st.composite
def generate_argv(draw):
    """generate argv: a kind or junk, its fields (rarely one dropped, sometimes one foreign), --format anywhere."""
    kind = draw(st.text(max_size=4) if not draw(st.integers(0, 3)) else st.sampled_from(sorted(KIND_FIELDS)))
    names = [name for name in KIND_FIELDS.get(kind, []) if draw(st.integers(0, 9))]
    if not draw(st.integers(0, 4)):
        foreign = draw(st.sampled_from(sorted(FIELD_VALUES)))
        names += [foreign] if foreign not in names else []
    fields = []
    for name in names:
        value = FIELD_VALUES[name]
        fields += [f"--{name}", draw(fragments if not draw(st.integers(0, 7)) else value)]
    flags = ["--format", draw(st.sampled_from(["json", "json", "pretty", "pretty", "csv"])), "--no-timestamp"]
    if draw(st.booleans()):
        return [*flags, kind, *fields]
    return [kind, *fields, *flags]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _check_argv(argv):
    """Run argv and check the exit-code contract, and strict JSON on a JSON success."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed option or value
            code, parsed = exc.code, False
        else:
            parsed = True
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err + out
    if code == 2 and parsed:
        assert err.startswith("error: ") and err.count("\n") == 1
    formats = [value for flag, value in zip(argv, argv[1:]) if flag == "--format"]
    if code == 0 and formats[-1:] in ([], ["json"]):
        json.loads(out, parse_constant=_refuse_constant)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=generate_argv())
@example(argv=["with-delta", "--D", "3", "--delta", "2"])
def test_arbitrary_generate_argv_holds_the_exit_code_contract(argv):
    _check_argv(["generate", *argv])


format_flags = st.sampled_from([[], ["--format", "json"], ["--format", "pretty"], ["--format", "csv"]])
odd_reals = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300"]) | st.floats(-3, 20).map(str)


@st.composite
def annealed_argv(draw):
    """annealed argv: a regime (rarely junk), mu and lambda (sometimes odd), D and k (sometimes too small)."""
    regime = draw(st.text(max_size=4) if not draw(st.integers(0, 4)) else st.sampled_from(["exponential", "gamma"]))
    reals = [draw(odd_reals if not draw(st.integers(0, 2)) else st.floats(0.05, 20).map(str)) for _ in range(2)]
    argv = ["annealed", "--regime", regime, "--mu", reals[0], "--lambda", reals[1]]
    for flag, least in (("--D", 2), ("--k", 1)):  # sometimes below the least valid value
        argv += [flag, draw(small_int if not draw(st.integers(0, 2)) else st.integers(least, 8).map(str))]
    return argv + draw(format_flags) + ["--no-timestamp"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=annealed_argv())
@example(argv=["annealed", "--regime", "exponential", "--mu", "nan", "--lambda", "10", "--D", "6", "--k", "9"])
@example(argv=["annealed", "--regime", "exponential", "--mu", "1", "--lambda", "inf", "--D", "6", "--k", "9"])
@example(argv=["annealed", "--regime", "exponential", "--mu", "inf", "--lambda", "10", "--D", "6", "--k", "9"])
@example(argv=["annealed", "--regime", "exponential", "--mu", "1", "--lambda", "10", "--D", "0", "--k", "-3"])
@example(argv=["annealed", "--regime", "gamma", "--mu", "1", "--lambda", "1e-300", "--D", "2", "--k", "1"])
@example(argv=["annealed", "--regime", "gamma", "--mu", "1e20", "--lambda", "10", "--D", "6", "--k", "9"])
def test_arbitrary_annealed_argv_holds_the_exit_code_contract(argv):
    _check_argv(argv)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kmax=st.integers(-1, 12), fmt=format_flags)
def test_arbitrary_counterexample_argv_holds_the_exit_code_contract(kmax, fmt):
    _check_argv(["counterexample", "--kmax", str(kmax), *fmt, "--no-timestamp"])
