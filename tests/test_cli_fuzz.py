"""Arbitrary graph and family JSON against the CLI's exit-code contract.

Every input either runs (exit 0, or 3 when a check fails or the verdict is
undecidable) or is refused with exit 2 and one ``error:`` line; nothing
escapes as a traceback.  Generated graphs have at most five whites in
total, so every valid input is answered in milliseconds; ``quenched``
walks the pair of a graph and its conjugate, at most ten whites.
Cycle-string graphs may also declare any k up to 10^9, far over the
budget, which must be refused before the loader builds anything.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
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
