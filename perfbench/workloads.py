"""Workload inputs and output checks for the traceinv benchmark.

Each workload is a fixed question set: a list of operations, every one a
CLI argv (run in process through ``traceinv.cli.main``) or, where no CLI
command exists, a public library call.  ``prepare`` turns a seed into the
input files and the operation list; ``check`` judges one operation's
output after the timed region.  The seed changes the graphs, families and
Monte Carlo seeds, never the amount of work, so runs with different seeds
cost the same.
"""

from __future__ import annotations

import json
import math
import os
import random

import traceinv as ti
from traceinv.graphs import family_from_json_dict, graph_from_json_dict, load_family, load_graph

# Each workload joins two question sets that load the same kind of layer
# in opposite ways, so a run is long enough for a steady median while every
# layer is still measured: the S_k pairing scan (search) and the moment
# histogram (moments) in "exact"; the contraction (small N) and the normal
# draws (large N) of the sampling layer in "mc".
WORKLOADS = {
    "exact": ("search", "moments"),
    "mc": ("mc-small-n", "mc-large-n"),
}

# functions each workload cannot answer without; the traced run fails a
# workload whose spans show none of these calls
REQUIRED_CALLS = {
    "exact": ("main", "search_f0", "gaussian_moment", "connected_cumulant"),
    "mc": ("main", "_draw_batch", "_batch_trace"),
}

# where each part's time should go: a layer's self time, or a function's
# (the draw/contract split of the sampling layer); the traced run reports
# the share per part
PART_COST = {
    "search": "search",
    "moments": "moments",
    "mc-small-n": "_batch_trace",
    "mc-large-n": "_draw_batch",
}

MST3_SIGMA = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]  # 3 colors, 3 pairs, one face per color pair
MC_SMALL_SAMPLES = 4096
MC_LARGE_SAMPLES = 256
MC_Z_GATE = 4.0  # MC mean within this many standard errors of the exact value
COVERAGE_GATE = 0.9
SLOPE_GATE = 0.1


def prepare(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's input files into workdir; return its operations.

    Paths inside an operation are absolute.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)

    ops = []
    for part in WORKLOADS[workload]:
        ops += [dict(op, part=part) for op in _PARTS[part](rng, workdir)]
    return ops


def _write(workdir, name, payload):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    return path


def _graph_file(workdir, name, G):
    return _write(workdir, name, G.to_json_dict())


def _family_file(workdir, name, graphs):
    return _write(workdir, name, ti.family_of(graphs).to_json_dict())


def _rand_graph(rng, D, k):
    return ti.random_graph(D, k, rng.randrange(2**31))


def _search_ops(rng, workdir):
    """counterexample, analyze at k=9 and factorize: the S_k pairing scan."""
    ops = [_cli("counterexample", ["counterexample"], "counterexample")]
    # one k=9 graph per D in 3..6, so every seed scans the same S_9 sizes
    Ds = [3, 4, 5, 6]
    rng.shuffle(Ds)
    for D in Ds:
        path = _graph_file(workdir, f"graph_D{D}.json", _rand_graph(rng, D, 9))
        ops.append(_cli(f"analyze-D{D}", ["analyze", path], "analyze", graph=path))
    # |M| = D/2 reaches the tree-like tier; a single parallel color stops at tier 1
    M = set(rng.sample(range(4), 2))
    tree = ti.cyclic(4, M, 4)
    D = rng.choice([3, 4, 5, 6])
    bound = ti.cyclic(D, {rng.randrange(D)}, 4)
    for name, G in (("pair-treelike", tree), ("pair-bound", bound)):
        path = _family_file(workdir, f"{name}.json", [G, G])
        ops.append(_cli(f"factorize-{name}", ["factorize", path], "factorize", family=path))
    return ops


def _moment_ops(rng, workdir):
    """moment, cumulant, consistency and quenched at total k = 8: the moment histogram."""
    ops = []
    f1 = _family_file(workdir, "family1.json", [_rand_graph(rng, 3, 8)])
    a = rng.choice([2, 3, 4])
    f2 = _family_file(workdir, "family2.json", [_rand_graph(rng, 4, a), _rand_graph(rng, 4, 8 - a)])
    sizes = rng.choice([(2, 3, 3), (3, 2, 3), (3, 3, 2), (2, 2, 4), (2, 4, 2), (4, 2, 2)])
    f3 = _family_file(workdir, "family3.json", [_rand_graph(rng, 3, s) for s in sizes])
    for tag, path in (("1", f1), ("2", f2), ("3", f3)):
        ops.append(_cli(f"moment-{tag}", ["moment", path], "moment", family=path))
        ops.append(
            _cli(f"cumulant-{tag}", ["cumulant", path], "cumulant", family=path, moment=f"moment-{tag}")
        )
    ops.append(
        {"id": "consistency-3", "call": "cumulant_consistency", "family": f3, "exact": True, "check": "residual"}
    )
    g = _graph_file(workdir, "quenched.json", _rand_graph(rng, 3, 4))
    ops.append(_cli("quenched", ["quenched", g, "--N", "8"], "quenched", graph=g, N=8))
    return ops


def _mc_small_ops(rng, workdir):
    """mc-moment on mst3 at N 4 and 8: per-sample cost is the contraction."""
    ops = []
    mst3 = ti.build_graph(3, MST3_SIGMA)
    for kind in ("gaussian", "haar"):
        path = _write(
            workdir,
            f"mc_{kind}.json",
            {"graph": mst3.to_json_dict(), "kind": kind, "N": [4, 8],
             "samples": MC_SMALL_SAMPLES, "seed": rng.randrange(2**31)},
        )
        ops.append(_cli(f"mc-{kind}", ["mc-moment", path], "mc", exact=False, config=path))
    path = _write(
        workdir,
        "mc_pair.json",
        {"family": ti.family_of([mst3, ti.conjugate(mst3)]).to_json_dict(), "kind": "gaussian",
         "N": [4], "samples": MC_SMALL_SAMPLES, "seed": rng.randrange(2**31)},
    )
    ops.append(_cli("mc-pair", ["mc-moment", path], "mc", exact=False, config=path))
    return ops


def _mc_large_ops(rng, workdir):
    """concentration and entropy-slope on cyclic(3,{0},2) up to N=32: per-sample cost is the draw."""
    graph = ti.cyclic(3, {0}, 2).to_json_dict()
    conc = _write(
        workdir,
        "concentration.json",
        {"graph": graph, "kind": "haar", "N": [16, 32], "samples": MC_LARGE_SAMPLES,
         "seed": rng.randrange(2**31), "epsilon": 0.5},
    )
    slope = _write(
        workdir,
        "entropy_slope.json",
        {"graph": graph, "kind": "haar", "N": [8, 16, 32], "samples": MC_LARGE_SAMPLES,
         "seed": rng.randrange(2**31)},
    )
    return [
        _cli("concentration", ["concentration", conc], "coverage", exact=False, config=conc),
        _cli("entropy-slope", ["entropy-slope", slope], "slope", exact=False, config=slope),
    ]


_PARTS = {
    "search": _search_ops,
    "moments": _moment_ops,
    "mc-small-n": _mc_small_ops,
    "mc-large-n": _mc_large_ops,
}


def _cli(op_id, argv, check, exact=True, **refs):
    return {"id": op_id, "argv": argv, "exact": exact, "check": check, **refs}


def mc_samples(op: dict) -> int:
    """Tensor draws an MC operation makes: samples times the number of N; 0 for exact ones."""
    if "config" not in op:
        return 0
    with open(op["config"]) as fh:
        cfg = json.load(fh)
    Ns = cfg["N"] if isinstance(cfg["N"], list) else [cfg["N"]]
    return int(cfg["samples"]) * len(Ns)


def check(op: dict, rc, out: dict, outputs: dict):
    """None when op's output is right, else the reason it is not.

    outputs maps operation ids to their parsed outputs, for checks that
    compare two operations.
    """
    kind = op["check"]
    if "argv" in op and rc != 0:
        return f"exit code {rc}, expected 0"
    if kind == "counterexample":
        return None if out.get("status") == "pass" else f"status {out.get('status')!r}"
    if kind == "analyze":
        ref = ti.search_f0(load_graph(op["graph"]), prune=True)
        got = (out["f0_max"], out["multiplicity"])
        return None if got == (ref.f0_max, ref.multiplicity) else f"{got} != pruned search {ref.f0_max, ref.multiplicity}"
    if kind == "factorize":
        ref = ti.factorization_verdict(load_family(op["family"]))
        return None if out["factorizes"] == ref.factorizes else f"factorizes {out['factorizes']} != exhaustive {ref.factorizes}"
    if kind == "moment":
        total = sum(int(t["coef"]) for t in out["terms"])
        want = math.factorial(load_family(op["family"]).total_k)
        return None if total == want else f"coefficient sum {total} != (total k)! = {want}"
    if kind == "cumulant":
        return _check_cumulant(out, outputs[op["moment"]], load_family(op["family"]))
    if kind == "residual":
        return None if not out["terms"] else f"residual {out['terms']} is not zero"
    if kind == "quenched":
        G = load_graph(op["graph"])
        moment = ti.gaussian_moment(ti.family_of([G, ti.conjugate(G)])).eval_at(op["N"])
        want = -0.5 * math.log(float(moment))
        if out["method"] != "exact" or abs(out["value"] - want) > 1e-12 * max(1.0, abs(want)):
            return f"{out['method']} value {out['value']} != -ln<Tr>/2 = {want}"
        return None
    if kind == "mc":
        with open(op["config"]) as fh:
            cfg = json.load(fh)
        if "family" in cfg:
            family = family_from_json_dict(cfg["family"])
        else:
            family = ti.family_of([graph_from_json_dict(cfg["graph"])])
        poly = ti.gaussian_moment(family)
        for row in out["rows"]:
            N = row["N"]
            exact = float(poly.eval_at(N))
            if out["kind"] == "haar":
                exact *= float(ti.haar_factor(family.total_k, family.D, N))
            z = abs(complex(row["mean_re"], row["mean_im"]) - exact) / row["stderr"]
            if not z <= MC_Z_GATE:
                return f"N={N}: mean {row['mean_re']} is {z:.2f} stderr from {exact}"
        return None
    if kind == "coverage":
        N, cover = max((r["N"], r["coverage"]) for r in out["rows"])
        return None if cover > COVERAGE_GATE else f"coverage {cover} at N={N} is not above {COVERAGE_GATE}"
    if kind == "slope":
        slope, want = out["slope"], out["slope_expected"]
        ok = abs(slope - want) <= SLOPE_GATE * abs(want)
        return None if ok else f"slope {slope} not within {SLOPE_GATE:.0%} of {want}"
    raise ValueError(f"unknown check {kind!r}")


def _check_cumulant(out, moment_out, family):
    """The cumulant must equal the Moebius inversion of the subfamily moments.

    The full-family moment comes from the moment operation's output; for a
    one-member family the cumulant must equal it exactly.
    """
    moment = ti.LaurentPoly.from_json_dict(moment_out)
    p = family.p
    want = ti.LaurentPoly.zero()
    for pi in ti.set_partitions(p):
        term = ti.LaurentPoly.constant((-1) ** (len(pi) - 1) * math.factorial(len(pi) - 1))
        for block in pi:
            term = term * (moment if len(block) == p else ti.gaussian_moment(family.subfamily(block)))
        want = want + term
    got = ti.LaurentPoly.from_json_dict(out)
    return None if got == want else f"cumulant {got} != Moebius inversion of moments {want}"
