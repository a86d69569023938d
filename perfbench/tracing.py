"""Spans around the calls into each traceinv layer, recorded from outside.

``install`` replaces every binding of each target function, in every
loaded ``traceinv`` module, by a wrapper that records a span (name, layer,
operation id, parent, start, end) and, for some targets, counts taken from
the call's arguments or result.  The layer is the module that defines the
function.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer numbers and ``Tracer.dump`` writes them out.

Work counts that the program does not report are computed here, and the
metric names say so: normals drawn are 2 N^D per sample, and contraction
FLOPs and transpose bytes come from the contraction plan's operand shapes
at 8 real FLOPs per complex multiply-add and 16 B per complex entry.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np

GROUPS = {
    "search": ("search_f0", "search_f0_connected", "degree_report", "mst_pair_f0", "treelike_report"),
    "moments": ("gaussian_moment", "connected_cumulant", "cumulant_consistency", "factorization_verdict"),
    "sampling": ("mc_moment", "concentration_experiment", "entropy_slope_experiment", "quenched_entropy"),
    "draw": ("_draw_batch",),  # the draw/contract split is reachable only here
    "contract": ("_batch_trace",),
    "graphs": ("graph_stats", "connected_components", "disjoint_union", "conjugate"),
    "cli": ("main", "decide_factorization"),
}

# metric -> groups whose targets must all exist for the metric to be measured
METRIC_GROUPS = {
    "search.calls": ("search",),
    "search.explored": ("search",),
    "search.self_s": ("search",),
    "search.explored_per_s": ("search",),
    "moments.calls": ("moments",),
    "moments.self_s": ("moments",),
    "moments.us_per_pairing": ("moments",),
    "sampling.contract_s": ("contract",),
    "sampling.contract_gflops": ("contract",),
    "sampling.transpose_bytes": ("contract",),
    "sampling.draw_s": ("draw",),
    "sampling.normals_per_s": ("draw",),
    "sampling.samples": ("draw",),
    "sampling.batches": ("draw",),
    "sampling.self_s": ("sampling", "draw", "contract"),
    "graphs.self_s": ("graphs",),
    "cli.commands": ("cli",),
    "cli.self_s": ("cli",),
}

class Tracer:
    """In-memory span store for one traced phase."""

    def __init__(self):
        self.spans = []  # [name, layer, op, parent index, start, end, counts]
        self.stack = []
        self.op = None
        self.hook_errors = {}  # metric -> why its count could not be taken

    def begin(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, self.op, parent, time.perf_counter(), None, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx):
        self.spans[idx][5] = time.perf_counter()
        self.stack.pop()

    def count(self, idx, hook, args, kwargs, result):
        try:
            self.spans[idx][6] = hook(args, kwargs, result)
        except Exception as exc:  # a refactor changed the call; mark its counts unmeasured
            for metric in HOOK_METRICS[hook]:
                self.hook_errors.setdefault(metric, f"{type(exc).__name__}: {exc}")

    def dump(self, path):
        with open(path, "w") as fh:
            for name, layer, op, parent, t0, t1, counts in self.spans:
                rec = {"name": name, "layer": layer, "op": op, "parent": parent,
                       "start": t0, "end": t1, "counts": counts}
                fh.write(json.dumps(rec) + "\n")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _explored(args, kwargs, result):
    return {"explored": result.explored}


def _pairings(args, kwargs, result):
    return {"pairings": math.factorial(_arg(args, kwargs, 0, "family").total_k)}


def _draws(args, kwargs, result):
    D, N, count = (_arg(args, kwargs, i, n) for i, n in ((1, "D"), (2, "N"), (3, "count")))
    return {"samples": count, "normals": 2 * N**D * count}


def _contraction(args, kwargs, result):
    G, batch = _arg(args, kwargs, 0, "G"), _arg(args, kwargs, 1, "batch")
    flops, moved = _plan_cost(G, batch.shape[-1])
    B = batch.shape[0]
    return {"flops": B * flops, "transpose_bytes": B * moved}


HOOKS = {
    "search_f0": _explored,
    "search_f0_connected": _explored,
    "gaussian_moment": _pairings,
    "connected_cumulant": _pairings,
    "_draw_batch": _draws,
    "_batch_trace": _contraction,
}
# hook -> metrics that cannot be computed when the hook fails
HOOK_METRICS = {
    _explored: ("search.explored", "search.explored_per_s"),
    _pairings: ("moments.us_per_pairing",),
    _draws: ("sampling.samples", "sampling.normals_per_s"),
    _contraction: ("sampling.contract_gflops", "sampling.transpose_bytes"),
}


@functools.lru_cache(maxsize=None)
def _plan_cost(G, N):
    """Per-sample (FLOPs, transpose bytes) of the greedy contraction plan.

    Each step is a batched matmul of the operands transposed to
    (kept, shared) and (shared, kept) order; an operand costs a copy when
    numpy cannot reshape its transposed view without one, which is
    decided on a stand-in array with every axis of length 2.
    """
    from traceinv import sampling

    _, steps, _ = sampling._contraction_plan(G)
    flops = moved = 0
    for _, _, lab_a, lab_b, _ in steps:
        shared = [l for l in lab_a if l in lab_b]
        keep_a = [l for l in lab_a if l not in shared]
        keep_b = [l for l in lab_b if l not in shared]
        flops += 8 * N ** (len(keep_a) + len(shared) + len(keep_b))
        for labels, first, second in ((lab_a, keep_a, shared), (lab_b, shared, keep_b)):
            if _reshape_copies(tuple(labels.index(l) for l in first + second), len(first)):
                moved += 16 * N ** len(labels)
    return flops, moved


def _reshape_copies(perm, split):
    """Whether reshaping a C-ordered array transposed by perm into two groups copies."""
    base = np.empty((2,) * (len(perm) + 1))
    view = np.transpose(base, (0,) + tuple(p + 1 for p in perm))
    merged = view.reshape(2, 2**split, 2 ** (len(perm) - split))
    return not np.shares_memory(merged, base)


def install(tracer):
    """Wrap every target in every loaded traceinv module.

    Returns (restore, missing): restore() puts the original functions back;
    missing names the targets no module defines any more.
    """
    modules = [m for name, m in sys.modules.items() if name == "traceinv" or name.startswith("traceinv.")]
    patched = []
    missing = []
    for name in (n for group in GROUPS.values() for n in group):
        orig = next(
            (
                m.__dict__[name]
                for m in modules
                if callable(m.__dict__.get(name))
                and getattr(m.__dict__[name], "__module__", "") == m.__name__
            ),
            None,
        )
        if orig is None:
            missing.append(name)
            continue
        wrapper = _wrap(tracer, orig, name, orig.__module__.rsplit(".", 1)[-1], HOOKS.get(name))
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapper)
                    patched.append((m, attr, orig))

    def restore():
        for m, attr, orig in patched:
            setattr(m, attr, orig)

    return restore, missing


def _wrap(tracer, fn, name, layer, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if hook is not None:
            tracer.count(idx, hook, args, kwargs, result)
        return result

    return wrapper


def _self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, layer, op, parent, t0, t1, counts in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return [t1 - t0 - c for (name, layer, op, parent, t0, t1, counts), c in zip(spans, child)]


def part_shares(tracer, part_of, cost_of):
    """Share of each part's traced operation time spent where its cost should be.

    part_of maps operation ids to parts; cost_of maps a part to the layer
    or function name whose self time counts.
    """
    own, total = {}, {}
    for (name, layer, op, parent, t0, t1, counts), self_s in zip(tracer.spans, _self_times(tracer.spans)):
        part = part_of[op.split(":", 1)[1]]
        if layer == "bench":
            total[part] = total.get(part, 0.0) + t1 - t0
        elif cost_of[part] in (layer, name):
            own[part] = own.get(part, 0.0) + self_s
    return {part: own.get(part, 0.0) / t for part, t in total.items()}


def layer_metrics(tracer, sets, missing):
    """Per-layer metrics per question set; None marks an unmeasured metric."""
    self_s = {}
    dur = {}
    calls = {}
    counts_sum = {}
    for (name, layer, op, parent, t0, t1, counts), own in zip(tracer.spans, _self_times(tracer.spans)):
        self_s[layer] = self_s.get(layer, 0.0) + own
        dur[name] = dur.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        for key, value in (counts or {}).items():
            counts_sum[key] = counts_sum.get(key, 0) + value

    def ratio(a, b):
        return a / b if b else 0.0

    c = lambda key: counts_sum.get(key, 0)  # noqa: E731
    contract_s = dur.get("_batch_trace", 0.0)
    draw_s = dur.get("_draw_batch", 0.0)
    totals = {
        "search.calls": calls.get("search_f0", 0) + calls.get("search_f0_connected", 0),
        "search.explored": c("explored"),
        "search.self_s": self_s.get("search", 0.0),
        "search.explored_per_s": ratio(c("explored"), self_s.get("search", 0.0)),
        "moments.calls": calls.get("gaussian_moment", 0) + calls.get("connected_cumulant", 0),
        "moments.self_s": self_s.get("moments", 0.0),
        "moments.us_per_pairing": 1e6 * ratio(self_s.get("moments", 0.0), c("pairings")),
        "sampling.contract_s": contract_s,
        "sampling.contract_gflops": ratio(c("flops"), contract_s) / 1e9,
        "sampling.transpose_bytes": c("transpose_bytes"),
        "sampling.draw_s": draw_s,
        "sampling.normals_per_s": ratio(c("normals"), draw_s),
        "sampling.samples": c("samples"),
        "sampling.batches": calls.get("_draw_batch", 0),
        "sampling.self_s": self_s.get("sampling", 0.0),
        "graphs.self_s": self_s.get("graphs", 0.0),
        "cli.commands": calls.get("main", 0),
        "cli.self_s": self_s.get("cli", 0.0),
    }
    rates = {"search.explored_per_s", "moments.us_per_pairing", "sampling.contract_gflops", "sampling.normals_per_s"}
    unmeasured = {m for m, groups in METRIC_GROUPS.items() for g in groups if set(GROUPS[g]) & set(missing)}
    unmeasured.update(tracer.hook_errors)
    return {
        m: None if m in unmeasured else (v if m in rates else v / sets)
        for m, v in totals.items()
    }
