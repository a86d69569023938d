"""Command-line surface: analysis, generation, exact and Monte Carlo reports.

Vertex labels and colors are 1-based on this surface, matching the JSON
formats; reports are emitted as JSON (default), CSV rows, or pretty text.
Exit codes: 0 all requested checks passed, 2 bad input or budget, 3 check
failed or undecidable at the current budget.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import sys

from . import families, perms
from .graphs import (
    GraphFamily,
    conjugate,
    family_file_from_json_dict,
    family_from_json_dict,
    family_of,
    graph_from_json_dict,
    graph_stats,
)
from .moments import _decide, connected_cumulant, decide_factorization, gaussian_moment
from .search import (
    DEFAULT_KMAX,
    MAX_WORKERS,
    _check_budget,
    _Searches,
    check_workers,
    degree_report,
    mst_pair_f0,
    search_f0,
)


# generate's spec fields and the reader of each option's text (colors comma-separated, 1-based)
_FIELDS = {
    **dict.fromkeys(("D", "k", "seed", "delta"), perms.from_decimal),
    **dict.fromkeys(("M", "M1", "M2", "M3"), lambda text: [perms.from_digits(c) for c in text.split(",") if c.strip()]),
    "script": json.loads,  # [[color, white], ...], 1-based
    "links": json.loads,  # [[color, ...], ...], 1-based
}


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kmax", type=perms.from_decimal, default=None, help=f"enumeration budget (default {DEFAULT_KMAX})")
    common.add_argument(
        "--threads",
        default="1",
        help=(
            f"threads (1 to {MAX_WORKERS}) that contract the Monte Carlo blocks of mc-moment, "
            "concentration and entropy-slope; a seed gives the same output at any count. "
            "Every exact walk runs in one thread"
        ),
    )
    common.add_argument(
        "--format", choices=["json", "csv", "pretty"], default="json", help="output format"
    )
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp field from JSON"
    )
    return common


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on its first call (the first main call), not at import."""
    parser = argparse.ArgumentParser(
        prog="traceinv",
        description="Exact and Monte Carlo analysis of tensor trace-invariants.",
    )
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="faces, degrees and F0 maximum")
    p.add_argument("graph", help="graph JSON file")

    p = sub.add_parser("factorize", parents=[common], help="tiered factorization verdict")
    p.add_argument("family", help="family JSON file")

    p = sub.add_parser("generate", parents=[common], help="build a named family graph")
    p.add_argument("kind", help=", ".join(kind.replace("_", "-") for kind in families.KINDS))
    for name in _FIELDS:
        p.add_argument(f"--{name}")

    p = sub.add_parser("moment", parents=[common], help="exact Gaussian moment in N")
    p.add_argument("family", help="family (or graph) JSON file")

    p = sub.add_parser("cumulant", parents=[common], help="exact connected cumulant in N")
    p.add_argument("family", help="family (or graph) JSON file")

    for name in _EXPERIMENTS:
        p = sub.add_parser(name, parents=[common], help=f"{name} experiment from a config file")
        p.add_argument("config", help="experiment config JSON")

    p = sub.add_parser("quenched", parents=[common], help="quenched entropy of a conjugate pair")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--N", type=perms.from_decimal, required=True)

    p = sub.add_parser("annealed", parents=[common], help="annealed entropy coefficients")
    p.add_argument("--regime", choices=["exponential", "gamma"], required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--D", type=perms.from_decimal, required=True)
    p.add_argument("--k", type=perms.from_decimal, required=True)

    sub.add_parser("counterexample", parents=[common], help="reproduce the non-factorizing pair")
    return parser


def _emit(report: dict, args, rows, columns) -> None:
    """Write the report (json, pretty) or its row dicts under columns (csv) to --out or stdout."""
    if args.format == "json":
        if not args.no_timestamp:
            report = dict(report)
            report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        lines = [f"{key}: {value}" for key, value in report.items()]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    """The JSON value in a file; one nested deeper than the parser can recurse is refused."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to read") from None


def _check_declared_k(data, kmax) -> None:
    """Refuse graph or family JSON in which a graph declares k over the budget.

    Cycle strings let a few bytes declare any k, and the loader builds
    k-element permutations from them, so a cycle-string graph's declared k
    is read (perms.as_int) and checked before anything is built.
    """
    members = data.get("members") if isinstance(data, dict) else None
    graphs = [m.get("graph") for m in members if isinstance(m, dict)] if isinstance(members, list) else [data]
    for g in graphs:
        if isinstance(g, dict) and "sigma_cycles" in g and "k" in g:
            _check_budget(perms.as_int(g["k"], "k"), kmax)


def _read_graphs(path, kmax):
    """The JSON of a graph or family file, refused if a graph in it declares k over the budget."""
    data = _load_json(path)
    _check_declared_k(data, kmax)
    return data


def _cmd_analyze(args) -> tuple:
    G = graph_from_json_dict(_read_graphs(args.graph, args.kmax))
    _check_budget(G.k, args.kmax)  # before graph_stats, whose cost grows with k
    stats = graph_stats(G)
    rep = search_f0(G, kmax=args.kmax, prune=True)
    deg = degree_report(G, f0_max=rep.f0_max)
    report = {
        "k": stats.k,
        "kappa": stats.kappa,
        "F_pairwise": [list(row) for row in stats.F_pairwise],
        "F": stats.F_total,
        "omega2": deg.omega2,
        "delta": str(deg.delta),
        "compatible": deg.compatible,
        "f0_max": rep.f0_max,
        "multiplicity": rep.multiplicity,
        "is_mst": stats.is_mst,
        "is_planar3": stats.is_planar3,
    }
    return report, [report], 0


def _cmd_factorize(args) -> tuple:
    family = family_file_from_json_dict(_read_graphs(args.family, args.kmax))
    verdict = decide_factorization(family, kmax=args.kmax)
    decided = verdict.factorizes is not None
    report = {
        "factorizes": verdict.factorizes,
        "tier": verdict.tier,
        "detail": verdict.detail,
        "status": "decided" if decided else "undecidable at this budget",
    }
    return report, None, 0 if decided else 3


def _cmd_generate(args) -> tuple:
    # families decides which fields a kind takes: only the options given enter the spec
    spec = {"kind": args.kind.replace("-", "_")}
    for key, read in _FIELDS.items():
        if (text := getattr(args, key)) is not None:
            try:
                spec[key] = read(text)
            except (ValueError, RecursionError) as exc:  # json.loads recurses once per nesting level
                raise ValueError(f"--{key} is malformed: {exc}")
    if spec["kind"] == "with_delta":
        _, fields = families.read_spec(spec)
        built = families.build_with_delta(**fields, kmax=args.kmax)
        report = dict(built.graph.to_json_dict(), delta=built.delta, delta_verified=built.verified)
    else:
        report = families.generate_from_spec(spec).to_json_dict()
    return report, None, 0


def _cmd_moment(args, connected) -> tuple:
    family = family_file_from_json_dict(_read_graphs(args.family, args.kmax))
    poly = (connected_cumulant if connected else gaussian_moment)(family, kmax=args.kmax)
    return dict(poly.to_json_dict(), pretty=str(poly)), None, 0


# what each experiment reads of its config: (default kind, single graph, reads 'epsilon')
_EXPERIMENTS = {
    "mc-moment": ("gaussian", False, False),
    "concentration": ("haar", True, True),
    "entropy-slope": ("haar", True, False),
}


def _experiment_config(path, command, kmax) -> tuple:
    """(family, kind, Ns, samples, seed, epsilon) from an experiment config file.

    'seed', 'samples', 'N' and a 'graph' or 'family' are required; 'N' is
    one value or a list of them.  'kind' defaults to the command's kind;
    'epsilon', read by concentration only, to 0.5 (None for the others).
    Any other key is refused, as are a 'graph' and a 'family' together, and
    a family of more than one member for a single-graph command; a graph
    declaring k over kmax is refused before it is built.  Ns, samples, seed,
    kind and epsilon are returned as given: the library reads and refuses
    them (sampling._read_run, and concentration_experiment for epsilon),
    before any walk or draw.
    """
    default_kind, single_graph, reads_epsilon = _EXPERIMENTS[command]
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise ValueError(f"experiment config must be a JSON object, got {type(cfg).__name__}")
    known = ("seed", "samples", "N", "graph", "family", "kind") + ("epsilon",) * reads_epsilon
    unread = [key for key in cfg if key not in known]
    if unread:
        raise ValueError(f"experiment config key {unread[0]!r} is not read by {command}")
    for key in ("seed", "samples", "N"):
        if key not in cfg:
            raise ValueError(f"experiment config requires an explicit {key!r}")
    if "family" in cfg and "graph" in cfg:
        raise ValueError("experiment config takes a 'graph' or a 'family' entry, not both")
    if "family" in cfg:
        _check_declared_k(cfg["family"], kmax)
        family = family_from_json_dict(cfg["family"])
    elif "graph" in cfg:
        _check_declared_k(cfg["graph"], kmax)
        family = GraphFamily((("G1", graph_from_json_dict(cfg["graph"])),))
    else:
        raise ValueError("experiment config needs a 'graph' or 'family' entry")
    if single_graph and family.p != 1:
        raise ValueError("this experiment runs on a single graph")
    Ns = cfg["N"] if isinstance(cfg["N"], list) else [cfg["N"]]
    epsilon = cfg.get("epsilon", 0.5) if reads_epsilon else None
    return family, cfg.get("kind", default_kind), Ns, cfg["samples"], cfg["seed"], epsilon


def _cmd_mc_moment(args) -> tuple:
    from . import sampling  # it imports numpy, so only the five commands that use it import it

    family, kind, Ns, samples, seed, _ = _experiment_config(args.config, args.command, args.kmax)
    # every N is checked before the first one is sampled, as the experiments do
    Ns, samples, seed, workers = sampling._read_run(family.graphs(), kind, Ns, samples, seed, args.threads)
    rows = []
    for N in Ns:
        est = sampling.mc_moment(family, kind, N, samples, seed, workers=workers)
        rows.append({"N": N, "mean_re": est.mean.real, "mean_im": est.mean.imag, "stderr": est.stderr})
    return {"kind": kind, "samples": samples, "seed": seed, "rows": rows}, rows, 0


def _cmd_concentration(args) -> tuple:
    from . import sampling

    family, kind, Ns, samples, seed, epsilon = _experiment_config(args.config, args.command, args.kmax)
    rep = sampling.concentration_experiment(
        family.members[0][1], Ns, epsilon, samples, seed, kind=kind, kmax=args.kmax, workers=args.threads
    )
    return rep.to_json_dict(), [{"N": n, "coverage": c} for n, c in rep.rows], 0


def _cmd_entropy_slope(args) -> tuple:
    from . import sampling

    family, kind, Ns, samples, seed, _ = _experiment_config(args.config, args.command, args.kmax)
    rep = sampling.entropy_slope_experiment(
        family.members[0][1], Ns, samples, seed, kind=kind, kmax=args.kmax, workers=args.threads
    )
    rows = [{"N": n, "mean_entropy": m, "stderr": e} for n, m, e in rep.rows]
    return rep.to_json_dict(), rows, 0


def _cmd_quenched(args) -> tuple:
    from . import sampling

    G = graph_from_json_dict(_read_graphs(args.graph, args.kmax))
    rep = sampling.quenched_entropy(G, args.N, kmax=args.kmax)
    return {"N": args.N, "value": rep.value, "method": rep.method}, None, 0


def _cmd_annealed(args) -> tuple:
    from . import sampling

    rep = sampling.annealed_coefficients(args.regime, args.mu, args.lam, args.D, args.k)
    report = {
        "regime": args.regime,
        "mu": args.mu,
        "lambda": args.lam,
        "alpha": rep.alpha,
        "beta": rep.beta,
        "alpha_inf": rep.alpha_inf,
        "beta_inf": rep.beta_inf,
    }
    return report, None, 0


def _cmd_counterexample(args) -> tuple:
    H = families.fig7()
    # the verdict reads fig7's search from the same table instead of walking it again
    searches = _Searches(args.kmax)
    rep = searches.graph(H)
    deg = degree_report(H, f0_max=rep.f0_max)
    pair = mst_pair_f0(H, f0_max=rep.f0_max)
    verdict = _decide(family_of([H, conjugate(H)], names=["H", "Hbar"]), searches)
    checks = {
        "f0_max_is_26": rep.f0_max == 26,
        "delta_is_10": deg.delta == 10,
        "pair_f0_is_54": pair.f0_union == 54,
        "does_not_factorize": verdict.factorizes is False,
    }
    passed = all(checks.values())
    report = {
        "f0_max": rep.f0_max,
        "multiplicity": rep.multiplicity,
        "delta": str(deg.delta),
        "pair_f0": pair.f0_union,
        "factorizes": verdict.factorizes,
        "decided_by": verdict.tier,
        "checks": checks,
        "status": "pass" if passed else "fail",
    }
    return report, None, 0 if passed else 3


# each command's handler, which returns (report, csv rows, exit code), and
# the columns of its csv rows (None: it has no rows, and csv is refused)
_COMMANDS = {
    "analyze": (_cmd_analyze, ("k", "kappa", "F", "omega2", "delta", "f0_max", "multiplicity")),
    "factorize": (_cmd_factorize, None),
    "generate": (_cmd_generate, None),
    "moment": (functools.partial(_cmd_moment, connected=False), None),
    "cumulant": (functools.partial(_cmd_moment, connected=True), None),
    "mc-moment": (_cmd_mc_moment, ("N", "mean_re", "mean_im", "stderr")),
    "concentration": (_cmd_concentration, ("N", "coverage")),
    "entropy-slope": (_cmd_entropy_slope, ("N", "mean_entropy", "stderr")),
    "quenched": (_cmd_quenched, None),
    "annealed": (_cmd_annealed, None),
    "counterexample": (_cmd_counterexample, None),
}


def _read_threads(text) -> int:
    """--threads as a worker count: an integer (perms.from_decimal) from 1 to MAX_WORKERS, read on every command."""
    try:
        return check_workers(perms.from_decimal(text))
    except ValueError:
        raise ValueError(f"--threads must be an integer from 1 to {MAX_WORKERS}, got {text!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, columns = _COMMANDS[args.command]
    if args.format == "csv" and columns is None:
        # refused before the work, which may be a long walk
        print("error: csv output is only available for row-based reports", file=sys.stderr)
        return 2
    try:
        args.threads = _read_threads(args.threads)
        report, rows, code = handler(args)
        _emit(report, args, rows, columns)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
