"""Command-line surface: analysis, generation, exact and Monte Carlo reports.

Vertex labels and colors are 1-based on this surface, matching the JSON
formats; reports are emitted as JSON (default), CSV rows, or pretty text.
Exit codes: 0 all requested checks passed, 2 bad input or budget, 3 check
failed or undecidable at the current budget.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import io
import json
import sys

from . import families, perms
from .graphs import (
    conjugate,
    cycle_string_ks,
    family_file_from_json_dict,
    family_from_json_dict,
    family_of,
    from_json,
    graph_from_json_dict,
    graph_stats,
    read_json,
)
from .moments import _decide, annealed_coefficients, connected_cumulant, decide_factorization, gaussian_moment
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


# generate's options, one per field a families.KINDS spec may take
_SPEC_FIELDS = ("D", "k", "seed", "delta", "M", "M1", "M2", "M3", "script", "links")
# every value option by its dest: the reader of its text and its refusal; main reads each
# option given before the handler runs, so argparse keeps only strings and choices
_MALFORMED = "is malformed: {exc}"
_OPTIONS = {
    "kmax": (perms.from_decimal, _MALFORMED),
    "threads": (
        lambda text: check_workers(perms.from_decimal(text)),
        f"must be an integer from 1 to {MAX_WORKERS}, got {{text!r}}",
    ),
    **dict.fromkeys(("N", "D", "k", "seed", "delta"), (perms.from_decimal, _MALFORMED)),
    **dict.fromkeys(("mu", "lambda"), (functools.partial(perms.from_decimal, kind=float), _MALFORMED)),
    # comma-separated 1-based colors, spaces around each stripped
    **dict.fromkeys(
        ("M", "M1", "M2", "M3"),
        (lambda text: [perms.from_decimal(c.strip()) for c in text.split(",") if c.strip()], _MALFORMED),
    ),
    # [[color, white], ...] and [[color, ...], ...], 1-based
    **dict.fromkeys(("script", "links"), (functools.partial(from_json, what="the value"), _MALFORMED)),
}


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--kmax", default=None, help=f"enumeration budget (default {DEFAULT_KMAX})")
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
    """The process's one parser, built on its first call (the first main call), not at import.

    No parser takes an abbreviated option, so each option has one spelling,
    the one ``_joined`` matches.
    """
    parser = argparse.ArgumentParser(
        prog="traceinv",
        description="Exact and Monte Carlo analysis of tensor trace-invariants.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, parents=[_common_parser()], allow_abbrev=False)

    p = command("analyze", help="faces, degrees and F0 maximum")
    p.add_argument("graph", help="graph JSON file")

    p = command("factorize", help="tiered factorization verdict")
    p.add_argument("family", help="family JSON file")

    p = command("generate", help="build a named family graph")
    p.add_argument("kind", help=", ".join(kind.replace("_", "-") for kind in families.KINDS))
    for name in _SPEC_FIELDS:
        p.add_argument(f"--{name}")

    p = command("moment", help="exact Gaussian moment in N")
    p.add_argument("family", help="family (or graph) JSON file")

    p = command("cumulant", help="exact connected cumulant in N")
    p.add_argument("family", help="family (or graph) JSON file")

    for name in _EXPERIMENTS:
        p = command(name, help=f"{name} experiment from a config file")
        p.add_argument("config", help="experiment config JSON")

    p = command("quenched", help="quenched entropy of a conjugate pair")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--N", required=True)

    p = command("annealed", help="annealed entropy coefficients")
    p.add_argument("--regime", choices=["exponential", "gamma"], required=True)
    for name in ("mu", "lambda", "D", "k"):
        p.add_argument(f"--{name}", required=True)

    command("counterexample", help="reproduce the non-factorizing pair")
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_graphs(path, kmax):
    """The JSON of every file the CLI reads, refused if a cycle-string graph in it declares k over the budget."""
    data = read_json(path)
    for k in cycle_string_ks(data):
        _check_budget(k, kmax)
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
    spec.update((key, value) for key in _SPEC_FIELDS if (value := getattr(args, key)) is not None)
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
    a family of more than one member for a single-graph command; a
    cycle-string graph declaring k over kmax is refused by _read_graphs,
    before it is built.  Ns, samples, seed, kind and epsilon are returned
    as given: the library reads and refuses them (sampling._read_run, and
    concentration_experiment for epsilon), before any walk or draw.
    """
    default_kind, single_graph, reads_epsilon = _EXPERIMENTS[command]
    cfg = _read_graphs(path, kmax)
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
        family = family_from_json_dict(cfg["family"])
    elif "graph" in cfg:
        family = family_of([graph_from_json_dict(cfg["graph"])])
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
    Ns, samples, seed, workers = sampling._read_run(family, kind, Ns, samples, seed, args.threads)
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
    lam = vars(args)["lambda"]
    rep = annealed_coefficients(args.regime, args.mu, lam, args.D, args.k)
    return {"regime": args.regime, "mu": args.mu, "lambda": lam, **dataclasses.asdict(rep)}, None, 0


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


def _joined(argv) -> list:
    """argv with each value option of _OPTIONS joined to its next token as --NAME=VALUE.

    argparse takes a token that starts with '-' for an option unless it looks
    like a plain negative number, so '--mu -1.5e-3' would never reach the table.
    """
    tokens, joined = iter(argv), []
    for token in tokens:
        if token.startswith("--") and token[2:] in _OPTIONS and (value := next(tokens, None)) is not None:
            token = f"{token}={value}"
        joined.append(token)
    return joined


def main(argv=None) -> int:
    args = build_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
    handler, columns = _COMMANDS[args.command]
    if args.format == "csv" and columns is None:
        # refused before the work, which may be a long walk
        print("error: csv output is only available for row-based reports", file=sys.stderr)
        return 2
    try:
        for name, (read, refusal) in _OPTIONS.items():
            if (text := vars(args).get(name)) is not None:
                try:
                    setattr(args, name, read(text))
                except ValueError as exc:
                    raise ValueError(f"--{name} " + refusal.format(text=text, exc=exc)) from None
        report, rows, code = handler(args)
        _emit(report, args, rows, columns)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
