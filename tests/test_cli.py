import json
import math
import re

import pytest

from traceinv import (
    BudgetError,
    build_graph,
    conjugate,
    cyclic,
    decide_factorization,
    factorization_verdict,
    family_of,
    fig7,
    gaussian_moment,
    leading_order,
    random_graph,
    search_f0_connected,
    thm41_check,
    treelike_report,
    two_vertex,
)
from traceinv import sampling, search
from traceinv.cli import main
from traceinv.moments import _decide


def _write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(g.to_json_dict()))
    return str(path)


def _write_family(tmp_path, graphs, name="family.json"):
    fam = family_of(graphs)
    path = tmp_path / name
    path.write_text(json.dumps(fam.to_json_dict()))
    return str(path)


def test_analyze_two_vertex(tmp_path, capsys):
    path = _write_graph(tmp_path, two_vertex(3))
    assert main(["analyze", path, "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delta"] == "0" and out["f0_max"] == 3 and out["compatible"]


def test_analyze_budget_error_names_kmax(tmp_path, capsys):
    path = _write_graph(tmp_path, random_graph(3, 12, seed=0))
    assert main(["analyze", path]) == 2
    assert "k_max=11" in capsys.readouterr().err


def test_analyze_refuses_over_budget_k_before_graph_stats(tmp_path, capsys, monkeypatch):
    from traceinv import cli

    stats_calls = []
    for module in (cli, search):
        monkeypatch.setattr(module, "graph_stats", lambda G: stats_calls.append(G.k))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"D": 2, "k": 20000, "sigma_cycles": ["", ""]}))
    assert main(["analyze", str(path)]) == 2
    assert "k_max=11" in capsys.readouterr().err
    assert stats_calls == []


@pytest.mark.parametrize("command", [["analyze"], ["moment"], ["cumulant"], ["factorize"], ["quenched", "--N", "3"]])
@pytest.mark.parametrize("as_member", [False, True])
def test_declared_k_over_budget_is_refused_before_loading(tmp_path, capsys, monkeypatch, command, as_member):
    from traceinv import perms

    def refuse(k, text):
        raise AssertionError(f"built a permutation of {k} labels")

    monkeypatch.setattr(perms, "from_cycle_string", refuse)
    graph = {"D": 2, "k": 100000000, "sigma_cycles": ["", ""]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"members": [{"graph": graph}]} if as_member else graph))
    assert main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "k_max=11" in err


def test_analyze_parse_error_names_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sigma": [[1]]}))
    assert main(["analyze", str(path)]) == 2
    assert "'D'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "moment"])
@pytest.mark.parametrize(
    "payload", [{"D": 3, "sigma": 5}, [1, 2], {"members": [5]}, {"D": 3.9, "sigma": [[1], [1], [1]]}]
)
def test_malformed_json_exits_2_without_traceback(tmp_path, capsys, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "command, entries",
    [
        ("entropy-slope", {"N": 5}),
        ("mc-moment", {"N": "8"}),
        ("concentration", {"N": [4, None]}),
        ("entropy-slope", {"N": []}),
        ("mc-moment", {"N": [1]}),
        ("concentration", {"samples": 0}),
        ("concentration", {"samples": -3}),
        ("entropy-slope", {"samples": 1}),
        ("mc-moment", {"samples": 1}),
        ("mc-moment", {"samples": [10]}),
        ("concentration", {"seed": [1]}),
        ("concentration", {"epsilon": [0.5]}),
        ("entropy-slope", {"kind": ["haar"]}),
        ("mc-moment", {"samples": True}),
        ("entropy-slope", {"N": [2, 2, 2]}),
        ("concentration", {"epsilon": float("nan")}),  # json.load reads NaN and Infinity
        ("concentration", {"epsilon": float("inf")}),
        ("concentration", {"epsilon": 0}),
        ("concentration", {"epsilon": -1}),
        ("mc-moment", {"knd": "haar"}),  # every key a command does not read is refused
        ("mc-moment", {"epsilon": 0.5}),
        ("entropy-slope", {"epsilon": 0.5}),
        ("concentration", {"family": {"members": [{"graph": cyclic(3, {0}, 2).to_json_dict()}]}}),
        ("mc-moment", {"samples": 10**11}),  # one value kept per sample, over the cap
        ("entropy-slope", {"samples": 10**11}),
    ],
)
def test_bad_experiment_config_exits_2_without_traceback(tmp_path, capsys, command, entries):
    cfg = {"graph": cyclic(3, {0}, 2).to_json_dict(), "N": [2, 3, 4], "samples": 10, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, **entries)))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["concentration", "entropy-slope", "mc-moment"])
@pytest.mark.parametrize(
    "entries", [{"samples": 1}, {"N": [2, 3, 1]}, {"kind": "x"}, {"N": [8, 1]}, {"N": [8, 10000]}]
)
def test_bad_draw_config_exits_2_before_any_walk(tmp_path, capsys, monkeypatch, mst3, command, entries):
    # a bad later N is refused before the earlier ones are sampled: mst3 draws
    # full tensors, 128 draws for its 4096 samples at N=8
    walks, draws = [], []
    real_draw = sampling._draw_batch
    monkeypatch.setattr(sampling, "search_f0", lambda *args, **kwargs: walks.append(args))
    monkeypatch.setattr(sampling, "_draw_batch", lambda *a: draws.append(a) or real_draw(*a))
    cfg = {"graph": mst3.to_json_dict(), "N": [2, 3, 4], "samples": 4096, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, **entries)))
    assert main([command, str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert walks == [] and draws == []


@pytest.mark.parametrize(
    "command, entries, message",
    [
        ("mc-moment", {"samples": True}, "samples must be an integer, got True"),
        ("mc-moment", {"N": [2, "3"]}, "N must be an integer, got '3'"),
        ("concentration", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("entropy-slope", {"N": 4.0}, "N must be an integer, got 4.0"),
    ],
)
def test_integer_refusals_name_their_field(tmp_path, capsys, command, entries, message):
    cfg = {"graph": cyclic(3, {0}, 2).to_json_dict(), "N": [2, 3, 4], "samples": 10, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, **entries)))
    code, out, err = _run_main([command, str(path)], capsys)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_mc_moment_empty_N_is_refused_before_any_draw(tmp_path, capsys, monkeypatch, mst3):
    draws = []
    monkeypatch.setattr(sampling, "_draw_batch", lambda *a: draws.append(a))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"graph": mst3.to_json_dict(), "N": [], "samples": 10, "seed": 1}))
    code, out, err = _run_main(["mc-moment", str(path)], capsys)
    assert code == 2 and out == "" and err == "error: need at least one value of N\n" and draws == []


@pytest.mark.parametrize(
    "argv",
    [
        ["melonic", "--D", "3", "--script", "[1]"],
        ["melonic", "--D", "3", "--script", "5"],
        ["melonic", "--D", "3", "--script", "[[1, 1, 1]]"],
        ["joint-realignment", "--D", "4", "--M3", "3", "--links", "[5]"],
        ["cyclic", "--D", "3", "--M", "one", "--k", "3"],
        ["cyclic", "--D", "3", "--M", "1.5", "--k", "3"],
        # int() reads "1_0" as 10 and "+1" as 1; a color is ASCII digits only
        ["cyclic", "--D", "11", "--M", "1_0", "--k", "2"],
        ["cyclic", "--D", "4", "--M", "+1", "--k", "2"],
    ],
)
def test_bad_generate_args_exit_2_without_traceback(capsys, argv):
    assert main(["generate"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        # int() reads "1_0" as 10, "+2" as 2, " 3" as 3 and "\u0663" (Arabic-Indic three) as 3
        ["generate", "cyclic", "--D", "1_0", "--M", "1", "--k", "2"],
        ["generate", "cyclic", "--D", "3", "--M", "1", "--k", "+2"],
        ["generate", "random", "--D", "3", "--k", "2", "--seed", "1.0"],
        ["generate", "with-delta", "--D", " 4", "--delta", "2"],
        ["generate", "with-delta", "--D", "4", "--delta", "\u0663"],
        ["analyze", "graph.json", "--kmax", "+9"],
        ["generate", "fig7", "--kmax", "9_0"],
        ["quenched", "graph.json", "--N", "4.0"],
        ["annealed", "--regime", "gamma", "--mu", "1", "--lambda", "2", "--D", "3", "--k", "2 "],
        ["annealed", "--regime", "gamma", "--mu", "1", "--lambda", "2", "--D", "0x3", "--k", "2"],
    ],
)
def test_integer_options_other_than_signed_ascii_digits_exit_2(tmp_path, capsys, argv):
    graph = _write_graph(tmp_path, two_vertex(3))
    code, out, err = _run_main([graph if a == "graph.json" else a for a in argv] + ["--no-timestamp"], capsys)
    assert code == 2 and out == "" and "Traceback" not in err


def test_negative_seed_is_read(capsys):
    assert main(["generate", "random", "--D", "3", "--k", "4", "--seed", "-1", "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out) == random_graph(3, 4, seed=-1).to_json_dict()


def test_comma_separated_colors_parse(capsys):
    assert main(["generate", "cyclic", "--D", "4", "--M", " 1, 2,", "--k", "3", "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out) == cyclic(4, {0, 1}, 3).to_json_dict()


def test_annealed_quadrature_failure_exits_2_without_traceback(monkeypatch, capsys):
    from traceinv import moments

    monkeypatch.setattr(moments, "quad", lambda *a, **kw: (0.0, 1.0))
    argv = ["annealed", "--regime", "exponential", "--mu", "1", "--lambda", "10", "--D", "3", "--k", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "quadrature" in err


def test_scalar_N_runs_like_a_one_element_list(tmp_path, capsys):
    outs = []
    for N in (4, [4]):
        path = tmp_path / "cfg.json"
        cfg = {"graph": cyclic(3, {0}, 2).to_json_dict(), "N": N, "samples": 20, "seed": 1}
        path.write_text(json.dumps(cfg))
        assert main(["concentration", str(path), "--no-timestamp"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["rows"][0]["N"] == 4


def test_generate_then_moment_pipeline(tmp_path, capsys):
    out_file = tmp_path / "mst3.json"
    code = main(
        ["generate", "cyclic", "--D", "3", "--M", "1", "--k", "3", "--out", str(out_file)]
    )
    assert code == 0
    fam_file = tmp_path / "fam.json"
    fam_file.write_text(json.dumps({"members": [{"name": "g", "graph": json.loads(out_file.read_text())}]}))
    assert main(["moment", str(fam_file), "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pretty"] == "N^-2 + 3N^-3 + N^-4 + N^-6"


def test_moment_mst3_pretty(tmp_path, capsys, mst3):
    path = _write_family(tmp_path, [mst3])
    assert main(["moment", path, "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["pretty"] == "3N^-3 + 3N^-4"


def test_cumulant_pair(tmp_path, capsys):
    path = _write_family(tmp_path, [two_vertex(3), two_vertex(3)])
    assert main(["cumulant", path, "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["pretty"] == "N^-3"


def test_factorize_two_vertex_pair(tmp_path, capsys):
    path = _write_family(tmp_path, [two_vertex(3), two_vertex(3)])
    assert main(["factorize", path, "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["factorizes"] is True and out["tier"] == "thm41-bound"


def test_factorize_undecidable(tmp_path, capsys):
    big = cyclic(3, {0}, 13)
    path = _write_family(tmp_path, [big, big])
    assert main(["factorize", path, "--no-timestamp"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["factorizes"] is None and out["status"].startswith("undecidable")


def test_decide_factorization_tiers(mst3, melon2):
    # exhaustive tier fires when the cheap sufficient conditions fail
    block = cyclic(4, {0, 1}, 4)  # delta = 3 per member, sum over threshold
    verdict = decide_factorization(family_of([block, block]))
    assert verdict.factorizes is True
    assert verdict.tier in ("tree-like", "exhaustive")
    verdict = decide_factorization(family_of([mst3, melon2]))
    assert verdict.factorizes is True and verdict.tier == "thm41-bound"


def test_decide_factorization_exhaustive_tier():
    # neither sufficient condition holds, so the partition lattice decides
    H = build_graph(6, [(4, 2, 3, 1, 0), (1, 3, 0, 2, 4), (3, 0, 4, 1, 2),
                        (1, 4, 3, 0, 2), (2, 0, 1, 4, 3), (4, 1, 2, 3, 0)])
    fam = family_of([H, conjugate(H)])
    assert not thm41_check(fam).passes
    tree = treelike_report(fam)
    assert (tree.f0_connected, tree.tree_value) == (30, 28)
    verdict = decide_factorization(fam)
    assert (verdict.factorizes, verdict.tier, verdict.detail) == (True, "exhaustive", {"worst_margin": 4})
    exhaustive = factorization_verdict(fam)
    assert exhaustive.factorizes is True and exhaustive.worst[1] == 4


def test_decide_factorization_mst_pair_tier():
    # force the conjugate-pair tier with a budget below the union size
    H = fig7()
    fam = family_of([H, conjugate(H)])
    verdict = decide_factorization(fam, kmax=9, workers=2)
    assert verdict.factorizes is False and verdict.tier == "mst-pair"
    assert verdict.detail["f0_union"] == 54


def test_counterexample_walks_each_graph_once(walks, capsys):
    assert main(["counterexample", "--no-timestamp"]) == 0
    H = fig7()
    # conj(fig7)'s report is read from fig7's: its optima are the inverses
    assert walks == [(H.sigma, None)]


def test_decide_factorization_walks_a_repeated_member_once(walks):
    G = cyclic(4, {0, 1}, 4)
    verdict = decide_factorization(family_of([G, G]))
    assert verdict.tier == "tree-like"
    # tiers 1 and 2 both ask for G twice; the union is the other walk
    assert len(walks) == 2 and walks.count((G.sigma, None)) == 1
    walks.clear()
    G = two_vertex(3)
    verdict = decide_factorization(family_of([G, G]))
    assert verdict.tier == "thm41-bound" and walks == [(G.sigma, None)]


def test_over_budget_union_is_refused_without_walking(walks):
    H = fig7()
    pair = family_of([H, conjugate(H)])
    with pytest.raises(BudgetError):
        search_f0_connected(pair)
    assert decide_factorization(pair, kmax=8).tier == "undecidable"
    assert walks == []
    # the members fit k_max=9: after their walks the union is refused by every tier
    assert decide_factorization(pair, kmax=9).tier == "mst-pair"
    assert len(walks) == 1
    # a report already in the table is refused under a lower budget, as a walk would be
    filled = search._Searches(9)
    filled.graph(H)
    lower = search._Searches(8)
    lower.table.update(filled.table)
    with pytest.raises(BudgetError):
        lower.graph(H)
    assert _decide(pair, lower).tier == "undecidable"
    assert len(walks) == 2


def test_mc_moment_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"graph": two_vertex(3).to_json_dict(), "N": [2], "samples": 10})
    )
    assert main(["mc-moment", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err


def test_mc_moment_runs_and_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "graph": two_vertex(3).to_json_dict(),
                "kind": "gaussian",
                "N": [2, 4],
                "samples": 50,
                "seed": 5,
            }
        )
    )
    assert main(["mc-moment", str(cfg), "--no-timestamp"]) == 0
    first = capsys.readouterr().out
    assert main(["mc-moment", str(cfg), "--no-timestamp"]) == 0
    assert capsys.readouterr().out == first
    assert main(["mc-moment", str(cfg), "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out.splitlines()
    assert csv_out[0] == "N,mean_re,mean_im,stderr" and len(csv_out) == 3


def test_quenched_command(tmp_path, capsys):
    path = _write_graph(tmp_path, two_vertex(3))
    assert main(["quenched", path, "--N", "4", "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "exact"


def test_quenched_command_below_the_float_range(tmp_path, capsys):
    H = random_graph(3, 4, seed=1)
    path = _write_graph(tmp_path, H)
    N = 10**400
    assert main(["quenched", path, "--N", str(N), "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    lead = leading_order(gaussian_moment(family_of([H, conjugate(H)])))
    assert out["N"] == N and out["method"] == "exact"
    assert out["value"] == pytest.approx(-0.5 * (lead.s * math.log(N) + math.log(lead.mu)), rel=1e-12)


def test_annealed_command(capsys):
    code = main(
        [
            "annealed",
            "--regime",
            "exponential",
            "--mu",
            "1.0",
            "--lambda",
            "1.0",
            "--D",
            "6",
            "--k",
            "9",
            "--no-timestamp",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha_inf"] == 27.0


@pytest.mark.parametrize(
    "argv",
    [
        ["--mu", "nan", "--lambda", "10", "--D", "6", "--k", "9"],
        ["--mu", "1", "--lambda", "inf", "--D", "6", "--k", "9"],
        ["--mu", "inf", "--lambda", "10", "--D", "6", "--k", "9"],
        ["--mu", "1", "--lambda", "10", "--D", "0", "--k", "-3"],
        ["--mu", "1", "--lambda", "10", "--D", "6", "--k", "0"],
    ],
)
def test_annealed_non_finite_or_degenerate_input_exits_2(capsys, argv):
    assert main(["annealed", "--regime", "exponential", *argv, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


ANNEALED = ["annealed", "--regime", "gamma", "--mu", "1", "--lambda", "2", "--D", "3", "--k", "2"]
REALIGNMENT = ["generate", "realignment", "--M1", "1", "--M2", "2", "--M3", "3", "--k", "2"]
# each value option in an argv that runs with a valid value of it
VALUE_OPTIONS = [
    ("--kmax", ["counterexample", "--kmax", "9"]),
    ("--threads", ["counterexample", "--threads", "2"]),
    ("--N", ["quenched", "graph.json", "--N", "8"]),
    *((option, ANNEALED) for option in ("--mu", "--lambda", "--D", "--k")),
    *((option, ["generate", "random", "--D", "3", "--k", "2", "--seed", "1"]) for option in ("--D", "--k", "--seed")),
    ("--delta", ["generate", "with-delta", "--D", "4", "--delta", "1"]),
    ("--M", ["generate", "cyclic", "--D", "3", "--M", "1", "--k", "2"]),
    *((option, REALIGNMENT) for option in ("--M1", "--M2", "--M3")),
    ("--script", ["generate", "melonic", "--D", "3", "--script", "[[1, 1]]"]),
    ("--links", ["generate", "joint-realignment", "--D", "3", "--M3", "3", "--links", "[[1], [2]]"]),
]


def _with_value(argv, option, value):
    at = argv.index(option) + 1
    return [*argv[:at], value, *argv[at + 1:], "--no-timestamp"]


# spaces around a color, or around JSON, are read as if absent
SPACED = ("--M", "--M1", "--M2", "--M3", "--script", "--links")


@pytest.mark.parametrize(
    "option, argv, value",
    [
        (option, argv, value)
        for option, argv in VALUE_OPTIONS
        for value in ["+9", "1_0", "\u0663", " 3", "0x3"] + ["nan"] * (option in ("--mu", "--lambda"))
        if not (value == " 3" and option in SPACED)
    ],
)
def test_every_malformed_option_value_exits_2_with_one_error_line_naming_it(capsys, option, argv, value):
    code, out, err = _run_main(_with_value(argv, option, value), capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1


@pytest.mark.parametrize("option", SPACED)
def test_spaces_around_a_color_or_json_value_are_read_as_absent(capsys, option):
    argv = dict(VALUE_OPTIONS)[option]
    value = argv[argv.index(option) + 1]
    plain = _run_main(_with_value(argv, option, value), capsys)
    assert plain[0] == 0
    assert _run_main(_with_value(argv, option, f" {value} "), capsys) == plain
    assert _run_main(_with_value(argv, option, value.replace(",", " , ")), capsys) == plain


def test_generate_refuses_joint_realignment_colors_out_of_range(capsys):
    argv = ["generate", "joint-realignment", "--D", "2", "--M3", "0,9", "--links", "[[1], [2]]"]
    assert _run_main(argv, capsys) == (2, "", "error: M3=[0, 9] has colors out of range 1..2\n")


def test_generate_refuses_joint_realignment_degree_in_spec_terms(capsys):
    # spec color 1 is in M3 and in links[0], so both vertices of pair 1 meet it twice
    argv = ["generate", "joint-realignment", "--D", "2", "--M3", "1", "--links", "[[1], [2]]"]
    message = "error: color 1 meets vertex pair 1 2 times; every vertex needs exactly one edge per color\n"
    assert _run_main(argv, capsys) == (2, "", message)


def test_an_option_has_one_spelling(capsys):
    # a value that starts with '-' reaches the option's reader only under the option's full name
    def annealed(option, value):
        return ["annealed", "--regime", "gamma", "--mu", "1", option, value, "--D", "3", "--k", "2"]

    assert _run_main(annealed("--lambda", "-2e0"), capsys) == (2, "", "error: need a finite Lambda > 0, got -2.0\n")
    for value in ("-2e0", "2"):
        code, out, err = _run_main(annealed("--lam", value), capsys)
        assert (code, out) == (2, "") and err.endswith("error: the following arguments are required: --lambda\n")
    code, _, err = _run_main(["analyze", "graph.json", "--no-time"], capsys)
    assert code == 2 and err.endswith("error: unrecognized arguments: --no-time\n")


@pytest.mark.parametrize("N", ["0", "-1"])
def test_quenched_N_below_1_exits_2(tmp_path, capsys, N):
    path = _write_graph(tmp_path, two_vertex(3))
    assert main(["quenched", path, "--N", N, "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"N={N}" in err


def _write_config(tmp_path, name, **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_threads_flag_does_not_change_output(tmp_path, capsys, mst3):
    H = fig7()
    pair, graph = family_of([mst3, conjugate(mst3)]).to_json_dict(), mst3.to_json_dict()
    commands = [
        ["analyze", _write_graph(tmp_path, H)],
        ["factorize", _write_family(tmp_path, [H, conjugate(H)])],
        ["counterexample"],
        # mst3 draws full tensors, in blocks of 256 samples at N=4 and of 16 at N=8 with one thread
        ["mc-moment", _write_config(tmp_path, "mc.json", family=pair, N=[4, 8], samples=257, seed=3)],
        ["concentration", _write_config(tmp_path, "conc.json", graph=graph, N=[4, 8], samples=129, seed=4)],
        ["entropy-slope", _write_config(tmp_path, "ent.json", graph=graph, N=[3, 4, 8], samples=65, seed=5)],
    ]
    for argv in commands:
        outs = []
        for extra in ([], ["--threads", "2"], ["--threads", "3"]):
            assert main([*argv, *extra, "--no-timestamp"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("threads", ["0", "-5", "65", "1000000", "abc", "2.0", "1_0", "+2", " "])
def test_threads_outside_1_to_64_exits_2_before_any_work(tmp_path, capsys, monkeypatch, mst3, threads):
    import threading

    from traceinv import cli

    calls = []
    for module, name in ((cli, "_read_graphs"), (sampling, "make_rng"), (sampling, "search_f0")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **kw: calls.append(name))
    cfg = _write_config(tmp_path, "cfg.json", graph=mst3.to_json_dict(), N=[2, 3, 4], samples=64, seed=1)
    running = threading.active_count()
    for argv in (["analyze", "graph.json"], ["generate", "fig7"], ["mc-moment", cfg], ["concentration", cfg],
                 ["entropy-slope", cfg], ["counterexample", "--format", "pretty"]):
        assert main([*argv, "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: --threads must be an integer from 1 to 64")
    assert calls == [] and threading.active_count() == running


def test_contraction_error_exits_2_without_traceback(tmp_path, capsys, monkeypatch, mst3):
    real = sampling._batch_trace
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise ValueError("contraction failed")
        return real(*args)

    monkeypatch.setattr(sampling, "_batch_trace", failing)
    cfg = _write_config(tmp_path, "cfg.json", graph=mst3.to_json_dict(), N=8, samples=64, seed=1)
    assert main(["mc-moment", cfg, "--threads", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: contraction failed\n"


def test_entropy_slope_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "graph": two_vertex(3).to_json_dict(),
                "N": [2, 4, 8],
                "samples": 20,
                "seed": 9,
            }
        )
    )
    assert main(["entropy-slope", str(cfg), "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["slope_expected"] == 0


def test_generate_with_delta(capsys):
    assert main(["generate", "with-delta", "--D", "4", "--delta", "2", "--no-timestamp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delta"] == 2 and out["delta_verified"] is True and out["k"] == 4


def test_generate_out_before_kind_writes_the_file(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    assert main(["generate", "--out", str(out_file), "cyclic", "--D", "3", "--M", "1", "--k", "2"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_file.read_text())["sigma"] == cyclic(3, {0}, 2).to_json_dict()["sigma"]


def test_generate_flags_before_kind_take_effect(capsys):
    assert main(["generate", "--format", "pretty", "--no-timestamp", "fig7"]) == 0
    assert capsys.readouterr().out.startswith("D: 6\nk: 9\n")
    assert main(["generate", "--kmax", "1", "--no-timestamp", "with-delta", "--D", "4", "--delta", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delta"] == 2 and out["delta_verified"] is False


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fig7", "--D", "6"], "not read by kind 'fig7'"),
        (["cyclic", "--D", "3", "--k", "3"], "missing field 'M'"),
        (["realignment", "--M1", "1", "--M2", "2", "--k", "2"], "missing field 'M3'"),
        (["moebius"], "unknown family kind 'moebius'"),
        (["with-delta", "--D", "3", "--delta", "2"], "D >= 4"),
        (["--kmax", "0", "with-delta", "--D", "4", "--delta", "1"], "k_max must be >= 1"),
        (["melonic", "--D", "3", "--script", "[" * 100000 + "]" * 100000], "--script is malformed"),
    ],
)
def test_generate_refusals_exit_2_with_one_error_line(capsys, argv, message):
    assert main(["generate"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("command", ["analyze", "moment", "mc-moment", "concentration"])
def test_json_nested_past_the_parser_exits_2_with_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "nested too deeply" in err


# files no reader takes: malformed JSON, bytes that are not UTF-8, JSON nested past the parser,
# and an object repeating a key, which json.loads alone would read as its last value
BAD_FILES = {
    "malformed": b"{nope",
    "not-utf-8": b'{"D": "\xff"}',
    "deep": b"[" * 100000 + b"]" * 100000,
    "repeated-key": b'{"seed": 1, "seed": 2}',
}


@pytest.mark.parametrize("kind", BAD_FILES)
def test_every_file_refusal_names_the_file(tmp_path, capsys, kind):
    from traceinv.graphs import load_family, load_graph

    path = tmp_path / f"{kind}.json"
    path.write_bytes(BAD_FILES[kind])
    for command in ("analyze", "moment", "mc-moment"):
        code, out, err = _run_main([command, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    for load in (load_graph, load_family):
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load(str(path))


# argparse takes a token starting with "-" for an option unless it looks like a plain negative number
@pytest.mark.parametrize(
    "argv, message",
    [
        (_with_value(ANNEALED, "--mu", "-1.5e-3"), "need a finite mu_c > 0, got -0.0015"),
        (
            _with_value(ANNEALED, "--mu", "-inf"),
            "--mu is malformed: expected ASCII digits with an optional leading minus, fraction and exponent, got '-inf'",
        ),
        (
            ["generate", "random", "--D", "3", "--k", "3", "--seed", "-1e5"],
            "--seed is malformed: expected ASCII digits with an optional leading minus, got '-1e5'",
        ),
    ],
)
def test_an_option_value_starting_with_a_minus_reaches_its_reader(capsys, argv, message):
    assert _run_main(argv, capsys) == (2, "", f"error: {message}\n")


# graph JSON and family specs are 1-based: their refusals name the values as given, in 1-based ranges
@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "cyclic", "--D", "3", "--M", "0", "--k", "2"], "M=[0] has colors out of range 1..3"),
        (
            ["generate", "joint-realignment", "--D", "2", "--M3", "0,9", "--links", "[[1], [2]]"],
            "M3=[0, 9] has colors out of range 1..2",
        ),
        (["generate", "melonic", "--D", "3", "--script", "[[4, 1]]"], "script[0] color 4 out of range 1..3"),
        (["generate", "melonic", "--D", "3", "--script", "[[1, 2]]"], "script[0] white label 2 out of range 1..1"),
        (["generate", "realignment", "--M1", "1", "--M2", "2", "--M3", "4", "--k", "2"], "M3=[4] has colors out of range 1..3"),
        (["analyze", "graph.json"], "sigma[0] invalid: not a bijection on 1..2: [1, 3]"),
    ],
)
def test_refusals_on_the_1_based_surface_are_1_based(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.json").write_text(json.dumps({"D": 2, "sigma": [[1, 3], [1, 2]]}))
    assert _run_main(argv, capsys) == (2, "", f"error: {message}\n")


def test_files_are_read_and_written_as_utf_8(tmp_path):
    """Under -X warn_default_encoding, an open() without an encoding raises EncodingWarning, so each command exits 1."""
    import os
    import subprocess
    import sys

    import traceinv

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(traceinv.__file__)))
    graph = str(tmp_path / "out.json")
    family = _write_family(tmp_path, [cyclic(3, {0}, 2), conjugate(cyclic(3, {0}, 2))])
    cfg = _write_config(tmp_path, "cfg.json", graph=cyclic(3, {0}, 2).to_json_dict(), N=2, samples=10, seed=1)
    for argv in (
        ["generate", "cyclic", "--D", "3", "--M", "1", "--k", "3", "--out", graph],
        ["analyze", graph],
        ["moment", family],
        ["mc-moment", cfg],
    ):
        strict = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        proc = subprocess.run(
            [sys.executable, *strict, "-m", "traceinv.cli", *argv, "--no-timestamp"],
            capture_output=True, encoding="utf-8", env=env,
        )
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "with-delta", "--D", "4", "--delta", "5"],
        ["counterexample"],
        ["factorize", "family.json"],
        ["moment", "family.json"],
        ["cumulant", "family.json"],
        ["quenched", "graph.json", "--N", "4"],
        ["annealed", "--regime", "gamma", "--mu", "1", "--lambda", "2", "--D", "3", "--k", "2"],
    ],
)
def test_csv_on_a_command_without_rows_is_refused_before_the_work(monkeypatch, capsys, argv):
    from traceinv import cli, families

    calls = []
    for module, name in ((families, "build_with_delta"), (cli, "_Searches"), (cli, "_read_graphs"),
                         (cli, "annealed_coefficients")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **kw: calls.append(name))
    assert main(argv + ["--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert calls == [] and captured.out == ""
    assert captured.err == "error: csv output is only available for row-based reports\n"


@pytest.mark.parametrize("command", ["mc-moment", "concentration", "entropy-slope"])
@pytest.mark.parametrize("nest", ["graph", "family"])
def test_config_graph_declaring_k_over_kmax_is_refused_before_building(tmp_path, capsys, command, nest):
    path = tmp_path / "cfg.json"
    for k, code in ((1000000, 2), (3, 0)):
        graph = {"D": 3, "k": k, "sigma_cycles": ["", "(1 2 3)", "(1 2 3)"]}
        entry = graph if nest == "graph" else {"members": [{"name": "G", "graph": graph}]}
        path.write_text(json.dumps({nest: entry, "N": [2, 3, 4], "samples": 10, "seed": 1}))
        assert main([command, str(path), "--no-timestamp"]) == code
        err = capsys.readouterr().err
        assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1 and "k_max=11" in err)


def _run_main(argv, capsys):
    """(exit code, stdout, stderr) of one main call; argparse's usage errors exit through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_main_call_of_a_process(tmp_path, capsys):
    from traceinv import cli

    graph = _write_graph(tmp_path, cyclic(3, {0}, 2))
    calls = [
        ["analyze", graph, "--no-timestamp"],
        ["analyze", graph, "--format", "csv"],
        ["analyze"],  # usage error: the graph is missing
        ["moment", graph, "--no-timestamp", "--format", "pretty"],
        ["moment", graph, "--format", "csv"],  # refused: no rows
        ["annealed", "--regime", "gamma", "--mu", "2", "--lambda", "3", "--D", "3", "--k", "2", "--no-timestamp"],
        ["generate", "cyclic", "--D", "3", "--M", "1", "--k", "2", "--no-timestamp"],
        ["analyze", graph, "--no-timestamp"],
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_run_main(argv, capsys))
    cli.build_parser.cache_clear()
    assert [_run_main(argv, capsys) for argv in calls] == fresh
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2, 0, 0, 0]


def test_importing_the_cli_builds_no_parser():
    import os
    import subprocess
    import sys

    import traceinv

    src = os.path.dirname(os.path.dirname(traceinv.__file__))
    code = "import traceinv.cli as cli; print(cli.build_parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "0"
