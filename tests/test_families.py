import random
import re

import pytest

from traceinv import (
    build_with_delta,
    cyclic,
    degree_report,
    disjoint_union,
    family_of,
    fig7,
    flip_edges,
    graph_stats,
    joint_realignment,
    melonic,
    random_graph,
    realignment,
    search_f0,
    treelike_report,
    two_vertex,
)
from traceinv import families
from traceinv.families import generate_from_spec

import oracles


def test_two_vertex():
    g = two_vertex(5)
    assert g.k == 1 and all(p == (0,) for p in g.sigma)


def test_melonic_single_insertion(melon2):
    assert melon2.k == 2
    assert melon2.sigma == ((1, 0), (0, 1), (0, 1))
    rep = degree_report(melon2)
    assert rep.omega2 == 0 and rep.delta == 0
    assert graph_stats(melon2).is_planar3


def test_melonic_deeper_scripts_stay_melonic():
    for script in ([(0, 0), (1, 1)], [(2, 0), (2, 1), (0, 2)], [(1, 0), (1, 0)]):
        g = melonic(3, script)
        assert g.k == 1 + len(script)
        assert degree_report(g).omega2 == 0
        assert graph_stats(g).is_planar3


def test_melonic_rejects_bad_script():
    with pytest.raises(ValueError, match="color"):
        melonic(3, [(3, 0)])
    with pytest.raises(ValueError, match="white"):
        melonic(3, [(0, 1)])


def test_melonic_matches_stepwise_reference():
    rng = random.Random(2024)
    for t in range(75):
        D = (3, 4, 6)[t % 3]
        script = [(rng.randrange(D), rng.randrange(k)) for k in range(1, 1 + rng.randint(0, 300))]
        assert melonic(D, script).sigma == oracles.melonic_stepwise(D, script)


def test_melonic_builds_one_graph(graph_builds):
    g = melonic(3, [(i % 3, i // 2) for i in range(50)])
    assert g.k == 51 and graph_builds[0] == 1


def test_cyclic_encoding_and_compatibility():
    g = cyclic(3, {0}, 3)
    assert g.sigma == ((0, 1, 2), (1, 2, 0), (1, 2, 0))
    assert degree_report(g).delta == 0


def test_cyclic_delta_formula_sample():
    g = cyclic(4, {0, 1}, 3)
    assert degree_report(g).delta == 2  # |M|(|M|-1)/2 (k-1)


def test_cyclic_validation():
    with pytest.raises(ValueError, match="nonempty"):
        cyclic(3, set(), 2)
    with pytest.raises(ValueError, match="floor"):
        cyclic(3, {0, 1}, 2)
    with pytest.raises(ValueError, match="range"):
        cyclic(3, {5}, 2)


def test_realignment_block():
    g = realignment({0}, {1}, {2, 3}, 2)
    assert g.sigma == ((1, 0), (1, 0), (0, 1), (0, 1))
    assert degree_report(g).delta == 1
    assert oracles.brute_f0(g)[0] == 6


def test_realignment_longer_cycle_valid():
    g = realignment({0}, {1}, {2, 3, 4}, 4)
    assert g.k == 4
    assert graph_stats(g).kappa == 1


def test_realignment_validation():
    with pytest.raises(ValueError, match="even"):
        realignment({0}, {1}, {2}, 3)
    with pytest.raises(ValueError, match="disjoint"):
        realignment({0}, {0}, {1, 2}, 2)
    with pytest.raises(ValueError, match="partition"):
        realignment({0}, {1}, {3}, 2)


def test_realignment_copies_treelike():
    # copies of a block with |M3| >= |M1|,|M2| keep tree-like dominance
    for block in (
        realignment({0}, {1}, {2, 3}, 2),
        realignment({0}, {1}, {2, 3, 4}, 2),
        realignment({0}, {1}, {2, 3}, 4),
    ):
        rep = treelike_report(family_of([block, block]))
        assert rep.has_treelike


def test_realignment_copies_only_treelike_when_k_above_two():
    for block in (
        realignment({0}, {1}, {2, 3, 4}, 2),
        realignment({0}, {1}, {2, 3}, 4),
    ):
        rep = treelike_report(family_of([block, block]))
        assert rep.only_treelike


def test_octahedron_pair_admits_bilocal_optima():
    # the D=4, k=2 block is the one case where all-crossing completions tie
    # the tree value, so dominance is tree-like but not only tree-like
    block = realignment({0}, {1}, {2, 3}, 2)
    rep = treelike_report(family_of([block, block]))
    assert rep.has_treelike and not rep.only_treelike
    non_treelike = {nu for nu, flag in rep.classified if not flag}
    assert non_treelike == {(2, 3, 0, 1), (3, 2, 1, 0)}


def test_joint_realignment_accepts_valid_links():
    g = joint_realignment(5, {4}, [{0, 1}, {2, 3}])
    assert g.k == 2
    h = joint_realignment(4, {3}, [{0}, {1, 2}])
    assert h.k == 2


def test_joint_realignment_rejects_bad_links():
    with pytest.raises(ValueError, match="exactly one edge"):
        joint_realignment(4, {3}, [{0}, {0, 1, 2}])
    with pytest.raises(ValueError, match="exactly one edge"):
        joint_realignment(4, {0, 3}, [{0}, {1, 2}])


@pytest.mark.parametrize(
    "M3, links, message",
    [
        ({0, 9}, [{1}, {1}], "M3=[0, 9] has color indices out of range 0..1"),
        ({-1}, [{0}, {0, 1}], "M3=[-1] has color indices out of range 0..1"),
        (set(), [{0, -3}, {1, 99}], "links[0]=[-3, 0] has color indices out of range 0..1"),
        (set(), [{0, 1}, {0, 1, 2}], "links[1]=[0, 1, 2] has color indices out of range 0..1"),
    ],
)
def test_joint_realignment_refuses_colors_out_of_range(M3, links, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        joint_realignment(2, M3, links)


def test_fig7_values(fig7_graph):
    st = graph_stats(fig7_graph)
    assert st.is_mst and st.F_total == 15 and st.k == 9


def test_random_graph_deterministic():
    assert random_graph(3, 5, seed=42) == random_graph(3, 5, seed=42)
    assert random_graph(3, 5, seed=42) != random_graph(3, 5, seed=43)
    assert random_graph(3, 1, seed=7) == two_vertex(3)


def test_random_graph_validation():
    with pytest.raises(ValueError):
        random_graph(1, 3, seed=0)
    with pytest.raises(ValueError):
        random_graph(3, 0, seed=0)


def test_build_with_delta_single_block():
    rep = build_with_delta(4, 1)
    assert rep.verified and rep.delta == 1
    assert degree_report(rep.graph).delta == 1


def test_build_with_delta_two_blocks():
    rep = build_with_delta(4, 2)
    assert rep.verified and rep.graph.k == 4
    assert graph_stats(rep.graph).kappa == 1
    assert degree_report(rep.graph).delta == 2


def test_build_with_delta_four_wheels():
    rep = build_with_delta(5, 4)
    assert rep.graph.k == 8 and graph_stats(rep.graph).kappa == 1
    assert rep.verified
    assert search_f0(rep.graph, workers=2).f0_max is not None


def test_build_with_delta_unverified_flag():
    rep = build_with_delta(4, 3, kmax=4)
    assert not rep.verified and rep.graph.k == 6


def test_build_with_delta_matches_flip_chain():
    for D in range(4, 8):
        block = realignment({0}, {1}, set(range(2, D)), 2)
        for delta in range(1, 13):
            g, _ = disjoint_union([block] * delta)
            for j in range(delta - 1):
                g = flip_edges(g, 0, 2 * j, 2 * (j + 1))
            assert build_with_delta(D, delta, kmax=1).graph == g


def test_build_with_delta_builds_at_most_two_graphs(graph_builds):
    rep = build_with_delta(4, 50, kmax=1)
    assert rep.graph.k == 100 and not rep.verified
    assert graph_builds[0] <= 2


def test_build_with_delta_validation():
    with pytest.raises(ValueError):
        build_with_delta(2, 1)
    with pytest.raises(ValueError):
        build_with_delta(4, 0)


@pytest.mark.parametrize("delta", [1, 2, 3])
def test_build_with_delta_refuses_d3(delta):
    # the k=2 realignment block has delta 0 at D = 3, so no delta is reachable
    with pytest.raises(ValueError, match="D >= 4"):
        build_with_delta(3, delta)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: cyclic(3, {0.0}, 2), "M entry must be an integer"),
        (lambda: cyclic(3, {True}, 2), "M entry must be an integer"),
        (lambda: cyclic(3, {0}, 2.0), "k must be an integer"),
        (lambda: cyclic(3.0, {0}, 2), "D must be an integer"),
        (lambda: two_vertex(3.0), "D must be an integer"),
        (lambda: realignment({0.0}, {1}, {2}, 2), "M1 entry must be an integer"),
        (lambda: realignment({0}, {1}, {2.0}, 2), "M3 entry must be an integer"),
        (lambda: realignment({0}, {1}, {2}, 2.0), "k must be an integer"),
        (lambda: melonic(3, [(0.0, 0)]), "script step 0 color must be an integer"),
        (lambda: melonic(3, [(0, 0), (1, True)]), "script step 1 white must be an integer"),
        (lambda: melonic(3.0, []), "D must be an integer"),
        (lambda: joint_realignment(3.0, {0}, [{1}, {2}]), "D must be an integer"),
        (lambda: joint_realignment(3, {0.0}, [{1}, {2}]), "M3 entry must be an integer"),
        (lambda: joint_realignment(3, {0}, [{1}, {2.0}]), "links entry must be an integer"),
        (lambda: random_graph(3, 2, 1.5), "seed must be an integer"),
        (lambda: random_graph(3, 2.0, 1), "k must be an integer"),
        (lambda: random_graph(3.0, 2, 1), "D must be an integer"),
        (lambda: build_with_delta(4.0, 1), "D must be an integer"),
        (lambda: build_with_delta(4, 1.0), "delta must be an integer"),
    ],
)
def test_builders_read_integers_by_as_int(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_generate_from_spec_kinds():
    assert generate_from_spec({"kind": "two_vertex", "D": 3}) == two_vertex(3)
    assert generate_from_spec({"kind": "melonic", "D": 3, "script": [[1, 1]]}) == melonic(
        3, [(0, 0)]
    )
    assert generate_from_spec({"kind": "cyclic", "D": 3, "M": [1], "k": 3}) == cyclic(3, {0}, 3)
    assert generate_from_spec(
        {"kind": "realignment", "M1": [1], "M2": [2], "M3": [3, 4], "k": 2}
    ) == realignment({0}, {1}, {2, 3}, 2)
    assert generate_from_spec(
        {"kind": "joint_realignment", "D": 4, "M3": [4], "links": [[1], [2, 3]]}
    ) == joint_realignment(4, {3}, [{0}, {1, 2}])
    assert generate_from_spec({"kind": "fig7"}) == fig7()
    assert generate_from_spec({"kind": "random", "D": 3, "k": 4, "seed": 5}) == random_graph(
        3, 4, seed=5
    )
    with pytest.raises(ValueError, match="kind"):
        generate_from_spec({"kind": "moebius"})


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "melonic", "D": 3, "script": [1]},
        {"kind": "melonic", "D": 3, "script": 5},
        {"kind": "joint_realignment", "D": 4, "M3": [3], "links": [5]},
        {"kind": "cyclic", "D": "three", "M": [1], "k": 3},
        {"kind": "random", "D": 3, "k": 4},
        ["kind", "fig7"],
        {"kind": "two_vertex", "D": 3.7},
        {"kind": "cyclic", "D": 3, "M": [1], "k": 2.9},
        {"kind": "two_vertex", "D": True},
        {"kind": "cyclic", "D": 3, "M": [1.5], "k": 3},
        {"kind": "melonic", "D": 3, "script": [[1, 1.0]]},
    ],
)
def test_generate_from_spec_rejects_malformed_fields(spec):
    with pytest.raises(ValueError, match="spec"):
        generate_from_spec(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "fig7", "D": 6}, "field 'D' is not read by kind 'fig7'"),
        ({"kind": "cyclic", "D": 3, "M": [1], "k": 3, "seed": 1}, "field 'seed' is not read"),
        ({"kind": "two_vertex", "D": 3, "k": 2}, "field 'k' is not read"),
        # D is implied by the colors M1|M2|M3 partition
        ({"kind": "realignment", "M1": [1], "M2": [2], "M3": [3], "k": 2, "D": 3}, "field 'D' is not read"),
        ({"kind": "with_delta", "D": 4}, "missing field 'delta'"),
        ({"kind": "cyclic", "D": 3, "k": 3}, "missing field 'M'"),
        ({"D": 3}, "unknown family kind None"),
        ({"kind": ["fig7"]}, "unknown family kind"),
    ],
)
def test_generate_from_spec_refuses_unread_and_missing_fields(spec, message):
    with pytest.raises(ValueError, match=message):
        generate_from_spec(spec)


def test_generate_from_spec_refuses_before_building(monkeypatch):
    def fail(*args):
        raise AssertionError("built a refused spec")

    monkeypatch.setitem(families.KINDS, "random", (fail, ("D", "k", "seed")))
    with pytest.raises(ValueError, match="not read"):
        generate_from_spec({"kind": "random", "D": 3, "k": 4, "seed": 1, "delta": 2})
    with pytest.raises(ValueError, match="missing"):
        generate_from_spec({"kind": "random", "D": 3, "k": 4})


def test_generate_from_spec_reads_with_delta():
    assert generate_from_spec({"kind": "with_delta", "D": 4, "delta": 2}) == build_with_delta(4, 2).graph
