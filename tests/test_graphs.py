import copy
import json
import pickle
import random

import pytest

from traceinv import (
    ColoredGraph,
    boundary_graph,
    build_graph,
    conjugate,
    connected_components,
    cyclic,
    disjoint_union,
    family_of,
    flip_edges,
    graph_from_json_dict,
    graph_stats,
    pairing_f0,
    realignment,
    two_vertex,
)
from traceinv.graphs import family_from_json_dict, from_json, load_family, load_graph
from traceinv.families import random_graph

import oracles


def test_build_graph_two_vertex():
    g = build_graph(3, [[0], [0], [0]])
    assert g.k == 1 and g.D == 3


def test_build_graph_fig7(fig7_graph):
    assert fig7_graph.k == 9 and fig7_graph.D == 6
    assert fig7_graph.sigma[1] == (1, 2, 3, 4, 5, 6, 7, 8, 0)


def test_build_graph_rejects_non_bijection():
    with pytest.raises(ValueError, match="sigma\\[2\\]"):
        build_graph(3, [[0, 1], [1, 0], [0, 0]])


def test_build_graph_refuses_non_integer_images():
    with pytest.raises(ValueError, match="sigma\\[0\\]"):
        build_graph(2, [[0, 1.9], [True, False]])
    with pytest.raises(ValueError, match="sigma\\[1\\]"):
        build_graph(2, [[0, 1], [True, False]])


def test_build_graph_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        build_graph(2, [[0, 1], [0]])


def test_build_graph_rejects_small_d():
    with pytest.raises(ValueError):
        build_graph(1, [[0]])


def test_stats_two_vertex(twov3):
    st = graph_stats(twov3)
    assert (st.k, st.kappa, st.F_total) == (1, 1, 3)
    assert all(st.F_pairwise[i][j] == 1 for i in range(3) for j in range(3) if i != j)
    assert st.is_mst and st.is_planar3


def test_stats_fig7(fig7_graph):
    st = graph_stats(fig7_graph)
    assert (st.k, st.kappa, st.F_total) == (9, 1, 15)
    assert st.is_mst
    # independent cycle-count oracle over all 15 color pairs
    from traceinv import perms

    for i in range(6):
        for j in range(i + 1, 6):
            comp = perms.compose(fig7_graph.sigma[i], perms.inverse(fig7_graph.sigma[j]))
            assert oracles.cycle_count_naive(comp) == 1


def test_stats_cyclic_d4():
    g = cyclic(4, {0, 1}, 2)
    st = graph_stats(g)
    assert st.F_total == 8 and st.kappa == 1


def test_union_of_two_vertex_graphs(twov3):
    u, fam = disjoint_union([twov3, twov3])
    st = graph_stats(u)
    assert u.k == 2 and st.kappa == 2
    assert all(p == (0, 1) for p in u.sigma)
    assert fam.offsets == (0, 1)


def test_union_fig7_with_conjugate(fig7_graph):
    u, _ = disjoint_union([fig7_graph, conjugate(fig7_graph)])
    st = graph_stats(u)
    assert u.k == 18 and st.kappa == 2 and st.F_total == 30


def test_union_single_graph(mst3):
    u, _ = disjoint_union([mst3])
    assert u == mst3


def test_union_rejects_mixed_d(twov3):
    with pytest.raises(ValueError, match="mixed"):
        disjoint_union([twov3, two_vertex(4)])


def test_union_stats_additive(mst3, cyc2_d3):
    u, _ = disjoint_union([mst3, cyc2_d3])
    st = graph_stats(u)
    st1, st2 = graph_stats(mst3), graph_stats(cyc2_d3)
    assert st.kappa == st1.kappa + st2.kappa
    assert st.F_total == st1.F_total + st2.F_total


def test_conjugate_two_vertex(twov3):
    assert conjugate(twov3) == twov3


def test_conjugate_cyclic():
    g = cyclic(3, {0}, 3)
    cg = conjugate(g)
    assert cg.sigma[0] == (0, 1, 2)
    assert cg.sigma[1] == (2, 0, 1)  # inverse 3-cycle
    assert cg.sigma[2] == (2, 0, 1)


def test_conjugate_involution_and_f_preserved():
    rng = random.Random(5)
    for trial in range(10):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 5), seed=100 + trial)
        assert graph_stats(conjugate(conjugate(g))) == graph_stats(g)
        assert graph_stats(conjugate(g)).F_total == graph_stats(g).F_total


def test_conjugate_preserves_f0_max():
    # brute-force oracle on both sides
    for trial in range(20):
        rng = random.Random(40 + trial)
        g = random_graph(rng.randint(2, 4), rng.randint(1, 4), seed=200 + trial)
        assert oracles.brute_f0(g)[0] == oracles.brute_f0(conjugate(g))[0]


def test_flip_joins_two_vertex_graphs(twov3):
    u, _ = disjoint_union([twov3, twov3])
    flipped = flip_edges(u, 0, 0, 1)
    # the 2-pair cycle with colors 2,3 inside the pairs and color 1 around
    assert flipped.sigma == ((1, 0), (0, 1), (0, 1))
    assert graph_stats(flipped).kappa == 1


def test_flip_is_involution(mst3):
    once = flip_edges(mst3, 1, 0, 2)
    assert once.sigma[0] == mst3.sigma[0] and once.sigma[2] == mst3.sigma[2]
    assert flip_edges(once, 1, 0, 2) == mst3


def test_flip_rejects_same_vertex(mst3):
    with pytest.raises(ValueError):
        flip_edges(mst3, 0, 1, 1)


@pytest.mark.parametrize(
    "c, s1, s2, message",
    [
        (0, 0, -1, "s2=-1 out of range"),
        (0, 0, 5, "s2=5 out of range"),
        (0, -1, 1, "s1=-1 out of range"),
        (True, 0, 1, "c must be an integer"),
        (0, 1.0, 2, "s1 must be an integer"),
        (0, 1, "2", "s2 must be an integer"),
    ],
)
def test_flip_refuses_non_integers_and_whites_out_of_range(mst3, c, s1, s2, message):
    with pytest.raises(ValueError, match=message):
        flip_edges(mst3, c, s1, s2)


def test_flip_of_realignment_blocks_adds_degrees():
    # one flip joining two k=2 unit-delta blocks doubles the degree
    from traceinv import degree_report

    block = realignment({0}, {1}, {2, 3}, 2)
    u, _ = disjoint_union([block, block])
    joined = flip_edges(u, 0, 0, 2)
    assert graph_stats(joined).kappa == 1
    assert degree_report(joined).delta == 2


def test_boundary_empty_pairing(mst3):
    rep = boundary_graph(mst3, {})
    assert rep.boundary == mst3 and rep.internal_f0 == 0 and rep.boundary_k == 3


def test_boundary_full_pairing_two_vertex(twov3):
    rep = boundary_graph(twov3, {0: 0})
    assert rep.boundary is None and rep.boundary_k == 0
    assert rep.internal_f0 == 3


def test_boundary_full_pairing_matches_pairing_f0():
    rng = random.Random(9)
    for trial in range(10):
        g = random_graph(rng.randint(2, 4), rng.randint(2, 4), seed=300 + trial)
        nu = list(range(g.k))
        rng.shuffle(nu)
        rep = boundary_graph(g, dict(enumerate(nu)))
        assert rep.internal_f0 == pairing_f0(g, tuple(nu))
        assert rep.boundary is None


def _boundary_oracle(g, matches):
    """Follow every alternating 0c-walk explicitly."""
    matched_black = {b: w for w, b in matches.items()}
    internal = 0
    external = {}  # color -> {start white: end black}
    for c, sig in enumerate(g.sigma):
        ext = {}
        for w in range(g.k):
            if w in matches:
                continue
            b = sig[w]
            while b in matched_black:
                b = sig[matched_black[b]]
            ext[w] = b
        external[c] = ext
        seen = set()
        for w0 in matches:
            if w0 in seen:
                continue
            walk = []
            w = w0
            while w in matches and w not in seen:
                seen.add(w)
                walk.append(w)
                b = sig[w]
                if b not in matched_black:
                    break
                w = matched_black[b]
            else:
                if w == w0:
                    internal += 1
    return internal, external


def test_boundary_mst3_against_path_oracle(mst3):
    matches = {0: 0}
    rep = boundary_graph(mst3, matches)
    assert rep.boundary_k == 2
    internal, external = _boundary_oracle(mst3, matches)
    assert rep.internal_f0 == internal
    for c in range(3):
        for new_w, old_w in enumerate(rep.white_map):
            end_black = external[c][old_w]
            assert rep.black_map[rep.boundary.sigma[c][new_w]] == end_black


def test_boundary_against_path_oracle_on_random_partial_pairings():
    # partial pairings close faces and leave open paths in the same color
    rng = random.Random(17)
    for trial in range(200):
        g = random_graph(rng.randint(2, 5), rng.randint(2, 8), seed=700 + trial)
        whites = rng.sample(range(g.k), rng.randint(1, g.k - 1))
        matches = dict(zip(whites, rng.sample(range(g.k), len(whites))))
        rep = boundary_graph(g, matches)
        internal, external = _boundary_oracle(g, matches)
        assert rep.internal_f0 == internal
        for c, sig in enumerate(rep.boundary.sigma):
            assert [rep.black_map[b] for b in sig] == [external[c][w] for w in rep.white_map]


def test_boundary_rejects_non_injective(mst3):
    with pytest.raises(ValueError, match="injective"):
        boundary_graph(mst3, {0: 1, 2: 1})


@pytest.mark.parametrize(
    "matches, message",
    [
        ({0: 1.0}, r"matches\[0\] must be an integer"),
        ({True: 1}, "matches key must be an integer"),
        ([(0, 1)], "matches must be a mapping"),
        (None, "matches must be a mapping"),
    ],
)
def test_boundary_refuses_non_integer_labels(mst3, matches, message):
    with pytest.raises(ValueError, match=message):
        boundary_graph(mst3, matches)


def test_two_color_restriction_covers_all_vertices(mst3):
    # faces of a color pair partition the 2k vertices
    st = graph_stats(mst3)
    from traceinv import perms

    for i in range(3):
        for j in range(i + 1, 3):
            comp = perms.compose(mst3.sigma[i], perms.inverse(mst3.sigma[j]))
            assert sum(len(c) for c in perms.cycles(comp)) == mst3.k
            assert st.F_pairwise[i][j] == perms.cycle_count(comp)


def test_connected_components_split(mst3, cyc2_d3):
    u, _ = disjoint_union([mst3, cyc2_d3])
    comps = connected_components(u)
    assert [c.k for c, _ in comps] == [3, 2]
    assert comps[0][0] == mst3 and comps[1][0] == cyc2_d3


def test_graph_json_roundtrip(mst3):
    data = mst3.to_json_dict()
    assert data["sigma"][0] == [1, 2, 3]
    assert graph_from_json_dict(json.loads(json.dumps(data))) == mst3


def test_graph_json_cycle_sugar():
    g = graph_from_json_dict({"D": 3, "k": 3, "sigma_cycles": ["", "(1 2 3)", "(1 3 2)"]})
    assert g.sigma[1] == (1, 2, 0)


def test_graph_json_errors_name_field():
    with pytest.raises(ValueError, match="'D'"):
        graph_from_json_dict({"sigma": [[1]]})
    with pytest.raises(ValueError, match="sigma"):
        graph_from_json_dict({"D": 3})
    with pytest.raises(ValueError, match="'k'"):
        graph_from_json_dict({"D": 3, "k": 5, "sigma": [[1], [1], [1]]})


@pytest.mark.parametrize(
    "data, field",
    [
        ({"D": 3.9, "sigma": [[1], [1], [1]]}, "D must be an integer"),
        ({"D": True, "sigma": [[1], [1], [1]]}, "D must be an integer"),
        ({"D": 3, "sigma": [[1.0], [1], [1]]}, "sigma"),
        ({"D": 3, "sigma": [[1], [False], [1]]}, "sigma"),
        ({"D": 3, "k": 1.5, "sigma_cycles": ["", "", ""]}, "k must be an integer"),
    ],
)
def test_graph_json_refuses_non_integers(data, field):
    with pytest.raises(ValueError, match=field):
        graph_from_json_dict(data)


def test_graph_json_takes_one_sigma_form():
    with pytest.raises(ValueError, match="^graph JSON gives both 'sigma' and 'sigma_cycles'; give one$"):
        graph_from_json_dict({"D": 2, "k": 1, "sigma": [[1], [1]], "sigma_cycles": ["", ""]})


@pytest.mark.parametrize("name", [{"a": 1}, 1, None, ["G"]])
def test_family_json_member_names_are_strings(name):
    graph = two_vertex(3).to_json_dict()
    data = {"members": [{"name": "G1", "graph": graph}, {"name": name, "graph": graph}]}
    with pytest.raises(ValueError, match="^family member 1 field 'name' must be a string, got "):
        family_from_json_dict(data)
    data["members"][1]["name"] = "H"
    assert [name for name, _ in family_from_json_dict(data).members] == ["G1", "H"]


def test_from_json_refuses_json_nested_past_the_parser():
    assert from_json(" [[1], {\"a\": 2}] ", "x") == [[1], {"a": 2}]
    with pytest.raises(ValueError, match="^deep.json is nested too deeply to read$"):
        from_json("[" * 100000 + "]" * 100000, "deep.json")
    with pytest.raises(json.JSONDecodeError):
        from_json("[1,", "x")


def test_from_json_refuses_an_object_repeating_a_key():
    assert from_json('[{"a": {"a": 1}}, {"a": 2}]', "x") == [{"a": {"a": 1}}, {"a": 2}]
    for text, key in (('{"D": 2, "D": 3}', "D"), ('[{"a": {"b": 1, "c": 2, "b": 1}}]', "b")):
        with pytest.raises(ValueError, match=f"^x is not readable JSON: key '{key}' is repeated in one object$"):
            from_json(text, "x")


@pytest.mark.parametrize("load", [load_graph, load_family])
def test_loaders_refuse_json_nested_past_the_parser(tmp_path, load):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ValueError, match="nested too deeply"):
        load(str(path))


@pytest.mark.parametrize("field", ["D", "k"])
@pytest.mark.parametrize("value", [3.0, True, "3"])
def test_colored_graph_refuses_non_integer_D_and_k(field, value):
    fields = {"D": 3, "k": 3, "sigma": ((0, 1, 2),) * 3, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ColoredGraph(**fields)


def test_colored_graph_reads_numpy_D_and_k_as_int():
    import numpy as np

    g = ColoredGraph(D=np.int64(3), k=np.int32(2), sigma=((0, 1), (1, 0), (0, 1)))
    assert type(g.D) is int and type(g.k) is int
    data = json.loads(json.dumps(g.to_json_dict()))
    assert data["D"] == 3 and data["k"] == 2 and graph_from_json_dict(data) == g


def test_family_json_roundtrip(mst3, twov3):
    fam = family_of([mst3, twov3], names=["a", "b"])
    data = json.loads(json.dumps(fam.to_json_dict()))
    back = family_from_json_dict(data)
    assert back.members[0][0] == "a" and back.members[0][1] == mst3
    assert back.total_k == 4 and back.offsets == (0, 3)


def test_family_lays_out_its_union_once(mst3, twov3, cyc2_d3, graph_builds):
    fam = family_of([mst3, twov3, cyc2_d3])
    assert graph_builds[0] == 1
    u = fam.union()
    assert fam.union() is u and graph_builds[0] == 1
    assert u.sigma == ((0, 1, 2, 3, 4, 5), (1, 2, 0, 3, 5, 4), (2, 0, 1, 3, 5, 4))
    assert fam.member_of_label() == [0, 0, 0, 1, 2, 2] and fam.total_k == 6
    assert disjoint_union([mst3, twov3, cyc2_d3]) == (u, fam)
    assert family_of([mst3]).union() is mst3
    assert graph_builds[0] == 2  # the union of disjoint_union's own family
    assert "_union" not in repr(fam) and "_member_of" not in repr(fam)


def test_family_requires_same_d(mst3):
    with pytest.raises(ValueError):
        family_of([mst3, two_vertex(4)])


# each building-layer record's fields, the ones compared, hashed and shown
RECORD_FIELDS = {
    "ColoredGraph": ("D", "k", "sigma"),
    "GraphFamily": ("members", "offsets"),
    "GraphStats": ("k", "kappa", "F_pairwise", "F_total", "is_mst", "is_planar3"),
    "BoundaryReport": ("internal_f0", "boundary", "boundary_k", "white_map", "black_map"),
    "DeltaBuildReport": ("graph", "delta", "verified"),
}


def _records():
    """One of each building-layer record, with the repr it has always had."""
    from traceinv import build_with_delta

    g = cyclic(3, {0}, 2)
    return [
        (g, "ColoredGraph(D=3, k=2, sigma=((0, 1), (1, 0), (1, 0)))"),
        (
            family_of([g, two_vertex(3)]),
            "GraphFamily(members=(('G1', ColoredGraph(D=3, k=2, sigma=((0, 1), (1, 0), (1, 0)))), "
            "('G2', ColoredGraph(D=3, k=1, sigma=((0,), (0,), (0,))))), offsets=(0, 2))",
        ),
        (
            graph_stats(g),
            "GraphStats(k=2, kappa=1, F_pairwise=((0, 1, 1), (1, 0, 2), (1, 2, 0)), F_total=4, "
            "is_mst=False, is_planar3=True)",
        ),
        (
            boundary_graph(g, {0: 1}),
            "BoundaryReport(internal_f0=2, boundary=ColoredGraph(D=3, k=1, sigma=((0,), (0,), (0,))), "
            "boundary_k=1, white_map=(1,), black_map=(0,))",
        ),
        (
            boundary_graph(g, {0: 0, 1: 1}),
            "BoundaryReport(internal_f0=4, boundary=None, boundary_k=0, white_map=(), black_map=())",
        ),
        (
            build_with_delta(4, 1),
            "DeltaBuildReport(graph=ColoredGraph(D=4, k=2, sigma=((1, 0), (1, 0), (0, 1), (0, 1))), "
            "delta=1, verified=True)",
        ),
    ]


def test_records_keep_their_reprs():
    assert [repr(record) for record, _ in _records()] == [text for _, text in _records()]


def test_records_compare_by_class_and_fields():
    g = ColoredGraph(3, 2, [[0, 1], [1, 0], [1, 0]])
    same = ColoredGraph(D=3, k=2, sigma=((0, 1), (1, 0), (1, 0)))
    assert g == same and hash(g) == hash(same) and g is not same
    assert g != (3, 2, g.sigma) and g != cyclic(3, {0}, 3)
    fam = family_of([g, two_vertex(3)])
    assert fam == family_of([same, two_vertex(3)]) and hash(fam) == hash(family_of([same, two_vertex(3)]))
    assert fam != family_of([g, two_vertex(3)], names=["a", "b"]) and fam != (fam.members, fam.offsets)
    for record, _ in _records():
        fields = tuple(getattr(record, name) for name in RECORD_FIELDS[type(record).__name__])
        assert record == record and record != fields and fields != record


@pytest.mark.parametrize("index", range(6))
def test_records_refuse_assigning_and_deleting_fields(index):
    record = _records()[index][0]
    for name in RECORD_FIELDS[type(record).__name__]:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value


@pytest.mark.parametrize("index", range(6))
def test_records_survive_pickle_and_deepcopy(index):
    record = _records()[index][0]
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)
        if type(record).__name__ == "GraphFamily":  # the layout is made again
            assert twin.union() == record.union() and twin.member_of_label() == [0, 0, 1]
