import itertools
import math
import random

import numpy as np
import pytest

from traceinv import (
    BudgetError,
    boundary_graph,
    build_graph,
    cayley_delta,
    conjugate,
    cyclic,
    degree_report,
    disjoint_union,
    family_of,
    gamma_tree_check,
    graph_stats,
    gurau_bound,
    k_connectivity,
    mst_pair_f0,
    pairing_f0,
    search_f0,
    search_f0_connected,
    treelike_report,
    two_vertex,
)
from traceinv.families import build_with_delta, fig7, melonic, random_graph
from traceinv.graphs import GraphFamily
from traceinv.moments import decide_factorization, factorization_verdict, prop32_scaling_check
from traceinv.sampling import quenched_entropy
from traceinv import search as search_module
from traceinv.search import _completions, _enumerate, _face_bound, _table_bound

import oracles


def test_pairing_f0_two_vertex(twov3):
    assert pairing_f0(twov3, (0,)) == 3


def test_pairing_f0_mst3(mst3):
    assert pairing_f0(mst3, (1, 0, 2)) == 6


def test_pairing_f0_fig7_identity(fig7_graph):
    assert pairing_f0(fig7_graph, tuple(range(9))) == 14


def test_pairing_f0_size_mismatch(mst3):
    with pytest.raises(ValueError, match="size"):
        pairing_f0(mst3, (0, 1))


def test_pairing_f0_matches_naive_oracle():
    rng = random.Random(17)
    for trial in range(25):
        g = random_graph(rng.randint(2, 5), rng.randint(1, 5), seed=500 + trial)
        nu = list(range(g.k))
        rng.shuffle(nu)
        assert pairing_f0(g, tuple(nu)) == oracles.f0_naive(g.sigma, tuple(nu))


def test_search_two_vertex(twov3):
    rep = search_f0(twov3)
    assert (rep.f0_max, rep.multiplicity, rep.explored) == (3, 1, 1)


def test_search_mst3(mst3):
    rep = search_f0(mst3)
    assert rep.f0_max == 6 and rep.multiplicity == 3
    assert set(rep.optima) == {(1, 0, 2), (2, 1, 0), (0, 2, 1)}


def test_search_budget_refusal():
    g = random_graph(3, 12, seed=1)
    with pytest.raises(BudgetError, match="k_max=11"):
        search_f0(g)
    with pytest.raises(BudgetError, match="k_max=4"):
        search_f0(random_graph(3, 5, seed=1), kmax=4)


# a budget is an integer: int() would read 2.9 as 2 and True as 1
@pytest.mark.parametrize("kmax", [0, -1, 2.9, True, "9"])
@pytest.mark.parametrize(
    "call",
    [
        lambda kmax: search_f0(two_vertex(3), kmax=kmax),
        lambda kmax: build_with_delta(4, 1, kmax=kmax),
        # not maximally single-trace, so no budget-free shortcut applies
        lambda kmax: quenched_entropy(melonic(3, [(0, 0)]), 4, kmax=kmax),
        lambda kmax: prop32_scaling_check(fig7(), 1, kmax=kmax),
        lambda kmax: decide_factorization(family_of([two_vertex(3)] * 2), kmax=kmax),
    ],
    ids=["search_f0", "build_with_delta", "quenched_entropy", "prop32_scaling_check", "decide_factorization"],
)
def test_budget_below_one_is_refused_everywhere(call, kmax):
    with pytest.raises(ValueError, match="k_max must be >= 1|kmax must be an integer"):
        call(kmax)


def test_search_matches_brute_force():
    rng = random.Random(23)
    for trial in range(15):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 4), seed=700 + trial)
        best, count, opts = oracles.brute_f0(g)
        rep = search_f0(g)
        assert (rep.f0_max, rep.multiplicity) == (best, count)
        assert set(rep.optima) == opts


def test_search_conjugation_invariance():
    for trial in range(8):
        g = random_graph(3, 4, seed=900 + trial)
        assert search_f0(g).f0_max == search_f0(conjugate(g)).f0_max


def test_workers_and_prune_agree():
    rng = random.Random(31)
    for trial in range(5):
        g = random_graph(rng.randint(2, 4), 6, seed=1100 + trial)
        serial = search_f0(g)
        parallel = search_f0(g, workers=2)
        pruned = search_f0(g, prune=True)
        split = search_f0(g, prune=True, workers=2)
        assert serial.f0_max == parallel.f0_max == pruned.f0_max == split.f0_max
        assert serial.multiplicity == parallel.multiplicity == pruned.multiplicity == split.multiplicity
        assert serial.optima == parallel.optima == tuple(pruned.optima) == split.optima


def test_connected_search_pair_of_two_vertex(twov3):
    fam = family_of([twov3, twov3])
    rep = search_f0_connected(fam)
    assert (rep.f0_max, rep.multiplicity) == (3, 1)
    assert rep.optima == ((1, 0),)


def test_connected_search_three_two_vertex(twov3):
    rep = search_f0_connected(family_of([twov3] * 3))
    assert (rep.f0_max, rep.multiplicity) == (3, 2)
    assert set(rep.optima) == {(1, 2, 0), (2, 0, 1)}


def test_connected_search_mst3_pair(mst3):
    fam = family_of([mst3, mst3])
    rep = search_f0_connected(fam)
    assert rep.f0_max == 9
    union = fam.union()
    best, count, opts = oracles.brute_f0_connected(union.sigma, fam.member_of_label())
    assert (rep.f0_max, rep.multiplicity) == (best, count)
    assert set(rep.optima) == opts


def test_connected_search_prune_and_workers_agree(twov3, cyc2_d3):
    # in the last family no pairing with nu(0)=0 connects, since the k=1
    # member is then matched to itself
    fams = [family_of([cyc2_d3, twov3, cyc2_d3]), family_of([twov3, cyc2_d3, twov3, cyc2_d3])]
    fams += [f for f in _connected_families() if f.total_k >= 6]
    fams.append(family_of([twov3, random_graph(3, 5, seed=1400)]))
    for fam in fams:
        serial, pruned = _walks(fam)
        assert (serial.f0_max, serial.multiplicity, serial.optima) == (
            pruned.f0_max,
            pruned.multiplicity,
            pruned.optima,
        )


def test_k_connectivity(twov3):
    fam2 = family_of([twov3, twov3])
    assert not k_connectivity(fam2, (0, 1)).connected
    assert k_connectivity(fam2, (0, 1)).partition == ((0,), (1,))
    assert k_connectivity(fam2, (1, 0)).connected
    fam3 = family_of([twov3] * 3)
    rep = k_connectivity(fam3, (1, 0, 2))
    assert not rep.connected and rep.partition == ((0, 1), (2,))


def test_gamma_tree_check(twov3):
    fam = family_of([twov3, twov3])
    rep = gamma_tree_check(fam, (1, 0))
    assert rep.kappa_hat == 1 and rep.is_tree
    rep = gamma_tree_check(fam, (0, 1))
    assert rep.kappa_hat == 2 and not rep.is_tree


def test_gamma_tree_single_member(mst3):
    fam = family_of([mst3])
    for nu in itertools.permutations(range(3)):
        rep = gamma_tree_check(fam, nu)
        assert rep.is_tree == (rep.kappa_hat == 1)


def test_gamma_tree_bound_exhaustive(twov3, cyc2_d3):
    # kappa(G-hat) <= kappa(G) - p + 1 for connecting pairings, tight on trees
    fam = family_of([twov3, cyc2_d3])
    union = fam.union()
    member_of = fam.member_of_label()
    for nu in itertools.permutations(range(union.k)):
        if not oracles.members_connected(member_of, nu):
            continue
        rep = gamma_tree_check(fam, nu)
        assert rep.kappa_hat == oracles.union_component_count(union.sigma, nu)
        assert rep.kappa_hat <= 1  # kappa(G) - p + 1
        assert rep.is_tree == (rep.kappa_hat == 1)


def test_degree_two_vertex(twov3):
    rep = degree_report(twov3)
    assert rep.omega2 == 0 and rep.delta == 0 and rep.compatible
    assert rep.delta_doubled == 0


def test_degree_cyclic_d4():
    g = cyclic(4, {0, 1}, 2)
    rep = degree_report(g)
    assert rep.delta == 1 and not rep.compatible
    assert search_f0(g).f0_max == 6


def test_gurau_bound_two_vertex(twov3):
    assert gurau_bound(twov3, 1) == 3 == search_f0(twov3).f0_max


def test_gurau_bound_fig7_union(fig7_graph):
    u, _ = disjoint_union([fig7_graph, conjugate(fig7_graph)])
    assert gurau_bound(u, 1) == 54
    assert gurau_bound(u, 2) == 60
    with pytest.raises(ValueError):
        gurau_bound(u, 3)


@pytest.mark.parametrize("kappa_hat", [1.5, 2.0, True])
def test_gurau_bound_refuses_non_integer_kappa_hat(kappa_hat):
    g = random_graph(3, 4, seed=1)
    u = family_of([g, g]).union()
    assert gurau_bound(u, 2) == 16
    with pytest.raises(ValueError, match="kappa_hat must be an integer"):
        gurau_bound(u, kappa_hat)


@pytest.mark.parametrize("f0_max", [2.5, True, "26"])
def test_supplied_f0_max_must_be_an_integer(mst3, f0_max):
    for report in (degree_report, mst_pair_f0):
        with pytest.raises(ValueError, match="f0_max must be an integer"):
            report(mst3, f0_max=f0_max)


def test_gurau_bound_never_violated():
    rng = random.Random(47)
    for trial in range(10):
        g = random_graph(rng.randint(2, 4), rng.randint(2, 4), seed=1300 + trial)
        for nu in itertools.permutations(range(g.k)):
            kappa_hat = oracles.union_component_count(g.sigma, nu)
            assert pairing_f0(g, nu) <= gurau_bound(g, kappa_hat)


def test_flip_identity_on_random_pairs():
    # joining two completions through one flip costs exactly D faces
    rng = random.Random(53)
    for trial in range(100):
        D = rng.randint(2, 5)
        g1 = random_graph(D, rng.randint(1, 4), seed=1500 + trial)
        g2 = random_graph(D, rng.randint(1, 4), seed=1600 + trial)
        nu1 = list(range(g1.k))
        nu2 = list(range(g2.k))
        rng.shuffle(nu1)
        rng.shuffle(nu2)
        union, _ = disjoint_union([g1, g2])
        nu = tuple(nu1) + tuple(g1.k + b for b in nu2)
        a = rng.randrange(g1.k)
        b = g1.k + rng.randrange(g2.k)
        flipped = list(nu)
        flipped[a], flipped[b] = flipped[b], flipped[a]
        assert (
            pairing_f0(union, tuple(flipped))
            == pairing_f0(g1, tuple(nu1)) + pairing_f0(g2, tuple(nu2)) - D
        )


def test_treelike_pair_of_two_vertex(twov3):
    rep = treelike_report(family_of([twov3, twov3]))
    assert rep.has_treelike and rep.only_treelike
    assert rep.f0_connected == 3 and rep.tree_value == 3
    assert rep.classified == (((1, 0), True),)


def test_treelike_mst3_pair(mst3):
    rep = treelike_report(family_of([mst3, mst3]))
    assert rep.has_treelike
    assert rep.f0_connected == 9 == rep.tree_value


def test_treelike_single_melonic(melon2):
    rep = treelike_report(family_of([melon2]))
    assert rep.has_treelike and rep.only_treelike
    assert all(flag for _, flag in rep.classified)


def test_treelike_flip_built_pairings_share_f0(twov3, melon2, cyc2_d3):
    # chain member optima by flips; every result reaches the tree value
    members = [melon2, cyc2_d3, twov3]
    fam = family_of(members)
    D = fam.D
    opts = [search_f0(g).optima[0] for g in members]
    tree_value = D + sum(search_f0(g).f0_max - D for g in members)
    rng = random.Random(3)
    union = fam.union()
    for _ in range(10):
        nu = []
        for g, opt in zip(members, opts):
            off = len(nu)
            nu.extend(off + b for b in opt)
        for i in range(1, len(members)):
            a = rng.randrange(fam.offsets[i - 1], fam.offsets[i])
            b = rng.randrange(fam.offsets[i], fam.offsets[i] + members[i].k)
            nu[a], nu[b] = nu[b], nu[a]
        assert pairing_f0(union, tuple(nu)) == tree_value


def test_treelike_subset_heredity(twov3, melon2, cyc2_d3):
    members = [twov3, melon2, cyc2_d3]
    fam = family_of(members)
    assert treelike_report(fam).has_treelike
    for size in (1, 2, 3):
        for subset in itertools.combinations(range(3), size):
            assert treelike_report(fam.subfamily(subset)).has_treelike


def test_disconnected_member_structure(twov3):
    # a disconnected member made of compatible blocks: every connected
    # optimum splits into per-component optima glued along a tree
    pair, _ = disjoint_union([twov3, twov3])
    fam = family_of([pair, twov3])
    union = fam.union()
    member_of = fam.member_of_label()
    rep = search_f0_connected(fam)
    kappa_g = 3
    for nu in rep.optima:
        assert gamma_tree_check(fam, nu).kappa_hat == kappa_g - fam.p + 1
        assert gamma_tree_check(fam, nu).is_tree
    best, _, opts = oracles.brute_f0_connected(union.sigma, member_of)
    assert rep.f0_max == best and set(rep.optima) == opts


def test_mst_pair_mst3(mst3):
    rep = mst_pair_f0(mst3)
    assert rep.f0_union == 12 and not rep.nonfactorizing
    union, _ = disjoint_union([mst3, conjugate(mst3)])
    assert oracles.brute_f0(union)[0] == 12


def test_mst_pair_rejects_non_mst(melon2):
    with pytest.raises(ValueError, match="single-trace"):
        mst_pair_f0(melon2)


def test_cayley_delta_two_vertex(twov3):
    assert cayley_delta(twov3, (0,)) == 0


def test_cayley_delta_mst3(mst3):
    assert cayley_delta(mst3, (1, 0, 2)) == 0


def test_cayley_delta_cyclic_d4():
    g = cyclic(4, {0, 1}, 2)
    assert pairing_f0(g, (0, 1)) == search_f0(g).f0_max
    assert cayley_delta(g, (0, 1)) == 1 == degree_report(g).delta


def test_cayley_delta_matches_degree_on_all_optima():
    rng = random.Random(61)
    for trial in range(8):
        g = random_graph(rng.randint(2, 4), rng.randint(2, 4), seed=1700 + trial)
        rep = search_f0(g)
        deg = degree_report(g, f0_max=rep.f0_max)
        for nu in rep.optima:
            assert cayley_delta(g, nu) == deg.delta


def test_cayley_delta_refuses_non_dominant(mst3):
    with pytest.raises(ValueError, match="dominant"):
        cayley_delta(mst3, (0, 1, 2))


def test_cayley_triangle_saturation(mst3, melon2, cyc2_d3):
    # below the D(D-1)/2 threshold some triangle inequality is tight
    from fractions import Fraction

    from traceinv import perms

    for g in (mst3, melon2, cyc2_d3):
        rep = search_f0(g)
        deg = degree_report(g, f0_max=rep.f0_max)
        assert deg.delta < Fraction(g.D * (g.D - 1), 2)
        k = g.k
        for nu in rep.optima:
            def dist(a, b):
                return k - perms.cycle_count(perms.compose(a, perms.inverse(b)))

            assert any(
                dist(g.sigma[i], nu) + dist(nu, g.sigma[j]) == dist(g.sigma[i], g.sigma[j])
                for i in range(g.D)
                for j in range(g.D)
                if i != j
            )


def test_f0_superadditive_over_components():
    from traceinv import thm41_check

    rng = random.Random(67)
    for trial in range(6):
        g1 = random_graph(3, 2, seed=1900 + trial)
        g2 = random_graph(3, 2, seed=2000 + trial)
        union, fam = disjoint_union([g1, g2])
        split = search_f0(g1).f0_max + search_f0(g2).f0_max
        assert search_f0(union).f0_max >= split
        if thm41_check(fam).passes:
            assert search_f0(union).f0_max == split


def test_scan_and_bnb_internals_agree_on_family(twov3, mst3):
    fam = family_of([twov3, mst3])
    union = fam.union()
    member_of = fam.member_of_label()
    scan_hist, scan_optima, _, _ = _enumerate(union.sigma, member_of, False, True)
    bnb_hist, bnb_optima, _, _ = _enumerate(union.sigma, member_of, True, True)
    best = max(scan_hist)
    assert best == max(bnb_hist) and scan_hist[best] == bnb_hist[best]
    assert sorted(scan_optima) == bnb_optima


def _connected_families():
    """Families of p = 2..5 members, total k <= 7, some with k=1 members.

    The sizes put the last two whites in different members in some
    families and in the same member in others.
    """
    sizes = [
        (1, 1), (2, 1), (3, 3), (1, 4, 1), (2, 2, 1), (3, 1, 2),
        (2, 1, 1, 1), (1, 2, 1, 2), (1, 1, 1, 1, 1), (2, 1, 2, 1, 1),
    ]
    out = []
    for n, ks in enumerate(sizes):
        for D in (2, 3):
            out.append(family_of([random_graph(D, k, seed=1300 + 10 * n + i) for i, k in enumerate(ks)]))
    return out


def test_connected_walk_matches_brute_force():
    for fam in _connected_families():
        union = fam.union()
        member_of = fam.member_of_label()
        brute_hist = oracles.brute_histogram(union.sigma, member_of)
        best, count, opts = oracles.brute_f0_connected(union.sigma, member_of)
        hist, optima, explored, _ = _enumerate(union.sigma, member_of, False, True)
        assert hist == brute_hist
        assert optima == sorted(opts) and explored == math.factorial(union.k)
        hist, optima, _, _ = _enumerate(union.sigma, member_of, True, True)
        assert (max(hist), hist[max(hist)]) == (best, count)
        assert optima == sorted(opts)


def test_pruned_walk_cuts_prefixes_at_k10():
    # fig7 at k = 9 cuts only matches of its queued prefixes; here the levels above them cut too
    g = random_graph(3, 10, seed=3400)
    full = search_f0(g)
    rep = search_f0(g, prune=True)
    assert rep.explored < math.factorial(10) and rep.nodes < full.nodes
    assert (rep.f0_max, rep.multiplicity, rep.optima) == (full.f0_max, full.multiplicity, full.optima)


def test_pruned_search_with_workers_cuts_prefixes_at_k11():
    g = random_graph(3, 11, seed=3410)
    full = search_f0(g)
    rep = search_f0(g, prune=True, workers=2)
    assert rep == search_f0(g, prune=True)
    assert rep.explored < math.factorial(11) and rep.nodes < full.nodes
    assert (rep.f0_max, rep.multiplicity, rep.optima) == (full.f0_max, full.multiplicity, full.optima)


def test_nodes_do_not_depend_on_workers():
    g = random_graph(4, 8, seed=3300)
    serial = search_f0(g)
    split = search_f0(g, workers=2)
    assert split == serial
    # every partial pairing of 1..2 whites is expanded, and the last six
    # whites are scored from the table; the root is not counted
    assert serial.nodes == sum(math.perm(8, s) for s in range(1, 3))


def test_cycle_table_matches_naive_cycle_counts():
    # every entry up to S_5, a seeded sample of S_6
    rng = random.Random(79)
    for m in range(1, 7):
        P, row_of, T = _completions(m)
        rows = list(itertools.permutations(range(m)))
        assert P.tolist() == [list(q) for q in rows]
        assert row_of[P @ m ** np.arange(m - 1, -1, -1)].tolist() == list(range(len(rows)))
        if m <= 5:
            entries = itertools.product(range(len(rows)), repeat=2)
        else:
            entries = [(rng.randrange(720), rng.randrange(720)) for _ in range(4000)]
        for a, r in entries:
            back = {x: i for i, x in enumerate(rows[r])}
            assert T[a, r] == oracles.cycle_count_naive([back[x] for x in rows[a]])


def test_table_walk_histograms_match_brute_force():
    # the queued nodes hold one white at k = 7, two at k = 8 and three at k = 9
    for k in (7, 8, 9):
        for D in range(2, 7):
            g = random_graph(D, k, seed=4000 + 10 * k + D)
            brute_hist, best, count, opts = oracles.brute_scan(g.sigma)
            hist, optima, explored, nodes = _enumerate(g.sigma, None, False, True)
            assert hist == brute_hist and optima == sorted(opts)
            assert explored == math.factorial(k)
            assert nodes == sum(math.perm(k, s) for s in range(1, k - 5))
            hist, optima, _, _ = _enumerate(g.sigma, None, True, True)
            assert (max(hist), hist[max(hist)], optima) == (best, count, sorted(opts))


def test_pruned_walk_counts_only_its_best_score():
    # a cut leaves only the best score's count exact, so that is all a pruned walk returns
    cases = [random_graph(D, k, seed=4500 + 10 * k + D) for k in (1, 2, 5, 6, 7, 9, 10) for D in (2, 3, 5)]
    cases += [family_of([random_graph(3, a, seed=4600 + a), random_graph(3, 8 - a, seed=4610 + a)]) for a in (1, 3)]
    for case in cases:
        if isinstance(case, GraphFamily):
            sigmas, member_of = case.union().sigma, case.member_of_label()
        else:
            sigmas, member_of = case.sigma, None
        full = _enumerate(sigmas, member_of, False, False)[0]
        best = max(full)
        for optimal in (False, True):
            assert _enumerate(sigmas, member_of, True, optimal)[0] == {best: full[best]}


def test_walk_does_not_depend_on_the_batch_size(monkeypatch):
    # one node per batch at 720 and 3 * 720, two (of seven children each) at 14 * 720
    cases = [random_graph(D, k, seed=4700 + 10 * k + D) for k, D in ((5, 3), (7, 2), (8, 4), (9, 3), (9, 6))]
    fam = family_of([random_graph(3, 3, seed=4750), random_graph(3, 5, seed=4751)])
    walks = [(g.sigma, None) for g in cases] + [(fam.union().sigma, fam.member_of_label())]
    default = [(_enumerate(*w, False, True), _enumerate(*w, True, True)) for w in walks]
    for batch in (720, 3 * 720, 14 * 720):
        monkeypatch.setattr(search_module, "_BATCH_SCORES", batch)
        for w, (full, pruned) in zip(walks, default):
            assert _enumerate(*w, False, True) == full
            assert _enumerate(*w, True, True)[:2] == pruned[:2]


def test_connected_walk_where_the_last_white_merges_blocks(monkeypatch):
    """p = 2..5 at total k = 7 and 8.

    At k = 7 the queued node is the root, where every member is its own
    block, so a child that matches white 0 to another member's black
    merges two blocks; at k = 8 white 1 does, after white 0 has merged or
    not.
    """
    judge = search_module._joining
    merged = []  # per pattern, whether some block holds two members or more

    def spy(masks, P, whole):
        merged.append(any(bin(v).count("1") > 1 for v in masks))
        return judge(masks, P, whole)

    monkeypatch.setattr(search_module, "_joining", spy)
    sizes = [
        (1, 6), (4, 3), (2, 2, 3), (1, 2, 2, 2), (1, 1, 1, 1, 3),
        (2, 6), (1, 7), (3, 3, 2), (1, 1, 2, 4), (2, 1, 1, 2, 2),
    ]
    for n, ks in enumerate(sizes):
        for D in (2, 3, 5):
            fam = family_of([random_graph(D, k, seed=4800 + 10 * n + i) for i, k in enumerate(ks)])
            union, member_of = fam.union(), fam.member_of_label()
            merged.clear()
            brute_hist, best, count, opts = oracles.brute_scan(union.sigma, member_of)
            hist, optima, explored, _ = _enumerate(union.sigma, member_of, False, True)
            assert hist == brute_hist and optima == sorted(opts)
            assert explored == math.factorial(union.k)
            assert any(merged)
            assert _enumerate(union.sigma, member_of, True, True)[:2] == ({best: count}, sorted(opts))


def test_table_walk_connected_histograms_match_brute_force(monkeypatch):
    """p = 2..5 at total k = 7 and 8, with k = 1 members.

    In some prefixes every member is joined before the table depth (one
    block left); in others a member is cut off from every free white and
    black, so no completion connects.
    """
    judge = search_module._joining
    seen = []  # (blocks, all completions connect, some completion connects) per pattern

    def spy(masks, P, whole):
        connects = judge(masks, P, whole)
        seen.append((len(set(masks)), connects.all(), connects.any()))
        return connects

    monkeypatch.setattr(search_module, "_joining", spy)
    batch = search_module._BATCH_SCORES
    sizes = [(1, 6), (6, 1), (3, 4), (2, 2, 3), (1, 1, 1, 4), (2, 1, 2, 2), (1, 2, 1, 2, 1), (1, 1, 6), (2, 1, 1, 4)]
    for n, ks in enumerate(sizes):
        for D in (2, 4) if sum(ks) < 8 else (3,):
            fam = family_of([random_graph(D, k, seed=4200 + 10 * n + i) for i, k in enumerate(ks)])
            union = fam.union()
            member_of = fam.member_of_label()
            walk = _enumerate(union.sigma, member_of, False, True)
            hist, optima, explored, _ = walk
            assert hist == oracles.brute_histogram(union.sigma, member_of)
            assert explored == math.factorial(union.k)
            pruned = _enumerate(union.sigma, member_of, True, True)
            assert optima == pruned[1] and pruned[0][max(pruned[0])] == hist[max(hist)]
            # three prefixes per batch: hist and optima do not depend on the batching
            monkeypatch.setattr(search_module, "_BATCH_SCORES", 3 * 720)
            assert _enumerate(union.sigma, member_of, False, True) == walk
            monkeypatch.setattr(search_module, "_BATCH_SCORES", batch)
    assert (1, True, True) in seen
    assert any(not some for _, _, some in seen)


def test_exhaustive_fig7_optima_match_brute_force(fig7_graph, monkeypatch):
    best, count, opts = oracles.brute_f0(fig7_graph)
    rep = search_f0(fig7_graph)
    assert (rep.f0_max, rep.multiplicity, rep.explored) == (best, count, 362880) == (26, 13, 362880)
    assert list(rep.optima) == sorted(opts)
    pruned = search_f0(fig7_graph, prune=True)
    assert (pruned.f0_max, pruned.multiplicity, list(pruned.optima)) == (best, count, sorted(opts))
    # the table's Cayley bound cuts matches of the queued prefixes
    assert pruned.explored < 362880
    # five prefixes per batch: the optima come from many batches, in order
    monkeypatch.setattr(search_module, "_BATCH_SCORES", 5 * 720)
    assert search_f0(fig7_graph) == rep
    small = search_f0(fig7_graph, prune=True)
    assert (small.multiplicity, small.optima) == (13, rep.optima)


def test_face_bound_caps_every_completion():
    # a bound below the best completion would cut optimal pairings
    rng = random.Random(71)
    tight = 0
    for trial in range(320):
        D, k = rng.randint(2, 6), rng.randint(3, 7)
        g = random_graph(D, k, seed=3000 + trial)
        whites = rng.sample(range(k), k - rng.randint(2, min(k, 6)))
        matches = dict(zip(whites, rng.sample(range(k), len(whites))))
        best = oracles.best_completion_faces(g.sigma, matches)
        paths = oracles.open_path_ends(g.sigma, matches)
        bound = _face_bound(paths)
        assert best <= bound <= D * (k - len(matches))
        tight += bound == best
        for enough in range(D * (k - len(matches)) + 2):
            early = _face_bound(paths, enough)
            assert early == bound if bound < enough else early >= enough
    assert tight >= 200


def test_face_bound_is_gurau_bound_of_the_boundary_graph():
    # the walk's bound on the open paths, the public boundary graph and gurau_bound agree
    rng = random.Random(73)
    for trial in range(300):
        D, k = rng.randint(2, 5), rng.randint(1, 8)
        g = random_graph(D, k, seed=6000 + trial)
        whites = rng.sample(range(k), rng.randint(0, k - 1))
        matches = dict(zip(whites, rng.sample(range(k), len(whites))))
        rep = boundary_graph(g, matches)
        B, n = rep.boundary, rep.boundary_k
        paths = [[rep.black_map[b] for b in sig] for sig in B.sigma]
        assert paths == oracles.open_path_ends(g.sigma, matches)
        exact = min(D * n, gurau_bound(B, graph_stats(B).kappa))
        assert _face_bound(paths) == exact
        for enough in range(D * n + 2):
            assert _face_bound(paths, enough) >= min(enough, exact)


def test_table_bound_is_face_bound():
    # a queued child's bound, read from the S_m table by the ranks of its pi_c, is _face_bound of the pi_c
    rng = random.Random(83)
    for m in range(1, 7):
        P, _, T = _completions(m)
        rank = {q: r for r, q in enumerate(map(tuple, P.tolist()))}
        for D in range(2, 7):
            children = [[rng.sample(range(m), m) for _ in range(D)] for _ in range(60)]
            children.append([list(range(m))] * D)  # every pair of colors at distance 0
            ranks = np.array([[rank[tuple(pi)] for pi in paths] for paths in children])
            assert _table_bound(ranks, T, m).tolist() == [_face_bound(paths) for paths in children]


def _seeded_search_cases():
    """Graphs with D = 2..6 and k = 1..10, and connected families of total k <= 9.

    k = 9 and 10 walks queue 504 and 5,040 prefixes, so a pruned walk cuts
    and collects its optima across batches there.  In two k = 10 graphs the
    last six whites are melons (every color joins white s to black s), so
    an optimal prefix meets the bound of closed faces plus D per free white
    exactly, and only ties keep it.
    """
    cases = []
    for k in range(1, 11):
        for D in range(2, 7) if k < 8 else (2, 4, 6) if k == 8 else (3, 5) if k == 9 else (2, 4, 6):
            cases.append(random_graph(D, k, seed=3500 + 10 * k + D))
    for D in (2, 3):
        cases.append(disjoint_union([random_graph(D, 4, seed=5000), build_graph(D, [tuple(range(6))] * D)])[0])
    sizes = [(1, 1), (2, 2), (3, 3), (1, 2, 4), (2, 2, 2, 1), (1, 1, 1, 1, 1), (4, 4), (2, 3, 3), (2, 3, 4)]
    for n, ks in enumerate(sizes):
        for D in (2, 3, 5, 6) if sum(ks) < 8 else (2, 6) if sum(ks) == 8 else (4,):
            cases.append(family_of([random_graph(D, k, seed=3700 + 10 * n + i) for i, k in enumerate(ks)]))
    return cases


def _walks(case):
    """(exhaustive, pruned) reports of a graph's search, or of a family's connected search."""
    if isinstance(case, GraphFamily):
        return search_module._run_search(case.union().sigma, case.member_of_label(), False), search_f0_connected(case)
    return search_f0(case), search_f0(case, prune=True)


def test_pruned_search_matches_exhaustive_on_seeded_cases():
    cases = _seeded_search_cases()
    assert len(cases) >= 70
    cut = 0
    for case in cases:
        full, rep = _walks(case)
        assert (rep.f0_max, rep.multiplicity, rep.optima) == (full.f0_max, full.multiplicity, full.optima)
        cut += rep.explored < full.explored
    assert cut >= 5


def test_conjugate_report_is_read_from_the_graphs_walk(walks):
    for n in range(40):
        g = random_graph(2 + n % 5, 1 + n % 9, seed=6100 + n)
        searches = search_module._Searches(None)
        rep = searches.graph(g)
        derived = searches.graph(conjugate(g))
        assert walks == [(g.sigma, None)]
        # the maximum, multiplicity and optima of a walk of the conjugate; the counts of g's walk
        direct = search_f0(conjugate(g), prune=True)
        assert derived == search_module.SearchReport(
            direct.f0_max, direct.multiplicity, direct.optima, rep.explored, rep.nodes
        )
        walks.clear()


def test_factorization_tiers_collect_no_optima(monkeypatch):
    # the tiers read only connected maxima, so their connected walks keep no optimum
    started = []  # (connected, optimal) of every walk
    walk = search_module._enumerate

    def spy(sigmas, member_of, prune, optimal):
        started.append((member_of is not None, optimal))
        return walk(sigmas, member_of, prune, optimal)

    monkeypatch.setattr(search_module, "_enumerate", spy)
    pair = family_of([cyclic(4, {1, 3}, 4)] * 2)
    verdict = decide_factorization(pair)
    assert (verdict.factorizes, verdict.tier, verdict.detail) == (True, "tree-like", {"f0_connected": 16, "tree_value": 16})
    assert (True, False) in started and (True, True) not in started
    started.clear()
    assert factorization_verdict(pair).factorizes is True
    assert (True, False) in started and (True, True) not in started
    # treelike_report classifies the optima of the connected search
    rep = treelike_report(pair)
    assert (rep.f0_connected, rep.tree_value) == (16, 16)
    assert len(rep.classified) == 4900
    assert tuple(nu for nu, _ in rep.classified) == search_f0_connected(pair).optima
