import math
import random
from fractions import Fraction

import pytest

from traceinv import (
    BudgetError,
    LaurentPoly,
    build_graph,
    conjugate,
    connected_cumulant,
    cumulant_consistency,
    cyclic,
    disjoint_union,
    factorization_verdict,
    family_of,
    gaussian_moment,
    haar_factor,
    leading_order,
    limit_moments_prop34,
    prop32_scaling_check,
    search_f0,
    set_partitions,
    thm41_check,
    two_vertex,
)
from traceinv.families import fig7, random_graph, realignment

import oracles


def test_laurent_arithmetic():
    p = LaurentPoly({-1: 2, 0: 1})
    q = LaurentPoly({-1: -2})
    assert (p + q) == LaurentPoly({0: 1})
    assert (p - p) == LaurentPoly.zero()
    assert str(p * q) == "-2N^-1 - 4N^-2"
    assert p.eval_at(2) == Fraction(2, 2) + 1
    assert (3 * LaurentPoly.constant(1)).coefficient(0) == 3


def test_laurent_json_roundtrip():
    p = LaurentPoly({-3: 3, -4: 3})
    data = p.to_json_dict()
    assert data["terms"][0] == {"exp": -3, "coef": "3"}
    assert LaurentPoly.from_json_dict(data) == p


def test_set_partitions_counts():
    # Bell numbers
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert len(list(set_partitions(n))) == bell


def test_moment_two_vertex(twov3):
    assert gaussian_moment(family_of([twov3])) == LaurentPoly.constant(1)


def test_moment_cyclic_d2():
    g = cyclic(2, {0}, 2)
    assert gaussian_moment(family_of([g])) == LaurentPoly({-1: 2})


def test_moment_mst3(mst3):
    poly = gaussian_moment(family_of([mst3]))
    assert poly == LaurentPoly({-3: 3, -4: 3})
    assert str(poly) == "3N^-3 + 3N^-4"


def test_moment_coefficient_mass_and_exponent_range():
    rng = random.Random(71)
    for trial in range(8):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 4), seed=2100 + trial)
        fam = family_of([g])
        poly = gaussian_moment(fam)
        assert poly.coefficient_sum() == math.factorial(g.k)
        rep = search_f0(g)
        assert poly.max_exponent() == rep.f0_max - g.D * g.k
        assert poly.coefficient(poly.max_exponent()) == rep.multiplicity
        assert poly.min_exponent() >= g.D - g.D * g.k


def test_moment_and_cumulant_match_brute_histogram():
    rng = random.Random(73)
    families = [family_of([random_graph(rng.randint(2, 4), rng.randint(1, 7), seed=2200 + t)]) for t in range(4)]
    for t in range(6):
        D = rng.randint(2, 4)
        sizes = [rng.randint(1, 3) for _ in range(2 + t % 2)]
        sizes[-1] = min(sizes[-1], 7 - sum(sizes[:-1]))
        families.append(family_of([random_graph(D, k, seed=2300 + 10 * t + i) for i, k in enumerate(sizes)]))
    for fam in families:
        union = fam.union()
        offset = fam.D * fam.total_k
        for poly, member_of in ((gaussian_moment(fam), None), (connected_cumulant(fam), fam.member_of_label())):
            brute = oracles.brute_histogram(union.sigma, member_of)
            assert poly.terms == {f0 - offset: n for f0, n in brute.items()}


def test_cumulant_single_member_is_moment(mst3):
    fam = family_of([mst3])
    assert connected_cumulant(fam) == gaussian_moment(fam)


def test_cumulant_two_vertex_pair(twov3):
    fam = family_of([twov3, twov3])
    assert connected_cumulant(fam) == LaurentPoly({-3: 1})
    assert gaussian_moment(fam) == LaurentPoly({0: 1, -3: 1})


def test_cumulant_three_two_vertex(twov3):
    fam = family_of([twov3] * 3)
    assert connected_cumulant(fam) == LaurentPoly({-6: 2})


def test_cumulant_counts_connecting_pairings(twov3, mst3):
    fam = family_of([twov3, mst3])
    union = fam.union()
    best, count, _ = oracles.brute_f0_connected(union.sigma, fam.member_of_label())
    poly = connected_cumulant(fam)
    assert poly.max_exponent() == best - fam.D * fam.total_k
    connecting = sum(
        1
        for nu in __import__("itertools").permutations(range(union.k))
        if oracles.members_connected(fam.member_of_label(), nu)
    )
    assert poly.coefficient_sum() == connecting


def test_consistency_examples(twov3, mst3, melon2, cyc2_d3):
    assert cumulant_consistency(family_of([twov3, twov3])) == LaurentPoly.zero()
    assert cumulant_consistency(family_of([twov3] * 3)) == LaurentPoly.zero()
    assert cumulant_consistency(family_of([mst3])) == LaurentPoly.zero()
    assert cumulant_consistency(family_of([melon2, cyc2_d3])) == LaurentPoly.zero()


def test_consistency_budget(twov3):
    with pytest.raises(BudgetError, match="p_max"):
        cumulant_consistency(family_of([twov3] * 6))


def test_haar_factor_values():
    assert haar_factor(1, 3, 5) == 1
    assert haar_factor(2, 3, 2) == Fraction(8, 9)
    prev = Fraction(0)
    for N in (2, 4, 8, 16, 32, 64):
        val = haar_factor(3, 2, N)
        assert prev < val < 1
        prev = val


def test_leading_order_examples(mst3):
    lead = leading_order(gaussian_moment(family_of([mst3])))
    assert (lead.s, lead.mu) == (-3, 3)
    assert leading_order(LaurentPoly.constant(1)) == leading_order(LaurentPoly({0: 1}))
    with pytest.raises(ValueError):
        leading_order(LaurentPoly.zero())


def test_leading_order_matches_search():
    rng = random.Random(73)
    for trial in range(8):
        g = random_graph(rng.randint(2, 4), rng.randint(1, 4), seed=2300 + trial)
        lead = leading_order(gaussian_moment(family_of([g])))
        rep = search_f0(g)
        assert lead.s == rep.f0_max - g.D * g.k
        assert lead.mu == rep.multiplicity


def test_factorization_two_vertex_pair(twov3):
    verdict = factorization_verdict(family_of([twov3, twov3]))
    assert verdict.factorizes
    assert verdict.worst[1] == 3  # 6 vs 3 for the one-block partition


def test_factorization_mst3_pair(mst3):
    verdict = factorization_verdict(family_of([mst3, mst3]))
    assert verdict.factorizes
    assert verdict.worst[1] == 12 - 9


def test_factorization_single_member(mst3):
    verdict = factorization_verdict(family_of([mst3]))
    assert verdict.factorizes and verdict.per_partition == ()


def test_factorization_implies_f0_additive(twov3, melon2):
    fam = family_of([twov3, melon2])
    verdict = factorization_verdict(fam)
    assert verdict.factorizes
    lead = leading_order(gaussian_moment(fam))
    expected = sum(search_f0(g).f0_max - g.D * g.k for g in fam.graphs())
    assert lead.s == expected


def test_thm41_two_vertex_pair(twov3):
    rep = thm41_check(family_of([twov3, twov3]))
    assert rep.passes and rep.delta_sum == 0
    assert rep.lhs == 6 and rep.rhs == Fraction(6, 2) + Fraction(6, 2) - 3


def test_thm41_fig7_pair_inconclusive():
    H = fig7()
    fam = family_of([H, conjugate(H)])
    rep = thm41_check(fam)
    assert not rep.passes
    assert rep.delta_sum == 20


def test_thm41_five_realignment_blocks():
    block = realignment({0}, {1}, {2, 3}, 2)
    fam = family_of([block] * 5)
    rep = thm41_check(fam)
    assert rep.passes and rep.delta_sum == 5  # 5 < D(D-1)/2 = 6


def test_thm41_pass_implies_factorization(twov3, melon2, cyc2_d3):
    for members in ([twov3, twov3], [melon2, cyc2_d3], [twov3, melon2, cyc2_d3]):
        fam = family_of(members)
        if thm41_check(fam).passes:
            assert factorization_verdict(fam).factorizes


def test_limit_moments_order_one():
    for regime in ("exponential", "gamma"):
        out = limit_moments_prop34(Fraction(3, 2), 1, regime)
        assert out["cumulant_p"] == out["moment_p"] == Fraction(3, 2)


def test_limit_moments_exponential():
    out = limit_moments_prop34(1, 2, "exponential")
    assert out["cumulant_p"] == 1 and out["moment_p"] == 2


def test_limit_moments_gamma():
    out = limit_moments_prop34(1, 2, "gamma")
    assert out["cumulant_p"] == 2 and out["moment_p"] == 3


def test_limit_moments_lattice_identity():
    # moments must equal the partition sums of the cumulants, both regimes
    for regime in ("exponential", "gamma"):
        for mu in (1, 2, Fraction(5, 2)):
            cums = {
                p: limit_moments_prop34(mu, p, regime)["cumulant_p"] for p in range(1, 7)
            }
            for p in range(1, 7):
                total = sum(
                    math.prod(cums[len(b)] for b in pi) for pi in set_partitions(p)
                )
                assert total == limit_moments_prop34(mu, p, regime)["moment_p"]


def test_limit_moments_rejects():
    with pytest.raises(ValueError):
        limit_moments_prop34(1, 0, "exponential")
    with pytest.raises(ValueError):
        limit_moments_prop34(1, 2, "weibull")


def test_prop32_fig7():
    H = fig7()
    rep = prop32_scaling_check(H, 1)
    assert rep.exponent == -54 and not rep.verified
    assert "asymptotic" in rep.note
    assert prop32_scaling_check(H, 2).exponent == -108


def test_prop32_rejects_factorizing(mst3):
    with pytest.raises(ValueError, match="non-factorizing"):
        prop32_scaling_check(mst3, 1)


def test_prop32_rejects_non_mst(melon2):
    with pytest.raises(ValueError, match="single-trace"):
        prop32_scaling_check(melon2, 1)


def test_cor45_bound_on_connected_maximum(twov3, melon2, cyc2_d3):
    # connected maximum never beats (D/2)k + F/(D-1) - D(p-1)
    from traceinv import graph_stats, search_f0_connected

    for members in ([twov3, twov3], [melon2, cyc2_d3], [twov3, cyc2_d3, melon2]):
        fam = family_of(members)
        union = fam.union()
        st = graph_stats(union)
        bound = (
            Fraction(union.D * union.k, 2)
            + Fraction(st.F_total, union.D - 1)
            - union.D * (fam.p - 1)
        )
        assert search_f0_connected(fam).f0_max <= bound
