import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from traceinv import (
    BudgetError,
    LaurentPoly,
    annealed_coefficients,
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


def test_laurent_constants_equal_and_hash_as_their_integers():
    for c in (5, -3, 0):
        poly = LaurentPoly.constant(c)
        assert poly == c and c == poly and hash(poly) == hash(c)
        assert {c: "x"}.get(poly) == "x" and {poly: "y"}[c] == "y"
    assert LaurentPoly.zero() == 0 and hash(LaurentPoly.zero()) == hash(0)
    assert LaurentPoly({1: 5}) != 5 and LaurentPoly({0: 5, 1: 1}) != 5
    # a bool is no integer coefficient (perms.as_int), so it compares by identity, without a raise
    for flag in (True, False):
        assert LaurentPoly.constant(int(flag)) != flag and not (LaurentPoly.constant(int(flag)) == flag)
        assert flag != LaurentPoly.constant(int(flag))


def test_laurent_json_roundtrip():
    p = LaurentPoly({-3: 3, -4: 3})
    data = p.to_json_dict()
    assert data["terms"][0] == {"exp": -3, "coef": "3"}
    assert LaurentPoly.from_json_dict(data) == p


# each of these was truncated by int(): {1.5: 2.7} became {1: 2}, exp 2.9 became 2, " 1_0 " became 10
@pytest.mark.parametrize("terms", [{1.5: 2.7}, {1: 2.7}, {1.5: 2}, {1: "3"}, {True: 1}, {1: True}])
def test_laurent_refuses_non_integer_terms(terms):
    with pytest.raises(ValueError, match="integer"):
        LaurentPoly(terms)


@pytest.mark.parametrize(
    "term",
    [
        {"exp": 2.9, "coef": "3"},
        {"exp": "2", "coef": "3"},
        {"exp": 2, "coef": " 1_0 "},
        {"exp": 2, "coef": "+3"},
        {"exp": 2, "coef": " 3"},
        {"exp": 2, "coef": "3.0"},
        {"exp": 2, "coef": 3.0},
        {"exp": 2, "coef": "\u0663"},
    ],
)
def test_laurent_json_refuses_what_int_would_truncate(term):
    with pytest.raises(ValueError):
        LaurentPoly.from_json_dict({"variable": "N", "terms": [term]})


def test_laurent_json_reads_integer_and_signed_decimal_coefficients():
    terms = [{"exp": -3, "coef": "-12"}, {"exp": 0, "coef": 5}, {"exp": 1, "coef": "007"}]
    assert LaurentPoly.from_json_dict({"terms": terms}) == LaurentPoly({-3: -12, 0: 5, 1: 7})


def test_set_partitions_counts():
    # Bell numbers
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert len(list(set_partitions(n))) == bell


def test_set_partitions_come_in_restricted_growth_order():
    # FactorizationVerdict.worst breaks ties by this order: blocks by first
    # element, partitions by their restricted growth strings
    for n in range(7):
        rgs = []
        for pi in set_partitions(n):
            assert [b[0] for b in pi] == sorted(b[0] for b in pi)
            assert sorted(x for b in pi for x in b) == list(range(n))
            rgs.append([next(i for i, b in enumerate(pi) if x in b) for x in range(n)])
        assert rgs == sorted(rgs) and len({tuple(r) for r in rgs}) == len(rgs)
    assert list(set_partitions(0)) == [()]


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


@pytest.mark.parametrize("k, D, N", [(2, 3, True), (True, 3, 2), (2, 3.0, 2), (2.5, 3, 2), (2, 3, "2")])
def test_haar_factor_refuses_non_integers(k, D, N):
    with pytest.raises(ValueError, match="must be an integer"):
        haar_factor(k, D, N)


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


def test_limit_moments_match_each_regimes_closed_form():
    for regime in ("exponential", "gamma"):
        for mu in (Fraction(3, 2), 1, 7, 0.3):
            for p in range(1, 13):
                out = limit_moments_prop34(mu, p, regime)
                assert (out["cumulant_p"], out["moment_p"]) == oracles.limit_moments_reference(mu, p, regime)
                assert type(out["cumulant_p"]) is type(out["moment_p"]) is Fraction


def test_limit_moments_rejects():
    with pytest.raises(ValueError):
        limit_moments_prop34(1, 0, "exponential")
    with pytest.raises(ValueError):
        limit_moments_prop34(1, 2, "weibull")


@pytest.mark.parametrize("mu_c", [True, "3/2", b"1", 1 + 0j, None, 10**400], ids=["True", "3/2", "bytes", "complex", "None", "10**400"])
def test_limit_moments_read_mu_c_as_annealed_coefficients_do(mu_c):
    message = f"mu_c must be a real number, got {mu_c!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        limit_moments_prop34(mu_c, 2, "gamma")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        annealed_coefficients("gamma", mu_c, 1.0, 3, 2)


@pytest.mark.parametrize(
    "mu_c, message",
    [(math.inf, "need a finite mu_c"), (math.nan, "need a finite mu_c"), (0, "mu_c must be positive"), (-0.5, "mu_c must be positive")],
)
def test_limit_moments_refuse_mu_c_not_finite_and_positive(mu_c, message):
    with pytest.raises(ValueError, match=message):
        limit_moments_prop34(mu_c, 2, "exponential")


def test_limit_moments_take_mu_c_exactly():
    import numpy as np

    exact_values = [
        (0.1, Fraction(0.1)),
        (np.float64(0.1), Fraction(0.1)),
        (np.int64(3), Fraction(3)),
        (Decimal("0.1"), Fraction(1, 10)),
        (np.float32(0.5), Fraction(1, 2)),
        (Fraction(1, 10**400), Fraction(1, 10**400)),
    ]
    for mu_c, exact in exact_values:
        assert limit_moments_prop34(mu_c, 1, "exponential") == {"cumulant_p": exact, "moment_p": exact}


@pytest.mark.parametrize("D, k", [(2**1024, 2), (2, 2**1024), (2**600, 2**600)], ids=["D", "k", "product"])
def test_annealed_coefficients_refuse_D_k_past_a_float(D, k):
    with pytest.raises(ValueError, match="^need D\\*k to fit a float"):
        annealed_coefficients("exponential", 1.0, 10.0, D, k)


@pytest.mark.parametrize("regime", ["cauchy", ["gamma"], None])
def test_both_limit_law_readers_refuse_an_unknown_regime(regime):
    with pytest.raises(ValueError, match="unknown regime"):
        limit_moments_prop34(1, 2, regime)
    with pytest.raises(ValueError, match="unknown regime"):
        annealed_coefficients(regime, 1.0, 1.0, 3, 2)


@pytest.mark.parametrize("p", [True, 2.5, 2.0, "2"])
def test_limit_moments_refuses_non_integer_p(p):
    with pytest.raises(ValueError, match="p must be an integer"):
        limit_moments_prop34(1, p, "exponential")


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


@pytest.mark.parametrize("p", ["2", True, 2.0])
def test_prop32_refuses_non_integer_p(p):
    with pytest.raises(ValueError, match="p must be an integer"):
        prop32_scaling_check(fig7(), p)


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
