"""Exact Gaussian moments and cumulants as Laurent polynomials in N.

Every pairing of a family's union contributes N^(F0 - D k); the moment
and the connected cumulant read the full F0 histogram of the pairing walk
in ``search``.  Coefficients are exact integers, so moment-cumulant
identities and factorization verdicts are decided without floating point.
Factorization verdicts need only F0 maxima, so they use the pruned walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import perms
from .graphs import (
    ColoredGraph,
    GraphFamily,
    conjugate,
    connected_components,
    family_of,
    graph_stats,
)
from .search import (
    BudgetError,
    _check_budget,
    _enumerate,
    _Searches,
    _tree_values,
    degree_report,
    mst_pair_f0,
    resolve_kmax,
)

PMAX = 5  # most members whose partition lattice is walked


def _coefficient(value) -> int:
    """A JSON coefficient: an integer (perms.as_int), or a string of one (perms.from_decimal)."""
    return perms.from_decimal(value) if isinstance(value, str) else perms.as_int(value)


class LaurentPoly:
    """Laurent polynomial in N with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for e, c in dict(terms).items():
                if c:
                    self.terms[perms.as_int(e)] = perms.as_int(c)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({0: c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)  # which drops the zero coefficients

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def coefficient(self, e: int) -> int:
        return self.terms.get(e, 0)

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def max_exponent(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self.terms)

    def min_exponent(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self.terms)

    def eval_at(self, N) -> Fraction:
        """Exact value at a numeric N."""
        N = Fraction(N)
        return sum((c * N**e for e, c in self.terms.items()), Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "variable": "N",
            "terms": [
                {"exp": e, "coef": str(c)} for e, c in sorted(self.terms.items(), reverse=True)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LaurentPoly":
        """The polynomial of to_json_dict: integer exponents, coefficients as integers or decimal strings."""
        return cls({perms.as_int(t["exp"]): _coefficient(t["coef"]) for t in data["terms"]})

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for e, c in sorted(self.terms.items(), reverse=True):
            a = abs(c)
            if e == 0:
                body = str(a)
            elif a == 1:
                body = f"N^{e}"
            else:
                body = f"{a}N^{e}"
            if not out:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(out)

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"


def set_partitions(n: int):
    """All partitions of {0..n-1} via restricted growth strings."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def emit():
        blocks = {}
        for i, b in enumerate(rgs):
            blocks.setdefault(b, []).append(i)
        return tuple(tuple(blocks[b]) for b in sorted(blocks))

    def rec(i, m):
        if i == n:
            yield emit()
            return
        for b in range(m + 2):
            rgs[i] = b
            yield from rec(i + 1, max(m, b))

    yield from rec(1, 0)


def _wick_sum(family: GraphFamily, connected: bool, kmax) -> LaurentPoly:
    union = family.union()
    _check_budget(union.k, kmax)
    member_of = family.member_of_label() if connected else None
    hist, _, _, _ = _enumerate(union.sigma, member_of, False, False)
    return LaurentPoly({f0 - union.D * union.k: n for f0, n in hist.items()})


def gaussian_moment(family: GraphFamily, kmax: Optional[int] = None) -> LaurentPoly:
    """Expectation of the product of the members' trace-invariants.

    Wick expansion over all pairings of the union: each contributes
    N^(F0 - D k).
    """
    return _wick_sum(family, False, kmax)


def connected_cumulant(family: GraphFamily, kmax: Optional[int] = None) -> LaurentPoly:
    """Joint cumulant of the members' trace-invariants.

    Same expansion restricted to pairings whose member-incidence graph is
    connected; for a single member this is the full moment.
    """
    return _wick_sum(family, True, kmax)


def cumulant_consistency(family: GraphFamily, kmax: Optional[int] = None) -> LaurentPoly:
    """Residual of the moment-cumulant formula; identically zero on contract."""
    p = family.p
    if p > PMAX:
        raise BudgetError(f"partition lattice for p={p} exceeds the budget p_max={PMAX}")
    moment = gaussian_moment(family, kmax=kmax)
    cumulants = {}
    total = LaurentPoly.zero()
    for pi in set_partitions(p):
        prod = LaurentPoly.constant(1)
        for block in pi:
            if block not in cumulants:
                cumulants[block] = connected_cumulant(family.subfamily(block), kmax=kmax)
            prod = prod * cumulants[block]
        total = total + prod
    return moment - total


def haar_factor(k: int, D: int, N: int) -> Fraction:
    """Exact ratio between Haar and Gaussian single-invariant expectations."""
    if N < 1:
        raise ValueError("need N >= 1")
    if k < 0:
        raise ValueError("need k >= 0")
    denom = 1
    nd = N**D
    for j in range(k):
        denom *= nd + j
    return Fraction(N ** (D * k), denom)


@dataclass(frozen=True)
class LeadingOrder:
    s: int
    mu: int


def leading_order(poly: LaurentPoly) -> LeadingOrder:
    if not poly:
        raise ValueError("zero polynomial has no leading order")
    s = poly.max_exponent()
    return LeadingOrder(s=s, mu=poly.coefficient(s))


@dataclass(frozen=True)
class FactorizationVerdict:
    factorizes: bool
    per_partition: tuple  # (partition, margin) for every partition != 0_p
    worst: tuple  # the (partition, margin) with the smallest margin


def factorization_verdict(family: GraphFamily, kmax: Optional[int] = None) -> FactorizationVerdict:
    """Exhaustive check that the fully split partition dominates.

    For every partition pi of the members other than the singletons
    partition, margin = sum_i F0max(G_i) - sum_{B in pi} F0max_connected(B);
    factorization holds exactly when every margin is positive.
    """
    return _factorization_verdict(family, _Searches(kmax))


def _factorization_verdict(family: GraphFamily, searches: _Searches) -> FactorizationVerdict:
    p = family.p
    if p > PMAX:
        raise BudgetError(f"partition lattice for p={p} exceeds the budget p_max={PMAX}")
    if p > 1:
        # the one-block partition searches the whole union; refuse before any search
        _check_budget(family.total_k, searches.kmax)

    def f0c(block) -> int:
        return searches.connected(family.subfamily(block)).f0_max

    split_total = sum(f0c((i,)) for i in range(p))
    per_partition = []
    for pi in set_partitions(p):
        if all(len(b) == 1 for b in pi):
            continue
        margin = split_total - sum(f0c(b) for b in pi)
        per_partition.append((pi, margin))
    if not per_partition:  # p = 1: nothing to dominate
        trivial = ((tuple(range(p)),), 0)
        return FactorizationVerdict(True, (), trivial)
    worst = min(per_partition, key=lambda item: item[1])
    return FactorizationVerdict(
        factorizes=all(m > 0 for _, m in per_partition),
        per_partition=tuple(per_partition),
        worst=worst,
    )


@dataclass(frozen=True)
class Thm41Report:
    passes: bool
    lhs: int  # sum of per-component F0 maxima
    rhs: Fraction  # (D/2) k + F/(D-1) - D
    delta_sum: Fraction  # equivalent form: passes iff delta_sum < D(D-1)/2


def thm41_check(family: GraphFamily, kmax: Optional[int] = None) -> Thm41Report:
    """Sufficient factorization bound over the union's connected components."""
    return _thm41(family, _Searches(kmax))


def _thm41(family: GraphFamily, searches: _Searches) -> Thm41Report:
    union = family.union()
    D = union.D
    stats = graph_stats(union)
    lhs = 0
    delta_sum = Fraction(0)
    for comp, _ in connected_components(union):
        rep = searches.graph(comp)
        lhs += rep.f0_max
        delta_sum += degree_report(comp, f0_max=rep.f0_max).delta
    rhs = Fraction(D * union.k, 2) + Fraction(stats.F_total, D - 1) - D
    return Thm41Report(passes=lhs > rhs, lhs=lhs, rhs=rhs, delta_sum=delta_sum)


def limit_moments_prop34(mu_c, p: int, regime: str) -> dict:
    """Limit cumulant and moment of order p for the two solved regimes.

    exponential: the limit law of the rescaled invariant when the
    conjugate-pair channel strictly dominates, Gamma(1, scale mu_c);
    gamma: the half-integer shape law of the degenerate case,
    Gamma(1/2, scale 2 mu_c).  Both have mean mu_c; annealed_coefficients
    reads the gamma regime's mu_c as a scale instead, a law of mean mu_c/2.
    Exact in Fraction arithmetic.
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    mu = Fraction(mu_c)
    if mu <= 0:
        raise ValueError("mu_c must be positive")
    if regime == "exponential":
        cumulant = math.factorial(p - 1) * mu**p
        moment = math.factorial(p) * mu**p
    elif regime == "gamma":
        cumulant = Fraction(math.factorial(p - 1), 2) * (2 * mu) ** p
        double_fact = Fraction(math.factorial(2 * p), 2**p * math.factorial(p))
        moment = double_fact * mu**p
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return {"cumulant_p": Fraction(cumulant), "moment_p": Fraction(moment)}


@dataclass(frozen=True)
class Prop32Report:
    exponent: int
    verified: bool
    note: str


def prop32_scaling_check(H: ColoredGraph, p: int, kmax: Optional[int] = None) -> Prop32Report:
    """Predicted leading exponent of the p-th moment of Tr over {H, conj H}.

    Requires a maximally single-trace, non-factorizing H; the prediction is
    -p D k(H).  It is verified by enumeration only when p copies of the
    union fit in the budget, and flagged asymptotic otherwise.
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    limit = resolve_kmax(kmax)
    pair = mst_pair_f0(H, kmax=kmax)
    if not pair.nonfactorizing:
        raise ValueError("prop32_scaling_check requires a non-factorizing pair")
    exponent = -p * H.D * H.k
    if 2 * p * H.k <= limit:  # the union of p copies of H and conj(H)
        lead = leading_order(gaussian_moment(family_of([H, conjugate(H)] * p), kmax=kmax))
        return Prop32Report(
            exponent=exponent,
            verified=lead.s == exponent,
            note="verified by enumeration",
        )
    return Prop32Report(exponent=exponent, verified=False, note="asymptotic (not desk-verifiable)")


@dataclass(frozen=True)
class TieredVerdict:
    factorizes: Optional[bool]  # None when undecidable at this budget
    tier: str
    detail: dict


def decide_factorization(
    family: GraphFamily, kmax: Optional[int] = None, workers: int = 1
) -> TieredVerdict:
    """Tiered factorization decision, cheap sufficient conditions first.

    Tier 1 tries the per-component degree bound, tier 2 the tree-like
    criterion, tier 3 the exhaustive partition comparison, and tier 4 the
    conjugate-pair shortcut for maximally single-trace graphs.  Each report
    names the tier that decided it.  workers is accepted and ignored: every
    walk runs in one process.
    """
    return _decide(family, _Searches(kmax))


def _decide(family: GraphFamily, searches: _Searches) -> TieredVerdict:
    """decide_factorization, reading and filling the caller's table of searches.

    Each tier takes its maxima from the table, so a graph that several
    tiers (or the caller) ask about is walked once.
    """
    limit = resolve_kmax(searches.kmax)

    # tier 1: sufficient bound on the sum of per-component degrees
    try:
        bound = _thm41(family, searches)
        if bound.passes:
            threshold = Fraction(family.D * (family.D - 1), 2)
            detail = {"delta_sum": str(bound.delta_sum), "threshold": str(threshold)}
            return TieredVerdict(True, "thm41-bound", detail)
    except BudgetError:
        pass

    # tier 2: tree-like dominant pairings imply factorization
    try:
        _, connected, tree_value = _tree_values(family, searches)
        if connected.f0_max == tree_value:
            detail = {"f0_connected": connected.f0_max, "tree_value": tree_value}
            return TieredVerdict(True, "tree-like", detail)
    except BudgetError:
        pass

    # tier 3: exhaustive comparison over the partition lattice
    try:
        verdict = _factorization_verdict(family, searches)
        return TieredVerdict(verdict.factorizes, "exhaustive", {"worst_margin": verdict.worst[1]})
    except BudgetError:
        pass

    # tier 4: conjugate pair of a maximally single-trace graph
    if family.p == 2:
        ga, gb = family.graphs()
        for H, other in ((ga, gb), (gb, ga)):
            if H.k <= limit and graph_stats(H).is_mst and other.sigma == conjugate(H).sigma:
                rep = mst_pair_f0(H, f0_max=searches.graph(H).f0_max)
                detail = {"f0_union": rep.f0_union, "f0_single": rep.f0_single}
                return TieredVerdict(not rep.nonfactorizing, "mst-pair", detail)

    return TieredVerdict(None, "undecidable", {"kmax": limit})
