"""Exact maximization of color-0 face counts over pairings.

A pairing nu (white label -> black label) completes a D-colored graph with
color-0 edges; its score is sum_c #(sigma_c nu^-1).  One depth-first walk
over S_k, ``_enumerate``, serves every exact question: it yields the
histogram of scores (the moments read it whole), the maximizing pairings
and the number of pairings reached.  It can be split by the image of
white 0 across worker processes and can cut branches by an exact bound;
neither changes the maximum, its multiplicity or the optima.  Callers that
ask several questions of the same graphs share one table of pruned
reports (``_Searches``), so that each graph is walked once per call.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import perms
from .graphs import ColoredGraph, GraphFamily, graph_stats, union_find

DEFAULT_KMAX = 11


class BudgetError(ValueError):
    """Raised when an exact computation would exceed the configured k_max."""


def _check_budget(k: int, kmax: Optional[int]) -> int:
    limit = DEFAULT_KMAX if kmax is None else int(kmax)
    if limit < 1:
        raise ValueError("k_max must be >= 1")
    if k > limit:
        raise BudgetError(
            f"exact enumeration over S_{k} exceeds the budget k_max={limit}; "
            f"raise k_max explicitly to proceed"
        )
    return limit


def pairing_f0(G: ColoredGraph, nu) -> int:
    """Total number of color-0 faces of the completion determined by nu."""
    nu = perms.check_perm(nu)
    if len(nu) != G.k:
        raise ValueError(f"pairing has size {len(nu)}, graph has k={G.k}")
    inv = perms.inverse(nu)
    # sigma_c nu^-1 and nu^-1 sigma_c are conjugate, so their cycle counts agree
    return sum(perms.cycle_count(perms.compose(inv, sig)) for sig in G.sigma)


@dataclass(frozen=True)
class SearchReport:
    f0_max: int
    multiplicity: int
    optima: tuple  # pairings achieving f0_max, lexicographic
    explored: int  # pairings reached (leaves)
    nodes: int  # partial pairings expanded below the root, for any workers

    @property
    def truncated(self) -> bool:
        return self.multiplicity > len(self.optima)

    def to_json_dict(self) -> dict:
        out = {
            "f0_max": self.f0_max,
            "multiplicity": self.multiplicity,
            "optima": [[b + 1 for b in nu] for nu in self.optima],
            "explored": self.explored,
            "nodes": self.nodes,
        }
        if self.truncated:
            out["truncated"] = True
        return out


def _connects(member_of, p, edges) -> bool:
    """Whether the color-0 edges (white, black) connect all p members."""
    return len(set(union_find(p, ((member_of[s], member_of[b]) for s, b in edges)))) == 1


def _face_bound(paths, enough=None) -> int:
    """Most faces that any completion of a partial pairing can still close.

    paths[c][i] is the free black at the far end of the open c-path from
    free white i, so paths[c] is a bijection pi_c from the k' free whites
    to the free blacks, and a completion nu' closes cyc(nu'^-1 pi_c) faces
    of color c.  By the triangle inequality of the Cayley distance,
    cyc(nu'^-1 pi_c) + cyc(nu'^-1 pi_d) <= k' + cyc(pi_d^-1 pi_c) for every
    pair of colors; summed over the D(D-1)/2 pairs, each color counts D-1
    times.  No color closes more than k' faces, either.  With enough, the
    sum stops as soon as the bound is sure to reach it, and the value
    returned is then at least enough instead of the bound.
    """
    D, n = len(paths), len(paths[0])
    total = D * (D - 1) // 2 * n
    stop = None if enough is None else enough * (D - 1)
    for d in range(1, D):
        back = {b: i for i, b in enumerate(paths[d])}
        for c in range(d):
            pc = paths[c]
            seen = [False] * n
            for i in range(n):
                if not seen[i]:
                    total += 1
                    while not seen[i]:
                        seen[i] = True
                        i = back[pc[i]]
        if stop is not None and total >= stop:
            break
    return min(D * n, total // (D - 1))


def _enumerate(sigmas, k, member_of, p, prune, max_optima, first=None):
    """Walk the pairings nu of S_k depth first, in lexicographic order.

    White s is matched at depth s.  For each color c the color-0 and
    color-c edges placed so far form closed faces and open paths, each
    path running from a free black to a free white; ends[c] maps each
    path's free black to the black next to its free white, and back.
    Matching s to b closes a face of color c exactly when b's path ends
    at sigma_c(s); the last white closes one face of every color.

    member_of, when given, keeps only the pairings whose color-0 edges
    connect the p members.  blocks[i] is the bitmask of the members joined
    to member i by the edges placed so far; matching s to b merges the
    blocks of their members and backtracking splits them again, so a leaf
    is judged from blocks and its last two edges.  first fixes nu(0).
    With prune, a branch is cut when its closed faces plus D per unmatched
    white cannot reach the best score seen.  Where that fails with k' >= 4
    whites unmatched (below that the subtree costs less than the bound),
    the Cayley-distance bound of the open paths, ``_face_bound``, is tried;
    it is never below floor(D (k'+1) / 2), so it is skipped where that many
    more faces would reach the best.  A branch that could tie the best is
    kept, so no optimal pairing is ever cut.

    Returns (hist, optima, explored, nodes): hist maps a score to the
    number of kept pairings reached with it, so max(hist) and its count
    are exact in both modes and hist is the full score histogram without
    prune; optima are the pairings with the best score, lexicographic, at
    most max_optima of them; explored counts the pairings reached and
    nodes the partial pairings expanded below the root.
    """
    D = len(sigmas)
    ends = [list(range(k)) for _ in sigmas]
    steps = [tuple(zip(ends, (sig[s] for sig in sigmas))) for s in range(k)]
    tails = [[sig[s + 1:] for sig in sigmas] for s in range(k)]  # color-c blacks of whites after s
    nu = [0] * k
    free = [True] * k
    hist = [0] * (D * k + 1)
    optima = []
    best = -1
    explored = 0
    nodes = 0
    connecting = member_of is not None and p > 1  # one member is always connected
    blocks = [1 << i for i in range(p)]
    whole = (1 << p) - 1

    def leaf(total, kept):
        nonlocal best, explored
        explored += 1
        if not kept:
            return
        hist[total] += 1
        if total >= best:
            if total > best:
                best = total
                optima.clear()
            if max_optima is None or len(optima) < max_optima:
                optima.append(tuple(nu))

    def joins(b, c):
        """Whether the edges (k-2, b) and (k-1, c) leave one block of members."""
        x, y, mc = member_of[k - 2], member_of[k - 1], member_of[c]
        merged = blocks[x] | blocks[member_of[b]]
        by = merged if merged >> y & 1 else blocks[y]
        bc = merged if merged >> mc & 1 else blocks[mc]
        return by | bc == whole

    def reaches(s, total):
        """Whether the Cayley-distance bound lets whites s+1.. lift total to best."""
        paths = [[ep[b] for b in tail] for ep, tail in zip(ends, tails[s])]
        return total + _face_bound(paths, best - total) >= best

    def descend(s, closed):
        nonlocal nodes
        if s:
            nodes += 1
        unmatched = [b for b in range(k) if free[b]]
        blacks = unmatched if s or first is None else [first]
        if s == k - 1:
            nu[s] = blacks[0]
            leaf(closed + D, True)  # k == 1 allows a single member only
            return
        if s == k - 2:
            # both leaves are scored by reading the path ends, moving none
            both = sum(unmatched)
            for b in blacks:
                total = closed + D
                for ep, v in steps[s]:
                    if ep[b] == v:
                        total += 1
                if not prune or total >= best:
                    nu[s] = b
                    nu[s + 1] = both - b
                    leaf(total, not connecting or joins(b, both - b))
            return
        rest = k - s - 1
        bound = D * rest
        # least is the floor of _face_bound, which is not tried below four free whites
        least = D * (rest + 1) // 2 if rest >= 4 else bound
        own = blocks[member_of[s]] if connecting else 0
        for b in blacks:
            free[b] = False
            nu[s] = b
            total = closed
            joined = []
            for ep, v in steps[s]:
                a = ep[b]
                if a == v:
                    total += 1
                else:
                    d = ep[v]
                    ep[a] = d
                    ep[d] = a
                    joined.append((ep, a, d, v))
            other = blocks[member_of[b]] if connecting else 0
            if other != own:
                merged = own | other
                for i in range(p):
                    if merged >> i & 1:
                        blocks[i] = merged
            if not prune or total + bound >= best and (total + least >= best or reaches(s, total)):
                descend(s + 1, total)
            if other != own:
                for i in range(p):
                    if own >> i & 1:
                        blocks[i] = own
                    elif other >> i & 1:
                        blocks[i] = other
            for ep, a, d, v in joined:
                ep[a] = b
                ep[d] = v
            free[b] = True

    descend(0, 0)
    return {f0: n for f0, n in enumerate(hist) if n}, optima, explored, nodes


def _run_search(sigmas, k, member_of, p, workers, prune, max_optima) -> SearchReport:
    # below k=6 starting the worker pool costs more than the whole walk; a
    # pruned walk stays serial, since split parts cannot share a best score
    if workers <= 1 or k < 6 or prune:
        parts = [_enumerate(sigmas, k, member_of, p, prune, max_optima)]
    else:
        tasks = [(sigmas, k, member_of, p, prune, max_optima, j) for j in range(k)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(workers, k)) as pool:
            parts = pool.starmap(_enumerate, tasks)
    hist = {}
    for part, _, _, _ in parts:
        for f0, n in part.items():
            hist[f0] = hist.get(f0, 0) + n
    best = max(hist)
    # the parts run in the order of nu(0), so their optima stay lexicographic
    optima = [nu for part, opts, _, _ in parts if max(part, default=-1) == best for nu in opts]
    if max_optima is not None:
        optima = optima[:max_optima]
    explored = sum(part[2] for part in parts)
    nodes = sum(part[3] for part in parts)
    return SearchReport(best, hist[best], tuple(optima), explored, nodes)


def search_f0(
    G: ColoredGraph,
    kmax: Optional[int] = None,
    workers: int = 1,
    prune: bool = False,
    max_optima: Optional[int] = None,
) -> SearchReport:
    """Exact maximum of pairing_f0 over all k! pairings.

    workers splits an exhaustive walk by nu(0) across processes, from k=6
    on; prune cuts hopeless branches in one process, so explored drops
    while the rest is unchanged.
    """
    _check_budget(G.k, kmax)
    return _run_search(G.sigma, G.k, None, 0, workers, prune, max_optima)


def search_f0_connected(
    family: GraphFamily,
    kmax: Optional[int] = None,
    workers: int = 1,
    prune: bool = False,
    max_optima: Optional[int] = None,
) -> SearchReport:
    """Exact maximum restricted to pairings that connect the family members."""
    union = family.union()
    _check_budget(union.k, kmax)
    member_of = family.member_of_label()
    return _run_search(union.sigma, union.k, member_of, family.p, workers, prune, max_optima)


@dataclass
class _Searches:
    """The pruned searches of one call, so that it walks each graph once.

    table maps (sigma, member_of) to a pruned report with every optimum;
    member_of is None for a single graph and for a one-member family.
    Every lookup checks the budget first, so a report already in the table
    is refused exactly where a walk would be.  A table lives only as long
    as the call that made it.
    """

    kmax: Optional[int]
    workers: int
    table: dict = field(default_factory=dict)

    def graph(self, G: ColoredGraph) -> SearchReport:
        _check_budget(G.k, self.kmax)
        key = (G.sigma, None)
        if key not in self.table:
            self.table[key] = search_f0(G, kmax=self.kmax, workers=self.workers, prune=True)
        return self.table[key]

    def connected(self, family: GraphFamily) -> SearchReport:
        if family.p == 1:  # one member is always connected
            return self.graph(family.members[0][1])
        union = family.union()
        _check_budget(union.k, self.kmax)
        key = (union.sigma, tuple(family.member_of_label()))
        if key not in self.table:
            self.table[key] = search_f0_connected(family, kmax=self.kmax, workers=self.workers, prune=True)
        return self.table[key]


@dataclass(frozen=True)
class KConnectivityReport:
    connected: bool
    partition: tuple  # member-index blocks, sorted


def k_connectivity(family: GraphFamily, nu) -> KConnectivityReport:
    """Partition of the members induced by the cross-member color-0 edges."""
    union = family.union()
    nu = perms.check_perm(nu)
    if len(nu) != union.k:
        raise ValueError(f"pairing has size {len(nu)}, union has k={union.k}")
    member_of = family.member_of_label()
    roots = union_find(family.p, ((member_of[s], member_of[b]) for s, b in enumerate(nu)))
    blocks = {}
    for i, r in enumerate(roots):
        blocks.setdefault(r, []).append(i)
    partition = tuple(tuple(v) for v in sorted(blocks.values()))
    return KConnectivityReport(connected=len(partition) == 1, partition=partition)


@dataclass(frozen=True)
class GammaTreeReport:
    is_tree: bool
    kappa_hat: int


def gamma_tree_check(family: GraphFamily, nu) -> GammaTreeReport:
    """Check whether the component-member incidence graph is a tree.

    A connecting pairing satisfies kappa(G-hat) <= kappa(G) - p + 1 with
    equality exactly on trees; kappa_hat is counted on the completed union.
    """
    union = family.union()
    nu = perms.check_perm(nu)
    if len(nu) != union.k:
        raise ValueError(f"pairing has size {len(nu)}, union has k={union.k}")
    k = union.k
    # whites 0..k-1, blacks k..2k-1
    edges = [(s, k + p_[s]) for p_ in union.sigma + (nu,) for s in range(k)]
    roots = union_find(2 * k, edges)
    kappa_hat = len({roots[s] for s in range(k)})
    kappa_g = sum(g.n_components() for g in family.graphs())
    return GammaTreeReport(is_tree=kappa_hat == kappa_g - family.p + 1, kappa_hat=kappa_hat)


@dataclass(frozen=True)
class DegreeReport:
    omega2: int  # reduced Gurau degree, (2/(D-2)!) omega
    delta: Fraction  # degree of compatibility
    compatible: bool

    @property
    def delta_doubled(self) -> int:
        """2*delta, always integral."""
        return int(2 * self.delta)


def degree_report(
    G: ColoredGraph, kmax: Optional[int] = None, workers: int = 1, f0_max: Optional[int] = None
) -> DegreeReport:
    """Reduced Gurau degree and degree of compatibility, exact.

    f0_max may be supplied to skip the enumeration.
    """
    stats = graph_stats(G)
    D, k, F = G.D, G.k, stats.F_total
    omega2 = (D - 1) * stats.kappa + (D - 1) * (D - 2) * k // 2 - F
    if f0_max is None:
        f0_max = search_f0(G, kmax=kmax, workers=workers, prune=True).f0_max
    delta = Fraction(D * (D - 1) * k, 4) + Fraction(F, 2) - Fraction((D - 1) * f0_max, 2)
    return DegreeReport(omega2=omega2, delta=delta, compatible=delta == 0)


def gurau_bound(G: ColoredGraph, kappa_hat: int) -> int:
    """Upper bound on F0 for completions with kappa_hat components."""
    stats = graph_stats(G)
    if not 1 <= kappa_hat <= stats.kappa:
        raise ValueError(f"kappa_hat={kappa_hat} out of range 1..{stats.kappa}")
    D = G.D
    bound = Fraction(D * G.k, 2) + Fraction(stats.F_total, D - 1) - D * (stats.kappa - kappa_hat)
    return bound.numerator // bound.denominator


@dataclass(frozen=True)
class MstPairReport:
    f0_union: int
    nonfactorizing: bool
    f0_single: int


def mst_pair_f0(
    H: ColoredGraph, kmax: Optional[int] = None, workers: int = 1, f0_max: Optional[int] = None
) -> MstPairReport:
    """F0-maximum of {H, conjugate(H)} without searching S_{2k}.

    Valid for maximally single-trace H only: the mirror pairing yields
    D*k(H) and the component bound caps connected completions at the same
    value, while split completions cap at twice the single-graph maximum.
    """
    if not graph_stats(H).is_mst:
        raise ValueError("mst_pair_f0 requires a maximally single-trace graph")
    if f0_max is None:
        f0_max = search_f0(H, kmax=kmax, workers=workers, prune=True).f0_max
    f0_union = max(2 * f0_max, H.D * H.k)
    return MstPairReport(
        f0_union=f0_union,
        nonfactorizing=2 * f0_max <= H.D * H.k,
        f0_single=f0_max,
    )


def cayley_delta(
    G: ColoredGraph,
    nu,
    kmax: Optional[int] = None,
    workers: int = 1,
    f0_max: Optional[int] = None,
) -> Fraction:
    """Degree of compatibility as a sum of Cayley-distance triangle defects.

    Only valid at a dominant pairing; non-dominant nu is refused.
    """
    nu = perms.check_perm(nu)
    if f0_max is None:
        f0_max = search_f0(G, kmax=kmax, workers=workers, prune=True).f0_max
    if pairing_f0(G, nu) != f0_max:
        raise ValueError("cayley_delta requires a dominant pairing")
    k = G.k

    def dist(a, b):
        return k - perms.cycle_count(perms.compose(a, perms.inverse(b)))

    total = Fraction(0)
    D = G.D
    for i in range(D):
        for j in range(i + 1, D):
            si, sj = G.sigma[i], G.sigma[j]
            total += Fraction(dist(si, nu) + dist(nu, sj) - dist(si, sj), 2)
    return total


@dataclass(frozen=True)
class TreelikeReport:
    has_treelike: bool
    only_treelike: bool
    classified: tuple  # (pairing, is_treelike) over the connected optima
    f0_connected: int
    tree_value: int  # D + sum_i (F0_i - D)


def treelike_report(
    family: GraphFamily, kmax: Optional[int] = None, workers: int = 1
) -> TreelikeReport:
    """Tree-like classification of the connected dominant pairings.

    has_treelike holds when the connected maximum equals the value shared
    by all tree-like completions; each connected optimum is then tagged by
    the maximal two-cut property, member by member.
    """
    member_reports, connected, tree_value = _tree_values(family, _Searches(kmax, workers))
    has_treelike = connected.f0_max == tree_value
    member_optima = [rep.optima for rep in member_reports]
    classified = tuple(
        (nu, _is_treelike(family, nu, member_optima)) for nu in connected.optima
    )
    only_treelike = has_treelike and all(flag for _, flag in classified)
    return TreelikeReport(
        has_treelike=has_treelike,
        only_treelike=only_treelike,
        classified=classified,
        f0_connected=connected.f0_max,
        tree_value=tree_value,
    )


def _tree_values(family: GraphFamily, searches: _Searches) -> tuple:
    """(member searches, connected search, tree value) of a family.

    The connected search runs first, so a union over budget fails before
    any member is searched.
    """
    connected = searches.connected(family)
    member_reports = [searches.graph(g) for g in family.graphs()]
    tree_value = family.D + sum(rep.f0_max - family.D for rep in member_reports)
    return member_reports, connected, tree_value


def _is_treelike(family: GraphFamily, nu, member_optima) -> bool:
    member_of = family.member_of_label()
    inv_nu = perms.inverse(nu)
    for i, opts in enumerate(member_optima):
        off = family.offsets[i]
        ki = family.members[i][1].k
        member_ok = False
        for pi in opts:
            ok = True
            for w in range(ki):
                gw = off + w
                gb = off + pi[w]
                if nu[gw] == gb:
                    continue
                # the 0-edges at gw and at gb must cut the member graph
                skip = (gw, inv_nu[gb])
                rest = ((s, b) for s, b in enumerate(nu) if s not in skip)
                if _connects(member_of, family.p, rest):
                    ok = False
                    break
            if ok:
                member_ok = True
                break
        if not member_ok:
            return False
    return True
