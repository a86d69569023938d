"""Exact maximization of color-0 face counts over pairings.

A pairing nu (white label -> black label) completes a D-colored graph with
color-0 edges; its score is sum_c #(sigma_c nu^-1).  One depth-first walk
over S_k, ``_enumerate``, serves every exact question: it yields the
histogram of scores (the moments read it whole), the maximizing pairings
and the number of pairings reached.  It scores the completions of the
last six whites together from a table of cycle counts over S_6; above
them it can cut branches by an exact bound, which changes neither the
maximum, its multiplicity nor the optima.  Every walk runs in one
process.  Callers that ask several questions of the same graphs share one
table of pruned reports (``_Searches``), so that each graph is walked once
per call.  numpy is imported by the three functions of the walk
(``_enumerate``, ``_completions`` and ``_joining``), not by this module,
so a process that builds graphs without walking them never loads it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from . import perms
from .graphs import ColoredGraph, GraphFamily, component_labels, graph_stats, union_find

DEFAULT_KMAX = 11
MAX_WORKERS = 64  # the most contraction threads --threads and a sampling call's workers may name
TABLE_WHITES = 6  # every walk scores this many last whites from a table
# completions scored per batch of prefixes, 256 KB as int16: 182 prefixes at
# m = 6, so a pruned walk learns a best score after its first 182 prefixes
_BATCH_SCORES = 1 << 17


class BudgetError(ValueError):
    """Raised when an exact computation would exceed the configured k_max."""


def resolve_kmax(kmax: Optional[int]) -> int:
    """The enumeration budget a kmax argument names: DEFAULT_KMAX for None, else an integer (perms.as_int) of at least 1."""
    limit = DEFAULT_KMAX if kmax is None else perms.as_int(kmax, "kmax")
    if limit < 1:
        raise ValueError("k_max must be >= 1")
    return limit


def check_workers(count) -> int:
    """count as a worker count: an integer (perms.as_int) in 1..MAX_WORKERS, else ValueError."""
    n = perms.as_int(count, "workers")
    if not 1 <= n <= MAX_WORKERS:
        raise ValueError(f"need 1 to {MAX_WORKERS} workers, got {n}")
    return n


def _check_budget(k: int, kmax: Optional[int]) -> int:
    limit = resolve_kmax(kmax)
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
    return sum(perms.cycle_count(sig, inv) for sig in G.sigma)


@dataclass(frozen=True)
class SearchReport:
    f0_max: int
    multiplicity: int
    optima: tuple  # pairings achieving f0_max, lexicographic
    explored: int  # pairings scored (leaves)
    nodes: int  # partial pairings expanded below the root


def _connects(member_of, p, edges) -> bool:
    """Whether the color-0 edges (white, black) connect all p members."""
    return len(set(union_find(p, ((member_of[s], member_of[b]) for s, b in edges)))) == 1


def _cayley_bound(D: int, k: int, faces: int) -> int:
    """floor(D k / 2 + faces / (D - 1)): most color-0 faces over D bijections pi_c on k points.

    faces is the sum of cyc(pi_c pi_d^-1) over the color pairs c < d.  A
    completion nu closes cyc(nu^-1 pi_c) faces of color c, and by the
    triangle inequality of the Cayley distance cyc(nu^-1 pi_c) +
    cyc(nu^-1 pi_d) <= k + cyc(pi_d^-1 pi_c); summed over the pairs, each
    color counts D - 1 times.
    """
    return (D * (D - 1) * k + 2 * faces) // (2 * (D - 1))


def _face_bound(paths, enough=None) -> int:
    """Most faces that any completion of a partial pairing can still close.

    paths[c][i] is the free black at the far end of the open c-path from
    free white i, so paths[c] is a bijection pi_c from the n free whites
    to the free blacks.  The bound is _cayley_bound of the pi_c, that is
    gurau_bound(B, kappa(B)) of the boundary graph B, capped at D n.  With
    enough, the sum stops as soon as the bound is sure to reach it, and
    the value returned is then at least enough instead of the bound.
    """
    D, n = len(paths), len(paths[0])
    faces = 0
    stop = None if enough is None else (D - 1) * enough - D * (D - 1) // 2 * n
    for d in range(1, D):
        back = {b: i for i, b in enumerate(paths[d])}
        for c in range(d):
            faces += perms.cycle_count(paths[c], back)
            if stop is not None and faces >= stop:
                return min(D * n, _cayley_bound(D, n, faces))
    return min(D * n, _cayley_bound(D, n, faces))


@functools.lru_cache(maxsize=None)
def _completions(m):
    """(P, row_of, T): the completions of m free whites, and their cycle counts.

    P lists S_m in lexicographic order, one permutation per row, and row_of
    maps the base-m code sum_i q[i] m^(m-1-i) of a permutation q to its
    row.  T[a, r] is cyc(P_r^-1 P_a) as int8; it is symmetric, since a
    permutation and its inverse have the same cycles.  T is built once per
    process, in chunks of rows, and holds 0.5 MB at m = 6.
    """
    import numpy as np

    rows = list(itertools.permutations(range(m)))
    P = np.array(rows, dtype=np.intp)
    inv = np.argsort(P, axis=1)
    weights = m ** np.arange(m - 1, -1, -1)
    row_of = np.zeros(m**m, dtype=np.int16)
    row_of[P @ weights] = np.arange(len(rows))
    cycles = np.array([perms.cycle_count(q) for q in rows], dtype=np.int8)
    # P_r^-1 P_a has the code sum_i inv_r[P_a[i]] m^(m-1-i) = sum_j inv_r[j] m^(m-1-inv_a[j]),
    # which fills row r, column a: T[a, r], as T is symmetric
    spread = weights[inv].T
    T = np.empty((len(rows), len(rows)), dtype=np.int8)
    chunk = 24  # rows of codes at a time, 0.14 MB at m = 6
    for lo in range(0, len(rows), chunk):
        codes = inv[lo : lo + chunk] @ spread
        T[lo : lo + chunk] = cycles[row_of[codes]]
    for shared in (P, row_of, T):  # every walk of the process reads the same arrays
        shared.flags.writeable = False
    return P, row_of, T


def _joining(masks, P, whole):
    """Which completions (rows of P) connect every member, as bools.

    masks holds the member blocks of the m free whites, then those of the m
    free blacks in increasing order; completion r matches free white i to
    free black P[r, i], which joins the blocks of both.  Each pass adds the
    blocks one edge away from those reached, so passes one fewer than the
    blocks reach all that can be reached.
    """
    import numpy as np

    m = P.shape[1]
    edges = np.array(masks[:m]) | np.array(masks[m:])[P]  # edges[r, i]: the blocks edge i joins
    reach = edges[:, 0]
    for _ in range(len(set(masks)) - 1):
        touched = np.where(edges & reach[:, None] != 0, edges, 0)
        reach = reach | np.bitwise_or.reduce(touched, axis=1)
    return reach == whole


def _enumerate(sigmas, member_of, prune, optimal):
    """Walk the pairings nu of S_k depth first, in lexicographic order.

    White s is matched at depth s.  For each color c the color-0 and
    color-c edges placed so far form closed faces and open paths, each
    path running from a free black to a free white; ends[c] maps each
    path's free black to the black next to its free white, and back.
    Matching s to b closes a face of color c exactly when b's path ends
    at sigma_c(s).

    member_of, when given, keeps only the pairings whose color-0 edges
    connect the p = max(member_of) + 1 members.  blocks[i] is the bitmask
    of the members joined to member i by the edges placed so far; matching
    s to b merges the blocks of their members and backtracking splits them
    again.

    The walk stops at depth k - m, m = min(k, 6), and scores all m!
    completions of each prefix at once.  The open paths of color c form a
    bijection pi_c from the m free whites to the m free blacks, as in
    ``_face_bound``, so the completion P_r of ``_completions`` closes
    T[rank pi_c, r] faces of color c.  Prefixes are scored in batches, in
    the order of the walk; whether a completion connects the members
    depends only on the blocks of the free whites and blacks, so each
    pattern of blocks is judged once per call (``_joining``).

    With prune, a branch above depth k - m is cut when its closed faces
    plus D per unmatched white cannot reach the best score of the batches
    scored so far.  Where that fails, the Cayley-distance bound of the
    open paths, ``_face_bound``, is tried, except on the last level above
    the table, where a cut saves only one prefix's m! table reads; the
    bound is never below floor(D (k'+1) / 2) with k' whites unmatched, so
    it is skipped where that many more faces would reach the best.  A
    branch that could tie the best is kept, so no optimal pairing is ever
    cut.

    Returns (hist, optima, explored, nodes): hist maps a score to the
    number of kept pairings scored with it, so max(hist) and its count
    are exact in both modes and hist is the full score histogram without
    prune; optima are all the pairings with the best score, lexicographic,
    when optimal and none otherwise; explored counts the pairings scored,
    m! per kept prefix, and nodes the partial pairings of 1..k - m whites
    expanded.
    """
    import numpy as np

    D, k = len(sigmas), len(sigmas[0])
    p = 1 if member_of is None else max(member_of) + 1
    ends = [list(range(k)) for _ in sigmas]
    steps = [tuple(zip(ends, (sig[s] for sig in sigmas))) for s in range(k)]
    tails = [[sig[s + 1:] for sig in sigmas] for s in range(k)]  # color-c blacks of whites after s
    nu = [0] * k
    free = [True] * k
    optima = []
    best = -1
    explored = 0
    nodes = 0
    connecting = p > 1  # one member is always connected
    blocks = [1 << i for i in range(p)]
    whole = (1 << p) - 1
    m = min(k, TABLE_WHITES)
    P, row_of, T = _completions(m)
    weights = m ** np.arange(m - 1, -1, -1)
    hist = np.zeros(D * k + 1, dtype=np.int64)
    free_whites = range(k - m, k)
    free_tails = [sig[k - m:] for sig in sigmas]
    patterns = {}  # block masks of the free whites and blacks -> index into connects
    connects = []  # per pattern, which completions connect the members
    # the queued prefixes: their nu[:k-m], the free blacks pi_c(i) of their
    # open paths, their closed faces and their pattern of blocks
    heads, labels, faces, pattern = [], [], [], []
    per_batch = max(1, _BATCH_SCORES // len(P))

    def reaches(s, total):
        """Whether the Cayley-distance bound lets whites s+1.. lift total to best."""
        paths = [[ep[b] for b in tail] for ep, tail in zip(ends, tails[s])]
        return total + _face_bound(paths, best - total) >= best

    def prefix(closed):
        """Queue the prefix nu[:k-m] for scoring, and score a full batch."""
        heads.extend(nu[: k - m])
        labels.extend([ep[v] for ep, tail in zip(ends, free_tails) for v in tail])
        faces.append(closed)
        if connecting:
            unmatched = [b for b in range(k) if free[b]]
            masks = tuple([blocks[member_of[x]] for x in free_whites] + [blocks[member_of[b]] for b in unmatched])
            if masks not in patterns:
                patterns[masks] = len(connects)
                connects.append(_joining(masks, P, whole))
            pattern.append(patterns[masks])
        if len(faces) == per_batch:
            score()

    def score():
        """Add the completions of the queued prefixes to hist and optima."""
        nonlocal best, explored
        B = len(faces)
        head = np.array(heads, dtype=np.intp).reshape(B, k - m)
        free_at = np.ones((B, k), dtype=np.intp)
        free_at[np.arange(B)[:, None], head] = 0
        # labels holds the free black pi_c(i) for each color c and free white i;
        # its index among the prefix's free blacks makes pi_c a permutation of S_m
        index = np.cumsum(free_at, axis=1) - 1
        pis = np.take_along_axis(index, np.array(labels, dtype=np.intp).reshape(B, D * m), axis=1)
        ranks = row_of[pis.reshape(B, D, m) @ weights]
        scores = T[ranks[:, 0]].astype(np.int16 if D * k < 1 << 15 else np.int64)
        for c in range(1, D):
            scores += T[ranks[:, c]]
        scores += np.array(faces, dtype=scores.dtype)[:, None]
        explored += scores.size
        if connecting:
            scores[~np.array(connects)[pattern]] = -1
        hist[:] += np.bincount(scores[scores >= 0] if connecting else scores.ravel(), minlength=len(hist))
        top = int(scores.max())
        if top > best:
            best = top
            optima.clear()
        if top == best >= 0 and optimal:
            # prefixes and completions are both in lexicographic order
            j, r = np.divmod(np.flatnonzero(scores == best), len(P))
            blacks = np.nonzero(free_at)[1].reshape(B, m)  # the free blacks of each prefix, increasing
            completions = np.take_along_axis(blacks[j], P[r], axis=1)
            optima.extend(map(tuple, np.concatenate([head[j], completions], axis=1).tolist()))
        for queue in (heads, labels, faces, pattern):
            queue.clear()

    def descend(s, closed):
        nonlocal nodes
        if s:
            nodes += 1
        if s == k - m:
            prefix(closed)
            return
        rest = k - s - 1
        bound = D * rest
        # least is the floor of _face_bound, which is not tried on the last level above the table
        least = bound if rest == m else D * (rest + 1) // 2
        own = blocks[member_of[s]] if connecting else 0
        for b in [b for b in range(k) if free[b]]:
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
    if faces:
        score()
    return {f0: int(n) for f0, n in enumerate(hist) if n}, optima, explored, nodes


def _run_search(sigmas, member_of, prune) -> SearchReport:
    hist, optima, explored, nodes = _enumerate(sigmas, member_of, prune, True)
    best = max(hist)
    return SearchReport(best, hist[best], tuple(optima), explored, nodes)


def search_f0(G: ColoredGraph, kmax: Optional[int] = None, workers: int = 1, prune: bool = False) -> SearchReport:
    """Exact maximum of pairing_f0 over all k! pairings, with every optimum.

    prune cuts the branches above the last six whites that cannot reach
    the best score found so far, so explored (the completions of the kept
    prefixes) and nodes drop while f0_max, multiplicity and optima are
    unchanged.  workers is accepted and ignored: every walk runs in one
    process.
    """
    _check_budget(G.k, kmax)
    return _run_search(G.sigma, None, prune)


def search_f0_connected(family: GraphFamily, kmax: Optional[int] = None) -> SearchReport:
    """Exact maximum restricted to pairings that connect the family members.

    The walk is always pruned, and keeps every optimum.
    """
    union = family.union()
    _check_budget(union.k, kmax)
    return _run_search(union.sigma, family.member_of_label(), True)


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
    table: dict = field(default_factory=dict, init=False)

    def graph(self, G: ColoredGraph) -> SearchReport:
        """G's pruned report; with conj G's in the table, that one with the optima inverted and sorted.

        pairing_f0(conj G, nu) = pairing_f0(G, nu^-1); explored and nodes are those of the walk that ran.
        """
        _check_budget(G.k, self.kmax)
        key = (G.sigma, None)
        if key not in self.table:
            bar = self.table.get((tuple(perms.inverse(p) for p in G.sigma), None))
            if bar is None:
                self.table[key] = search_f0(G, kmax=self.kmax, prune=True)
            else:
                self.table[key] = replace(bar, optima=tuple(sorted(perms.inverse(nu) for nu in bar.optima)))
        return self.table[key]

    def connected(self, family: GraphFamily) -> SearchReport:
        if family.p == 1:  # one member is always connected
            return self.graph(family.members[0][1])
        union = family.union()
        _check_budget(union.k, self.kmax)
        key = (union.sigma, tuple(family.member_of_label()))
        if key not in self.table:
            self.table[key] = search_f0_connected(family, kmax=self.kmax)
        return self.table[key]


@dataclass(frozen=True)
class KConnectivityReport:
    connected: bool
    partition: tuple  # member-index blocks, sorted


def k_connectivity(family: GraphFamily, nu) -> KConnectivityReport:
    """Partition of the members induced by the cross-member color-0 edges."""
    nu = perms.check_perm(nu)
    if len(nu) != family.total_k:
        raise ValueError(f"pairing has size {len(nu)}, union has k={family.total_k}")
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
    completed = ColoredGraph(D=union.D + 1, k=union.k, sigma=union.sigma + (nu,))
    kappa_hat = len(component_labels(completed))
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


def degree_report(G: ColoredGraph, kmax: Optional[int] = None, f0_max: Optional[int] = None) -> DegreeReport:
    """Reduced Gurau degree and degree of compatibility, exact.

    f0_max may be supplied to skip the enumeration.
    """
    stats = graph_stats(G)
    D, k, F = G.D, G.k, stats.F_total
    omega2 = (D - 1) * stats.kappa + (D - 1) * (D - 2) * k // 2 - F
    if f0_max is None:
        f0_max = search_f0(G, kmax=kmax, prune=True).f0_max
    delta = Fraction(D * (D - 1) * k, 4) + Fraction(F, 2) - Fraction((D - 1) * f0_max, 2)
    return DegreeReport(omega2=omega2, delta=delta, compatible=delta == 0)


def gurau_bound(G: ColoredGraph, kappa_hat: int) -> int:
    """Upper bound on F0 for completions with kappa_hat components."""
    stats = graph_stats(G)
    if not 1 <= kappa_hat <= stats.kappa:
        raise ValueError(f"kappa_hat={kappa_hat} out of range 1..{stats.kappa}")
    return _cayley_bound(G.D, G.k, stats.F_total) - G.D * (stats.kappa - kappa_hat)


@dataclass(frozen=True)
class MstPairReport:
    f0_union: int
    nonfactorizing: bool
    f0_single: int


def mst_pair_f0(H: ColoredGraph, kmax: Optional[int] = None, f0_max: Optional[int] = None) -> MstPairReport:
    """F0-maximum of {H, conjugate(H)} without searching S_{2k}.

    Valid for maximally single-trace H only: the mirror pairing yields
    D*k(H) and the component bound caps connected completions at the same
    value, while split completions cap at twice the single-graph maximum.
    """
    if not graph_stats(H).is_mst:
        raise ValueError("mst_pair_f0 requires a maximally single-trace graph")
    if f0_max is None:
        f0_max = search_f0(H, kmax=kmax, prune=True).f0_max
    f0_union = max(2 * f0_max, H.D * H.k)
    return MstPairReport(
        f0_union=f0_union,
        nonfactorizing=2 * f0_max <= H.D * H.k,
        f0_single=f0_max,
    )


def cayley_delta(G: ColoredGraph, nu, kmax: Optional[int] = None) -> Fraction:
    """Degree of compatibility as a sum of Cayley-distance triangle defects.

    Only valid at a dominant pairing; non-dominant nu is refused.
    """
    nu = perms.check_perm(nu)
    if pairing_f0(G, nu) != search_f0(G, kmax=kmax, prune=True).f0_max:
        raise ValueError("cayley_delta requires a dominant pairing")

    def dist(a, b):
        return G.k - perms.cycle_count(a, perms.inverse(b))

    pairs = itertools.combinations(G.sigma, 2)
    return sum((Fraction(dist(si, nu) + dist(nu, sj) - dist(si, sj), 2) for si, sj in pairs), Fraction(0))


@dataclass(frozen=True)
class TreelikeReport:
    has_treelike: bool
    only_treelike: bool
    classified: tuple  # (pairing, is_treelike) over the connected optima
    f0_connected: int
    tree_value: int  # D + sum_i (F0_i - D)


def treelike_report(family: GraphFamily, kmax: Optional[int] = None) -> TreelikeReport:
    """Tree-like classification of the connected dominant pairings.

    has_treelike holds when the connected maximum equals the value shared
    by all tree-like completions; each connected optimum is then tagged by
    the maximal two-cut property, member by member.
    """
    member_reports, connected, tree_value = _tree_values(family, _Searches(kmax))
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
