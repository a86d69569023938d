"""Exact maximization of color-0 face counts over pairings.

A pairing nu (white label -> black label) completes a D-colored graph with
color-0 edges; its score is sum_c #(sigma_c nu^-1).  One depth-first walk
over S_k, ``_enumerate``, serves every exact question: it yields the
histogram of scores (the moments read it whole), the maximizing pairings
and the number of pairings reached.  It walks in Python down to the last
white above the final six, then expands that white's matches in numpy
and scores the completions of the last six whites from a table of cycle
counts over S_6.  It can cut branches by an exact bound, which changes
neither the maximum, its multiplicity nor the optima; a walk that cuts
counts only the pairings with its best score, so its histogram is
{best: count}.  Every walk runs in one process.  Callers that ask several
questions of the same graphs share one table of pruned searches
(``_Searches``), so that each graph is walked once per call.  numpy is
imported by the three functions of the walk (``_enumerate``,
``_completions`` and ``_joining``), not by this module, so a process that
builds graphs without walking them never loads it.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from . import perms
from .graphs import ColoredGraph, GraphFamily, _Record, component_labels, graph_stats, union_find

DEFAULT_KMAX = 11
MAX_WORKERS = 64  # the most contraction threads --threads and a sampling call's workers may name
TABLE_WHITES = 6  # every walk scores this many last whites from a table
# completions scored per batch of queued nodes, 256 KB as int16: 26 nodes of
# 7 children at m = 6, so a pruned walk learns a best score after its first
# 182 children
_BATCH_SCORES = 1 << 17


class BudgetError(ValueError):
    """Raised when an exact computation would exceed the configured k_max."""


def resolve_kmax(kmax: int | None) -> int:
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


def _check_budget(k: int, kmax: int | None) -> int:
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


class SearchReport(_Record):
    # optima: the pairings achieving f0_max, lexicographic; explored: pairings
    # scored (leaves); nodes: partial pairings expanded below the root
    __slots__ = ("f0_max", "multiplicity", "optima", "explored", "nodes")


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


def _table_bound(ranks, T, m):
    """_face_bound of each row of ranks, read from the table T of ``_completions(m)``.

    ranks[i, c] is the row of P that is pi_c of child i, so cyc(pi_d^-1 pi_c)
    is T[ranks[i, c], ranks[i, d]]: D (D - 1) / 2 lookups per child.
    """
    D = ranks.shape[1]
    c, d = map(list, zip(*itertools.combinations(range(D), 2)))
    faces = T[ranks[:, c], ranks[:, d]].sum(axis=1)
    return _cayley_bound(D, m, faces).clip(max=D * m)


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
    at v = sigma_c(s); otherwise it joins b's path to s's, and only two
    entries of ends[c] change: a = ends[c][b] and d = ends[c][v] then map
    to each other.  (When the face closes, d = b, and the same rule
    changes nothing.)

    member_of, when given, keeps only the pairings whose color-0 edges
    connect the p = max(member_of) + 1 members.  blocks[i] is the bitmask
    of the members joined to member i by the edges placed so far; matching
    s to b merges the blocks of their members and backtracking splits them
    again.

    The last m = min(k - 1, 6) whites are scored from a table, and the
    walk in Python stops one level above them: each node at depth
    k - m - 1 is queued with its ends and closed faces, and ``score``
    expands a batch of nodes in numpy.  For every child, white k - m - 1
    matched to one of the node's m + 1 free blacks, it counts the faces
    the match closes and substitutes the two changed entries of ends; the
    open paths of color c then form a bijection pi_c from the m free
    whites to the m free blacks left, as in ``_face_bound``, and the
    completion P_r of ``_completions`` closes T[rank pi_c, r] faces of
    color c.  Nodes are scored in batches, in the order of the walk.
    Whether a completion connects the members depends only on the blocks
    of the free whites and blacks, so the blocks of each child are found
    when its node is queued, and each pattern is judged once per call
    (``_joining``).

    With prune, a branch is cut when its closed faces plus the
    Cayley-distance bound of its open paths cannot reach the best score of
    the batches scored so far.  A queued node's children are cut in the
    batch, by ``_table_bound`` of their ranks of pi_c.  Above them the
    cheaper test of closed faces plus D per unmatched white is tried
    first, and where it fails ``_face_bound``; that bound is never below
    floor(D (k'+1) / 2) with k' whites unmatched, so it is skipped where
    that many more faces would reach the best.  A branch that could tie
    the best is kept, so no optimal pairing is ever cut.

    Returns (hist, optima, explored, nodes).  Without prune hist maps a
    score to the number of kept pairings scored with it, the full score
    histogram; with prune it is {best: count}, the best score and the
    number of kept pairings that reach it, which a cut leaves exact while
    it leaves no other entry so.  optima are all the pairings with the
    best score, lexicographic, when optimal and none otherwise; explored
    counts the pairings scored, m! per kept child, and nodes the partial
    pairings of 1..k - 6 whites expanded, the kept children included, so
    none for k <= 6, where only the root is queued and its children are
    the matches of white 0.
    """
    import numpy as np

    D, k = len(sigmas), len(sigmas[0])
    p = 1 if member_of is None else max(member_of) + 1
    m = min(k - 1, TABLE_WHITES)
    last = k - m - 1  # the depth of the queued nodes
    width = m + 1  # children per node
    ends = [list(range(k)) for _ in sigmas]
    steps = [tuple(zip(ends, (sig[s] for sig in sigmas))) for s in range(last)]
    tails = [[sig[s + 1:] for sig in sigmas] for s in range(last)]  # color-c blacks of whites after s
    nu = [0] * k
    free = [True] * k
    optima = []
    best = -1
    count = 0  # kept pairings scored with best
    explored = 0
    nodes = 0
    connecting = p > 1  # one member is always connected
    blocks = [1 << i for i in range(p)]
    whole = (1 << p) - 1
    P, row_of, T = _completions(m)
    weights = m ** np.arange(m - 1, -1, -1)
    hist = np.zeros(D * k + 1, dtype=np.int64)
    colors = np.arange(D)
    sig_last = np.array([sig[last] for sig in sigmas], dtype=np.intp)  # sigma_c of the nodes' white
    sig_table = np.array([sig[k - m:] for sig in sigmas], dtype=np.intp)  # and of the table whites
    place = np.arange(width)[:, None, None]  # the place of each child's black among its node's free blacks
    dtype = np.int16 if D * k < 1 << 15 else np.int64
    patterns = {}  # block masks of a node's white, table whites and free blacks -> index into connects
    connects = []  # per pattern, which completions of each child connect the members
    judged = {}  # block masks of a child's free whites and blacks -> _joining
    # the queued nodes: their nu[:last], ends, closed faces and pattern of blocks
    heads, path_ends, faces, pattern = [], [], [], []
    per_batch = max(1, _BATCH_SCORES // (width * len(P)))

    def reaches(s, total):
        """Whether the Cayley-distance bound lets whites s+1.. lift total to best."""
        paths = [[ep[b] for b in tail] for ep, tail in zip(ends, tails[s])]
        return total + _face_bound(paths, best - total) >= best

    def joining(masks):
        """connects of a node: for each child, which completions connect the members.

        masks holds the member blocks of the node's white, of the m table
        whites, then of its m + 1 free blacks in increasing order; the
        child taking free black j merges the white's block with that
        black's.
        """
        own, whites, blacks = masks[0], masks[1:width], masks[width:]
        rows = []
        for j, other in enumerate(blacks):
            merged = own | other
            after = tuple(merged if v & merged else v for v in whites + blacks[:j] + blacks[j + 1:])
            if after not in judged:
                judged[after] = _joining(after, P, whole)
            rows.append(judged[after])
        return np.array(rows)

    def score():
        """Expand the queued nodes, and add their children's completions to hist or count, and optima."""
        nonlocal best, count, explored, nodes
        B = len(faces)
        head = np.array(heads, dtype=np.intp).reshape(B, last)
        ends_at = np.array(path_ends, dtype=np.intp).reshape(B, D, k)
        free_at = np.ones((B, k), dtype=np.intp)
        free_at[np.arange(B)[:, None], head] = 0
        blacks = np.nonzero(free_at)[1].reshape(B, width)  # the free blacks of each node, increasing
        index = np.cumsum(free_at, axis=1) - 1  # a free black's place among them
        a = np.take_along_axis(ends_at, blacks[:, None, :], axis=2)  # a[., c, j] = ends[c][b] for child j's b
        total = (np.array(faces)[:, None] + (a == sig_last[:, None]).sum(axis=1)).ravel()
        a = a.transpose(0, 2, 1)[..., None]
        d = ends_at[:, colors, sig_last][:, None, :, None]
        # the free black pi_c(x) for each child, color c and table white x: ends[c][sigma_c(x)], a and d swapped
        here = ends_at[:, colors[:, None], sig_table][:, None]
        labels = np.where(sig_table == a, d, np.where(sig_table == d, a, here))
        pis = np.take_along_axis(index, labels.reshape(B, -1), axis=1).reshape(B, width, D, m)
        pis -= pis > place  # a place past the child's black moves down one, making pi_c a permutation of S_m
        ranks = row_of[pis @ weights].reshape(B * width, D)
        kept = np.flatnonzero(total + _table_bound(ranks, T, m) >= best) if prune else np.arange(B * width)
        if m == TABLE_WHITES:  # a child is a partial pairing of k - 6 whites
            nodes += len(kept)
        if len(kept):
            ranks = ranks[kept]
            scores = T[ranks[:, 0]].astype(dtype)
            for c in range(1, D):
                scores += T[ranks[:, c]]
            scores += total[kept, None]
            explored += scores.size
            if connecting:
                scores[~np.array(connects)[pattern].reshape(B * width, -1)[kept]] = -1
            if not prune:
                hist[:] += np.bincount(scores[scores >= 0] if connecting else scores.ravel(), minlength=len(hist))
            top = int(scores.max())
            if top > best:
                best, count = top, 0
                optima.clear()
            if top == best >= 0 and (prune or optimal):
                hits = np.flatnonzero(scores == best)
                count += len(hits)
                if optimal:
                    # nodes, children and completions are all in lexicographic order
                    j, r = np.divmod(hits, len(P))
                    node, child = np.divmod(kept[j], width)
                    # the table whites take the free blacks the child leaves, skipping its own place
                    completions = np.take_along_axis(blacks[node], P[r] + (P[r] >= child[:, None]), axis=1)
                    pairings = np.concatenate([head[node], blacks[node, child][:, None], completions], axis=1)
                    optima.extend(map(tuple, pairings.tolist()))
        for queue in (heads, path_ends, faces, pattern):
            queue.clear()

    def descend(s, closed):
        nonlocal nodes
        if s:
            nodes += 1
        if s == last:
            heads.extend(nu[:last])
            for ep in ends:
                path_ends.extend(ep)
            faces.append(closed)
            if connecting:
                unmatched = [b for b in range(k) if free[b]]
                whites = range(last, k)
                masks = tuple([blocks[member_of[x]] for x in whites] + [blocks[member_of[b]] for b in unmatched])
                if masks not in patterns:
                    patterns[masks] = len(connects)
                    connects.append(joining(masks))
                pattern.append(patterns[masks])
            if len(faces) == per_batch:
                score()
            return
        rest = k - s - 1
        bound = D * rest
        least = D * (rest + 1) // 2  # the floor of _face_bound
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
    if prune:
        return ({best: count} if best >= 0 else {}), optima, explored, nodes
    return {f0: int(n) for f0, n in enumerate(hist) if n}, optima, explored, nodes


def _run_search(sigmas, member_of, prune) -> SearchReport:
    hist, optima, explored, nodes = _enumerate(sigmas, member_of, prune, True)
    best = max(hist)
    return SearchReport(best, hist[best], tuple(optima), explored, nodes)


def search_f0(G: ColoredGraph, kmax: int | None = None, workers: int = 1, prune: bool = False) -> SearchReport:
    """Exact maximum of pairing_f0 over all k! pairings, with every optimum.

    prune cuts the branches above the last six whites that cannot reach
    the best score found so far, so explored (the completions of the kept
    prefixes) and nodes drop while f0_max, multiplicity and optima are
    unchanged; the pruned walk counts only the pairings that reach its
    best score, which are all a report reads.  workers is accepted and
    ignored: every walk runs in one process.
    """
    _check_budget(G.k, kmax)
    return _run_search(G.sigma, None, prune)


def search_f0_connected(family: GraphFamily, kmax: int | None = None) -> SearchReport:
    """Exact maximum restricted to pairings that connect the family members.

    The walk is always pruned, and keeps every optimum.
    """
    union = family.union()
    _check_budget(union.k, kmax)
    return _run_search(union.sigma, family.member_of_label(), True)


class _Searches:
    """The pruned searches of one call, so that it walks each graph once.

    table maps (sigma, None) to a graph's pruned report with every optimum,
    and (sigma, member_of) of a family of two or more members to its
    connected maximum alone, which is all the factorization tiers read; a
    one-member family is its graph.  Every lookup checks the budget first,
    so a search already in the table is refused exactly where a walk would
    be.  A table lives only as long as the call that made it.
    """

    def __init__(self, kmax: int | None):
        self.kmax = kmax
        self.table = {}

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
                optima = tuple(sorted(perms.inverse(nu) for nu in bar.optima))
                self.table[key] = SearchReport(bar.f0_max, bar.multiplicity, optima, bar.explored, bar.nodes)
        return self.table[key]

    def connected(self, family: GraphFamily) -> int:
        """The most faces of a completion that connects the members, from a pruned walk that keeps no optimum."""
        if family.p == 1:  # one member is always connected
            return self.graph(family.members[0][1]).f0_max
        union = family.union()
        _check_budget(union.k, self.kmax)
        key = (union.sigma, tuple(family.member_of_label()))
        if key not in self.table:
            self.table[key] = max(_enumerate(union.sigma, family.member_of_label(), True, False)[0])
        return self.table[key]


class KConnectivityReport(_Record):
    __slots__ = ("connected", "partition")  # partition: member-index blocks, sorted


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


class GammaTreeReport(_Record):
    __slots__ = ("is_tree", "kappa_hat")


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


class DegreeReport(_Record):
    # omega2: reduced Gurau degree, (2/(D-2)!) omega; delta: degree of compatibility, a Fraction
    __slots__ = ("omega2", "delta", "compatible")

    @property
    def delta_doubled(self) -> int:
        """2*delta, always integral."""
        return int(2 * self.delta)


def degree_report(G: ColoredGraph, kmax: int | None = None, f0_max: int | None = None) -> DegreeReport:
    """Reduced Gurau degree and degree of compatibility, exact.

    f0_max, an integer (perms.as_int), may be supplied to skip the enumeration.
    """
    stats = graph_stats(G)
    D, k, F = G.D, G.k, stats.F_total
    omega2 = (D - 1) * stats.kappa + (D - 1) * (D - 2) * k // 2 - F
    f0_max = search_f0(G, kmax=kmax, prune=True).f0_max if f0_max is None else perms.as_int(f0_max, "f0_max")
    delta = Fraction(D * (D - 1) * k, 4) + Fraction(F, 2) - Fraction((D - 1) * f0_max, 2)
    return DegreeReport(omega2=omega2, delta=delta, compatible=delta == 0)


def gurau_bound(G: ColoredGraph, kappa_hat: int) -> int:
    """Upper bound on F0 for completions with kappa_hat components; kappa_hat is an integer (perms.as_int)."""
    kappa_hat = perms.as_int(kappa_hat, "kappa_hat")
    stats = graph_stats(G)
    if not 1 <= kappa_hat <= stats.kappa:
        raise ValueError(f"kappa_hat={kappa_hat} out of range 1..{stats.kappa}")
    return _cayley_bound(G.D, G.k, stats.F_total) - G.D * (stats.kappa - kappa_hat)


class MstPairReport(_Record):
    __slots__ = ("f0_union", "nonfactorizing", "f0_single")


def mst_pair_f0(H: ColoredGraph, kmax: int | None = None, f0_max: int | None = None) -> MstPairReport:
    """F0-maximum of {H, conjugate(H)} without searching S_{2k}.

    Valid for maximally single-trace H only: the mirror pairing yields
    D*k(H) and the component bound caps connected completions at the same
    value, while split completions cap at twice the single-graph maximum.
    f0_max, an integer (perms.as_int), may be supplied to skip the enumeration.
    """
    if not graph_stats(H).is_mst:
        raise ValueError("mst_pair_f0 requires a maximally single-trace graph")
    f0_max = search_f0(H, kmax=kmax, prune=True).f0_max if f0_max is None else perms.as_int(f0_max, "f0_max")
    f0_union = max(2 * f0_max, H.D * H.k)
    return MstPairReport(
        f0_union=f0_union,
        nonfactorizing=2 * f0_max <= H.D * H.k,
        f0_single=f0_max,
    )


def cayley_delta(G: ColoredGraph, nu, kmax: int | None = None) -> Fraction:
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


class TreelikeReport(_Record):
    # classified: (pairing, is_treelike) over the connected optima; tree_value: D + sum_i (F0_i - D)
    __slots__ = ("has_treelike", "only_treelike", "classified", "f0_connected", "tree_value")


def treelike_report(family: GraphFamily, kmax: int | None = None) -> TreelikeReport:
    """Tree-like classification of the connected dominant pairings.

    has_treelike holds when the connected maximum equals the value shared
    by all tree-like completions; each connected optimum is then tagged by
    the maximal two-cut property, member by member.
    """
    searches = _Searches(kmax)
    # the connected search runs first, so a union over budget fails before any member is searched
    connected = searches.graph(family.union()) if family.p == 1 else search_f0_connected(family, kmax=kmax)
    tree_value = _tree_value(family, searches)
    has_treelike = connected.f0_max == tree_value
    member_optima = [searches.graph(g).optima for g in family.graphs()]
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


def _tree_value(family: GraphFamily, searches: _Searches) -> int:
    """D + sum_i (F0_i - D), the faces of every tree-like completion, from the members' searches."""
    return family.D + sum(searches.graph(g).f0_max - family.D for g in family.graphs())


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
