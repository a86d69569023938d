"""Independent re-derivations used as oracles by the test suite.

Everything here is written against the definitions, not against the
package internals: naive cycle walks, full S_k scans that count cycles
by orbit minima, BFS connectivity, all-index contraction loops, and
40-digit mpmath integrals.
"""

import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np


def cycle_lengths_in_order(p):
    """Lengths of the cycles of p, listed by their smallest elements, by walking each from it."""
    left = set(range(len(p)))
    lengths = []
    while left:
        x = min(left)
        n = 0
        while x in left:
            left.remove(x)
            x = p[x]
            n += 1
        lengths.append(n)
    return lengths


def cycle_lengths(p):
    """Sorted lengths of the cycles of p."""
    return sorted(cycle_lengths_in_order(p))


def matrix_form_per_member(graphs):
    """(|M|, cycle lengths) when every graph is matrix-like for one color split (M, M^c), else None.

    The rule member by member: a graph is matrix-like for the split when
    every color in M has one permutation alpha and every other color one
    permutation beta, and M holds color 0.  A graph whose colors all share
    one permutation fits every split; a family of only those takes M = {0}.
    The lengths are those of the cycles of alpha^-1 beta, member after
    member, each member's listed by their smallest whites.
    """
    D = graphs[0].D
    split = None
    for g in graphs:
        same = frozenset(c for c in range(D) if g.sigma[c] == g.sigma[0])
        if len(same) == D:
            continue
        if len(set(g.sigma)) > 2 or split not in (None, same):
            return None
        split = same
    split = split or frozenset({0})
    beta_color = min(set(range(D)) - split)
    lengths = []
    for g in graphs:
        white_of = {b: s for s, b in enumerate(g.sigma[0])}
        lengths += cycle_lengths_in_order([white_of[b] for b in g.sigma[beta_color]])
    return len(split), lengths


def cycle_count_naive(p):
    left = set(range(len(p)))
    count = 0
    while left:
        count += 1
        x = left.pop()
        y = p[x]
        while y in left:
            left.remove(y)
            y = p[y]
    return count


def melonic_stepwise(D, script):
    """sigma of the melonic graph of a 0-based script, rebuilt whole after every insertion.

    Step (c, s) gives a new white and a new black, both labeled k: the new
    white takes white s's color-c target and s ends on the new black; in
    every other color the new pair is joined directly.
    """
    sigma = tuple((0,) for _ in range(D))
    for c, s in script:
        k = len(sigma[0])
        step = []
        for d, images in enumerate(sigma):
            if d == c:
                images = images[:s] + (k,) + images[s + 1 :] + (images[s],)
            else:
                images = images + (k,)
            step.append(images)
        sigma = tuple(step)
    return sigma


def f0_naive(sigmas, nu):
    k = len(nu)
    inv_nu = {nu[s]: s for s in range(k)}
    total = 0
    for sig in sigmas:
        composed = tuple(sig[inv_nu[x]] for x in range(k))
        total += cycle_count_naive(composed)
    return total


def members_connected(member_of, nu):
    """BFS over the member graph induced by the cross edges of nu."""
    p = max(member_of) + 1
    adj = {i: set() for i in range(p)}
    for s, b in enumerate(nu):
        adj[member_of[s]].add(member_of[b])
        adj[member_of[b]].add(member_of[s])
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == p


def brute_scan(sigmas, member_of=None):
    """(histogram, max, multiplicity, set of optimal pairings) of F0 over all of S_k, in one scan.

    With member_of, only the pairings that connect the members count.
    The pairings are scored a chunk at a time: a point x opens a cycle of
    sigma_c nu^-1 when no point of its orbit is below x.
    """
    k = len(sigmas[0])
    hist, best, opts = {}, -1, []
    pairings = itertools.permutations(range(k))
    for chunk in iter(lambda: list(itertools.islice(pairings, 5040)), []):
        chunk = [nu for nu in chunk if member_of is None or members_connected(member_of, nu)]
        if not chunk:
            continue
        inverse = np.argsort(np.array(chunk), axis=1)
        # the points of pairing i are k i .. k i + k - 1, so one array holds every permutation
        points = np.arange(len(chunk) * k)
        values = np.zeros(len(chunk), dtype=np.intp)
        for sig in sigmas:
            q = (np.array(sig)[inverse] + points[::k, None]).ravel()
            orbit = least = points
            for _ in range(k - 1):
                orbit = q[orbit]
                least = np.minimum(least, orbit)
            values += (least == points).reshape(-1, k).sum(axis=1)
        for val, n in zip(*np.unique(values, return_counts=True)):
            hist[int(val)] = hist.get(int(val), 0) + int(n)
        top = int(values.max())
        if top > best:
            best, opts = top, []
        if top == best:
            opts += [chunk[i] for i in np.flatnonzero(values == best)]
    return hist, best, len(opts), set(opts)


def brute_f0(G):
    """(max, multiplicity, set of optimal pairings) over all of S_k."""
    return brute_scan(G.sigma)[1:]


def brute_f0_connected(union_sigma, member_of):
    return brute_scan(union_sigma, member_of)[1:]


def brute_histogram(sigmas, member_of=None):
    """F0 -> number of pairings with it, over the member-connecting ones if member_of is given."""
    return brute_scan(sigmas, member_of)[0]


def open_path_ends(sigmas, matches):
    """paths[c][i]: the free black reached from the i-th free white along colors c and 0.

    matches maps matched whites to their blacks; free whites are taken in
    increasing order.  The walk leaves a white by its color-c edge and
    comes back by a color-0 edge until it lands on an unmatched black.
    """
    k = len(sigmas[0])
    white_of = {b: w for w, b in matches.items()}
    paths = []
    for sig in sigmas:
        row = []
        for w in range(k):
            if w in matches:
                continue
            b = sig[w]
            while b in white_of:
                b = sig[white_of[b]]
            row.append(b)
        paths.append(row)
    return paths


def best_completion_faces(sigmas, matches):
    """Most faces through a free white over every completion of the partial pairing."""
    k = len(sigmas[0])
    free_whites = [w for w in range(k) if w not in matches]
    free_blacks = sorted(set(range(k)) - set(matches.values()))
    best = -1
    for images in itertools.permutations(free_blacks):
        nu = {**matches, **dict(zip(free_whites, images))}
        inv_nu = {b: s for s, b in nu.items()}
        faces = 0
        for sig in sigmas:
            left = set(range(k))
            while left:
                x = min(left)
                cycle = []
                while x in left:
                    left.remove(x)
                    cycle.append(x)
                    x = inv_nu[sig[x]]
                faces += any(w not in matches for w in cycle)
        best = max(best, faces)
    return best


def union_component_count(sigmas, nu):
    """Components of the completed bipartite graph (whites 0..k-1, blacks k..2k-1)."""
    k = len(nu)
    adj = {x: set() for x in range(2 * k)}
    for sig in sigmas:
        for s in range(k):
            adj[s].add(k + sig[s])
            adj[k + sig[s]].add(s)
    for s in range(k):
        adj[s].add(k + nu[s])
        adj[k + nu[s]].add(s)
    seen = set()
    comps = 0
    for start in range(2 * k):
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return comps


def trace_naive(G, T):
    """Sum over every assignment of one index per edge, T the entries of one tensor."""
    k, D, N = G.k, G.D, T.shape[0]
    inv = []
    for sig in G.sigma:
        m = [0] * k
        for s in range(k):
            m[sig[s]] = s
        inv.append(m)
    conj = np.conj(T)
    total = 0j
    for assign in itertools.product(range(N), repeat=D * k):
        idx = lambda c, s: assign[c * k + s]
        term = 1 + 0j
        for s in range(k):
            term *= T[tuple(idx(c, s) for c in range(D))]
        for t in range(k):
            term *= conj[tuple(idx(c, inv[c][t]) for c in range(D))]
        total += term
    return total


def trace_einsum(G, T):
    """One np.einsum over every vertex: T at each white, conj(T) at each black, an index per edge."""
    k = G.k
    operands = []
    for s in range(k):
        operands += [T, [c * k + s for c in range(G.D)]]
    for t in range(k):
        operands += [np.conj(T), [c * k + G.sigma[c].index(t) for c in range(G.D)]]
    # optimize=True caps every intermediate at the largest operand, so a D = 5
    # graph at N = 4 ran as one sum over all its operands (about 20 s); the
    # "optimal" path search takes seconds itself on 8 operands
    return np.einsum(*operands, [], optimize=("greedy", 2**16))


def cube_trace_two_products(H):
    """Tr(H^3) of each matrix of a stack of Hermitian H = S + iK, as the sum of S o (S^2 - 3 K^2).

    S is symmetric and K antisymmetric, so Tr(S^2 K) and Tr(K^3) vanish
    and Tr(H^3) = Tr(S^3) - 3 Tr(S K^2): two real products, S S and K K.
    """
    S, K = H.real, H.imag
    return np.sum(S * (S @ S - 3 * (K @ K)), axis=(-2, -1))


def per_sample_traces(graphs, kind, N, samples, rng):
    """Product of the graphs' traces on each of `samples` draws.

    All samples come from one draw call, and each is contracted on its own
    as a one-sample slice of it, so no block of several samples is involved.
    Every member is contracted here, while the sampling loop reads the
    trace of a member equal to an earlier one, or to its conjugate, from
    that member and multiplies whole blocks: for a family of more than one
    member the two agree to rounding (rel 1e-12), not bit for bit.
    """
    from traceinv import family_of
    from traceinv.sampling import _batch_trace, _draw_batch, _read_run

    _read_run(family_of(graphs), kind, [N], samples, 0, 1)  # refused as a run of the sampler is; rng stands for the seed
    batch = _draw_batch(kind, graphs[0].D, N, samples, rng)
    vals = np.ones(samples, dtype=complex)
    for i in range(samples):
        for g in graphs:
            vals[i] *= _batch_trace(g, batch[i : i + 1])[0]
    return vals


def limit_moments_reference(mu_c, p, regime):
    """(cumulant, moment) of order p of the limit law of mean mu_c, by each regime's closed form.

    exponential: Gamma(1, scale mu_c), cumulant (p-1)! mu_c^p and moment
    p! mu_c^p; gamma: Gamma(1/2, scale 2 mu_c), cumulant (p-1)!/2 (2 mu_c)^p
    and moment (2p-1)!! mu_c^p.
    """
    mu = Fraction(mu_c)
    if regime == "exponential":
        return math.factorial(p - 1) * mu**p, math.factorial(p) * mu**p
    double_fact = Fraction(math.factorial(2 * p), 2**p * math.factorial(p))
    return Fraction(math.factorial(p - 1), 2) * (2 * mu) ** p, double_fact * mu**p


def annealed_reference(regime, mu_c, Lambda, D, k):
    """(alpha, beta, alpha_inf, beta_inf) in 40-digit mpmath, as floats.

    The limit law is Gamma(s, scale mu_c), s = 1 (exponential) or 1/2
    (gamma), and beta = -1/2 E[ln max(X, Lambda^-2)].  With U = X / mu_c
    and c = Lambda^-2 / mu_c the expectation is split at c = 1, because a
    quadrature over [c, inf) with a tiny c misses the mass near 0.
    """
    with mp.workdps(40):
        s = {"exponential": mp.mpf(1), "gamma": mp.mpf(1) / 2}[regime]
        ln_mu = mp.log(mp.mpf(mu_c))
        ln_c = -2 * mp.log(mp.mpf(Lambda)) - ln_mu
        c = mp.exp(ln_c)

        def lower(u):
            return mp.gammainc(s, 0, u, regularized=True)

        if c <= 1:
            e = mp.digamma(s) + mp.quad(lambda t: 2 * lower(t * t) / t, [0, mp.sqrt(c)])
        else:
            e = ln_c + mp.quad(lambda u: mp.gammainc(s, u, mp.inf, regularized=True) / u, [c, mp.inf])
        half = mp.mpf(D * k) / 2
        coeffs = (half * (1 + lower(c)), -(ln_mu + e) / 2, half, -(ln_mu + mp.digamma(s)) / 2)
        return tuple(float(x) for x in coeffs)
