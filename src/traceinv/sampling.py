"""Seeded Monte Carlo moments, the entropy experiments and the annealed coefficients.

Gaussian tensors have i.i.d. complex entries of variance 1/N^D; Haar
tensors are Gaussian draws normalized to the unit sphere.  Draws are
reproducible for a fixed seed independently of batching.

Every Monte Carlo experiment runs through one loop, ``_trace_blocks``: it
draws a block of samples small enough to stay in cache, contracts it with
each graph's compiled plan, and hands the block's trace values back.
There is no per-sample entry point: ``mc_moment`` and the experiments are
the public paths, and a single sample is a block of one.

A family whose members are all matrix-like for one split of the colors
(M, M^c) takes a spectral path instead: every color in M has one
permutation alpha and every other color one permutation beta, as in
``cyclic(D, M, k)``, ``two_vertex`` and every D = 2 graph, so the trace
depends only on the singular values of the N^|M| x N^(D-|M|) flattening of
the tensor.  Those are drawn from the bidiagonal beta = 2 Laguerre model of
Dumitriu and Edelman ("Matrix models for beta ensembles", J. Math. Phys.
43, 2002): 2n - 1 gamma variables per sample, n the smaller side of the
flattening, instead of 2 N^D normals.  Every other family runs the full
draw and contraction.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma, gammainc, gammaincc

from . import perms
from .graphs import ColoredGraph, GraphFamily, conjugate, family_of, graph_stats
from .moments import gaussian_moment
from .search import BudgetError, mst_pair_f0, resolve_kmax, search_f0

DEFAULT_TRACE_CAP = 2**26  # complex entries per sample in the draw and in any intermediate
BATCH_ENTRY_CAP = 2**16  # complex entries per array a block of samples holds (1 MiB)
ZERO_FLOOR = 1e-300  # |Tr| below this counts as a zero of the invariant
EULER_GAMMA = 0.5772156649015328606


class MemoryCapError(ValueError):
    """Raised when a contraction would exceed the configured memory cap."""


def make_rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _draw_batch(kind, D, N, count, rng) -> np.ndarray:
    """count tensors, shape (count,) + (N,)*D; one RNG row per sample.  _trace_blocks checks kind."""
    m = N**D
    raw = rng.standard_normal((count, 2 * m))
    z = (raw[:, :m] + 1j * raw[:, m:]) / math.sqrt(2 * m)
    if kind == "haar":
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
    return z.reshape((count,) + (N,) * D)


def _vertex_operands(G: ColoredGraph):
    """(vertex key, edge labels) for each white and black vertex.

    The color-c edge at white s carries label c*k + s; black t sees the
    same label through sigma_c^-1.
    """
    k = G.k
    inv = [perms.inverse(p) for p in G.sigma]
    ops = []
    for s in range(k):
        ops.append(((2 * s,), tuple(c * k + s for c in range(G.D)), False))
    for t in range(k):
        ops.append(((2 * t + 1,), tuple(c * k + inv[c][t] for c in range(G.D)), True))
    return ops


@functools.lru_cache(maxsize=256)
def _contraction_plan(G: ColoredGraph):
    """Greedy pairwise contraction order for the vertex tensors of G.

    Repeatedly merges the pair of nodes whose intermediate has the fewest
    open indices, ties broken by lowest vertex labels.  Returns
    (is_black flags, steps, max open index count); each step is
    (i, j, labels_i, labels_j, labels_out) against the evolving node list.
    Compiled once per graph and cached, so a sampling loop pays for it once.
    """
    ops = _vertex_operands(G)
    nodes = [(key, labels) for key, labels, _ in ops]
    steps = []
    max_open = max(len(l) for _, l in nodes)
    while True:
        best = None
        for i in range(len(nodes)):
            key_i, lab_i = nodes[i]
            set_i = set(lab_i)
            for j in range(i + 1, len(nodes)):
                key_j, lab_j = nodes[j]
                shared = set_i.intersection(lab_j)
                if not shared:
                    continue
                out_ndim = len(lab_i) + len(lab_j) - 2 * len(shared)
                cand = (out_ndim, tuple(sorted(key_i + key_j)))
                if best is None or cand < best[0]:
                    best = (cand, i, j)
        if best is None:
            break
        _, i, j = best
        key_i, lab_i = nodes[i]
        key_j, lab_j = nodes[j]
        shared = set(lab_i) & set(lab_j)
        lab_out = tuple(l for l in lab_i if l not in shared) + tuple(
            l for l in lab_j if l not in shared
        )
        steps.append((i, j, lab_i, lab_j, lab_out))
        nodes[i] = (tuple(sorted(key_i + key_j)), lab_out)
        del nodes[j]
        max_open = max(max_open, len(lab_out))
    return tuple(is_black for _, _, is_black in ops), tuple(steps), max_open


def _buffer(scratch, key, shape):
    """scratch[key] as a complex array of this shape, allocated only when missing or resized."""
    buf = scratch.get(key)
    if buf is None or buf.shape != shape:
        buf = scratch[key] = np.empty(shape, dtype=complex)
    return buf


def _merges(t, lo, hi):
    """Whether axes lo..hi-1 of t merge into one axis without a copy (numpy's reshape rule)."""
    axes = [i for i in range(lo, hi) if t.shape[i] != 1]
    return all(t.strides[i] == t.strides[j] * t.shape[j] for i, j in zip(axes, axes[1:]))


def _as_matrices(x, labels, rows, cols, scratch, key):
    """x with its label axes ordered rows + cols, as a (B, rows, cols) stack of matrices.

    A view when numpy's reshape would give one; otherwise the same C-ordered
    copy, written into scratch[key] instead of fresh memory.
    """
    n = x.shape[-1]
    t = np.transpose(x, [0] + [labels.index(l) + 1 for l in rows + cols])
    shape = (x.shape[0], n ** len(rows), n ** len(cols))
    if _merges(t, 1, 1 + len(rows)) and _merges(t, 1 + len(rows), t.ndim):
        return t.reshape(shape)
    buf = _buffer(scratch, key, shape)
    np.copyto(buf.reshape(t.shape), t)
    return buf


def _pair_contract(a, lab_a, b, lab_b, lab_out, scratch, step):
    """Contract two batched operands over their shared labels via batched matmul.

    Operand copies and the product live in scratch under keys of this step,
    so a loop over equal-sized blocks reuses memory that is already paged in.
    """
    shared = [l for l in lab_a if l in set(lab_b)]
    keep_a = [l for l in lab_a if l not in shared]
    keep_b = [l for l in lab_b if l not in shared]
    am = _as_matrices(a, lab_a, keep_a, shared, scratch, (step, "a"))
    bm = _as_matrices(b, lab_b, shared, keep_b, scratch, (step, "b"))
    cm = np.matmul(am, bm, out=_buffer(scratch, (step, "c"), am.shape[:2] + bm.shape[2:]))
    return cm.reshape((am.shape[0],) + (a.shape[-1],) * len(lab_out))


def _check_cap(G: ColoredGraph, N: int) -> None:
    """Refuse a graph whose draw or a plan intermediate exceeds DEFAULT_TRACE_CAP entries per sample."""
    widest = _contraction_plan(G)[2]  # counts the vertex operands, so the draw too
    if N**widest > DEFAULT_TRACE_CAP:
        raise MemoryCapError(
            f"a tensor with {widest} open indices needs {N**widest} entries "
            f"per sample, cap is {DEFAULT_TRACE_CAP}"
        )


def _batch_trace(G: ColoredGraph, batch: np.ndarray, scratch: Optional[dict] = None) -> np.ndarray:
    """Trace of G on every sample of a batch, shape (B,) + (N,)*D.

    Runs G's greedy plan over the whole batch at once; the caller checks the
    plan against the memory cap.  Intermediates are written into scratch
    (see _pair_contract), which _trace_blocks keeps per graph across blocks;
    the returned traces never alias it.
    """
    is_black, steps, _ = _contraction_plan(G)
    conj = np.conj(batch)
    arrays = [conj if black else batch for black in is_black]
    scratch = {} if scratch is None else scratch
    for step, (i, j, lab_i, lab_j, lab_out) in enumerate(steps):
        arrays[i] = _pair_contract(arrays[i], lab_i, arrays[j], lab_j, lab_out, scratch, step)
        del arrays[j]
    # disconnected components finish as independent traces
    out = np.ones(batch.shape[0], dtype=complex)
    for arr in arrays:
        out = out * arr.reshape(arr.shape[0])
    return out


def _trace_blocks(graphs, kind: str, N: int, samples: int, rng):
    """Product of the graphs' traces on `samples` fresh draws, one block at a time.

    A block holds as many samples as keep every array it touches, the draw
    and the widest plan intermediate alike, within BATCH_ENTRY_CAP complex
    entries (at least one sample), so it is drawn and contracted in cache.
    The draws depend only on rng, not on the block size.  The sample
    count, N and kind are checked, and every plan against the memory cap,
    draw and intermediates alike, before the first draw.  Graphs that are
    all matrix-like for one color split take the spectral path
    (_spectral_blocks) after those checks.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if N < 2:
        raise ValueError("need N >= 2")
    if kind not in ("gaussian", "haar"):
        raise ValueError(f"unknown tensor kind {kind!r}")
    for g in graphs:
        _check_cap(g, N)
    form = _matrix_form(graphs)
    if form is not None:
        yield from _spectral_blocks(kind, graphs[0].D, N, samples, rng, *form)
        return
    widest = max(_contraction_plan(g)[2] for g in graphs)
    block = max(1, BATCH_ENTRY_CAP // N**widest)
    # one scratch per graph, reused by every block: fresh arrays for each
    # block would be paged in anew whenever the allocator hands the freed
    # ones back to the system
    scratch = [{} for _ in graphs]
    for start in range(0, samples, block):
        batch = _draw_batch(kind, graphs[0].D, N, min(block, samples - start), rng)
        prod = _batch_trace(graphs[0], batch, scratch[0])
        for g, work in zip(graphs[1:], scratch[1:]):
            # not in place: numpy's in-place complex multiply rounds a
            # one-element array differently from a longer one
            prod = prod * _batch_trace(g, batch, work)
        yield prod


def _matrix_form(graphs):
    """(|M|, cycle lengths) when every graph is matrix-like for one color split (M, M^c), else None.

    A graph is matrix-like for the split when every color in M has one
    permutation alpha and every other color one permutation beta.  Its
    trace is then the product, over the cycles l of alpha^-1 beta, of
    Tr[(X X^dagger)^l], X the N^|M| x N^(D-|M|) flattening of the tensor;
    the lengths of all graphs are listed together, since their traces
    multiply.  M holds color 0.  A graph whose colors all share one
    permutation fits every split; a family of only those takes M = {0}.
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
        cycles = perms.cycles(perms.compose(perms.inverse(g.sigma[0]), g.sigma[beta_color]))
        lengths += [len(c) for c in cycles]
    return len(split), lengths


def _power_sums(d, e, top):
    """[Tr (B B^T)^l for l = 1..top], B lower bidiagonal with squared diagonal d and squared subdiagonal e.

    d is (count, n) and e (count, n - 1).  B B^T is tridiagonal, with
    diagonal d_i + e_(i-1) and off-diagonal sqrt(d_i e_i), so its powers are
    banded: band[:, top + o, c] holds (B B^T)^j [c - o, c].  Every term is
    positive, so nothing cancels.
    """
    count, n = d.shape
    diag = d.copy()
    diag[:, 1:] += e
    off = np.sqrt(d[:, :-1] * e)[:, None, :]
    band = np.zeros((count, 2 * top + 1, n))
    band[:, top] = 1.0
    sums = []
    for _ in range(top):
        band, prev = band * diag[:, None, :], band
        band[:, 1:, 1:] += prev[:, :-1, :-1] * off
        band[:, :-1, :-1] += prev[:, 1:, 1:] * off
        sums.append(band[:, top].sum(axis=1))
    return sums


def _spectral_blocks(kind, D, N, samples, rng, rows, lengths):
    """Product of Tr[(X X^dagger)^l] over lengths on `samples` fresh draws, one block at a time.

    X is the n x m flattening of a Gaussian or Haar tensor with N^rows
    rows, n <= m its smaller side.  The eigenvalues of X X^dagger, in units
    of one entry's variance, are those of B B^T for the lower bidiagonal B
    of the beta = 2 Laguerre model (Dumitriu and Edelman, J. Math. Phys. 43,
    2002): B_ii^2 ~ Gamma(m - i) and B_(i+1,i)^2 ~ Gamma(n - 1 - i), all
    independent.  Each sample draws its 2n - 1 gammas as one row, so the
    stream does not depend on the block size.  Gaussian rows are scaled by
    the entry variance 1/N^D; Haar rows by 1/Tr(X X^dagger), their sum,
    which divides the product by p_1^(total k).  A block holds as many
    samples as keep the band powers of _power_sums within BATCH_ENTRY_CAP
    entries.
    """
    small = min(rows, D - rows)
    n, m = N**small, N ** (D - small)
    shapes = np.concatenate([m - np.arange(n), n - 1 - np.arange(n - 1)]).astype(float)
    top = max(lengths)
    block = max(1, BATCH_ENTRY_CAP // (n * (2 * top + 1)))
    for start in range(0, samples, block):
        g = rng.standard_gamma(shapes, size=(min(block, samples - start), 2 * n - 1))
        g /= g.sum(axis=1, keepdims=True) if kind == "haar" else N**D
        sums = _power_sums(g[:, :n], g[:, n:], top)
        prod = np.ones(len(g))
        for l in lengths:
            prod = prod * sums[l - 1]
        yield prod


@dataclass(frozen=True)
class MCEstimate:
    mean: complex
    stderr: float
    samples: int
    seed: int


def mc_moment(
    family: GraphFamily, kind: str, N: int, samples: int, seed: int
) -> MCEstimate:
    """Sample mean of the product of the member traces over fresh draws."""
    vals = np.concatenate(list(_trace_blocks(family.graphs(), kind, N, samples, make_rng(seed))))
    mean = complex(vals.mean())
    stderr = float(np.sqrt((np.abs(vals - mean) ** 2).sum() / (samples - 1)) / math.sqrt(samples))
    return MCEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


@dataclass(frozen=True)
class QuenchedReport:
    value: float
    method: str  # "exact" | "mst-leading"


def quenched_entropy(H: ColoredGraph, N: int, kmax: Optional[int] = None) -> QuenchedReport:
    """Quenched average -1/2 ln <Tr_{H union conj(H)}> at numeric N.

    Exact when the pair fits in the enumeration budget; for larger
    maximally single-trace graphs only the leading ln N coefficient is
    available (the subleading constant needs the connected multiplicity).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    limit = resolve_kmax(kmax)
    pair = family_of([H, conjugate(H)], names=["H", "Hbar"])
    if 2 * H.k <= limit:
        val = gaussian_moment(pair, kmax=limit).eval_at(N)
        if float(val) >= sys.float_info.min:
            ln_val = math.log(float(val))
        else:  # float(val) would lose val: scale it into [1/2, 2) by a power of two first
            e = val.numerator.bit_length() - val.denominator.bit_length()
            ln_val = math.log(val * 2**-e) + e * math.log(2)
        return QuenchedReport(value=-0.5 * ln_val, method="exact")
    if graph_stats(H).is_mst:
        rep = mst_pair_f0(H, kmax=limit)
        s_union = rep.f0_union - 2 * H.D * H.k
        return QuenchedReport(value=-0.5 * s_union * math.log(N), method="mst-leading")
    raise BudgetError(
        f"quenched average needs enumeration over S_{2 * H.k} (budget {limit}) "
        "and the graph is not maximally single-trace"
    )


def quenched_annealed_report(
    H: ColoredGraph,
    N: int,
    regime: str,
    mu_c: float,
    Lambda: float,
    kmax: Optional[int] = None,
) -> dict:
    """Juxtapose the quenched average with the annealed estimates at N.

    The regularized annealed line is alpha ln N + beta, its unregularized
    limit alpha_inf ln N + beta_inf; no claim is made about exchanging the
    two limits.
    """
    quenched = quenched_entropy(H, N, kmax=kmax)
    coeffs = annealed_coefficients(regime, mu_c, Lambda, H.D, H.k)
    ln_n = math.log(N)
    return {
        "N": N,
        "quenched": quenched.value,
        "quenched_method": quenched.method,
        "annealed_regularized": coeffs.alpha * ln_n + coeffs.beta,
        "annealed_limit": coeffs.alpha_inf * ln_n + coeffs.beta_inf,
        "alpha": coeffs.alpha,
        "beta": coeffs.beta,
        "alpha_inf": coeffs.alpha_inf,
        "beta_inf": coeffs.beta_inf,
    }


@dataclass(frozen=True)
class ConcentrationReport:
    rows: tuple  # (N, coverage)
    epsilon: float
    samples: int
    seed: int
    s_exponent: int
    mu: int
    envelope_constant: float  # mean of (1 - coverage) * N, the O(1/N) fit

    def to_json_dict(self) -> dict:
        return {
            "rows": [{"N": n, "coverage": c} for n, c in self.rows],
            "epsilon": self.epsilon,
            "samples": self.samples,
            "seed": self.seed,
            "s": self.s_exponent,
            "mu": self.mu,
            "envelope_constant": self.envelope_constant,
        }


def concentration_experiment(
    G: ColoredGraph,
    Ns,
    epsilon: float,
    samples: int,
    seed: int,
    kind: str = "haar",
    kmax: Optional[int] = None,
) -> ConcentrationReport:
    """Empirical coverage of ||Tr|/(mu N^s) - 1| < epsilon per N.

    The reference scale comes from the exact leading order of the Gaussian
    moment.  Assumes the graph satisfies the factorization criterion; the
    coverage trend is reported, not enforced.  epsilon must be finite and
    > 0: at 0 or below every coverage is 0, at infinity every one is 1.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"need a finite epsilon > 0, got {epsilon!r}")
    rep = search_f0(G, kmax=kmax, prune=True)
    s = rep.f0_max - G.D * G.k
    mu = rep.multiplicity
    rows = []
    for N in Ns:
        scale = mu * float(N) ** s
        blocks = _trace_blocks([G], kind, int(N), samples, make_rng([seed, int(N)]))
        hit = sum(int(np.count_nonzero(np.abs(np.abs(tr) / scale - 1.0) < epsilon)) for tr in blocks)
        rows.append((int(N), hit / samples))
    envelope = float(np.mean([(1.0 - c) * n for n, c in rows]))
    return ConcentrationReport(
        rows=tuple(rows),
        epsilon=epsilon,
        samples=samples,
        seed=seed,
        s_exponent=s,
        mu=mu,
        envelope_constant=envelope,
    )


@dataclass(frozen=True)
class EntropyReport:
    rows: tuple  # (N, mean entropy, stderr)
    slope: float
    intercept: float
    slope_expected: int  # D k - F0max
    intercept_expected: float  # -ln(multiplicity)
    samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "rows": [{"N": n, "mean": m, "stderr": e} for n, m, e in self.rows],
            "slope": self.slope,
            "intercept": self.intercept,
            "slope_expected": self.slope_expected,
            "intercept_expected": self.intercept_expected,
            "samples": self.samples,
            "seed": self.seed,
        }


def entropy_slope_experiment(
    G: ColoredGraph,
    Ns,
    samples: int,
    seed: int,
    kind: str = "haar",
    kmax: Optional[int] = None,
) -> EntropyReport:
    """Fit of the mean entropy against ln N, with its exact reference line."""
    Ns = [int(n) for n in Ns]
    if len(set(Ns)) < 3:
        raise ValueError(f"need at least 3 values of N for the fit, all distinct, got {Ns}")
    rep = search_f0(G, kmax=kmax, prune=True)
    rows = []
    for N in Ns:
        blocks = _trace_blocks([G], kind, N, samples, make_rng([seed, N]))
        vals = np.concatenate([-np.log(np.maximum(np.abs(tr), ZERO_FLOOR)) for tr in blocks])
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(samples))
        rows.append((N, mean, stderr))
    x = np.log([n for n, _, _ in rows])
    y = [m for _, m, _ in rows]
    slope, intercept = np.polyfit(x, y, 1)
    return EntropyReport(
        rows=tuple(rows),
        slope=float(slope),
        intercept=float(intercept),
        slope_expected=G.D * G.k - rep.f0_max,
        intercept_expected=-math.log(rep.multiplicity),
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True)
class AnnealedCoefficients:
    alpha: float
    beta: float
    alpha_inf: float
    beta_inf: float


# shape s of the Gamma(s, scale mu_c) limit law of the rescaled invariant
_LIMIT_SHAPE = {"exponential": 1.0, "gamma": 0.5}


def _check_quad(err):
    if err > 1e-7:
        raise ValueError(f"quadrature did not converge (error estimate {err:.2e})")


def annealed_coefficients(
    regime: str, mu_c: float, Lambda: float, D: int, k: int
) -> AnnealedCoefficients:
    """ln N and constant coefficients of the regularized annealed entropy.

    The rescaled invariant's limit law is Gamma(s, scale mu_c): s = 1 in the
    exponential regime (density e^(-x/mu)/mu, mean mu_c) and s = 1/2 in the
    gamma regime (density e^(-x/mu)/sqrt(pi mu x), mean mu_c/2; there
    limit_moments_prop34 takes Gamma(1/2, scale 2 mu_c), of mean mu_c).
    With U ~ Gamma(s, 1), P its regularized lower incomplete gamma function
    and c = Lambda^-2/mu_c,

        alpha = (Dk/2)(1 + P(s, c)),   beta = -1/2 (ln mu_c + E[ln max(U, c)]),

    and their Lambda -> infinity limits are alpha_inf = Dk/2 and
    beta_inf = -1/2 (ln mu_c + digamma(s)).  E[ln max(U, c)] is one
    quadrature on the unit scale: digamma(s) + int_0^c P(s, u)/u du for
    c <= 1, ln c + int_c^inf Q(s, u)/u du above, Q = 1 - P.
    """
    mu = float(mu_c)
    if not math.isfinite(mu) or mu <= 0:
        raise ValueError(f"need a finite mu_c > 0, got {mu_c!r}")
    if not math.isfinite(Lambda) or Lambda <= 0:
        raise ValueError(f"need a finite Lambda > 0, got {Lambda!r}")
    if D < 2 or k < 1:
        raise ValueError(f"need D >= 2 and k >= 1, got D={D}, k={k}")
    try:
        Lambda**-2.0
    except OverflowError:
        raise ValueError(f"need Lambda^-2 to be finite, got Lambda={Lambda!r}") from None
    if regime not in _LIMIT_SHAPE:
        raise ValueError(f"unknown regime {regime!r}")
    s = _LIMIT_SHAPE[regime]
    psi = float(digamma(s))
    ln_mu = math.log(mu)
    ln_c = -2.0 * math.log(Lambda) - ln_mu  # in logs: c itself may be out of range
    c = math.exp(min(ln_c, 700.0))  # Q(s, e^700) is already 0
    if c <= 1.0:  # u = t^2 keeps the integrand finite at 0
        base, lo, hi = psi, 0.0, math.sqrt(c)
        def integrand(t):
            return 2.0 * gammainc(s, t * t) / t
    else:
        base, lo, hi = ln_c, c, math.inf
        def integrand(u):
            return gammaincc(s, u) / u
    # quad's default epsabs (1.5e-8) leaves errors near 1e-10 in beta
    val, err = quad(integrand, lo, hi, epsabs=1e-13)
    _check_quad(err)
    return AnnealedCoefficients(
        alpha=0.5 * D * k * (1.0 + float(gammainc(s, c))),
        beta=-0.5 * (ln_mu + base + val),
        alpha_inf=0.5 * D * k,
        beta_inf=-0.5 * (ln_mu + psi),
    )
