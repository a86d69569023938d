"""Seeded tensor sampling, numeric trace evaluation, and the entropy experiments.

Gaussian tensors have i.i.d. complex entries of variance 1/N^D; Haar
tensors are Gaussian draws normalized to the unit sphere.  Draws are
reproducible for a fixed seed independently of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from . import perms
from .graphs import ColoredGraph, GraphFamily, conjugate, family_of, graph_stats
from .moments import gaussian_moment
from .search import BudgetError, DEFAULT_KMAX, mst_pair_f0, search_f0

DEFAULT_TRACE_CAP = 2**26  # complex entries per intermediate tensor
BATCH_ENTRY_CAP = 2**22  # complex entries per operand in batched evaluation
ZERO_FLOOR = 1e-300  # |Tr| below this counts as a zero of the invariant
EULER_GAMMA = 0.5772156649015328606


class MemoryCapError(ValueError):
    """Raised when a contraction would exceed the configured memory cap."""


@dataclass(eq=False)
class DenseTensor:
    D: int
    N: int
    entries: np.ndarray  # complex, shape (N,) * D

    def __post_init__(self):
        expected = (self.N,) * self.D
        if self.entries.shape != expected:
            raise ValueError(f"entries shape {self.entries.shape} != {expected}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))


def make_rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def sample_tensor(kind: str, D: int, N: int, rng: np.random.Generator) -> DenseTensor:
    """One Gaussian or Haar tensor draw."""
    if N < 2:
        raise ValueError("need N >= 2")
    entries = _draw_batch(kind, D, N, 1, rng)[0]
    return DenseTensor(D=D, N=N, entries=entries)


def _draw_batch(kind, D, N, count, rng) -> np.ndarray:
    """count tensors, shape (count,) + (N,)*D; one RNG row per sample."""
    m = N**D
    raw = rng.standard_normal((count, 2 * m))
    z = (raw[:, :m] + 1j * raw[:, m:]) / math.sqrt(2 * m)
    if kind == "haar":
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
    elif kind != "gaussian":
        raise ValueError(f"unknown tensor kind {kind!r}")
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


def _contraction_plan(G: ColoredGraph):
    """Greedy pairwise contraction order for the vertex tensors of G.

    Repeatedly merges the pair of nodes whose intermediate has the fewest
    open indices, ties broken by lowest vertex labels.  Returns
    (is_black flags, steps, max open index count); each step is
    (i, j, labels_i, labels_j, labels_out) against the evolving node list.
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
    return [is_black for _, _, is_black in ops], steps, max_open


def _pair_contract(a, lab_a, b, lab_b, lab_out, batched):
    """Contract two operands over their shared labels via batched matmul."""
    shared = [l for l in lab_a if l in set(lab_b)]
    keep_a = [l for l in lab_a if l not in shared]
    keep_b = [l for l in lab_b if l not in shared]
    off = 1 if batched else 0
    pos_a = {l: i + off for i, l in enumerate(lab_a)}
    pos_b = {l: i + off for i, l in enumerate(lab_b)}
    n = a.shape[-1] if lab_a or lab_b else 1
    B = a.shape[0] if batched else 1
    at = np.transpose(a, list(range(off)) + [pos_a[l] for l in keep_a] + [pos_a[l] for l in shared])
    bt = np.transpose(b, list(range(off)) + [pos_b[l] for l in shared] + [pos_b[l] for l in keep_b])
    am = at.reshape(B, n ** len(keep_a), n ** len(shared))
    bm = bt.reshape(B, n ** len(shared), n ** len(keep_b))
    cm = am @ bm
    shape = ((B,) if batched else ()) + (n,) * len(lab_out)
    return cm.reshape(shape)


def _run_plan(arrays, steps, N, memory_cap, batched):
    """Execute a contraction plan; arrays may carry a leading batch axis."""
    arrays = list(arrays)
    for i, j, lab_i, lab_j, lab_out in steps:
        if N ** len(lab_out) > memory_cap:
            raise MemoryCapError(
                f"intermediate with {len(lab_out)} open indices needs "
                f"{N ** len(lab_out)} entries, cap is {memory_cap}"
            )
        arrays[i] = _pair_contract(arrays[i], lab_i, arrays[j], lab_j, lab_out, batched)
        del arrays[j]
    if batched:
        out = np.ones(arrays[0].shape[0], dtype=complex)
        for arr in arrays:
            out = out * arr.reshape(arr.shape[0])
        return out
    value = complex(1)
    for arr in arrays:
        # disconnected components finish as independent scalars
        value *= complex(arr)
    return value


def evaluate_trace(G: ColoredGraph, S: DenseTensor, memory_cap: int = DEFAULT_TRACE_CAP) -> complex:
    """Contract the trace-invariant of G on the sample S.

    Deterministic greedy pairwise contraction; refuses if an intermediate
    would exceed the memory cap.
    """
    if S.D != G.D:
        raise ValueError(f"tensor has D={S.D}, graph has D={G.D}")
    is_black, steps, _ = _contraction_plan(G)
    conj_entries = np.conj(S.entries)
    arrays = [conj_entries if black else S.entries for black in is_black]
    return _run_plan(arrays, steps, S.N, memory_cap, batched=False)


def _batch_trace(G: ColoredGraph, batch: np.ndarray, memory_cap: int = DEFAULT_TRACE_CAP) -> np.ndarray:
    """Trace of G on every sample of a batch, shape (B,) + (N,)*D.

    Follows the same greedy order as evaluate_trace, chunking the batch so
    intermediates stay within the entry budget.
    """
    N = batch.shape[-1]
    is_black, steps, max_open = _contraction_plan(G)
    chunk = max(1, BATCH_ENTRY_CAP // N**max_open)
    total = batch.shape[0]
    out = np.empty(total, dtype=complex)
    for start in range(0, total, chunk):
        part = batch[start : start + chunk]
        conj = np.conj(part)
        arrays = [conj if black else part for black in is_black]
        out[start : start + len(part)] = _run_plan(arrays, steps, N, memory_cap, batched=True)
    return out


def _batch_size(N: int, D: int, samples: int) -> int:
    return max(1, min(samples, BATCH_ENTRY_CAP // N**D))


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
    if samples < 2:
        raise ValueError("need at least 2 samples")
    D = family.D
    rng = make_rng(seed)
    vals = np.empty(samples, dtype=complex)
    done = 0
    bsize = _batch_size(N, D, samples)
    while done < samples:
        b = min(bsize, samples - done)
        batch = _draw_batch(kind, D, N, b, rng)
        prod = np.ones(b, dtype=complex)
        for g in family.graphs():
            prod *= _batch_trace(g, batch)
        vals[done : done + b] = prod
        done += b
    mean = complex(vals.mean())
    stderr = float(np.sqrt((np.abs(vals - mean) ** 2).sum() / (samples - 1)) / math.sqrt(samples))
    return MCEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


def renyi_entropy(G: ColoredGraph, S: DenseTensor, floor: float = ZERO_FLOOR) -> float:
    """-ln |Tr_G|; +inf when the trace vanishes below the floor."""
    a = abs(evaluate_trace(G, S))
    if a < floor:
        return math.inf
    return -math.log(a)


def regularized_entropy(H: ColoredGraph, S: DenseTensor, Lambda: float, N: int) -> float:
    """Entropy capped at (D k /2) ln N + ln Lambda; always finite."""
    if Lambda <= 0:
        raise ValueError("need Lambda > 0")
    cap = 0.5 * H.D * H.k * math.log(N) + math.log(Lambda)
    return min(renyi_entropy(H, S), cap)


@dataclass(frozen=True)
class QuenchedReport:
    value: float
    method: str  # "exact" | "mst-leading"


def quenched_entropy(H: ColoredGraph, N: int, kmax: Optional[int] = None, workers: int = 1) -> QuenchedReport:
    """Quenched average -1/2 ln <Tr_{H union conj(H)}> at numeric N.

    Exact when the pair fits in the enumeration budget; for larger
    maximally single-trace graphs only the leading ln N coefficient is
    available (the subleading constant needs the connected multiplicity).
    """
    limit = DEFAULT_KMAX if kmax is None else int(kmax)
    pair = family_of([H, conjugate(H)], names=["H", "Hbar"])
    if 2 * H.k <= limit:
        poly = gaussian_moment(pair, kmax=limit)
        val = poly.eval_at(N)
        return QuenchedReport(value=-0.5 * math.log(float(val)), method="exact")
    if graph_stats(H).is_mst:
        rep = mst_pair_f0(H, kmax=limit, workers=workers)
        s_union = rep.f0_union - 2 * H.D * H.k
        return QuenchedReport(value=-0.5 * s_union * math.log(N), method="mst-leading")
    raise BudgetError(
        f"quenched average needs enumeration over S_{2 * H.k} (budget {limit}) "
        "and the graph is not maximally single-trace"
    )


def sphere_min_sample(G: ColoredGraph, N: int, samples: int, seed: int) -> float:
    """Smallest |Tr_G| over Haar draws: a non-rigorous upper bound on the
    sphere minimum, offered as a diagnostic only."""
    rng = make_rng(seed)
    best = math.inf
    done = 0
    bsize = _batch_size(N, G.D, samples)
    while done < samples:
        b = min(bsize, samples - done)
        batch = _draw_batch("haar", G.D, N, b, rng)
        best = min(best, float(np.abs(_batch_trace(G, batch)).min()))
        done += b
    return best


def quenched_annealed_report(
    H: ColoredGraph,
    N: int,
    regime: str,
    mu_c: float,
    Lambda: float,
    kmax: Optional[int] = None,
    workers: int = 1,
) -> dict:
    """Juxtapose the quenched average with the annealed estimates at N.

    The regularized annealed line is alpha ln N + beta, its unregularized
    limit alpha_inf ln N + beta_inf; no claim is made about exchanging the
    two limits.
    """
    quenched = quenched_entropy(H, N, kmax=kmax, workers=workers)
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
    workers: int = 1,
) -> ConcentrationReport:
    """Empirical coverage of ||Tr|/(mu N^s) - 1| < epsilon per N.

    The reference scale comes from the exact leading order of the Gaussian
    moment.  Assumes the graph satisfies the factorization criterion; the
    coverage trend is reported, not enforced.
    """
    rep = search_f0(G, kmax=kmax, workers=workers, prune=True)
    s = rep.f0_max - G.D * G.k
    mu = rep.multiplicity
    rows = []
    for N in Ns:
        rng = make_rng([seed, int(N)])
        scale = mu * float(N) ** s
        hit = 0
        done = 0
        bsize = _batch_size(N, G.D, samples)
        while done < samples:
            b = min(bsize, samples - done)
            batch = _draw_batch(kind, G.D, N, b, rng)
            tr = _batch_trace(G, batch)
            hit += int(np.count_nonzero(np.abs(np.abs(tr) / scale - 1.0) < epsilon))
            done += b
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
    workers: int = 1,
) -> EntropyReport:
    """Fit of the mean entropy against ln N, with its exact reference line."""
    Ns = [int(n) for n in Ns]
    if len(Ns) < 3:
        raise ValueError("need at least 3 values of N for the fit")
    rep = search_f0(G, kmax=kmax, workers=workers, prune=True)
    rows = []
    for N in Ns:
        rng = make_rng([seed, N])
        vals = np.empty(samples, dtype=float)
        done = 0
        bsize = _batch_size(N, G.D, samples)
        while done < samples:
            b = min(bsize, samples - done)
            batch = _draw_batch(kind, G.D, N, b, rng)
            tr = np.abs(_batch_trace(G, batch))
            vals[done : done + b] = -np.log(np.maximum(tr, ZERO_FLOOR))
            done += b
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


def _limit_density(regime: str, mu: float):
    """Density of the rescaled-invariant limit law, plus near-zero pieces.

    Returns (rho, mass_below, lnx_piece) where mass_below(a) integrates rho
    on [0, a] and lnx_piece(a, b) integrates rho(x) ln x on [a, b] with the
    x = t^2 substitution that removes the gamma-regime root singularity.
    """
    if regime == "exponential":
        def rho(x):
            return math.exp(-x / mu) / mu
    elif regime == "gamma":
        def rho(x):
            return math.exp(-x / mu) / math.sqrt(math.pi * mu * x)
    else:
        raise ValueError(f"unknown regime {regime!r}")

    def smooth(t):  # 2 t rho(t^2), finite at t = 0 in both regimes
        if regime == "exponential":
            return 2.0 * t * math.exp(-t * t / mu) / mu
        return 2.0 * math.exp(-t * t / mu) / math.sqrt(math.pi * mu)

    def mass_below(a):
        val, err = quad(smooth, 0.0, math.sqrt(a))
        _check_quad(err)
        return val

    def lnx_piece(a, b):
        val, err = quad(lambda t: smooth(t) * 2.0 * math.log(t), math.sqrt(a), math.sqrt(b))
        _check_quad(err)
        return val

    return rho, mass_below, lnx_piece


def _check_quad(err):
    if err > 1e-7:
        raise RuntimeError(f"quadrature did not converge (error estimate {err:.2e})")


def annealed_coefficients(
    regime: str, mu_c: float, Lambda: float, D: int, k: int
) -> AnnealedCoefficients:
    """ln N and constant coefficients of the regularized annealed entropy.

    alpha = (Dk/2)(1 + P[X < Lambda^-2]) and beta collects the capped and
    logarithmic pieces of the limit density; alpha_inf and beta_inf are
    their Lambda -> infinity limits, with beta_inf evaluated by quadrature.
    """
    mu = float(mu_c)
    if mu <= 0:
        raise ValueError("need mu_c > 0")
    if Lambda <= 0:
        raise ValueError("need Lambda > 0")
    rho, mass_below, lnx_piece = _limit_density(regime, mu)
    a = Lambda**-2.0
    mass = mass_below(a)
    mid = max(1.0, 2.0 * a)
    tail_ln = lnx_piece(a, mid)
    val, err = quad(lambda x: rho(x) * math.log(x), mid, np.inf, limit=200)
    _check_quad(err)
    tail_ln += val
    alpha = 0.5 * D * k * (1.0 + mass)
    beta = -0.5 * tail_ln + math.log(Lambda) * mass
    full_ln = lnx_piece(0.0, mid)
    val, err = quad(lambda x: rho(x) * math.log(x), mid, np.inf, limit=200)
    _check_quad(err)
    full_ln += val
    return AnnealedCoefficients(
        alpha=alpha,
        beta=beta,
        alpha_inf=0.5 * D * k,
        beta_inf=-0.5 * full_ln,
    )
