import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from traceinv import (
    DenseTensor,
    MemoryCapError,
    annealed_coefficients,
    build_graph,
    concentration_experiment,
    conjugate,
    cyclic,
    disjoint_union,
    entropy_slope_experiment,
    evaluate_trace,
    family_of,
    gaussian_moment,
    haar_factor,
    leading_order,
    make_rng,
    mc_moment,
    quenched_entropy,
    regularized_entropy,
    renyi_entropy,
    sample_tensor,
    sphere_min_sample,
    two_vertex,
)
from traceinv import sampling
from traceinv.families import fig7, random_graph
from traceinv.sampling import EULER_GAMMA, _batch_trace, _draw_batch

import oracles


def test_sample_deterministic():
    a = sample_tensor("gaussian", 3, 4, make_rng(11))
    b = sample_tensor("gaussian", 3, 4, make_rng(11))
    assert np.array_equal(a.entries, b.entries)
    assert a.entries.shape == (4, 4, 4)


def test_sample_rejects():
    with pytest.raises(ValueError):
        sample_tensor("gaussian", 3, 1, make_rng(0))
    with pytest.raises(ValueError):
        sample_tensor("uniform", 3, 4, make_rng(0))


def test_gaussian_normalization():
    # mean squared norm is 1 with per-component variance 1/N^D
    batch = _draw_batch("gaussian", 3, 4, 10_000, make_rng(5))
    sq = np.sum(np.abs(batch) ** 2, axis=(1, 2, 3))
    stderr = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - 1.0) < 3 * stderr


def test_haar_unit_norm():
    batch = _draw_batch("haar", 3, 3, 50, make_rng(6))
    norms = np.sqrt(np.sum(np.abs(batch) ** 2, axis=(1, 2, 3)))
    assert np.all(np.abs(norms - 1.0) < 1e-12)


def test_trace_two_vertex_is_squared_norm(twov3):
    S = sample_tensor("gaussian", 3, 3, make_rng(7))
    assert evaluate_trace(twov3, S) == pytest.approx(S.norm() ** 2, rel=1e-12)
    SH = sample_tensor("haar", 3, 3, make_rng(8))
    assert evaluate_trace(twov3, SH) == pytest.approx(1.0, abs=1e-12)


def test_trace_matches_naive_oracle():
    graphs = [
        cyclic(2, {0}, 2),
        cyclic(3, {0}, 2),
        random_graph(2, 3, seed=31),
        random_graph(2, 4, seed=32),
        random_graph(3, 2, seed=33),
    ]
    rng = make_rng(9)
    for g in graphs:
        for N in (2, 3):
            if g.D * g.k > 8 and N > 2:
                continue
            S = sample_tensor("gaussian", g.D, N, rng)
            fast = evaluate_trace(g, S)
            slow = oracles.trace_naive(g, S)
            assert fast == pytest.approx(slow, rel=1e-10)


def test_trace_conjugate_is_conjugate(mst3):
    S = sample_tensor("gaussian", 3, 2, make_rng(12))
    assert evaluate_trace(conjugate(mst3), S) == pytest.approx(
        np.conj(evaluate_trace(mst3, S)), rel=1e-12
    )


def test_trace_pair_is_squared_modulus(mst3, melon2):
    S = sample_tensor("gaussian", 3, 2, make_rng(13))
    for h in (mst3, melon2):
        union, _ = disjoint_union([h, conjugate(h)])
        val = evaluate_trace(union, S)
        single = evaluate_trace(h, S)
        assert val == pytest.approx(abs(single) ** 2, rel=1e-10)
        assert val.imag == pytest.approx(0.0, abs=1e-12)


def test_trace_memory_cap(mst3, monkeypatch):
    S = sample_tensor("gaussian", 3, 4, make_rng(14))
    monkeypatch.setattr(sampling, "DEFAULT_TRACE_CAP", 3)
    with pytest.raises(MemoryCapError):
        evaluate_trace(mst3, S)


def test_batch_trace_matches_single(cyc2_d3, mst3):
    batch = _draw_batch("gaussian", 3, 3, 6, make_rng(15))
    # the union has two components, whose traces multiply at the end
    for g in (cyc2_d3, disjoint_union([mst3, conjugate(mst3)])[0]):
        vals = _batch_trace(g, batch)
        for i in range(6):
            single = evaluate_trace(g, DenseTensor(3, 3, batch[i]))
            assert vals[i] == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("name", ["twov3", "melon2", "cyc2_d3", "pair"])
def test_batch_trace_matches_naive_oracle(request, name):
    # every fixture graph with D*k <= 8, and a two-component union
    if name == "pair":
        g = disjoint_union([two_vertex(3), cyclic(3, {0}, 2)])[0]
    else:
        g = request.getfixturevalue(name)
    batch = _draw_batch("gaussian", g.D, 2, 4, make_rng(16))
    vals = _batch_trace(g, batch)
    for i in range(4):
        assert vals[i] == pytest.approx(oracles.trace_naive(g, DenseTensor(g.D, 2, batch[i])), rel=1e-12)


class RecordingRng:
    """A generator that records the name of every method drawn from it."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


def _record_draws(monkeypatch):
    calls = []
    real = sampling.make_rng
    monkeypatch.setattr(sampling, "make_rng", lambda seed: RecordingRng(real(seed), calls))
    return calls


def test_mc_moment_refuses_over_cap_draw_before_drawing(monkeypatch):
    # two_vertex(3) contracts to a scalar at once, so only its 4^3-entry draw
    # is over the cap; the spectral path would draw 2*4 - 1 gammas instead
    calls = _record_draws(monkeypatch)
    monkeypatch.setattr(sampling, "DEFAULT_TRACE_CAP", 10)
    with pytest.raises(MemoryCapError):
        mc_moment(family_of([two_vertex(3)]), "gaussian", 4, 10, seed=1)
    assert calls == []


def test_mc_moment_refuses_over_cap_plan_before_drawing(monkeypatch):
    # fig7's widest intermediate has 20 open indices: 3^20 entries exceed the cap
    calls = _record_draws(monkeypatch)
    with pytest.raises(MemoryCapError):
        mc_moment(family_of([fig7()]), "gaussian", 3, 2, seed=1)
    assert calls == []


def _cyc_pair():
    cyc = cyclic(3, {0}, 2)
    return [cyc, conjugate(cyc)]


@pytest.mark.parametrize(
    "graphs, form",
    [
        ([cyclic(3, {0}, 2)], (1, [2])),
        ([cyclic(3, {2}, 4)], (2, [4])),  # color 0 sits with the shifted colors
        ([cyclic(4, {0, 1}, 2)], (2, [2])),
        ([cyclic(5, {1, 3}, 3)], (3, [3])),
        ([two_vertex(3)], (1, [1])),
        ([two_vertex(2), two_vertex(2)], (1, [1, 1])),
        ([conjugate(cyclic(3, {0}, 3))], (1, [3])),
        (_cyc_pair(), (1, [2, 2])),
        ([two_vertex(3), cyclic(3, {1}, 3)], (2, [1, 3])),  # a uniform member fits any split
        ([cyclic(2, {0}, 1)], (1, [1])),
    ],
)
def test_matrix_form_of_matrix_like_families(graphs, form):
    assert sampling._matrix_form(graphs) == form


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_matrix_form_of_every_d2_graph(seed):
    g = random_graph(2, 6, seed=seed)
    white_of = {b: s for s, b in enumerate(g.sigma[0])}
    cycles = oracles.cycle_lengths([white_of[b] for b in g.sigma[1]])
    for h in (g, conjugate(g)):
        rows, lengths = sampling._matrix_form([h])
        assert rows == 1 and sorted(lengths) == cycles


MST3 = build_graph(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])  # three distinct permutations


@pytest.mark.parametrize(
    "graphs",
    [
        [MST3],
        [fig7()],
        [cyclic(3, {0}, 2), MST3],  # one member general
        [cyclic(4, {0}, 2), cyclic(4, {1}, 2)],  # matrix-like for two different splits
        [random_graph(3, 4, seed=44)],
    ],
    ids=["mst3", "fig7", "mixed", "two-splits", "random-d3"],
)
def test_matrix_form_refuses_general_families(graphs):
    assert sampling._matrix_form(graphs) is None


def test_only_general_families_draw_full_tensors(monkeypatch, mst3):
    calls = []
    real_draw = sampling._draw_batch
    monkeypatch.setattr(sampling, "_draw_batch", lambda *a: calls.append(a) or real_draw(*a))
    mc_moment(family_of(_cyc_pair()), "gaussian", 4, 10, seed=1)
    assert calls == []
    mixed = [cyclic(3, {0}, 2), mst3]
    est = mc_moment(family_of(mixed), "gaussian", 4, 10, seed=1)
    assert len(calls) == 1
    assert est.mean == pytest.approx(oracles.per_sample_traces(mixed, "gaussian", 4, 10, make_rng(1)).mean(), rel=1e-12)


@pytest.mark.parametrize("n, top", [(2, 1), (3, 4), (6, 7)])
def test_power_sums_match_dense_powers(n, top):
    rng = make_rng(n)
    d, e = rng.gamma(2.0, size=(5, n)), rng.gamma(2.0, size=(5, n - 1))
    sums = sampling._power_sums(d, e, top)
    for i in range(5):
        B = np.diag(np.sqrt(d[i])) + np.diag(np.sqrt(e[i]), -1)
        L = B @ B.T
        for l in range(1, top + 1):
            assert sums[l - 1][i] == pytest.approx(np.trace(np.linalg.matrix_power(L, l)), rel=1e-12)


SPECTRAL_CASES = [
    ("cyclic3", [cyclic(3, {0}, 2)], 4),
    ("cyclic3", [cyclic(3, {0}, 2)], 8),
    ("cyclic3-k3", [cyclic(3, {1}, 3)], 3),
    ("cyclic4", [cyclic(4, {0, 1}, 2)], 3),
    ("pair", _cyc_pair(), 4),
    ("d2", [random_graph(2, 4, seed=45)], 5),
]


@pytest.mark.parametrize("kind", ["gaussian", "haar"])
@pytest.mark.parametrize("name, graphs, N", SPECTRAL_CASES, ids=[f"{c[0]}-N{c[2]}" for c in SPECTRAL_CASES])
def test_spectral_path_matches_exact_moment(name, graphs, N, kind):
    fam = family_of(graphs)
    exact = float(gaussian_moment(fam).eval_at(N))
    if kind == "haar":
        exact *= float(haar_factor(fam.total_k, fam.D, N))
    est = mc_moment(fam, kind, N, 20_000, seed=50 + N)
    assert est.mean.imag == 0.0
    assert abs(est.mean.real - exact) < 4 * est.stderr


@pytest.mark.parametrize("kind", ["gaussian", "haar"])
@pytest.mark.parametrize("name, graphs, N", SPECTRAL_CASES, ids=[f"{c[0]}-N{c[2]}" for c in SPECTRAL_CASES])
def test_spectral_path_matches_full_draw(name, graphs, N, kind):
    # independent samples of both paths: equal means and equal laws
    samples = 1500
    spectral = np.concatenate(list(sampling._trace_blocks(graphs, kind, N, samples, make_rng(60 + N))))
    full = oracles.per_sample_traces(graphs, kind, N, samples, make_rng(70 + N))
    assert np.abs(full.imag).max() < 1e-12 * np.abs(full.real).max()
    full = full.real
    z = (spectral.mean() - full.mean()) / math.sqrt((spectral.var(ddof=1) + full.var(ddof=1)) / samples)
    assert abs(z) < 4
    assert ks_2samp(spectral, full).pvalue > 1e-3


@pytest.mark.parametrize(
    "run",
    [
        lambda g: mc_moment(family_of([g]), "gaussian", 4, 1, seed=1),
        lambda g: mc_moment(family_of([g]), "gaussian", 1, 10, seed=1),
        lambda g: concentration_experiment(g, [4, 8], 0.5, 0, seed=1),
        lambda g: concentration_experiment(g, [4, 8], 0.5, -3, seed=1),
        lambda g: concentration_experiment(g, [1, 8], 0.5, 10, seed=1),
        lambda g: entropy_slope_experiment(g, [2, 4, 8], 1, seed=1),
        lambda g: sphere_min_sample(g, 1, 10, seed=1),
    ],
    ids=["mc-1-sample", "mc-N1", "conc-0-samples", "conc-neg-samples", "conc-N1", "slope-1-sample", "sphere-N1"],
)
def test_sampling_loop_rejects_degenerate_inputs(cyc2_d3, run):
    with pytest.raises(ValueError, match="need"):
        run(cyc2_d3)


def _seeded_results(mst3, cyc):
    # mst3 takes the general path, cyc and its pair the spectral one
    return (
        mc_moment(family_of([mst3]), "gaussian", 4, 300, seed=3),
        mc_moment(family_of([mst3]), "haar", 3, 300, seed=4),
        mc_moment(family_of([mst3, conjugate(mst3)]), "gaussian", 4, 200, seed=5),
        mc_moment(family_of([cyc, conjugate(cyc)]), "haar", 8, 300, seed=10),
        concentration_experiment(cyc, [4, 8, 16], 0.5, 200, seed=6),
        entropy_slope_experiment(cyc, [4, 8, 16], 200, seed=7),
        sphere_min_sample(mst3, 4, 200, seed=8),
    )


def test_seeded_results_do_not_depend_on_block_size(monkeypatch, mst3, cyc2_d3):
    results = []
    for cap in (2**8, 2**16, 2**22):
        monkeypatch.setattr(sampling, "BATCH_ENTRY_CAP", cap)
        results.append(_seeded_results(mst3, cyc2_d3))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("kind", ["gaussian", "haar"])
def test_mc_moment_matches_per_sample_oracle(mst3, kind):
    # general-path families only: the spectral path draws another stream
    for graphs, N in (([mst3], 4), ([mst3, conjugate(mst3)], 3), ([mst3], 8)):
        samples = 150
        est = mc_moment(family_of(graphs), kind, N, samples, seed=N)
        vals = oracles.per_sample_traces(graphs, kind, N, samples, make_rng(N))
        stderr = np.sqrt((np.abs(vals - vals.mean()) ** 2).sum() / (samples - 1) / samples)
        assert est.mean == pytest.approx(vals.mean(), rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)


def test_entropy_slope_matches_per_sample_oracle(mst3):
    rep = entropy_slope_experiment(mst3, [4, 8, 16], 120, seed=9)
    for N, mean, _ in rep.rows:
        vals = oracles.per_sample_traces([mst3], "haar", N, 120, make_rng([9, N]))
        assert mean == pytest.approx(float(np.mean(-np.log(np.abs(vals)))), rel=1e-12)


def test_mc_moment_two_vertex(twov3):
    est = mc_moment(family_of([twov3]), "gaussian", 4, 2000, seed=21)
    assert abs(est.mean - 1.0) < 4 * est.stderr
    again = mc_moment(family_of([twov3]), "gaussian", 4, 2000, seed=21)
    assert est == again


def test_mc_moment_cyclic_d2_matches_exact():
    g = cyclic(2, {0}, 2)
    fam = family_of([g])
    exact = float(gaussian_moment(fam).eval_at(8))
    est = mc_moment(fam, "gaussian", 8, 4000, seed=22)
    assert abs(est.mean - exact) < 4 * est.stderr


def test_mc_moment_haar_matches_haar_factor(mst3):
    fam = family_of([mst3])
    exact = float(haar_factor(3, 3, 3) * gaussian_moment(fam).eval_at(3))
    est = mc_moment(fam, "haar", 3, 4000, seed=23)
    assert abs(est.mean - exact) < 4 * est.stderr


def test_renyi_values(twov3):
    S = sample_tensor("haar", 3, 3, make_rng(24))
    assert renyi_entropy(twov3, S) == pytest.approx(0.0, abs=1e-12)
    scaled = DenseTensor(3, 3, S.entries * math.exp(-0.5))
    assert renyi_entropy(twov3, scaled) == pytest.approx(1.0, abs=1e-12)
    zero = DenseTensor(3, 3, np.zeros((3, 3, 3), dtype=complex))
    assert renyi_entropy(twov3, zero) == math.inf


def test_renyi_pair_doubles(mst3):
    S = sample_tensor("haar", 3, 2, make_rng(25))
    union, _ = disjoint_union([mst3, conjugate(mst3)])
    assert renyi_entropy(union, S) == pytest.approx(2 * renyi_entropy(mst3, S), rel=1e-9)


def test_regularized_entropy(twov3):
    S = sample_tensor("haar", 3, 2, make_rng(26))
    # R = 0 stays below any positive cap
    assert regularized_entropy(twov3, S, Lambda=5.0) == pytest.approx(0.0, abs=1e-12)
    zero = DenseTensor(6, 2, np.zeros((2,) * 6, dtype=complex))
    H = fig7()
    cap = 27 * math.log(2)
    assert regularized_entropy(H, zero, Lambda=1.0) == pytest.approx(cap)
    with pytest.raises(ValueError):
        regularized_entropy(twov3, S, Lambda=0.0)


def test_quenched_two_vertex(twov3):
    for N in (2, 4, 8):
        rep = quenched_entropy(twov3, N)
        assert rep.method == "exact"
        assert rep.value == pytest.approx(-0.5 * math.log(1 + N**-3))


def test_quenched_mst3_exact(mst3):
    pair = family_of([mst3, conjugate(mst3)])
    poly = gaussian_moment(pair)
    rep = quenched_entropy(mst3, 4)
    assert rep.method == "exact"
    assert rep.value == pytest.approx(-0.5 * math.log(float(poly.eval_at(4))))


def test_quenched_exact_below_the_float_range():
    # the moment is about 9 N^-8: at N = 10^400 it is far below the smallest float
    H = random_graph(3, 4, seed=1)
    lead = leading_order(gaussian_moment(family_of([H, conjugate(H)])))
    N = 10**400
    rep = quenched_entropy(H, N)
    assert rep.method == "exact"
    assert rep.value == pytest.approx(-0.5 * (lead.s * math.log(N) + math.log(lead.mu)), rel=1e-12)


def test_quenched_fig7_leading():
    H = fig7()
    rep = quenched_entropy(H, 16, kmax=9)
    assert rep.method == "mst-leading"
    assert rep.value == pytest.approx(27 * math.log(16))


def test_quenched_budget_error(melon2):
    with pytest.raises(Exception, match="single-trace"):
        quenched_entropy(melon2, 4, kmax=2)


def test_concentration_two_vertex(twov3):
    rep = concentration_experiment(twov3, [2, 4], epsilon=0.5, samples=200, seed=27)
    assert all(c == 1.0 for _, c in rep.rows)


def test_concentration_tiny_epsilon(cyc2_d3):
    rep = concentration_experiment(cyc2_d3, [4], epsilon=1e-9, samples=300, seed=28)
    assert rep.rows[0][1] < 0.05


def test_entropy_slope_two_vertex(twov3):
    rep = entropy_slope_experiment(twov3, [2, 4, 8], samples=50, seed=29)
    assert rep.slope == pytest.approx(0.0, abs=1e-9)
    assert rep.intercept == pytest.approx(0.0, abs=1e-9)
    assert rep.slope_expected == 0 and rep.intercept_expected == 0.0


def test_entropy_slope_needs_three_points(twov3):
    with pytest.raises(ValueError, match="3 values"):
        entropy_slope_experiment(twov3, [2, 4], samples=10, seed=30)


@pytest.mark.parametrize("Ns", [[2, 2, 2], [4, 2, 4], [2, 4, 2, 4]])
def test_entropy_slope_needs_three_distinct_points(twov3, Ns):
    with pytest.raises(ValueError, match="distinct"):
        entropy_slope_experiment(twov3, Ns, samples=10, seed=30)


def test_annealed_exponential_closed_forms():
    rep = annealed_coefficients("exponential", 1.0, 1.0, 6, 9)
    assert rep.alpha == pytest.approx(27 * (2 - math.exp(-1)), abs=1e-8)
    assert rep.alpha_inf == 27.0
    assert rep.beta_inf == pytest.approx(EULER_GAMMA / 2, abs=1e-8)


def test_annealed_beta_inf_both_regimes():
    for mu in (1.0, 2.0, 5.0):
        rep = annealed_coefficients("exponential", mu, 10.0, 2, 1)
        assert rep.beta_inf == pytest.approx(-0.5 * (math.log(mu) - EULER_GAMMA), abs=1e-6)
        rep = annealed_coefficients("gamma", mu, 10.0, 2, 1)
        expected = -0.5 * (math.log(mu) - EULER_GAMMA - 2 * math.log(2))
        assert rep.beta_inf == pytest.approx(expected, abs=1e-6)


def test_annealed_lambda_tail_monotone():
    prev_alpha, prev_beta_gap = math.inf, math.inf
    rep_inf = annealed_coefficients("exponential", 1.0, 1000.0, 6, 9)
    for lam in (1.0, 10.0, 100.0, 1000.0):
        rep = annealed_coefficients("exponential", 1.0, lam, 6, 9)
        assert rep.alpha < prev_alpha
        assert rep.alpha > rep.alpha_inf
        gap = abs(rep.beta - rep.beta_inf)
        assert gap < prev_beta_gap or gap < 1e-6
        prev_alpha, prev_beta_gap = rep.alpha, gap
    assert rep_inf.alpha == pytest.approx(27.0, abs=1e-4)


@pytest.mark.parametrize("regime", ["exponential", "gamma"])
@pytest.mark.parametrize("mu_c", [1e-300, 1e-20, 1e-3, 1.0, 7.0, 1e20, 1e300])
@pytest.mark.parametrize("Lambda", [1e-150, 1e-3, 1.0, 10.0, 1e20, 1e300])
def test_annealed_matches_the_mpmath_reference(regime, mu_c, Lambda):
    rep = annealed_coefficients(regime, mu_c, Lambda, 6, 9)
    got = (rep.alpha, rep.beta, rep.alpha_inf, rep.beta_inf)
    for value, ref in zip(got, oracles.annealed_reference(regime, mu_c, Lambda, 6, 9)):
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


def test_sphere_min_sample_two_vertex(twov3):
    # |Tr| = 1 on the whole sphere, so the sampled minimum is exactly 1
    from traceinv import sphere_min_sample

    assert sphere_min_sample(twov3, 3, 50, seed=33) == pytest.approx(1.0, abs=1e-12)
    val = sphere_min_sample(cyclic(3, {0}, 2), 3, 100, seed=34)
    assert 0 < val < 1


def test_quenched_annealed_report(twov3):
    from traceinv import quenched_annealed_report

    rep = quenched_annealed_report(twov3, 8, "exponential", 1.0, 10.0)
    assert rep["quenched_method"] == "exact"
    assert rep["annealed_regularized"] == pytest.approx(
        rep["alpha"] * math.log(8) + rep["beta"]
    )
    assert rep["alpha_inf"] == 1.5  # D k / 2


@pytest.mark.parametrize(
    "mu_c, Lambda, D, k",
    [
        (math.nan, 10.0, 6, 9),
        (math.inf, 10.0, 6, 9),
        (1.0, math.inf, 6, 9),
        (1.0, math.nan, 6, 9),
        (1.0, -math.inf, 6, 9),
        (1.0, 1e-300, 6, 9),
        (1.0, 10.0, 0, -3),
        (1.0, 10.0, 1, 9),
        (1.0, 10.0, 6, 0),
    ],
)
def test_annealed_refuses_non_finite_and_degenerate_inputs(mu_c, Lambda, D, k):
    with pytest.raises(ValueError, match="need"):
        annealed_coefficients("exponential", mu_c, Lambda, D, k)


@pytest.mark.parametrize("N", [0, -1])
def test_quenched_refuses_N_below_1(twov3, N):
    with pytest.raises(ValueError, match=f"N={N}"):
        quenched_entropy(twov3, N)


def test_annealed_validation():
    with pytest.raises(ValueError):
        annealed_coefficients("exponential", -1.0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        annealed_coefficients("exponential", 1.0, 0.0, 3, 2)
    with pytest.raises(ValueError):
        annealed_coefficients("cauchy", 1.0, 1.0, 3, 2)
