import math
import sys
import threading

import numpy as np
import pytest
from scipy.stats import ks_2samp

from traceinv import (
    MemoryCapError,
    annealed_coefficients,
    build_graph,
    concentration_experiment,
    conjugate,
    cyclic,
    disjoint_union,
    entropy_slope_experiment,
    family_of,
    gaussian_moment,
    haar_factor,
    leading_order,
    make_rng,
    mc_moment,
    quenched_entropy,
    two_vertex,
)
from traceinv import sampling
from traceinv.families import fig7, random_graph
from traceinv.sampling import EULER_GAMMA, _batch_trace, _draw_batch
from traceinv.search import MAX_WORKERS

import oracles


def test_sample_deterministic():
    a = _draw_batch("gaussian", 3, 4, 3, make_rng(11))
    b = _draw_batch("gaussian", 3, 4, 3, make_rng(11))
    assert np.array_equal(a, b)
    assert a.shape == (3, 4, 4, 4)
    # one RNG row per sample: three draws of one are the draw of three
    rng = make_rng(11)
    assert np.array_equal(np.concatenate([_draw_batch("gaussian", 3, 4, 1, rng) for _ in range(3)]), a)


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
    batch = _draw_batch("gaussian", 3, 3, 5, make_rng(7))
    norms = np.linalg.norm(batch.reshape(5, -1), axis=1)
    assert _batch_trace(twov3, batch) == pytest.approx(norms**2, rel=1e-12)
    haar = _draw_batch("haar", 3, 3, 5, make_rng(8))
    assert _batch_trace(twov3, haar) == pytest.approx(np.ones(5), abs=1e-12)


def test_trace_conjugate_is_conjugate(mst3):
    batch = _draw_batch("gaussian", 3, 2, 5, make_rng(12))
    assert _batch_trace(conjugate(mst3), batch) == pytest.approx(np.conj(_batch_trace(mst3, batch)), rel=1e-12)


def test_trace_pair_is_squared_modulus(mst3, melon2):
    batch = _draw_batch("gaussian", 3, 2, 5, make_rng(13))
    for h in (mst3, melon2):
        union, _ = disjoint_union([h, conjugate(h)])
        val = _batch_trace(union, batch)
        single = _batch_trace(h, batch)
        assert val == pytest.approx(np.abs(single) ** 2, rel=1e-10)
        assert np.abs(val.imag).max() == pytest.approx(0.0, abs=1e-12)


def test_trace_memory_cap(mst3, cyc2_d3, monkeypatch):
    monkeypatch.setattr(sampling, "DEFAULT_TRACE_CAP", 3)
    for g in (mst3, cyc2_d3):  # the full path's plan and the spectral path's draw
        with pytest.raises(MemoryCapError):
            sampling._read_run([g], "gaussian", [4], 2, 0, 1)


def test_batch_trace_matches_single(cyc2_d3, mst3):
    batch = _draw_batch("gaussian", 3, 3, 6, make_rng(15))
    # the union has two components, whose traces multiply at the end
    for g in (cyc2_d3, disjoint_union([mst3, conjugate(mst3)])[0]):
        vals = _batch_trace(g, batch)
        for i in range(6):
            assert vals[i] == pytest.approx(_batch_trace(g, batch[i : i + 1])[0], rel=1e-12)


NAIVE_GRAPHS = {
    "pair": disjoint_union([two_vertex(3), cyclic(3, {0}, 2)])[0],
    "cyclic-d2": cyclic(2, {0}, 2),
    "random-d2-k3": random_graph(2, 3, seed=31),
    "random-d2-k4": random_graph(2, 4, seed=32),
    "random-d3-k2": random_graph(3, 2, seed=33),
    # two seeds per D in 2-4 and k <= 4, one at D*k = 16
    **{
        f"random-d{D}-k{k}-s{seed}": random_graph(D, k, seed=seed)
        for D in (2, 3, 4)
        for k in (1, 2, 3, 4)
        for seed in (10 * D + k, 10 * D + k + 5)[: 1 if D * k == 16 else 2]
    },
}


@pytest.mark.parametrize("name", ["twov3", "melon2", "cyc2_d3", *NAIVE_GRAPHS])
def test_batch_trace_matches_naive_oracle(request, name):
    # every fixture graph with D*k <= 8, a two-component union and seeded
    # random graphs; N = 3 wherever its 3^(D k) assignments stay few, and
    # one sample at D*k = 16, where a sample has 2^16 assignments
    g = NAIVE_GRAPHS[name] if name in NAIVE_GRAPHS else request.getfixturevalue(name)
    for N in (2, 3) if g.D * g.k <= 8 else (2,):
        batch = _draw_batch("gaussian", g.D, N, 4 if g.D * g.k < 16 else 1, make_rng(16))
        vals = _batch_trace(g, batch)
        for i, sample in enumerate(batch):
            assert vals[i] == pytest.approx(oracles.trace_naive(g, sample), rel=1e-12)


@pytest.mark.parametrize("name", ["mst3", "conjugate-mst3", "permuting-copy"])
def test_batch_trace_matches_einsum_oracle(mst3, name):
    g = {"mst3": mst3, "conjugate-mst3": conjugate(mst3), "permuting-copy": random_graph(4, 4, seed=38)}[name]
    if name == "permuting-copy":  # its one stored copy permutes the axes by a permutation that is not its own inverse
        assert any(s is not None and any(s[s[i]] != i for i in range(len(s))) for _, _, s in sampling._compile(g)[4])
    for N in (2, 3, 4):
        batch = _draw_batch("gaussian", g.D, N, 3, make_rng(17))
        vals = _batch_trace(g, batch)
        for i, sample in enumerate(batch):
            assert vals[i] == pytest.approx(oracles.trace_einsum(g, sample), rel=1e-12)


def test_mst3_plan_is_three_matmuls_and_one_copy(mst3):
    # Tr[(M^Gamma)^3], M the color-0 Gram matrix and M^Gamma Hermitian: the
    # N^5 Gram with no copied operand, then one cube step, whose two real
    # N^6 products S S and K K replace the complex H H and whose N^4
    # reduction is the last; its partial transpose of M, written as the
    # real part S and the imaginary part K, is the only copy
    is_black, steps, max_open, roots, program = sampling._compile(mst3)
    assert [len(set(a) | set(b)) for _, _, a, b, _ in steps] == [5, 6, 4]
    assert max_open == 4
    (gram_l, gram_r, gram_stored), (h, right, stored) = program
    assert not gram_l[3] and not gram_r[3] and gram_stored is None
    gram = len(is_black)
    assert right is None and stored is None and h[0] == gram and h[3] and len(h[1]) == 2 * h[2] == 4
    assert roots == (gram + 1,)


@pytest.mark.parametrize("name", ["mst3", "random-d3-k4", "random-d4-k3", "pair", "cube-d4-k3"])
def test_uncopied_operands_are_views(monkeypatch, mst3, name):
    g = {"mst3": mst3, "random-d3-k4": random_graph(3, 4, seed=34), "random-d4-k3": random_graph(4, 3, seed=35),
         "pair": disjoint_union([mst3, conjugate(mst3)])[0], "cube-d4-k3": random_graph(4, 3, seed=7)}[name]
    real = sampling._matrices
    read = []

    def checked(arrays, operand, scratch, key):
        out = real(arrays, operand, scratch, key)
        read.append(operand[3] or np.shares_memory(out, arrays[operand[0]]))
        return out

    monkeypatch.setattr(sampling, "_matrices", checked)
    _batch_trace(g, _draw_batch("gaussian", g.D, 3, 4, make_rng(18)))
    # every matmul operand is read once; a cube step copies its one operand, H, as S and K
    program = sampling._compile(g)[4]
    cubes = [left for left, right, _ in program if right is None]
    assert len(read) == 2 * (len(program) - len(cubes)) and all(read) and all(h[3] for h in cubes)


# seeded k = 3 graphs whose plans end in P = H H and Tr(P H), H Hermitian
CUBE_GRAPHS = [(D, seed) for D in (3, 4, 5) for seed in range(40)
               if sampling._compile(random_graph(D, 3, seed=seed))[4][-1][1] is None]


def _step_arrays(steps, first, sample):
    """Every vertex and step output of steps on one sample, each by its own np.einsum over the step labels."""
    arrays = [np.conj(sample) if r % 2 else sample for r in range(first)]
    for a, b, lab_a, lab_b, lab_out in steps:
        arrays.append(np.einsum(arrays[a], list(lab_a), arrays[b], list(lab_b), list(lab_out)))
    return arrays


def test_cube_step_is_proven_from_the_structures(mst3):
    # mst3, its conjugate, a union of both and 15 of the 120 seeded graphs
    # take the step; no graph of the other 105 does
    assert len(CUBE_GRAPHS) == 15
    for g in (mst3, conjugate(mst3), disjoint_union([mst3, conjugate(mst3)])[0]):
        assert sampling._compile(g)[4][-1][1] is None
    # every conjugate _conjugates reads from the structures holds on a draw
    proven = 0
    for D in (3, 4):
        for k in (2, 3, 4):
            for seed in range(10):
                g = random_graph(D, k, seed=seed)
                steps, first = sampling._compile(g)[1], 2 * k
                arrays = _step_arrays(steps, first, _draw_batch("gaussian", D, 2, 1, make_rng(seed))[0])
                for n, (m, q) in sampling._conjugates(steps, first).items():
                    assert np.allclose(np.conj(arrays[first + n]), arrays[first + m].transpose(q), rtol=1e-12, atol=0)
                    proven += 1
    assert proven > 100


@pytest.mark.parametrize("kind", ["gaussian", "haar"])
@pytest.mark.parametrize("name", ["mst3", "conjugate-mst3", *[f"random-d{D}-k3-s{s}" for D, s in CUBE_GRAPHS]])
def test_cube_step_matches_einsum_and_naive_oracles(mst3, name, kind):
    if name.startswith("random"):
        D, seed = (int(part[1:]) for part in name.split("-")[1::2])
        g = random_graph(D, 3, seed=seed)
    else:
        g = mst3 if name == "mst3" else conjugate(mst3)
    assert sampling._compile(g)[4][-1][1] is None
    # the naive sum has N^(D k) terms, so it checks the first sample at N = 2
    for N in (2, 3, 4, 5):
        batch = _draw_batch(kind, g.D, N, 3, make_rng(20 + N))
        vals = _batch_trace(g, batch)
        assert vals.dtype == complex and np.all(vals.imag == 0)  # Tr(H^3) of a Hermitian H, exactly real
        for sample, val in zip(batch, vals):
            assert val == pytest.approx(oracles.trace_einsum(g, sample), rel=1e-12)
        if N == 2:
            assert vals[0] == pytest.approx(oracles.trace_naive(g, batch[0]), rel=1e-12)


def test_plans_without_a_hermitian_cube_keep_their_program():
    # one matmul per tree step, the layouts chosen over every step; this
    # program is the one the plan compiled before cube steps existed
    assert sampling._compile(random_graph(4, 3, seed=35))[4] == (
        ((2, (3, 0, 1, 2), 1, False), (3, (0, 1, 2, 3), 3, False), None),
        ((0, (1, 2, 0, 3), 2, True), (1, (0, 3, 1, 2), 2, True), None),
        ((4, (0, 3, 1, 2), 2, True), (7, (2, 3, 0, 1), 2, False), None),
        ((5, (3, 0, 1, 2), 1, False), (8, (0, 2, 3, 1), 3, True), None),
        ((6, (0, 1), 0, False), (9, (0, 1), 2, False), None),
    )
    for D in (3, 4, 5):
        for seed in range(40):
            if (D, seed) not in CUBE_GRAPHS:
                _, steps, _, _, program = sampling._compile(random_graph(D, 3, seed=seed))
                assert len(program) == len(steps) and all(right is not None for _, right, _ in program)


@pytest.mark.parametrize("second", [conjugate, lambda g: g], ids=["conjugate", "equal"])
@pytest.mark.parametrize("name", ["mst3", "random-d4-k4"])  # mst3's trace is real, this one's is not
def test_mc_moment_contracts_a_repeated_member_once_per_block(monkeypatch, mst3, name, second):
    g = mst3 if name == "mst3" else random_graph(4, 4, seed=40)
    contracted, drawn = [], []
    real_trace, real_draw = sampling._batch_trace, sampling._draw_batch
    monkeypatch.setattr(sampling, "_batch_trace", lambda h, *a: contracted.append(h) or real_trace(h, *a))
    monkeypatch.setattr(sampling, "_draw_batch", lambda *a: drawn.append(a) or real_draw(*a))
    graphs = [g, second(g)]
    est = mc_moment(family_of(graphs), "gaussian", 3, 2000, seed=19)
    assert len(drawn) > 1 and contracted == [g] * len(drawn)
    vals = oracles.per_sample_traces(graphs, "gaussian", 3, 2000, make_rng(19))
    assert est.mean == pytest.approx(vals.mean(), rel=1e-12)


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


def test_mc_moment_refuses_over_cap_samples_before_drawing(monkeypatch):
    # the mean keeps every sample's value: at the cap it runs, one over it is refused
    calls = _record_draws(monkeypatch)
    monkeypatch.setattr(sampling, "DEFAULT_TRACE_CAP", 16)
    family = family_of([cyclic(3, {0}, 2)])
    with pytest.raises(MemoryCapError, match="samples"):
        mc_moment(family, "gaussian", 2, 17, seed=1)
    assert calls == []
    assert mc_moment(family, "gaussian", 2, 16, seed=1).samples == 16


def test_spectral_path_compiles_no_plan(monkeypatch):
    def refuse(G):
        raise AssertionError("compiled a contraction plan")

    monkeypatch.setattr(sampling, "_compile", refuse)
    est = mc_moment(family_of([cyclic(3, {0}, 200)]), "gaussian", 4, 10, seed=1)
    assert est.samples == 10 and np.isfinite(est.mean)


def test_mc_moment_refuses_over_cap_plan_before_drawing(monkeypatch):
    # fig7's widest intermediate has 20 open indices: 3^20 entries exceed the cap
    calls = _record_draws(monkeypatch)
    with pytest.raises(MemoryCapError):
        mc_moment(family_of([fig7()]), "gaussian", 3, 2, seed=1)
    assert calls == []


def _cyc_pair():
    cyc = cyclic(3, {0}, 2)
    return [cyc, conjugate(cyc)]


def test_sample_rejects(monkeypatch, mst3):
    # refused before the first draw, on the full draw (mst3) and the spectral path (the pair) alike
    calls = _record_draws(monkeypatch)
    for graphs in ([mst3], _cyc_pair()):
        with pytest.raises(ValueError, match="need N >= 2"):
            mc_moment(family_of(graphs), "gaussian", 1, 10, seed=1)
        with pytest.raises(ValueError, match="unknown tensor kind 'uniform'"):
            mc_moment(family_of(graphs), "uniform", 4, 10, seed=1)
    assert calls == []


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
        # N and samples are integers: a float, even a whole one, or a string is refused, not compared
        lambda g: mc_moment(family_of([g]), "gaussian", 4.0, 100, seed=1),
        lambda g: mc_moment(family_of([g]), "gaussian", 4.5, 100, seed=1),
        lambda g: mc_moment(family_of([g]), "gaussian", 4, 2.5, seed=1),
        lambda g: mc_moment(family_of([g]), "gaussian", 4, "100", seed=1),
        lambda g: mc_moment(family_of([g]), "gaussian", True, 100, seed=1),
        # so is the seed, which must also be >= 0
        lambda g: mc_moment(family_of([g]), "gaussian", 4, 100, seed=-1),
        lambda g: mc_moment(family_of([g]), "gaussian", 4, 100, seed=1.5),
        lambda g: mc_moment(family_of([g]), "gaussian", 4, 100, seed=True),
    ],
    ids=[
        "mc-1-sample", "mc-N1", "conc-0-samples", "conc-neg-samples", "conc-N1", "slope-1-sample",
        "mc-whole-float-N", "mc-float-N", "mc-float-samples", "mc-str-samples", "mc-bool-N",
        "mc-neg-seed", "mc-float-seed", "mc-bool-seed",
    ],
)
def test_sampling_loop_rejects_degenerate_inputs(cyc2_d3, run):
    with pytest.raises(ValueError, match="need|integer"):
        run(cyc2_d3)


@pytest.mark.parametrize(
    "run",
    [
        lambda g: concentration_experiment(g, [4, 8], 0.5, 1, seed=1),
        lambda g: concentration_experiment(g, [4, 1], 0.5, 10, seed=1),
        lambda g: concentration_experiment(g, [4, 8], 0.5, 10, seed=1, kind="x"),
        lambda g: concentration_experiment(g, [4, 10**5], 0.5, 10, seed=1),
        lambda g: concentration_experiment(g, [], 0.5, 10, seed=1),
        lambda g: entropy_slope_experiment(g, [2, 4, 8], 1, seed=1),
        lambda g: entropy_slope_experiment(g, [2, 4, 1], 10, seed=1),
        lambda g: entropy_slope_experiment(g, [2, 4, 8], 10, seed=1, kind="x"),
        lambda g: entropy_slope_experiment(g, [2, 4, 8], 10**11, seed=1),
        # an N that is not an integer is refused, not truncated by int()
        lambda g: concentration_experiment(g, [4.7], 0.5, 10, seed=1),
        lambda g: concentration_experiment(g, [4, "8"], 0.5, 10, seed=1),
        lambda g: entropy_slope_experiment(g, [2, 4, 8.5], 10, seed=1),
        lambda g: entropy_slope_experiment(g, [2, True, 8], 10, seed=1),
        lambda g: concentration_experiment(g, [4, 8], 0.5, 2.5, seed=1),
        lambda g: entropy_slope_experiment(g, [2, 4, 8], 10.0, seed=1),
        # a seed numpy would refuse only after the walk, or take as 1
        lambda g: concentration_experiment(g, [4, 8], 0.5, 10, seed=-1),
        lambda g: concentration_experiment(g, [4, 8], 0.5, 10, seed=1.5),
        lambda g: concentration_experiment(g, [4, 8], 0.5, 10, seed=True),
        lambda g: entropy_slope_experiment(g, [2, 4, 8], 10, seed=-1),
        lambda g: entropy_slope_experiment(g, [2, 4, 8], 10, seed=1.5),
        lambda g: entropy_slope_experiment(g, [2, 4, 8], 10, seed=True),
    ],
    ids=[
        "conc-1-sample", "conc-N1", "conc-kind", "conc-over-cap", "conc-no-N",
        "slope-1-sample", "slope-N1", "slope-kind", "slope-over-cap-samples",
        "conc-float-N", "conc-str-N", "slope-float-N", "slope-bool-N",
        "conc-float-samples", "slope-whole-float-samples",
        "conc-neg-seed", "conc-float-seed", "conc-bool-seed", "slope-neg-seed", "slope-float-seed", "slope-bool-seed",
    ],
)
def test_experiments_refuse_bad_draws_before_the_walk(monkeypatch, cyc2_d3, run):
    walks = []
    monkeypatch.setattr(sampling, "search_f0", lambda *args, **kwargs: walks.append(args))
    with pytest.raises(ValueError, match="need|unknown|cap|integer"):
        run(cyc2_d3)
    assert walks == []


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda g: mc_moment(family_of([g]), "gaussian", 4, True, seed=1), "samples must be an integer, got True"),
        (lambda g: mc_moment(family_of([g]), "gaussian", "8", 10, seed=1), "N must be an integer, got '8'"),
        (lambda g: mc_moment(family_of([g]), "gaussian", 4, 10, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda g: concentration_experiment(g, [4, 8.0], 0.5, 10, seed=1), "N must be an integer, got 8.0"),
        (lambda g: entropy_slope_experiment(g, [2, 4, 8], 10, seed=None), "seed must be an integer, got None"),
    ],
    ids=["mc-samples", "mc-N", "mc-seed", "conc-N", "slope-seed"],
)
def test_integer_refusals_name_their_field(monkeypatch, cyc2_d3, run, message):
    calls = _record_draws(monkeypatch)
    with pytest.raises(ValueError) as info:
        run(cyc2_d3)
    assert str(info.value) == message and calls == []


def test_experiments_take_numpy_integer_N(cyc2_d3):
    a = concentration_experiment(cyc2_d3, [np.int64(4)], 0.5, np.int64(20), seed=1)
    assert a == concentration_experiment(cyc2_d3, [4], 0.5, 20, seed=1) and type(a.rows[0][0]) is int
    est = mc_moment(family_of([cyc2_d3]), "gaussian", np.int64(4), np.int32(20), seed=1)
    assert est == mc_moment(family_of([cyc2_d3]), "gaussian", 4, 20, seed=1) and type(est.samples) is int


def _seeded_results(mst3, cyc):
    # mst3 takes the general path, cyc and its pair the spectral one
    return (
        mc_moment(family_of([mst3]), "gaussian", 4, 300, seed=3),
        mc_moment(family_of([mst3]), "haar", 3, 300, seed=4),
        mc_moment(family_of([mst3, conjugate(mst3)]), "gaussian", 4, 200, seed=5),
        mc_moment(family_of([cyc, conjugate(cyc)]), "haar", 8, 300, seed=10),
        concentration_experiment(cyc, [4, 8, 16], 0.5, 200, seed=6),
        entropy_slope_experiment(cyc, [4, 8, 16], 200, seed=7),
        tuple(np.concatenate(list(sampling._trace_blocks([mst3], "haar", 4, 200, make_rng(8))))),
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


@pytest.mark.parametrize("epsilon", ["0.5", True, None, 0.5j, [0.5]])
def test_concentration_refuses_non_number_epsilon_before_the_walk(monkeypatch, cyc2_d3, epsilon):
    walks = []
    monkeypatch.setattr(sampling, "search_f0", lambda *args, **kwargs: walks.append(args))
    with pytest.raises(ValueError, match="^epsilon must be a real number"):
        concentration_experiment(cyc2_d3, [4], epsilon, 10, seed=1)
    assert walks == []


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


@pytest.mark.parametrize("N", [0, -1, 4.5, 4.0, True])  # an N that is not an integer is refused, not evaluated
def test_quenched_refuses_N_below_1(twov3, N):
    with pytest.raises(ValueError, match=f"N={N}|N must be an integer"):
        quenched_entropy(twov3, N)


def test_annealed_validation():
    with pytest.raises(ValueError):
        annealed_coefficients("exponential", -1.0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        annealed_coefficients("exponential", 1.0, 0.0, 3, 2)
    with pytest.raises(ValueError):
        annealed_coefficients("cauchy", 1.0, 1.0, 3, 2)


@pytest.mark.parametrize(
    "mu_c, Lambda, field",
    [
        ("1", 2.0, "mu_c"),
        (True, 2.0, "mu_c"),
        (None, 2.0, "mu_c"),
        (10**400, 2.0, "mu_c"),
        (1.0, "2", "Lambda"),
        (1.0, False, "Lambda"),
        (1.0, 2j, "Lambda"),
    ],
)
def test_annealed_refuses_non_real_mu_c_and_Lambda(mu_c, Lambda, field):
    with pytest.raises(ValueError, match=f"^{field} must be a real number"):
        annealed_coefficients("gamma", mu_c, Lambda, 3, 2)


def test_annealed_reads_ints_and_numpy_floats_as_floats():
    assert annealed_coefficients("gamma", 1, np.float32(2.0), 3, 2) == annealed_coefficients("gamma", 1.0, 2.0, 3, 2)


@pytest.mark.parametrize("D, k", [(3.5, 2), (3, True), (3.0, 2), ("3", 2)])
def test_annealed_refuses_non_integer_D_and_k(D, k):
    with pytest.raises(ValueError, match="must be an integer"):
        annealed_coefficients("exponential", 1.0, 10.0, D, k)


# mst3 draws full tensors, and its widest array holds N^4 entries per sample,
# so a block holds 256, 128 and 85 samples at N=4 with one, two and three
# workers, and 16, 8 and 5 at N=8: no sample count here fills its last block.
# One 4097-sample case runs at N=8, since each takes seconds.
_WORKER_CASES = [
    (name, kind, N, samples)
    for name, kind, N in [
        ("mst3", "gaussian", 4),
        ("mst3", "haar", 4),
        ("mst3", "gaussian", 8),
        ("mst3", "haar", 8),
        ("pair", "gaussian", 4),
        ("pair", "haar", 8),
    ]
    for samples in (2, 17, 4097)
    if N == 4 or samples < 4097 or (name, kind) == ("mst3", "gaussian")
]


@pytest.mark.parametrize("name, kind, N, samples", _WORKER_CASES)
def test_worker_count_does_not_change_the_bytes(mst3, name, kind, N, samples):
    graphs = [mst3] if name == "mst3" else [mst3, conjugate(mst3)]
    blocks = [
        np.concatenate(list(sampling._trace_blocks(graphs, kind, N, samples, make_rng(samples), workers)))
        for workers in (1, 2, 3)
    ]
    assert np.array_equal(blocks[0], blocks[1]) and np.array_equal(blocks[0], blocks[2])
    ests = [mc_moment(family_of(graphs), kind, N, samples, seed=samples, workers=w) for w in (1, 2, 3)]
    assert ests[0] == ests[1] == ests[2]
    assert ests[0].mean == complex(blocks[0].mean())


def test_experiments_do_not_depend_on_the_worker_count(mst3):
    conc = [concentration_experiment(mst3, [4, 8], 0.5, 130, seed=2, workers=w) for w in (1, 2, 3)]
    slope = [entropy_slope_experiment(mst3, [3, 4, 8], 70, seed=3, workers=w) for w in (1, 2, 3)]
    assert conc[0] == conc[1] == conc[2] and slope[0] == slope[1] == slope[2]


def test_spectral_path_ignores_the_worker_count(cyc2_d3):
    ests = [mc_moment(family_of([cyc2_d3]), "haar", 8, 300, seed=4, workers=w) for w in (1, 2)]
    assert ests[0] == ests[1]


@pytest.mark.parametrize("workers", [0, -5, 65, 2.0, True, "2", None])
@pytest.mark.parametrize(
    "run",
    [
        lambda g, w: mc_moment(family_of([g]), "gaussian", 4, 10, seed=1, workers=w),
        lambda g, w: concentration_experiment(g, [4, 8], 0.5, 10, seed=1, workers=w),
        lambda g, w: entropy_slope_experiment(g, [2, 4, 8], 10, seed=1, workers=w),
    ],
    ids=["mc", "concentration", "entropy-slope"],
)
def test_bad_worker_counts_are_refused_before_any_draw(monkeypatch, mst3, run, workers):
    calls = _record_draws(monkeypatch)
    monkeypatch.setattr(sampling, "search_f0", lambda *args, **kwargs: calls.append("walk"))
    running = threading.active_count()
    with pytest.raises(ValueError, match=f"need 1 to {MAX_WORKERS} workers|workers must be an integer"):
        run(mst3, workers)
    assert calls == [] and threading.active_count() == running


@pytest.mark.parametrize(
    "run",
    [
        lambda g: mc_moment(family_of([g]), "gaussian", 4, 10, seed=1, workers=2),
        lambda g: concentration_experiment(g, [4, 8], 0.5, 10, seed=1, workers=2),
        lambda g: entropy_slope_experiment(g, [2, 4, 8], 10, seed=1, workers=2),
    ],
    ids=["mc", "concentration", "entropy-slope"],
)
def test_each_call_reads_its_run_once(monkeypatch, mst3, run):
    # _read_run reads the whole run, workers included; the loop checks nothing again
    calls = []
    for name in ("_read_run", "check_workers"):
        real = getattr(sampling, name)
        monkeypatch.setattr(sampling, name, lambda *a, _name=name, _real=real, **kw: calls.append(_name) or _real(*a, **kw))
    run(mst3)
    assert sorted(calls) == ["_read_run", "check_workers"]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_contraction_error_reaches_the_caller_and_the_next_call_is_unchanged(monkeypatch, mst3, workers):
    family = family_of([mst3])
    before = mc_moment(family, "gaussian", 8, 300, seed=6, workers=workers)  # 19 blocks at one worker
    real, calls, error = sampling._batch_trace, [], ValueError("contraction failed")

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise error
        return real(*args)

    monkeypatch.setattr(sampling, "_batch_trace", failing)
    with pytest.raises(ValueError) as info:
        mc_moment(family, "gaussian", 8, 300, seed=6, workers=workers)
    assert info.value is error
    monkeypatch.setattr(sampling, "_batch_trace", real)
    assert mc_moment(family, "gaussian", 8, 300, seed=6, workers=workers) == before


def test_repeated_calls_start_no_more_threads(monkeypatch, mst3):
    # each call's pool is shut down however the call ends: no contraction thread is left
    real, calls = sampling._batch_trace, []

    def failing(*args):
        calls.append(1)
        if len(calls) % 3 == 0:
            raise ValueError("contraction failed")
        return real(*args)

    running = threading.active_count()
    for end in ("complete", "closed", "failed"):
        monkeypatch.setattr(sampling, "_batch_trace", failing if end == "failed" else real)
        for workers in (1, 2, 3, 1, 2, 3):
            blocks = sampling._trace_blocks([mst3], "gaussian", 8, 300, make_rng(7), workers)
            if end == "complete":
                assert sum(len(b) for b in blocks) == 300
            elif end == "closed":
                next(blocks)
                blocks.close()
            else:
                with pytest.raises(ValueError, match="contraction failed"):
                    list(blocks)
            assert threading.active_count() == running
            assert not [t for t in threading.enumerate() if t.name.startswith("traceinv-contract")]


def test_more_workers_than_cores_under_fast_thread_switching_give_the_same_bytes(mst3):
    reference = np.concatenate(list(sampling._trace_blocks([mst3], "gaussian", 8, 500, make_rng(9))))
    got = []

    def run():
        for workers in (3, 5):
            got.append(np.concatenate(list(sampling._trace_blocks([mst3], "gaussian", 8, 500, make_rng(9), workers))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(got) == 2
    assert all(np.array_equal(reference, values) for values in got)
