"""Seeded Monte Carlo moments and the entropy experiments.

Gaussian tensors have i.i.d. complex entries of variance 1/N^D; Haar
tensors are Gaussian draws normalized to the unit sphere.  Draws are
reproducible for a fixed seed independently of batching.

Every Monte Carlo experiment runs through one loop, ``_trace_blocks``: it
draws a task of a few blocks of samples, contracts each block, small
enough to stay in cache, with each graph's compiled plan, and hands the
task's trace values back.  There is no per-sample entry point:
``mc_moment`` and the experiments are the public paths, and a single
sample is a block of one.  Each of them reads its run in one call of
``_read_run`` (N, samples, seed, kind, workers and the memory cap at every
N), refused before any walk or draw; the loop itself checks nothing.  The
calling thread draws every task, in order, from the one generator, and a
pool of ``workers`` threads, opened for the call and shut down when it
ends, contracts them block by block (numpy's matmul releases the GIL),
each on its own scratch arrays; the tasks come back in order.  A sample's
value does not depend on its block or its task, so a seed gives the same
bytes at any worker count.

A graph's plan is compiled once (``_compile``) and is one batched matmul
per step, a real one for a cube step.  Reuse: every white vertex is
T and every black one conj(T), so two pairwise contractions of the same
structure (operands, and the axis positions they share) give the same
array; the plan contracts each structure once and prefers an already
made one to new work, unless that widens its widest intermediate or adds
FLOPs.  A plan that ends in the trace of a Hermitian cube, Tr(H^3), takes
it in real arithmetic: H's Hermitian reading is proven from the
structures (``_conjugates``, ``_find_cube``), and with H = S + iK, S
symmetric and K antisymmetric, the real A = S + sqrt(3) K has
Tr(A^2 A^T) = Tr(S^3) - 3 Tr(S K^2) = Tr(H^3), since every trace of a
word with an odd number of K's is 0.  So Tr(H^3) is the sum of A^2 o A,
one real product where H H was one complex one, and exactly real; A is
Re((1 - i sqrt(3)) H), and A^2 is written over H's array, dead once A
is copied out.  mst3's trace, Tr[(M^Gamma)^3] with M the color-0 Gram
matrix, is so one Gram matmul and one cube step: one real N^6 product
and one N^4 reduction.  In a family, a member equal to an earlier one
reads that trace, and a member equal to an earlier one's conjugate reads
its complex conjugate.  Layouts: np.matmul takes a transposed stack without a
copy, so an operand is read as it is stored when its shared axes fill
one end of it, in the order its partner reads them; each intermediate's
axis order is chosen at compile time to make that so as often as it can,
and whatever is left is copied.  The last reduction is a per-sample
matmul too, so a sample's value does not depend on the block it is in.

A family whose union is matrix-like (``graphs.matrix_form``) takes a
spectral path instead: its colors split into (M, M^c), every color in M
has one permutation alpha and every other color one permutation beta, as
in ``cyclic(D, M, k)``, ``two_vertex`` and every D = 2 graph, so the trace
depends only on the singular values of the N^|M| x N^(D-|M|) flattening of
the tensor.  Those are drawn from the bidiagonal beta = 2 Laguerre model of
Dumitriu and Edelman ("Matrix models for beta ensembles", J. Math. Phys.
43, 2002): 2n - 1 gamma variables per sample, n the smaller side of the
flattening, instead of 2 N^D normals.  Every other family runs the full
draw and contraction.  A spectral family compiles no plan: its memory
cap check is its draw, N^D entries per sample.  ``mc_moment`` and
``entropy_slope_experiment`` keep every sample's value until the end, so
their sample counts are capped too.

This is the one module that imports numpy at the top.  The package and
the CLI import it on first use (``traceinv.mc_moment``, the commands that
sample), so building, generating and refusing load neither it nor numpy.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
import threading
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import perms
from .graphs import ColoredGraph, GraphFamily, conjugate, family_of, graph_stats, matrix_form
from .moments import annealed_coefficients, gaussian_moment
from .search import BudgetError, check_workers, mst_pair_f0, resolve_kmax, search_f0

DEFAULT_TRACE_CAP = 2**26  # complex entries per sample in the draw and in any intermediate
BATCH_ENTRY_CAP = 2**16  # complex entries per array a block of samples holds (1 MiB)
ZERO_FLOOR = 1e-300  # |Tr| below this counts as a zero of the invariant

class MemoryCapError(ValueError):
    """Raised when a contraction would exceed the configured memory cap."""


def make_rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _draw_batch(kind, D, N, count, rng) -> np.ndarray:
    """count tensors, shape (count,) + (N,)*D; one RNG row per sample.  _read_run checks kind."""
    m = N**D
    raw = rng.standard_normal((count, 2 * m))
    # one pass, no complex temporaries: row i's real parts raw[i, :m] and
    # imaginary parts raw[i, m:] are scaled straight into the floats of z,
    # a Haar row by 1 / |raw row|, its squared norm one dot product per row
    if kind == "haar":
        scale = 1 / np.sqrt(np.matmul(raw[:, None, :], raw[:, :, None]).reshape(count, 1))
    else:
        scale = 1 / math.sqrt(2 * m)
    parts = np.empty((count, m, 2))
    np.multiply(raw[:, :m], scale, out=parts[..., 0])
    np.multiply(raw[:, m:], scale, out=parts[..., 1])
    return parts.view(np.complex128)[..., 0].reshape((count,) + (N,) * D)


def _vertex_labels(G: ColoredGraph):
    """Edge labels of each vertex in color order: white s is vertex 2s, black t vertex 2t + 1.

    The color-c edge at white s carries label c*k + s; black t sees the
    same label through sigma_c^-1.
    """
    k = G.k
    inv = [perms.inverse(p) for p in G.sigma]
    labels = []
    for s in range(k):
        labels.append(tuple(c * k + s for c in range(G.D)))
        labels.append(tuple(c * k + inv[c][s] for c in range(G.D)))
    return labels


def _structure(a, b):
    """(structure, first, second) of contracting the plan nodes a and b.

    A node is (structure id, labels, array, vertices).  The structure is
    (id of the first operand, id of the second, the (position, position)
    pairs of their shared labels), the smaller of the two operand orders.
    Every white vertex is T and every black one conj(T), so contractions of
    one structure give one array, whose axes are the first operand's kept
    labels, then the second's.
    """
    shared = set(a[1]) & set(b[1])
    pairs = tuple((p, b[1].index(l)) for p, l in enumerate(a[1]) if l in shared)
    flipped = tuple(sorted((q, p) for p, q in pairs))
    if (b[0], a[0], flipped) < (a[0], b[0], pairs):
        return (b[0], a[0], flipped), b, a
    return (a[0], b[0], pairs), a, b


def _end(order, shared):
    """The shared labels as they stand in order when they fill its front or its back, else None."""
    m = len(shared)
    for part in (order[:m], order[len(order) - m:]):
        if set(part) == shared:
            return part
    return None


# FLOPs and copies are weighed in entries at this N when a plan is chosen;
# the plan itself does not depend on N
_PLAN_N = 8


def _run_layouts(steps, first, choice):
    """(entries copied per sample, program, layouts) of steps with output layouts `choice`.

    Array r < first is a vertex, stored in color order; array first + n is
    step n's output, stored as choice[n]: 0 or 1 for the product's own
    axis order (the first operand's kept labels, then the second's, or the
    reverse), else a permutation of the step's output labels, copied into.
    An operand is read without a copy when its shared labels fill one end
    of its axes in the order its partner reads them (np.matmul takes a
    transposed stack as it is); otherwise the cheaper operand is copied.
    """
    layout = {}

    def order(r, labels):
        return labels if r < first else tuple(labels[p] for p in layout[r])

    def size(labels):
        return _PLAN_N ** len(labels)

    cost, program = 0, []
    for n, (a, b, lab_a, lab_b, lab_out) in enumerate(steps):
        pa, pb = order(a, lab_a), order(b, lab_b)
        shared = set(lab_a) & set(lab_b)
        ends = _end(pa, shared), _end(pb, shared)
        fallback = tuple(l for l in pa if l in shared)
        sigma = min(
            (o for o in (*ends, fallback) if o is not None),
            key=lambda o: size(pa) * (ends[0] != o) + size(pb) * (ends[1] != o),
        )
        copies = ends[0] != sigma, ends[1] != sigma
        cost += size(pa) * copies[0] + size(pb) * copies[1]
        keep_a = tuple(l for l in pa if l not in shared)
        keep_b = tuple(l for l in pb if l not in shared)
        natural = (keep_a + keep_b, keep_b + keep_a)
        c = choice[n]
        out = natural[c] if isinstance(c, int) else tuple(lab_out[p] for p in c)
        form = natural.index(out) if out in natural else 0
        cost += size(out) * (out not in natural)
        # each operand as (array, axes read as rows then columns, row axis count, copied)
        ops = ((a, pa, keep_a, copies[0]), (b, pb, keep_b, copies[1]))
        (lr, lp, lk, lc), (rr, rp, rk, rc) = ops if form == 0 else ops[::-1]
        left = (lr, tuple(lp.index(l) for l in lk + sigma), len(lk), lc)
        right = (rr, tuple(rp.index(l) for l in sigma + rk), len(sigma), rc)
        stored = None if out == natural[form] else tuple(natural[form].index(l) for l in out)
        program.append((left, right, stored))
        layout[first + n] = tuple(lab_out.index(l) for l in out)
    return cost, tuple(program), layout


def _layout_candidates(steps, first, n, layout):
    """Output layouts worth trying for step n: 0 and 1, and per use of the output the ones it reads as stored.

    For a use with another array, the shared labels at either end in the
    order the other array holds them.  For a use of the output with itself
    whose two readings share complementary axes (mst3's M times M), the
    orders that put one reading's shared axes at the front and the other's
    at the back, in the same label order.
    """
    r = first + n
    found = [0, 1]
    for a, b, lab_a, lab_b, _ in steps:
        for mine, other, lm, lo in ((a, b, lab_a, lab_b), (b, a, lab_b, lab_a)):
            if mine != r:
                continue
            shared = set(lm) & set(lo)
            if other == r:
                sigma = tuple(l for l in lm if l in shared)
                pm, po = [lm.index(l) for l in sigma], [lo.index(l) for l in sigma]
                rest = [p for p in range(len(lm)) if p not in pm]
                if sorted(po) == rest:
                    found += [tuple(pm + po), tuple(po + pm)]
                continue
            po = lo if other < first else tuple(lo[p] for p in layout[other])
            sigma = _end(po, shared) or tuple(l for l in lm if l in shared)
            pm = [lm.index(l) for l in sigma]
            rest = [p for p in range(len(lm)) if p not in pm]
            found += [tuple(rest + pm), tuple(pm + rest)]
    return list(dict.fromkeys(found))


def _tree(labels, reuse_first):
    """(steps, roots): greedy pairwise contraction of vertex tensors with these labels.

    Merges, again and again, the pair of nodes sharing labels that ranks
    lowest by (a new structure, if reuse_first; open labels of the product;
    vertices covered).  A pair whose structure (_structure) an earlier step
    made costs nothing, so only new structures become steps
    (i, j, labels_i, labels_j, labels_out): arrays 0..2k-1 are the vertices
    and array 2k + n is step n's output.  The nodes left at the end are the
    connected components' traces, read from the arrays in roots.
    """
    first = len(labels)
    nodes = [(r % 2, lab, r, (r,)) for r, lab in enumerate(labels)]
    made = {}  # structure -> (its id, the array holding it); ids 0 and 1 are T and conj(T)
    steps = []
    while True:
        cands = [
            _structure(nodes[i], nodes[j]) + (i, j)
            for i in range(len(nodes))
            for j in range(i + 1, len(nodes))
            if set(nodes[i][1]) & set(nodes[j][1])
        ]
        if not cands:
            break

        def rank(cand):
            struct, a, b, _, _ = cand
            opened = len(a[1]) + len(b[1]) - 2 * len(struct[2])
            return (reuse_first and struct not in made, opened, sorted(a[3] + b[3]))

        struct, a, b, i, j = min(cands, key=rank)
        shared = set(a[1]) & set(b[1])
        lab_out = tuple(l for l in a[1] + b[1] if l not in shared)
        if struct not in made:
            steps.append((a[2], b[2], a[1], b[1], lab_out))
            made[struct] = (len(made) + 2, first + len(steps) - 1)
        sid, ref = made[struct]
        nodes[i] = (sid, lab_out, ref, tuple(sorted(a[3] + b[3])))
        del nodes[j]
    return tuple(steps), tuple(node[2] for node in nodes)


def _conjugates(steps, first):
    """{n: (m, q)}: the complex conjugate of step n's output is step m's output transposed by q.

    Every white vertex is T and every black one conj(T), so a vertex's
    conjugate is the other kind, its axes unchanged, and a step's
    conjugate contracts its operands' conjugates at the matching axes.
    Each operand's conjugate is read as (structure id, its labels at that
    structure's axes), and _structure of the two readings names the
    conjugate's structure.  When that is step m's, conj(X_n) =
    X_m.transpose(q); a step whose conjugate is not made has no entry.
    This is read from the structures alone: nothing is computed.
    """
    def sid(r):  # structure ids as _tree numbers them
        return r % 2 if r < first else r - first + 2

    made = {_structure((sid(a), la), (sid(b), lb))[0]: n for n, (a, b, la, lb, _) in enumerate(steps)}
    found = {}

    def reading(r, labels):  # conj(X_r) as (structure id, labels at its axes), or None when not made
        if r < first:
            return 1 - r % 2, labels
        if r - first in found:
            m, q = found[r - first]
            return m + 2, tuple(l for _, l in sorted(zip(q, labels)))
        return None

    for n, (a, b, la, lb, out) in enumerate(steps):
        ra, rb = reading(a, la), reading(b, lb)
        if ra and rb:
            struct, x, y = _structure(ra, rb)
            if struct in made:
                # step m's axes are its first operand's kept labels, then its second's
                axes = [l for l in x[1] + y[1] if l in out]
                found[n] = (made[struct], tuple(axes.index(l) for l in out))
    return found


def _find_cube(steps, first):
    """(r, rows, cols) when steps end in P = H H and Tr(P H), H array r read by those axes and Hermitian; else None.

    rows and cols are axes of r's structure.  The square contracts one
    reading's columns with the other's rows, keeping the first's rows and
    the second's columns; the trace contracts P's rows with H's columns and
    P's columns with H's rows.  H is Hermitian, conj H[i, j] = H[j, i],
    when r's conjugate is r itself transposed by a q (_conjugates) that
    swaps rows[t] and cols[t].
    """
    if len(steps) < 2:
        return None
    (a, b, la, lb, _), (c, d, lc, ld, out) = steps[-2:]
    p = first + len(steps) - 2
    if a != b or out or {c, d} != {a, p}:
        return None
    cols = tuple(i for i, l in enumerate(la) if l in lb)
    rows = tuple(lb.index(la[i]) for i in cols)
    if sorted(rows) != [i for i, l in enumerate(la) if l not in lb]:
        return None
    lab_p, lab_h = (lc, ld) if c == p else (ld, lc)
    # P's axes are the first reading's rows in axis order, then the second's columns (cols, in order)
    p_rows = [lab_h.index(lab_p[sorted(rows).index(i)]) for i in rows]
    p_cols = [lab_h.index(l) for l in lab_p[len(rows):]]
    if p_rows != list(cols) or p_cols != list(rows):
        return None
    m, q = _conjugates(steps, first).get(a - first, (None, None))
    if m != a - first or any(q[i] != j or q[j] != i for i, j in zip(rows, cols)):
        return None
    return a, rows, cols


@functools.lru_cache(maxsize=256)
def _compile(G: ColoredGraph):
    """(is_black, steps, max_open, roots, program): G's contraction, compiled once.

    The tree (_tree) is the greedy one that takes a reused structure before
    any new step, unless the greedy one that does not has a narrower widest
    intermediate, or as wide with fewer FLOPs.  Then each output's axis
    order is chosen by descent on the entries a block copies per sample
    (_run_layouts), starting from every output stored in its product's own
    order.  program holds, per step, the two matmul operands (array, axes,
    row axis count, copied) and the permutation the product is copied
    into, or None.  A plan that ends in P = H H and Tr(P H), for one
    Hermitian reading H (_find_cube), ends its program in one cube step
    instead, (H, None, None): H is read as the real A = Re H + sqrt(3) Im H
    and Tr(H^3) taken from the one real product A A (_cube_trace); the
    layouts are chosen for the steps before it.  roots are the program's arrays
    that hold the components' traces.
    """
    labels = _vertex_labels(G)
    first = len(labels)

    def widest(steps):
        return max([G.D] + [len(s[4]) for s in steps])

    def widest_then_flops(tree):
        return widest(tree[0]), sum(_PLAN_N ** len(set(s[2]) | set(s[3])) for s in tree[0])

    steps, roots = min(_tree(labels, True), _tree(labels, False), key=widest_then_flops)
    cube = _find_cube(steps, first)
    body = steps[:-2] if cube else steps
    choice = [0] * len(body)
    cost, program, layout = _run_layouts(body, first, choice)
    improved = True
    while improved:
        improved = False
        for n in range(len(body)):
            for c in _layout_candidates(body, first, n, layout):
                trial = choice[:n] + [c] + choice[n + 1:]
                t_cost, t_program, t_layout = _run_layouts(body, first, trial)
                if t_cost < cost:
                    cost, program, layout, choice, improved = t_cost, t_program, t_layout, trial, True
    if cube:
        r, rows, cols = cube
        program += (((r, tuple(layout[r].index(p) for p in rows + cols), len(rows), True), None, None),)
        last = first + len(steps) - 1  # Tr(P H) was read from here; the cube step's output is one array earlier
        roots = tuple(last - 1 if x == last else x for x in roots)
    is_black = tuple(r % 2 == 1 for r in range(first))
    return is_black, steps, widest(steps), roots, program


def _contraction_plan(G: ColoredGraph):
    """(is_black flags, steps, max open index count) of G's plan (_compile); its one caller is perfbench's tracer."""
    return _compile(G)[:3]


def _buffer(scratch, key, shape, dtype=complex):
    """scratch[key] as an array of this shape and dtype, allocated only when missing or resized."""
    buf = scratch.get(key)
    if buf is None or buf.shape != shape:
        buf = scratch[key] = np.empty(shape, dtype=dtype)
    return buf


def _matrices(arrays, operand, scratch, key):
    """An operand (array, axes, rows, copied) as a (B, rows, cols) stack of matrices.

    The plan makes the uncopied ones views; a copied one is written into
    scratch[key] instead of fresh memory.
    """
    ref, axes, rows, copied = operand
    x = arrays[ref]
    t = x.transpose((0,) + tuple(p + 1 for p in axes))
    if copied:
        buf = _buffer(scratch, key, t.shape)
        np.copyto(buf, t)
        t = buf
    n = x.shape[-1]
    return t.reshape(x.shape[0], n**rows, n ** (len(axes) - rows))


_OMEGA = complex(1, -math.sqrt(3))  # Re(omega H) = S + sqrt(3) K for H = S + iK


def _cube_trace(x, operand, scratch, n):
    """Tr(H^3) on every sample, H the Hermitian reading operand of x, from one real product.

    H = S + iK with S symmetric and K antisymmetric, and A = S + sqrt(3) K
    is the real part of omega H, omega = 1 - i sqrt(3).  A^T = S - sqrt(3) K,
    and the trace of a word in S and K with an odd number of K's vanishes,
    so Tr(A^2 A^T) = Tr(S^3) - 3 Tr(S K^2) = Tr(H^3), which is the sum of
    A^2 o A: one real product where H H was one complex one, and a value
    that is exactly real.  x is scaled by omega in place and A copied out
    of it in H's reading into one float scratch array.  x is dead after
    that copy and holds twice the bytes of A^2, so the product is written
    over it: x is a step's output in this thread's scratch (_find_cube
    proves H is no vertex), and the cube is the program's last step, so
    nothing reads x again.  The last sum is a per-sample matmul, as in
    every plan's reduction.
    """
    _, axes, rows, _ = operand
    x *= _OMEGA
    t = x.transpose((0,) + tuple(p + 1 for p in axes))
    a = _buffer(scratch, (n, "a"), t.shape, float)
    np.copyto(a, t.real)
    B, side = x.shape[0], x.shape[-1] ** rows
    a = a.reshape(B, side, side)
    square = np.matmul(a, a, out=x.reshape(-1).view(float)[: a.size].reshape(a.shape))
    return np.matmul(a.reshape(B, 1, -1), square.reshape(B, -1, 1)).reshape(B)


def _batch_trace(G: ColoredGraph, batch: np.ndarray, scratch: Optional[dict] = None) -> np.ndarray:
    """Trace of G on every sample of a batch, shape (B,) + (N,)*D.

    Runs G's compiled program (_compile) over the whole batch at once, one
    batched matmul per step, a real one for a cube step (_cube_trace),
    which scales its operand, a step's output, in place: the batch itself
    is only read.  The caller checks the plan against the memory cap.
    Products and copies are written into scratch, which _trace_blocks
    keeps per graph across blocks; the returned traces never alias it.
    """
    is_black, _, _, roots, program = _compile(G)
    B, N = batch.shape[0], batch.shape[-1]
    scratch = {} if scratch is None else scratch
    conj = np.conj(batch, out=_buffer(scratch, "conj", batch.shape))
    arrays = [conj if black else batch for black in is_black]
    for n, (left, right, stored) in enumerate(program):
        if right is None:
            arrays.append(_cube_trace(arrays[left[0]], left, scratch, n))
            continue
        lm = _matrices(arrays, left, scratch, (n, "l"))
        rm = _matrices(arrays, right, scratch, (n, "r"))
        prod = np.matmul(lm, rm, out=_buffer(scratch, (n, "p"), lm.shape[:2] + rm.shape[2:]))
        prod = prod.reshape((B,) + (N,) * (left[2] + len(right[1]) - right[2]))
        if stored is not None:
            buf = _buffer(scratch, (n, "s"), prod.shape)
            np.copyto(buf, prod.transpose((0,) + tuple(p + 1 for p in stored)))
            prod = buf
        arrays.append(prod)
    # disconnected components finish as independent traces
    out = np.ones(B, dtype=complex)
    for r in roots:
        out = out * arrays[r].reshape(B)
    return out


def _check_kept(samples: int):
    """Refuse keeping a value for each of more than DEFAULT_TRACE_CAP samples."""
    if samples > DEFAULT_TRACE_CAP:
        raise MemoryCapError(
            f"keeping the values of {samples} samples needs {samples} entries, cap is {DEFAULT_TRACE_CAP}"
        )


def _read_run(family: GraphFamily, kind: str, Ns, samples: int, seed: int, workers: int):
    """(Ns, samples, seed, workers) of a Monte Carlo run, read and refused before any walk or draw.

    Each value is an integer (perms.as_int), and a refusal names its field.
    Refused: an empty Ns, under 2 samples, an unknown kind, an N under 2, a
    seed under 0 (numpy's generators need one >= 0), a worker count outside
    1..MAX_WORKERS (check_workers), and an array over the cap at any N: for
    a family whose union is matrix-like, the draw (N^D entries; no plan is
    compiled), else the widest array of each member's plan, the draw
    included.  The cap on kept values (_check_kept) is the callers' to
    check.
    """
    workers = check_workers(workers)
    Ns = [perms.as_int(N, "N") for N in Ns]
    samples, seed = perms.as_int(samples, "samples"), perms.as_int(seed, "seed")
    if not Ns:
        raise ValueError("need at least one value of N")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if kind not in ("gaussian", "haar"):
        raise ValueError(f"unknown tensor kind {kind!r}")
    form = matrix_form(family.union())
    for N in Ns:
        if N < 2:
            raise ValueError("need N >= 2")
        for widest in [family.D] if form is not None else (_compile(g)[2] for g in family.graphs()):
            if N**widest > DEFAULT_TRACE_CAP:
                raise MemoryCapError(
                    f"a tensor with {widest} open indices needs {N**widest} entries "
                    f"per sample, cap is {DEFAULT_TRACE_CAP}"
                )
    if seed < 0:
        raise ValueError(f"need a seed >= 0, got {seed}")
    return Ns, samples, seed, workers


def _trace_blocks(family: GraphFamily, kind: str, N: int, samples: int, rng, workers: int = 1):
    """Product of the members' traces on `samples` fresh draws, one task of blocks at a time.

    A block holds as many samples as keep every array it touches, the draw
    and the widest plan intermediate alike, within BATCH_ENTRY_CAP / workers
    complex entries (at least one sample), so all workers together hold
    what one block holds and it is contracted in cache.  A task is the
    whole blocks whose draw fits in BATCH_ENTRY_CAP / 4 complex entries,
    at least one block: handing the pool a few blocks at once costs a
    fraction of the handoffs one-block tasks cost, and a thread's scratch
    stays one block's.  The calling thread draws every task in order from
    rng, in one draw each, so the draws depend only on rng, not on the
    block size or on workers.  A pool of workers threads, opened here,
    contracts the tasks block by block, each thread on its own scratch
    set, with at most workers + 1 tasks drawn and not yet yielded; tasks
    are yielded in order, and an error in a contraction is raised here.
    The pool is shut down when the call returns, raises or is closed, so no
    thread outlives it.  A sample's value does not depend on its block, so
    the values are the same at any worker count.  A family whose union is
    matrix-like takes the spectral path (_spectral_blocks), which has no
    contraction and opens no pool: workers does not change it.  Nothing is
    checked here: the caller reads the run with _read_run first.
    """
    form = matrix_form(family.union())
    if form is not None:
        yield from _spectral_blocks(kind, family.D, N, samples, rng, *form)
        return
    # imported here, not at the top: it loads logging, which a process that
    # samples nothing (the exact commands) should not pay for
    from concurrent import futures

    graphs = family.graphs()
    widest = max(_compile(g)[2] for g in graphs)
    block = max(1, BATCH_ENTRY_CAP // (workers * N**widest))
    task = block * max(1, BATCH_ENTRY_CAP // 4 // (N**family.D * block))
    # a member equal to an earlier one, or to its conjugate, reads that
    # member's trace (conjugated: Tr_conj(G) = conj Tr_G) instead of contracting
    source = []
    for i, g in enumerate(graphs):
        g_bar = conjugate(g)
        source.append(next(((j, h != g) for j, h in enumerate(graphs[:i]) if h in (g, g_bar)), None))
    # one scratch per graph and thread, reused by every block: fresh arrays
    # for each block would be paged in anew whenever the allocator hands the
    # freed ones back to the system
    scratch = {}

    def contract(batch):
        work = scratch.setdefault(threading.get_ident(), [{} for _ in graphs])
        products = []
        for start in range(0, len(batch), block):
            traces = []
            for g, buffers, src in zip(graphs, work, source):
                if src is None:
                    traces.append(_batch_trace(g, batch[start:start + block], buffers))
                else:
                    traces.append(np.conj(traces[src[0]]) if src[1] else traces[src[0]])
            prod = traces[0]
            for tr in traces[1:]:
                # not in place: numpy's in-place complex multiply rounds a
                # one-element array differently from a longer one
                prod = prod * tr
            products.append(prod)
        return np.concatenate(products)

    pool = futures.ThreadPoolExecutor(workers, thread_name_prefix="traceinv-contract")
    pending = collections.deque()
    try:
        for start in range(0, samples, task):
            batch = _draw_batch(kind, family.D, N, min(task, samples - start), rng)
            pending.append(pool.submit(contract, batch))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:  # on an error or an early close, the queued tasks are dropped and the running ones finish
        pool.shutdown(cancel_futures=True)


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
    entries.  There is no contraction to hand to workers: the whole path
    runs in the calling thread at any worker count.
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
    family: GraphFamily, kind: str, N: int, samples: int, seed: int, workers: int = 1
) -> MCEstimate:
    """Sample mean of the product of the member traces over fresh draws.

    N, samples, seed and workers are read by _read_run.  Every sample's
    value is kept until the end, so the samples are capped like any other
    array of the run.  workers threads contract the blocks (_trace_blocks);
    the estimate is the same at any worker count.
    """
    (N,), samples, seed, workers = _read_run(family, kind, [N], samples, seed, workers)
    _check_kept(samples)
    vals = np.concatenate(list(_trace_blocks(family, kind, N, samples, make_rng(seed), workers)))
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
    N is an integer (perms.as_int) of at least 1.
    """
    N = perms.as_int(N, "N")
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
        **asdict(coeffs),
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
    coverage trend is reported, not enforced.  epsilon is a real number
    (perms.as_real) that must be finite and > 0: at 0 or below every
    coverage is 0, at infinity every one is 1.
    Ns, samples, seed and workers are read, and workers threads contract
    the blocks, as in mc_moment.
    """
    epsilon = perms.as_real(epsilon, "epsilon")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"need a finite epsilon > 0, got {epsilon!r}")
    family = family_of([G])  # its union is G
    # before the walk, which can take far longer than a refusal
    Ns, samples, seed, workers = _read_run(family, kind, Ns, samples, seed, workers)
    rep = search_f0(G, kmax=kmax, prune=True)
    s = rep.f0_max - G.D * G.k
    mu = rep.multiplicity
    rows = []
    for N in Ns:
        scale = mu * float(N) ** s
        blocks = _trace_blocks(family, kind, N, samples, make_rng([seed, N]), workers)
        hit = sum(int(np.count_nonzero(np.abs(np.abs(tr) / scale - 1.0) < epsilon)) for tr in blocks)
        rows.append((N, hit / samples))
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
    """Fit of the mean entropy against ln N, with its exact reference line.

    Each N keeps every sample's value until its mean, so the samples are
    capped like any other array of the run.  Ns, samples, seed and workers
    are read, and workers threads contract the blocks, as in mc_moment.
    """
    family = family_of([G])  # its union is G
    # before the walk, which can take far longer than a refusal
    Ns, samples, seed, workers = _read_run(family, kind, Ns, samples, seed, workers)
    if len(set(Ns)) < 3:
        raise ValueError(f"need at least 3 values of N for the fit, all distinct, got {Ns}")
    _check_kept(samples)
    rep = search_f0(G, kmax=kmax, prune=True)
    rows = []
    for N in Ns:
        blocks = _trace_blocks(family, kind, N, samples, make_rng([seed, N]), workers)
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
