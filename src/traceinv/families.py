"""Deterministic builders for the named graph families.

Color indices and vertex labels are 0-based here; the JSON spec format
(``generate_from_spec``) uses 1-based colors and labels.  Every builder
reads its integers (D, k, colors, script steps, seeds) by one rule,
``perms.as_int``, each refusal a ValueError that names its field.
``melonic`` and ``build_with_delta`` edit image lists and validate the
graph once: linear time.
"""

from __future__ import annotations

import random

from . import perms
from .graphs import ColoredGraph, _Record


def two_vertex(D: int) -> ColoredGraph:
    """One white and one black vertex joined by all D colors."""
    D = perms.as_int(D, "D")
    return ColoredGraph(D=D, k=1, sigma=tuple((0,) for _ in range(D)))


def melonic(D: int, script) -> ColoredGraph:
    """Grow a melonic graph from the 2-vertex graph by pair insertions.

    Each script step (c, s) splits the color-c edge at white vertex s with
    a fresh white/black pair, joined to each other by every other color.
    The steps edit the D image lists; the graph is built once, at the end.
    """
    D = perms.as_int(D, "D")
    images = [[0] for _ in range(D)]
    k = 1
    for step, (c, s) in enumerate(script):
        c, s = perms.as_int(c, f"script step {step} color"), perms.as_int(s, f"script step {step} white")
        if not 0 <= c < D:
            raise ValueError(f"script step {step}: color index {c} out of range 0..{D - 1}")
        if not 0 <= s < k:
            raise ValueError(f"script step {step}: white label {s} out of range 0..{k - 1}")
        for d, row in enumerate(images):
            if d == c:
                row.append(row[s])  # new white takes over the old target
                row[s] = k  # old white now ends on the new black
            else:
                row.append(k)  # fresh pair joined directly
        k += 1
    return ColoredGraph(D=D, k=k, sigma=images)


def cyclic(D: int, M, k: int) -> ColoredGraph:
    """Cycle of k vertex pairs alternating |M| parallel edges with the rest.

    Colors in M stay within a pair; the remaining colors advance around
    the cycle.
    """
    D, M, k = perms.as_int(D, "D"), _color_set(M, "M"), perms.as_int(k, "k")
    if not M:
        raise ValueError("cyclic graphs need a nonempty color subset M")
    if not all(0 <= c < D for c in M):
        raise ValueError(f"M={sorted(M)} has color indices out of range 0..{D - 1}")
    if len(M) > D // 2:
        raise ValueError(f"cyclic graphs need |M| <= floor(D/2), got |M|={len(M)}, D={D}")
    if k < 1:
        raise ValueError("need k >= 1")
    shift = tuple((s + 1) % k for s in range(k))
    sigma = tuple(perms.identity(k) if c in M else shift for c in range(D))
    return ColoredGraph(D=D, k=k, sigma=sigma)


def realignment(M1, M2, M3, k: int) -> ColoredGraph:
    """Cycle of k vertex pairs with M1 and M2 links alternating.

    Within each pair, one edge per color of M3; consecutive pairs are
    linked by the colors of M1 and M2 in alternation (two edges per color
    per link), which forces k to be even.
    """
    M1, M2, M3 = _color_set(M1, "M1"), _color_set(M2, "M2"), _color_set(M3, "M3")
    k = perms.as_int(k, "k")
    colors = M1 | M2 | M3
    if not (M1 and M2 and M3):
        raise ValueError("realignment moments need three nonempty color subsets")
    if len(M1) + len(M2) + len(M3) != len(colors):
        raise ValueError("M1, M2, M3 must be disjoint")
    D = len(colors)
    if colors != set(range(D)):
        raise ValueError(f"M1|M2|M3 must partition the colors 0..{D - 1}")
    if k < 2 or k % 2:
        raise ValueError(f"realignment moments need even k >= 2, got k={k}")
    links = [sorted(M1) if j % 2 == 0 else sorted(M2) for j in range(k)]
    return _cycle_of_pairs(D, M3, links)


def joint_realignment(D: int, M3, links) -> ColoredGraph:
    """Cycle of pairs with an explicit link subset per junction.

    links[j] holds the colors carried between pair j and pair j+1 (mod k).
    Accepted only if every vertex ends up with exactly one edge per color.
    """
    D, M3 = perms.as_int(D, "D"), _color_set(M3, "M3")
    links = [_color_set(l, "links") for l in links]
    k = len(links)
    if k < 1:
        raise ValueError("need at least one link")
    for field, colors in [("M3", M3), *((f"links[{j}]", l) for j, l in enumerate(links))]:
        if not all(0 <= c < D for c in colors):
            raise ValueError(f"{field}={sorted(colors)} has color indices out of range 0..{D - 1}")
    _check_degrees(D, M3, links, 0)
    return _cycle_of_pairs(D, M3, [sorted(l) for l in links])


def _check_degrees(D, M3, links, base) -> None:
    """Refuse links that give a vertex pair of the cycle other than one edge of each color.

    Pair j meets the colors of M3, links[j] and links[j - 1]; a refusal
    numbers colors and pairs from base.
    """
    k = len(links)
    for c in range(D):
        for j in range(k):
            hits = (c in M3) + (c in links[j]) + (c in links[(j - 1) % k])
            if hits != 1:
                raise ValueError(
                    f"color {c + base} meets vertex pair {j + base} {hits} times; "
                    "every vertex needs exactly one edge per color"
                )


def _color_set(colors, field) -> set:
    """The colors as a set of integers (perms.as_int), a refusal naming "<field> entry"."""
    return {perms.as_int(c, f"{field} entry") for c in colors}


def _cycle_of_pairs(D, M3, links):
    k = len(links)
    sigma = []
    for c in range(D):
        if c in M3:
            sigma.append(perms.identity(k))
            continue
        images = [None] * k
        for j, link in enumerate(links):
            if c in link:
                images[j] = (j + 1) % k
                images[(j + 1) % k] = j
        sigma.append(tuple(images))
    return ColoredGraph(D=D, k=k, sigma=tuple(sigma))


def fig7() -> ColoredGraph:
    """The 6-colored, 9-pair, maximally single-trace counterexample graph.

    The last permutation is the unique near-neighbor of its published form
    that completes the first five to a maximally single-trace graph; the
    defining constraints (every face count 1, F0 maximum 26) are re-checked
    in the test suite.
    """
    k = 9
    cycles = [
        "(1 2 3 4 5 6 7 8 9)",
        "(1 5 4 9 2 7 6 8 3)",
        "(1 7 4 3 9 5 2 8 6)",
        "(1 8 2 9 7 5 3 6 4)",
        "(1 3 5 9 6 2 4 8 7)",
    ]
    sigma = (perms.identity(k),) + tuple(perms.from_cycle_string(k, c) for c in cycles)
    return ColoredGraph(D=6, k=k, sigma=sigma)


def random_graph(D: int, k: int, seed: int) -> ColoredGraph:
    """D independent uniform permutations of S_k from a seeded generator."""
    D, k, seed = perms.as_int(D, "D"), perms.as_int(k, "k"), perms.as_int(seed, "seed")
    if D < 2:
        raise ValueError("need D >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    rng = random.Random(seed)
    return ColoredGraph(D=D, k=k, sigma=tuple(perms.random_permutation(rng, k) for _ in range(D)))


class DeltaBuildReport(_Record):
    __slots__ = ("graph", "delta", "verified")

    def __init__(self, graph: ColoredGraph, delta: int, verified: bool):
        self._fill(graph, delta, verified)


def build_with_delta(D: int, delta: int, kmax: int | None = None) -> DeltaBuildReport:
    """Connected graph with prescribed degree of compatibility delta >= 1.

    delta copies of the smallest unit-delta building block (a k=2
    realignment moment with singleton link subsets, delta 0 at D = 3) are
    chained by delta - 1 flips of color-0 edges at the first white vertex of
    each block, blocks j and j + 1 in turn: one cyclic shift of those edges.
    The claim is brute-force checked whenever the result fits the budget,
    and flagged unverified otherwise.
    """
    D, delta = perms.as_int(D, "D"), perms.as_int(delta, "delta")
    if D < 4:
        raise ValueError("need D >= 4: the unit block has delta 0 at D = 3")
    if delta < 1:
        raise ValueError("need delta >= 1")
    from .search import degree_report, resolve_kmax

    limit = resolve_kmax(kmax)
    block = realignment({0}, {1}, set(range(2, D)), 2)
    sigma = [[2 * j + b for j in range(delta) for b in p] for p in block.sigma]
    firsts = sigma[0][0::2]
    sigma[0][0::2] = firsts[1:] + firsts[:1]
    g = ColoredGraph(D=D, k=2 * delta, sigma=sigma)
    verified = False
    if g.k <= limit:
        rep = degree_report(g, kmax=limit)
        if rep.delta != delta:
            raise AssertionError(f"construction produced delta={rep.delta}, expected {delta}")
        verified = True
    return DeltaBuildReport(graph=g, delta=delta, verified=verified)


def _array(value):
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


def _colors(value, field) -> set:
    return {c - 1 for c in _color_set(_array(value), field)}


def _script(value, field) -> list:
    steps = [tuple(perms.as_int(x, f"{field} entry") - 1 for x in _array(step)) for step in _array(value)]
    if any(len(step) != 2 for step in steps):
        raise ValueError("a script step is not a [color, white] pair")
    return steps


def _links(value, field) -> list:
    return [_colors(link, field) for link in _array(value)]


# kind -> (builder, fields); each field is named after a builder argument
KINDS = {
    "two_vertex": (two_vertex, ("D",)),
    "melonic": (melonic, ("D", "script")),
    "cyclic": (cyclic, ("D", "M", "k")),
    "realignment": (realignment, ("M1", "M2", "M3", "k")),
    "joint_realignment": (joint_realignment, ("D", "M3", "links")),
    "fig7": (fig7, ()),
    "random": (random_graph, ("D", "k", "seed")),
    "with_delta": (lambda D, delta: build_with_delta(D, delta).graph, ("D", "delta")),
}
# each reader takes a field's value and its name, which its refusals give
_READERS = {"M": _colors, "M1": _colors, "M2": _colors, "M3": _colors, "script": _script, "links": _links}


def _check_ranges(fields) -> None:
    """Refuse a spec's colors and script labels out of range, and links that break a vertex's degree.

    Every refusal names colors, labels and vertex pairs as the 1-based spec
    gives them.  The builders refuse the same values in the 0-based terms
    they are given, so the spec path checks first.  A realignment spec has
    no 'D': its colors must lie in 1..D, D the number of colors it gives.
    """
    sets = [(key, fields[key]) for key in ("M", "M1", "M2", "M3") if key in fields]
    sets += [(f"links[{j}]", link) for j, link in enumerate(fields.get("links", ()))]
    D = fields.get("D", sum(len(colors) for _, colors in sets))
    for field, colors in sets:
        if not all(0 <= c < D for c in colors):
            raise ValueError(f"{field}={sorted(c + 1 for c in colors)} has colors out of range 1..{D}")
    for step, (c, s) in enumerate(fields.get("script", ())):
        if not 0 <= c < D:
            raise ValueError(f"script[{step}] color {c + 1} out of range 1..{D}")
        if not 0 <= s <= step:  # step i grows a graph of i + 1 whites
            raise ValueError(f"script[{step}] white label {s + 1} out of range 1..{step + 1}")
    if "links" in fields:
        _check_degrees(D, fields["M3"], fields["links"], 1)


def read_spec(spec: dict) -> tuple:
    """(kind, fields) of a JSON family spec, the fields read into 0-based builder arguments."""
    if not isinstance(spec, dict):
        raise ValueError(f"family spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    names = KINDS[kind][1]
    unread = [key for key in spec if key != "kind" and key not in names]
    if unread:
        raise ValueError(f"family spec field {unread[0]!r} is not read by kind {kind!r}")
    fields = {}
    for key in names:
        if key not in spec:
            raise ValueError(f"family spec missing field {key!r}")
        try:
            fields[key] = _READERS.get(key, perms.as_int)(spec[key], key)  # any other field is an integer
        except (TypeError, ValueError) as exc:
            raise ValueError(f"family spec field {key!r} is malformed: {exc}")
    _check_ranges(fields)
    return kind, fields


def generate_from_spec(spec: dict) -> ColoredGraph:
    """Build the graph of a JSON family spec ``{"kind": KIND, field: value, ...}``, 1-based.

    ``KINDS`` names the fields of each kind.  A spec that is not an object,
    names no known kind, or has a field missing, malformed or not read by
    its kind is refused with ValueError before anything is built, as is a
    color or script label out of range, named as the spec gives it.
    """
    kind, fields = read_spec(spec)
    return KINDS[kind][0](**fields)
