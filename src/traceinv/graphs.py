"""Edge-colored bipartite graphs encoded by permutation tuples.

A graph with D colors and k white vertices is stored as D permutations of
size k: the color-c edge at white vertex s ends on black vertex
``sigma[c][s]``.  Vertex labels and color indices are 0-based in code;
JSON and cycle strings use 1-based vertex labels.  A ``GraphFamily`` lays
out its disjoint union once, when it is made; ``disjoint_union`` is that
layout.
"""

from __future__ import annotations

import functools
import json
import operator
from collections import Counter
from collections.abc import Mapping

from . import perms


class _Record:
    """A read-only record: its fields are the class's ``__slots__``, set once by ``__init__``.

    A slot named with a leading underscore is derived and stays out of eq,
    hash and repr; every other slot is a field.  Records are equal when
    they are of one class and their fields are equal, and pickling or
    copying one calls its class on its fields.  The building layer's
    records are not dataclasses because importing ``dataclasses`` (with
    ``inspect``) and generating their methods took over a third of ``import traceinv``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = operator.attrgetter(*cls._fields)

    def _fill(self, *values):
        """Set the slots, in order; the one way a record's slots are written."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class ColoredGraph(_Record):
    __slots__ = ("D", "k", "sigma")  # sigma: D permutations, white label -> black label

    def __init__(self, D: int, k: int, sigma: tuple):
        # JSON writes D and k as given, and graph_from_json_dict reads back only integers
        D, k = perms.as_int(D, "D"), perms.as_int(k, "k")
        if D < 2:
            raise ValueError(f"need at least 2 colors, got D={D}")
        if k < 1:
            raise ValueError(f"need at least one white vertex, got k={k}")
        if len(sigma) != D:
            raise ValueError(f"expected {D} permutations, got {len(sigma)}")
        checked = []
        for c, p in enumerate(sigma):
            try:
                q = perms.check_perm(p)
            except ValueError as exc:
                raise ValueError(f"sigma[{c}] invalid: {exc}") from exc
            if len(q) != k:
                raise ValueError(f"sigma[{c}] has size {len(q)}, expected {k}")
            checked.append(q)
        self._fill(D, k, tuple(checked))

    # spelled out, not read through _values: _compile and graph_stats hash a graph on every lookup
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.D, self.k, self.sigma) == (other.D, other.k, other.sigma)
        return NotImplemented

    def __hash__(self):
        return hash((self.D, self.k, self.sigma))

    def face_count(self, i: int, j: int) -> int:
        """Number of faces with colors i and j (0-based color indices)."""
        return perms.cycle_count(self.sigma[i], perms.inverse(self.sigma[j]))

    def n_components(self) -> int:
        return len(component_labels(self))

    def to_json_dict(self) -> dict:
        return {
            "D": self.D,
            "k": self.k,
            "sigma": [[b + 1 for b in p] for p in self.sigma],
        }

    def __str__(self):
        body = ", ".join(perms.to_cycle_string(p) for p in self.sigma)
        return f"ColoredGraph(D={self.D}, k={self.k}, sigma=[{body}])"


def build_graph(D: int, sigma) -> ColoredGraph:
    """Construct and validate a graph from D image arrays (0-based)."""
    sigma = [tuple(p) for p in sigma]
    if not sigma:
        raise ValueError("no permutations given")
    return ColoredGraph(D=D, k=len(sigma[0]), sigma=tuple(sigma))


def _unique_keys(pairs) -> dict:
    """The object of a JSON object's (key, value) pairs, refused if it repeats a key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ValueError(f"key {repeated!r} is repeated in one object")
    return obj


def from_json(text, what: str):
    """The JSON value of text; each refusal, nesting deeper than the parser can recurse included, names what.

    An object that repeats a key is refused, where the bare parser would keep the last value.
    """
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to read") from None
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{what} is not readable JSON: {exc.msg}", exc.doc, exc.pos) from None
    except ValueError as exc:  # a repeated key, or an integer past Python's digit limit
        raise ValueError(f"{what} is not readable JSON: {exc}") from None


def read_json(path):
    """The JSON value of the file at path, read as UTF-8: the one file reader.

    Text that is not UTF-8 and every refusal of ``from_json`` are a
    ValueError naming the path; a missing file's OSError names it already.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    return from_json(text, path)


def cycle_string_ks(data):
    """The declared k of every cycle-string graph in a JSON value, each read by perms.as_int.

    Cycle strings let a few bytes declare any k, and graph_from_json_dict
    builds k-element permutations from them, so a reader checks these k
    against its budget before anything is built.  Every object holding
    'sigma_cycles' and 'k' counts, wherever it sits: a bare graph, a family
    member, a config's 'graph' or 'family'.  The walk keeps its own stack,
    so any value the parser returned can be walked.
    """
    stack = [data]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            if "sigma_cycles" in value and "k" in value:
                yield perms.as_int(value["k"], "k")
            value = list(value.values())
        if isinstance(value, list):
            stack.extend(reversed(value))  # in document order


def _json_object(data, what: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(data).__name__}")


def graph_from_json_dict(data: dict) -> ColoredGraph:
    """Parse graph JSON: 1-based image arrays or cycle-string sugar; every integer is read by perms.as_int."""
    _json_object(data, "graph")
    if "D" not in data:
        raise ValueError("graph JSON missing field 'D'")
    D = perms.as_int(data["D"], "D")
    k = perms.as_int(data["k"], "k") if "k" in data else None
    if "sigma" in data and "sigma_cycles" in data:
        raise ValueError("graph JSON gives both 'sigma' and 'sigma_cycles'; give one")
    if "sigma" in data:
        raw = data["sigma"]
        if not isinstance(raw, list):
            raise ValueError("graph JSON field 'sigma' is not a list of integer arrays")
        sigma = []
        for c, images in enumerate(raw):
            if not isinstance(images, list):
                raise ValueError(f"graph JSON field 'sigma[{c}]' is not an integer array")
            images = [perms.as_int(b, f"sigma[{c}] entry") for b in images]
            if sorted(images) != list(range(1, len(images) + 1)):  # checked here to word it 1-based
                raise ValueError(f"sigma[{c}] invalid: not a bijection on 1..{len(images)}: {images!r}")
            sigma.append(tuple(b - 1 for b in images))
    elif "sigma_cycles" in data:
        if k is None:
            raise ValueError("graph JSON with 'sigma_cycles' requires explicit 'k'")
        texts = data["sigma_cycles"]
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise ValueError("graph JSON field 'sigma_cycles' is not a list of cycle strings")
        sigma = [perms.from_cycle_string(k, text) for text in texts]
    else:
        raise ValueError("graph JSON missing field 'sigma' (or 'sigma_cycles')")
    G = build_graph(D, sigma)
    if k not in (None, G.k):
        raise ValueError(f"graph JSON field 'k'={k} inconsistent with sigma size {G.k}")
    return G


def load_graph(path: str) -> ColoredGraph:
    return graph_from_json_dict(read_json(path))


class GraphFamily(_Record):
    """Ordered multiset of named member graphs, viewed inside their disjoint union.

    Member i occupies white labels [offsets[i], offsets[i] + k_i) of the
    union, and likewise for black labels.  The layout (offsets, each label's
    member, the union graph) is made once; a lone member is its own union.
    """

    __slots__ = ("members", "offsets", "_member_of", "_union")  # members: (name, ColoredGraph) pairs

    def __init__(self, members: tuple):
        if not members:
            raise ValueError("family needs at least one member")
        members = tuple((str(name), g) for name, g in members)
        D = members[0][1].D
        offsets, member_of = [], []
        for i, (name, g) in enumerate(members):
            if g.D != D:
                raise ValueError(f"mixed color counts: member {name!r} has D={g.D}, expected {D}")
            offsets.append(len(member_of))
            member_of.extend([i] * g.k)
        if len(members) == 1:
            union = members[0][1]
        else:
            sigma = [[off + b for off, (_, g) in zip(offsets, members) for b in g.sigma[c]] for c in range(D)]
            union = ColoredGraph(D=D, k=len(member_of), sigma=sigma)
        self._fill(members, tuple(offsets), tuple(member_of), union)

    def __reduce__(self):  # the layout is made again from the members
        return GraphFamily, (self.members,)

    @property
    def D(self) -> int:
        return self._union.D

    @property
    def p(self) -> int:
        return len(self.members)

    @property
    def total_k(self) -> int:
        return self._union.k

    def graphs(self) -> list:
        return [g for _, g in self.members]

    def member_of_label(self) -> list:
        """Member index of each white (equally, black) label of the union."""
        return list(self._member_of)

    def union(self) -> ColoredGraph:
        return self._union

    def subfamily(self, indices) -> "GraphFamily":
        return GraphFamily(tuple(self.members[i] for i in indices))

    def to_json_dict(self) -> dict:
        return {"members": [{"name": name, "graph": g.to_json_dict()} for name, g in self.members]}


def family_of(graphs, names=None) -> GraphFamily:
    if names is None:
        names = [f"G{i + 1}" for i in range(len(graphs))]
    return GraphFamily(tuple(zip(names, graphs)))


def family_from_json_dict(data: dict) -> GraphFamily:
    _json_object(data, "family")
    try:
        raw = data["members"]
    except KeyError:
        raise ValueError("family JSON missing field 'members'")
    if not isinstance(raw, list):
        raise ValueError("family JSON field 'members' is not a list")
    members = []
    for i, entry in enumerate(raw):
        _json_object(entry, f"family member {i}")
        name = entry.get("name", f"G{i + 1}")
        if not isinstance(name, str):
            raise ValueError(f"family member {i} field 'name' must be a string, got {type(name).__name__}")
        if "graph" not in entry:
            raise ValueError(f"family member {i} missing field 'graph'")
        members.append((name, graph_from_json_dict(entry["graph"])))
    return GraphFamily(tuple(members))


def family_file_from_json_dict(data) -> GraphFamily:
    """The family of a family file: family JSON, or a bare graph's as a one-member family."""
    if isinstance(data, dict) and "members" in data:
        return family_from_json_dict(data)
    return family_of([graph_from_json_dict(data)])


def load_family(path: str) -> GraphFamily:
    return family_file_from_json_dict(read_json(path))


class GraphStats(_Record):
    __slots__ = ("k", "kappa", "F_pairwise", "F_total", "is_mst", "is_planar3")  # F_pairwise: D x D, zero diagonal

    def __init__(self, k: int, kappa: int, F_pairwise: tuple, F_total: int, is_mst: bool, is_planar3: bool):
        self._fill(k, kappa, F_pairwise, F_total, is_mst, is_planar3)


@functools.lru_cache(maxsize=1024)  # graphs are frozen; gurau_bound callers ask once per pairing
def graph_stats(G: ColoredGraph) -> GraphStats:
    D, k = G.D, G.k
    mat = [[0] * D for _ in range(D)]
    total = 0
    for i in range(D):
        for j in range(i + 1, D):
            f = G.face_count(i, j)
            mat[i][j] = mat[j][i] = f
            total += f
    kappa = G.n_components()
    is_mst = all(mat[i][j] == 1 for i in range(D) for j in range(i + 1, D))
    is_planar3 = D == 3 and total == 2 * kappa + k
    return GraphStats(
        k=k,
        kappa=kappa,
        F_pairwise=tuple(tuple(row) for row in mat),
        F_total=total,
        is_mst=is_mst,
        is_planar3=is_planar3,
    )


def union_find(n: int, edges) -> list:
    """Component root of each node 0..n-1 of the graph with the given edges."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
    return [find(x) for x in range(n)]


def component_labels(G: ColoredGraph) -> list:
    """Connected components of the bipartite graph, as lists of white labels.

    Whites and blacks pair up inside a component, so white labels determine it.
    """
    k = G.k
    # whites 0..k-1, blacks k..2k-1
    roots = union_find(2 * k, ((s, k + p[s]) for p in G.sigma for s in range(k)))
    groups = {}
    for s in range(k):
        groups.setdefault(roots[s], []).append(s)
    return sorted(groups.values())


def connected_components(G: ColoredGraph) -> list:
    """Split into component subgraphs, each relabeled to 0..k_c-1.

    Returns a list of (subgraph, white_labels) with white_labels the original
    labels, in increasing order.
    """
    out = []
    for whites in component_labels(G):
        pos = {s: i for i, s in enumerate(whites)}
        # black labels of a component coincide with its white label set only
        # up to the sigma maps; collect them per component
        blacks = sorted({G.sigma[0][s] for s in whites})
        bpos = {b: i for i, b in enumerate(blacks)}
        sigma = []
        for p in G.sigma:
            sigma.append(tuple(bpos[p[s]] for s in whites))
        out.append((ColoredGraph(D=G.D, k=len(whites), sigma=tuple(sigma)), whites))
    return out


def disjoint_union(parts) -> tuple:
    """(union graph, family) of graphs sharing the same D: the family's own layout."""
    family = family_of(list(parts))
    return family.union(), family


def conjugate(G: ColoredGraph) -> ColoredGraph:
    """Swap black and white on every vertex.

    In the permutation encoding the old black b becomes the new white b, so
    every permutation is replaced by its inverse.
    """
    return ColoredGraph(D=G.D, k=G.k, sigma=tuple(perms.inverse(p) for p in G.sigma))


def matrix_form(G: ColoredGraph):
    """(|M|, cycle lengths) when G is matrix-like, else None.

    G is matrix-like when its D permutations take at most two values: every
    color in M has alpha = sigma[0] and every other color one permutation
    beta.  Its trace is then the product, over the cycles l of alpha^-1
    beta, of Tr[(X X^dagger)^l], X the N^|M| x N^(D-|M|) flattening of the
    tensor.  A graph whose colors all agree takes M = {0}.  A family is
    matrix-like when its union is, and the union lists its members' cycles
    in member order.
    """
    alpha = G.sigma[0]
    others = {p for p in G.sigma if p != alpha}
    if len(others) > 1:
        return None
    beta = next(iter(others), alpha)
    rows = G.sigma.count(alpha) if others else 1
    return rows, [len(c) for c in perms.cycles(perms.compose(perms.inverse(alpha), beta))]


def flip_edges(G: ColoredGraph, c: int, s1: int, s2: int) -> ColoredGraph:
    """Exchange the color-c edges at white vertices s1 and s2; each is an integer (perms.as_int)."""
    c, s1, s2 = perms.as_int(c, "c"), perms.as_int(s1, "s1"), perms.as_int(s2, "s2")
    if s1 == s2:
        raise ValueError("flip needs two distinct white vertices")
    if not (0 <= c < G.D):
        raise ValueError(f"color index {c} out of range 0..{G.D - 1}")
    for name, s in (("s1", s1), ("s2", s2)):
        if not 0 <= s < G.k:
            raise ValueError(f"white vertex {name}={s} out of range 0..{G.k - 1}")
    img = list(G.sigma[c])
    img[s1], img[s2] = img[s2], img[s1]
    sigma = list(G.sigma)
    sigma[c] = tuple(img)
    return ColoredGraph(D=G.D, k=G.k, sigma=tuple(sigma))


class BoundaryReport(_Record):
    # boundary is None when the pairing is full; white_map and black_map
    # take each new white (black) label to the original one
    __slots__ = ("internal_f0", "boundary", "boundary_k", "white_map", "black_map")

    def __init__(
        self, internal_f0: int, boundary: ColoredGraph | None, boundary_k: int, white_map: tuple, black_map: tuple
    ):
        self._fill(internal_f0, boundary, boundary_k, white_map, black_map)


def boundary_graph(G: ColoredGraph, matches: dict) -> BoundaryReport:
    """Attach color-0 edges per the partial pairing and take the boundary.

    ``matches`` is a mapping of white labels to black labels (0-based),
    injective; each label is an integer (perms.as_int).
    For every color c the 0c-restriction splits into closed cycles (counted
    by internal_f0) and open paths; each open path contributes a color-c
    edge of the boundary graph between its two end vertices.
    """
    if not isinstance(matches, Mapping):
        raise ValueError(f"matches must be a mapping of white to black labels, got {type(matches).__name__}")
    k = G.k
    matched_black = {}
    for w, b in matches.items():
        w, b = perms.as_int(w, "matches key"), perms.as_int(b, f"matches[{w!r}]")
        if not (0 <= w < k and 0 <= b < k):
            raise ValueError(f"pairing entry {w}->{b} out of range")
        if b in matched_black:
            raise ValueError(f"pairing not injective: black {b} matched twice")
        matched_black[b] = w
    free_whites = sorted(set(range(k)) - set(matches))
    free_blacks = sorted(set(range(k)) - set(matched_black))
    black_pos = {b: i for i, b in enumerate(free_blacks)}

    internal = 0
    boundary_sigma = []
    for p in G.sigma:
        # open 0c-paths run from a free white to a free black
        images = []
        on_path = set()
        for w in free_whites:
            b = p[w]
            while b in matched_black:
                v = matched_black[b]
                on_path.add(v)
                b = p[v]
            images.append(black_pos[b])
        boundary_sigma.append(tuple(images))
        # every matched white off those paths lies on a closed 0c-face, so
        # w -> matched_black[p[w]] permutes them, one cycle per face
        closed = [w for w in matches if w not in on_path]
        pos = {w: i for i, w in enumerate(closed)}
        internal += perms.cycle_count([matched_black[p[w]] for w in closed], pos)
    if free_whites:
        boundary = ColoredGraph(D=G.D, k=len(free_whites), sigma=tuple(boundary_sigma))
    else:
        boundary = None
    return BoundaryReport(
        internal_f0=internal,
        boundary=boundary,
        boundary_k=len(free_whites),
        white_map=tuple(free_whites),
        black_map=tuple(free_blacks),
    )
