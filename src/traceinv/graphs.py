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
from dataclasses import dataclass, field
from typing import Optional

from . import perms


@dataclass(frozen=True)
class ColoredGraph:
    D: int
    k: int
    sigma: tuple  # D permutations, white label -> black label

    def __post_init__(self):
        # JSON writes D and k as given, and graph_from_json_dict reads back only integers
        for field in ("D", "k"):
            object.__setattr__(self, field, perms.as_int(getattr(self, field), field))
        if self.D < 2:
            raise ValueError(f"need at least 2 colors, got D={self.D}")
        if self.k < 1:
            raise ValueError(f"need at least one white vertex, got k={self.k}")
        if len(self.sigma) != self.D:
            raise ValueError(f"expected {self.D} permutations, got {len(self.sigma)}")
        checked = []
        for c, p in enumerate(self.sigma):
            try:
                q = perms.check_perm(p)
            except ValueError as exc:
                raise ValueError(f"sigma[{c}] invalid: {exc}") from exc
            if len(q) != self.k:
                raise ValueError(f"sigma[{c}] has size {len(q)}, expected {self.k}")
            checked.append(q)
        object.__setattr__(self, "sigma", tuple(checked))

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
    if "sigma" in data:
        raw = data["sigma"]
        if not isinstance(raw, list):
            raise ValueError("graph JSON field 'sigma' is not a list of integer arrays")
        sigma = []
        for c, images in enumerate(raw):
            if not isinstance(images, list):
                raise ValueError(f"graph JSON field 'sigma[{c}]' is not an integer array")
            sigma.append(tuple(perms.as_int(b, f"sigma[{c}] entry") - 1 for b in images))
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
    with open(path) as fh:
        return graph_from_json_dict(json.load(fh))


@dataclass(frozen=True)
class GraphFamily:
    """Ordered multiset of named member graphs, viewed inside their disjoint union.

    Member i occupies white labels [offsets[i], offsets[i] + k_i) of the
    union, and likewise for black labels.  The layout (offsets, each label's
    member, the union graph) is made once; a lone member is its own union.
    """

    members: tuple  # of (name, ColoredGraph)
    offsets: tuple = field(init=False)
    _member_of: tuple = field(init=False, repr=False, compare=False)
    _union: ColoredGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise ValueError("family needs at least one member")
        members = tuple((str(name), g) for name, g in self.members)
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
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "_member_of", tuple(member_of))
        object.__setattr__(self, "_union", union)

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
    with open(path) as fh:
        return family_file_from_json_dict(json.load(fh))


@dataclass(frozen=True)
class GraphStats:
    k: int
    kappa: int
    F_pairwise: tuple  # D x D symmetric, zero on the diagonal
    F_total: int
    is_mst: bool
    is_planar3: bool


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


def flip_edges(G: ColoredGraph, c: int, s1: int, s2: int) -> ColoredGraph:
    """Exchange the color-c edges at white vertices s1 and s2."""
    if s1 == s2:
        raise ValueError("flip needs two distinct white vertices")
    if not (0 <= c < G.D):
        raise ValueError(f"color index {c} out of range 0..{G.D - 1}")
    img = list(G.sigma[c])
    img[s1], img[s2] = img[s2], img[s1]
    sigma = list(G.sigma)
    sigma[c] = tuple(img)
    return ColoredGraph(D=G.D, k=G.k, sigma=tuple(sigma))


@dataclass(frozen=True)
class BoundaryReport:
    internal_f0: int
    boundary: Optional[ColoredGraph]  # None when the pairing is full
    boundary_k: int
    white_map: tuple  # new white label -> original white label
    black_map: tuple  # new black label -> original black label


def boundary_graph(G: ColoredGraph, matches: dict) -> BoundaryReport:
    """Attach color-0 edges per the partial pairing and take the boundary.

    ``matches`` maps white labels to black labels (0-based), injectively.
    For every color c the 0c-restriction splits into closed cycles (counted
    by internal_f0) and open paths; each open path contributes a color-c
    edge of the boundary graph between its two end vertices.
    """
    k = G.k
    matched_black = {}
    for w, b in matches.items():
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
