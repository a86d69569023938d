"""Permutations as tuples of 0-based images.

A permutation of size k is a tuple ``p`` with ``p[x]`` the image of ``x``,
``0 <= x < k``.  External formats (JSON, cycle strings) use 1-based labels;
everything in-process is 0-based.
"""

from __future__ import annotations

import operator
import random
import re


def as_int(value, field=None) -> int:
    """value as an int, by operator.index: numpy integers pass; bool, floats and strings are refused.

    A refusal names the field when one is given ("samples must be an integer, got True").
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}" if field else f"expected an integer, got {value!r}")


def as_real(value, field=None) -> float:
    """value as a float, by float(): ints, floats and numpy reals pass; bool, strings, bytes and complex are refused.

    An int too large for a float is refused too.  A refusal names the field
    when one is given ("epsilon must be a real number, got '0.5'").
    """
    if not isinstance(value, (bool, str, bytes, bytearray)):
        try:
            return float(value)
        except (TypeError, OverflowError):
            pass
    raise ValueError(f"{field} must be a real number, got {value!r}" if field else f"expected a real number, got {value!r}")


def from_decimal(text: str, kind=int):
    """text as an int, or a float ("-1.5e-3") when kind is float, in ASCII digits with an optional leading minus.

    A plus, spaces, underscores, non-ASCII digits, "nan" and "inf" are refused.
    """
    tail, what = (r"(\.[0-9]+)?([eE][-+]?[0-9]+)?", ", fraction and exponent") if kind is float else ("", "")
    if not re.fullmatch(r"-?[0-9]+" + tail, text):
        raise ValueError(f"expected ASCII digits with an optional leading minus{what}, got {text!r}")
    return kind(text)


def check_perm(images) -> tuple:
    """Validate and normalize a permutation given as a sequence of integer images."""
    p = tuple(map(as_int, images))
    k = len(p)
    if k == 0:
        raise ValueError("empty permutation")
    if sorted(p) != list(range(k)):
        raise ValueError(f"not a bijection on 0..{k - 1}: {list(images)!r}")
    return p


def identity(k: int) -> tuple:
    return tuple(range(k))


def inverse(p) -> tuple:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def compose(p, q) -> tuple:
    """Composition p after q: x -> p[q[x]]."""
    return tuple(p[y] for y in q)


def cycles(p) -> list:
    """Cycle decomposition, each cycle starting at its smallest element."""
    k = len(p)
    seen = [False] * k
    out = []
    for x in range(k):
        if seen[x]:
            continue
        cyc = []
        y = x
        while not seen[y]:
            seen[y] = True
            cyc.append(y)
            y = p[y]
        out.append(tuple(cyc))
    return out


def cycle_count(p, q=None) -> int:
    """Number of cycles of x -> q[p[x]] on 0..len(p)-1, or of p when q is None.

    q, a sequence or a dict, carries p's images back onto 0..len(p)-1.
    cyc(q p) = cyc(p q), so cycle_count(a, inverse(b)) counts the cycles
    of a b^-1.  One walk; no composition is built.
    """
    n = len(p)
    q = range(n) if q is None else q
    seen = [False] * n
    count = 0
    for x in range(n):
        if not seen[x]:
            count += 1
            while not seen[x]:
                seen[x] = True
                x = q[p[x]]
    return count


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def from_cycle_string(k: int, text: str) -> tuple:
    """Parse cycle notation with 1-based labels, e.g. ``"(1 2 3)(4)"``.

    Labels inside a cycle are separated by spaces or commas.  Elements not
    mentioned are fixed points.
    """
    img = list(range(k))
    body = text.strip()
    if not body:
        return tuple(img)
    consumed = _CYCLE_RE.sub("", body).strip()
    if consumed:
        raise ValueError(f"malformed cycle string: {text!r}")
    moved = set()
    for grp in _CYCLE_RE.findall(body):
        labels = [s for s in re.split(r"[\s,]+", grp.strip()) if s]
        cyc = []
        for s in labels:
            x = from_decimal(s) - 1
            if not 0 <= x < k:
                raise ValueError(f"label {s} out of range 1..{k}")
            if x in moved:
                raise ValueError(f"label {s} repeated in {text!r}")
            moved.add(x)
            cyc.append(x)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return check_perm(img)


def to_cycle_string(p) -> str:
    """1-based cycle notation, fixed points included."""
    return "".join("(" + " ".join(str(x + 1) for x in cyc) + ")" for cyc in cycles(p))


def random_permutation(rng: random.Random, k: int) -> tuple:
    img = list(range(k))
    rng.shuffle(img)
    return tuple(img)
