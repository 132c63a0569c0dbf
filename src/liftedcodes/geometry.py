"""Affine and projective point enumeration, lines, and line embeddings.

Point orderings are deterministic and stable:

* affine space A^m: all m-tuples in lexicographic order of canonical
  element indices;
* projective space P^m: charts by position of the leading one, from
  (1 : * : ... : *) down to (0 : ... : 0 : 1), each chart ordered
  lexicographically.  Points are stored in standard representative form
  (leftmost nonzero coordinate equals one), so the affine chart occupies
  the first q^m positions and the hyperplane at infinity the last
  theta(m-1, q) positions.

A line embedding is a rank-2 linear map F_q^2 -> F_q^(m+1), kept as its two
columns.  Restricting an evaluation vector along an embedding requires the
homogenization weights lambda^v collected by :meth:`LineEmbedding.weight_vector`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def theta(m, q):
    """Number of points of P^m over GF(q): (q^(m+1) - 1) / (q - 1)."""
    return (q ** (m + 1) - 1) // (q - 1)


def standardize(F, vec):
    """Standard representative of a nonzero vector.

    Returns (point, lam) with point = lam * vec and lam the inverse of the
    leftmost nonzero coordinate, so the point's leading coordinate is one.
    """
    i = next((j for j, c in enumerate(vec) if c != 0), None)
    if i is None:
        raise ValueError("zero vector has no projective representative")
    lam = F.inv(vec[i])
    if lam == 1:
        return tuple(vec), 1
    return tuple(F.mul(lam, c) for c in vec), lam


class Support:
    """Ordered evaluation-point list with an index map point -> position."""

    def __init__(self, field, m, space, points):
        self.field = field
        self.m = m
        self.space = space  # 'affine' | 'projective'
        self.points = tuple(points)
        self.index = {pt: i for i, pt in enumerate(self.points)}

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def position(self, point):
        return self.index[tuple(point)]

    def __eq__(self, other):
        return (isinstance(other, Support) and self.field == other.field
                and self.space == other.space and self.points == other.points)

    def __repr__(self):
        return f"Support({self.space} {self.m}-space over GF({self.field.order}), n={len(self)})"

    def format_point(self, i):
        pt = self.points[i]
        return "(" + ":".join(str(self.field.element(c)) for c in pt) + ")"

    def parse_point(self, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"bad point literal: {text!r}")
        body = text[1:-1]
        parts, depth, cur = [], 0, []
        for ch in body:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            if ch == ":" and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        parts.append("".join(cur))
        point = tuple(self.field.parse_element(s).index for s in parts)
        if point not in self.index:
            raise ValueError(f"{text!r} is not a point of {self!r} (projective "
                             "points take leading nonzero coordinate [1])")
        return point


@lru_cache(maxsize=None)
def _support_cached(field, m, space):
    q = field.order
    if space == "affine":
        points = list(itertools.product(range(q), repeat=m))
        return Support(field, m, "affine", points)
    if space == "projective":
        points = []
        for lead in range(m + 1):
            for tail in itertools.product(range(q), repeat=m - lead):
                points.append((0,) * lead + (1,) + tail)
        assert len(points) == theta(m, q)
        return Support(field, m, "projective", points)
    raise ValueError(f"unknown space {space!r}")


def enumerate_points(F, m, space):
    """Deterministic support of A^m (length q^m) or P^m (length theta).

    m = 0 is allowed as the degenerate single-point case (it arises when
    puncturing an order-1 code to its point at infinity).
    """
    if m < 0:
        raise ValueError("dimension must be >= 0")
    return _support_cached(F, m, space)


class LineEmbedding:
    """Rank-2 linear map F_q^2 -> F_q^(m+1), stored by its two columns.

    Maps x = (x0 : x1) in P^1 to x0*col0 + x1*col1.
    """

    def __init__(self, field, col0, col1):
        self.field = field
        self.col0 = tuple(col0)
        self.col1 = tuple(col1)
        if len(self.col0) != len(self.col1):
            raise ValueError("columns of unequal length")
        self.m = len(self.col0) - 1
        if _rank2(field, self.col0, self.col1) != 2:
            raise ValueError("embedding matrix must have rank 2")
        self._info = None

    @classmethod
    def from_rows(cls, field, rows):
        cols = list(zip(*rows))
        return cls(field, cols[0], cols[1])

    def domain_points(self):
        """Standard representatives of P^1 in support order."""
        return enumerate_points(self.field, 1, "projective").points

    def map_raw(self, x):
        """Image vector of a P^1 representative x = (x0, x1), unnormalized."""
        F = self.field
        x0, x1 = x
        return tuple(F.add(F.mul(x0, a), F.mul(x1, b))
                     for a, b in zip(self.col0, self.col1))

    def image_info(self):
        """Per-position (standard point, lambda) along P^1 support order."""
        if self._info is None:
            self._info = tuple(standardize(self.field, self.map_raw(x))
                               for x in self.domain_points())
        return self._info

    def image_points(self):
        return tuple(pt for pt, _ in self.image_info())

    def line_indices(self, support):
        """The embedded line as a sorted tuple of support positions."""
        return tuple(sorted(support.position(pt) for pt in self.image_points()))

    def weight_vector(self, v):
        """(q+1)-tuple of lambda^v in P^1 support order; v >= 1."""
        if v < 1:
            raise ValueError("weight vector needs a positive degree")
        F = self.field
        e = (v - 1) % (F.order - 1) + 1  # v > 0 mapped into [1, q-1]
        return tuple(F.pow(lam, e) for _, lam in self.image_info())

    def __repr__(self):
        return f"LineEmbedding(cols={self.col0}x{self.col1})"


def _rank2(F, a, b):
    # rank of the (m+1) x 2 matrix [a | b]
    i = next((j for j, c in enumerate(a) if c), None)
    if i is None:
        return 1 if any(b) else 0
    lam = F.div(b[i], a[i])
    for x, y in zip(a, b):
        if F.sub(y, F.mul(lam, x)) != 0:
            return 2
    return 1


def lines_through(P, support):
    """All projective lines through P, as sorted tuples of support positions.

    There are theta(m-1, q) of them and they partition P^m minus P.
    """
    F = support.field
    P = tuple(P)
    if P not in support.index:
        raise ValueError("point not in support")
    q = F.order
    seen = set()
    lines = []
    for Q in support.points:
        if Q == P or support.position(Q) in seen:
            continue
        L = LineEmbedding(F, Q, P)
        idx = L.line_indices(support)
        lines.append(idx)
        pos_p = support.position(P)
        seen.update(i for i in idx if i != pos_p)
    lines.sort()
    assert len(lines) == theta(support.m - 1, q)
    return lines


@lru_cache(maxsize=None)
def _all_lines_cached(field, m):
    support = enumerate_points(field, m, "projective")
    seen = set()
    lines = []
    for i, P in enumerate(support.points):
        for Q in support.points[i + 1:]:
            L = LineEmbedding(field, Q, P)
            idx = L.line_indices(support)
            if idx not in seen:
                seen.add(idx)
                lines.append(idx)
    lines.sort()
    return tuple(lines)


def all_lines(support):
    """Every projective line of the support, each a sorted index tuple."""
    return list(_all_lines_cached(support.field, support.m))


@lru_cache(maxsize=None)
def standard_line_embeddings(field, m):
    """One weight-free embedding per line of P^m, in all_lines order."""
    support = enumerate_points(field, m, "projective")
    return tuple(standard_line_embedding(field, [support[i] for i in line])
                 for line in _all_lines_cached(field, m))


def random_embedding_through(P, F, rng):
    """Uniform embedding with the point at infinity mapping to P.

    The second column is exactly P's standard coordinates (so lambda at
    infinity is one); the first column is uniform over vectors outside
    span(P), by rejection.
    """
    P = tuple(P)
    q = F.order
    mp1 = len(P)
    while True:
        cand = tuple(int(c) for c in rng.integers(q, size=mp1))
        if any(cand) and not _is_multiple(F, cand, P):
            return LineEmbedding(F, cand, P)


def _is_multiple(F, v, w):
    # v = lam * w for some lam (w assumed nonzero)
    i = next(j for j, c in enumerate(w) if c)
    lam = F.div(v[i], w[i])
    return all(F.sub(x, F.mul(lam, y)) == 0 for x, y in zip(v, w))


def standard_line_embedding(F, line_points):
    """An embedding of the given line whose weight vector is all ones.

    Uses the line's unique point with the latest leading-one position as the
    second column; every image of a standard representative of P^1 is then
    already standard.
    """
    pts = sorted(line_points)
    def lead(pt):
        return next(j for j, c in enumerate(pt) if c)
    b = max(pts, key=lead)
    a = next(pt for pt in pts if pt != b)
    L = LineEmbedding(F, a, b)
    assert all(lam == 1 for _, lam in L.image_info())
    return L


def all_embeddings(F, m):
    """All rank-2 maps F_q^2 -> F_q^(m+1), one per scalar class.

    The first column runs over standard representatives, the second over
    all vectors outside its span.
    """
    proj = enumerate_points(F, m, "projective")
    q = F.order
    for a in proj.points:
        for b in itertools.product(range(q), repeat=m + 1):
            if any(b) and not _is_multiple(F, b, a):
                yield LineEmbedding(F, a, b)
