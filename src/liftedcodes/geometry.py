"""Affine and projective point enumeration, lines, and line embeddings.

Point orderings are deterministic and stable:

* affine space A^m: all m-tuples in lexicographic order of canonical
  element indices;
* projective space P^m: charts by position of the leading one, from
  (1 : * : ... : *) down to (0 : ... : 0 : 1), each chart ordered
  lexicographically.  Points are stored in standard representative form
  (leftmost nonzero coordinate equals one), so the affine chart occupies
  the first q^m positions and the hyperplane at infinity the last
  theta(m-1, q) positions.  `locate` computes positions in closed form.

Coordinates are element indices.  A point's text is its coordinates' element
texts joined by ":" in parentheses, e.g. "([1,0]:[0,1]:[0,0])" over GF(4)
(`Support.format_point` / `Support.parse_point`).

A line embedding is a rank-2 linear map F_q^2 -> F_q^(m+1), kept as its two
columns.  Its images, in P^1 support order, are read as standard `points`,
support `positions` and standardizing scalars `lams`: restricting an
evaluation vector along the embedding divides out the homogenization
weights lambda^v.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from liftedcodes import linalg


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


def locate(F, V):
    """Standard points, lambdas and support positions of nonzero vectors.

    V is an (N, m+1) array of nonzero vectors.  Each row is scaled by the
    inverse lambda of its leftmost nonzero coordinate, and its P^m position
    is the offset of that coordinate's chart plus the tail after the
    leading one read as a base-q number.  Returns (points, lambdas,
    positions) as arrays; an affine point x of A^m sits where (1 : x) sits
    in P^m, at the base-q number x.
    """
    V = np.asarray(V)
    lead = (V != 0).argmax(axis=1)
    lead_values = V[np.arange(len(V)), lead]
    if np.count_nonzero(lead_values) != len(V):
        raise ValueError("zero vector has no projective representative")
    # omega^-log: a negative index wraps around the q-1 powers of omega
    lams = F.np_exp[-F.np_log[lead_values]]
    points = F.np_mul[lams[:, None], V]
    weights, start = _chart_layout(F.order, V.shape[1])
    return points, lams, start[lead] + points.astype(np.int64) @ weights


@lru_cache(maxsize=64)
def _chart_layout(q, width):
    """Read-only (weights, start) of `locate` for vectors of this width:
    weights[i] = q^(width-1-i), and chart i starts after the sum(weights[:i])
    points of the charts before it, less weights[i] for its leading one."""
    weights = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    start = np.cumsum(weights) - 2 * weights
    weights.flags.writeable = start.flags.writeable = False
    return weights, start


class Support:
    """Ordered evaluation points of A^m or P^m, kept as one coordinate array."""

    def __init__(self, field, m, space):
        if space not in ("affine", "projective"):
            raise ValueError(f"unknown space {space!r}")
        self.field = field
        self.m = m
        self.space = space  # 'affine' | 'projective'
        q = field.order
        if space == "affine":
            numbers, width = np.arange(q ** m), m
        else:
            # chart i is the base-q numbers q^(m-i), ..., 2q^(m-i) - 1
            numbers = np.concatenate([np.arange(q ** e, 2 * q ** e) for e in range(m, -1, -1)])
            width = m + 1
        digits = numbers[:, None] // q ** np.arange(width - 1, -1, -1) % q
        self.coords = digits.astype(field.dtype)

    @cached_property
    def points(self):
        return tuple(map(tuple, self.coords.tolist()))

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.points[i]

    def positions(self, points):
        """Support positions of an (N, width) array of points, by `locate`;
        ValueError if a row is not a point of this support."""
        V = np.asarray(points, dtype=np.int64)
        if (V.ndim != 2 or V.shape[1] != self.coords.shape[1]
                or not ((0 <= V) & (V < self.field.order)).all()):
            raise ValueError(f"not a point of {self!r}")
        if self.space == "affine":
            V = np.hstack([np.ones((len(V), 1), dtype=np.int64), V])
        std, _, pos = locate(self.field, V)
        if not np.array_equal(std, V):
            raise ValueError(f"not a point of {self!r}")
        return pos

    def position(self, point):
        return int(self.positions([point])[0])

    def __eq__(self, other):
        return (isinstance(other, Support) and self.field == other.field
                and self.m == other.m and self.space == other.space)

    def __repr__(self):
        return f"Support({self.space} {self.m}-space over GF({self.field.order}), n={len(self)})"

    def format_point(self, i):
        return "(" + ":".join(self.field.format_element(c) for c in self[i]) + ")"

    def parse_point(self, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"bad point literal: {text!r}")
        # element literals hold no ":"; "()" is the one point of A^0
        body = text[1:-1]
        parts = body.split(":") if body.strip() else []
        point = tuple(self.field.parse_element(s) for s in parts)
        try:
            self.position(point)
        except ValueError:
            width = self.coords.shape[1]
            hint = (f"{self.space} points take {width} coordinates"
                    if self.space == "affine" or len(point) != width
                    else "projective points take leading nonzero coordinate [1]")
            raise ValueError(f"{text!r} is not a point of {self!r} ({hint})") from None
        return point


@lru_cache(maxsize=None)
def _support_cached(field, m, space):
    return Support(field, m, space)


def enumerate_points(F, m, space):
    """Deterministic support of A^m (length q^m) or P^m (length theta).

    m = 0 is allowed as the degenerate single-point case (it arises when
    puncturing an order-1 code to its point at infinity).
    """
    if m < 0:
        raise ValueError("dimension must be >= 0")
    return _support_cached(F, m, space)


def _rank2(F, a, b):
    """Whether the vectors a and b span a line: b is nonzero and a is no
    multiple of b.  The only multiple that can equal a is a[i]/b[i] * b,
    with i the lead of b; a = 0 is that multiple."""
    i = next((j for j, c in enumerate(b) if c), None)
    if i is None:
        return False
    ratio = F.mul(a[i], F.inv(b[i]))
    return any(F.mul(ratio, y) != x for x, y in zip(a, b))


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
        if not _rank2(field, self.col0, self.col1):
            raise ValueError("embedding matrix must have rank 2")

    @cached_property
    def _located(self):
        """`line_images` of the q+1 domain points in P^1 support order;
        computed on first use, as the membership oracle builds many
        embeddings and reads only their columns."""
        F = self.field
        points, lams, positions = line_images(F, np.array([self.col0]), np.array([self.col1]),
                                              np.arange(F.order + 1)[None])
        return points[0], lams[0], positions[0]

    @property
    def points(self):
        """The images' standard points, a (q+1, m+1) array in P^1 support order."""
        return self._located[0]

    @property
    def lams(self):
        """The images' lambdas, an array in P^1 support order."""
        return self._located[1]

    @property
    def positions(self):
        """The images' support positions, an array in P^1 support order."""
        return self._located[2]

    def __repr__(self):
        return f"LineEmbedding(cols={self.col0}x{self.col1})"


@lru_cache(maxsize=None)
def _all_lines_cached(field, m):
    """Every line of P^m as (sorted support positions, r1, r2), in
    lexicographic order of the positions.

    (r1, r2) is the line's reduced echelon basis: r1 has its leading one at
    i, r2 at j > i, and r1[j] = 0.  Each line has exactly one such basis,
    and the images of (1 : x) and (0 : 1) under it are already standard.
    """
    pts = _support_cached(field, m, "projective").coords
    lead = (pts != 0).argmax(axis=1)
    r1, r2 = np.nonzero((lead[:, None] < lead) & (pts[:, lead] == 0))
    dom = np.broadcast_to(np.arange(field.order + 1), (len(r1), field.order + 1))
    lines = np.sort(line_images(field, pts[r1], pts[r2], dom)[2], axis=1)
    order = np.lexsort(lines.T[::-1])
    return lines[order], pts[r1[order]], pts[r2[order]]


def all_lines(support):
    """Every projective line of the support, each a sorted index tuple."""
    return list(map(tuple, _all_lines_cached(support.field, support.m)[0].tolist()))


def line_images(F, col0, col1, dom):
    """`locate` of the images x0*col0 + x1*col1 of P^1 domain positions
    under B embeddings at once.

    col0 and col1 are (B, m+1) arrays of columns, dom a (B, s) array of
    domain positions: x < q is (1 : x) and q is (0 : 1).  Returns
    (points, lams, positions) shaped (B, s, m+1), (B, s) and (B, s).
    """
    x = _support_cached(F, 1, "projective").coords[dom]
    V = linalg.gf_add(F, linalg._lookup(F, F.np_mul, x[..., :1], col0[:, None, :]),
                      linalg._lookup(F, F.np_mul, x[..., 1:], col1[:, None, :]))
    points, lams, positions = locate(F, V.reshape(-1, V.shape[-1]))
    return points.reshape(V.shape), lams.reshape(dom.shape), positions.reshape(dom.shape)


def draw_first_column(P, F, rng):
    """The first column of `random_embedding_through` as a list: uniform
    over the vectors outside span(P), by rejection, one
    ``rng.integers(q, size=m+1)`` draw per candidate."""
    if len(P) < 2 or not any(P):
        raise ValueError(f"no line passes through {tuple(P)}: lines need a nonzero "
                         "point of P^m with m >= 1")
    while True:
        cand = rng.integers(F.order, size=len(P)).tolist()
        if _rank2(F, cand, P):
            return cand


def random_embedding_through(P, F, rng):
    """Uniform embedding with the point at infinity mapping to P.

    The second column is exactly P's standard coordinates (so lambda at
    infinity is one); the first column is `draw_first_column`'s.
    """
    P = tuple(P)
    return LineEmbedding(F, draw_first_column(P, F, rng), P)
