"""Brute-force references that the tests and `selftest` judge the library by.

The library never imports this module.  It keeps the definitions as
literal as they are slow: the affine and projective tuple reductions, the
line-restriction membership oracle (the lifting definition of Guo, Kopparty
and Sudan) and its whole-code form, the line-check matrix, the direct
degree-set scan, nearest-codeword PRS decoding, the Reed-Muller and
projective Reed-Muller dimension formulas, parity-check membership,
row-space membership and equality by [A; B] elimination, line restriction
and the MDS column certificate.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from liftedcodes import linalg
from liftedcodes.codes import Word, _strip_reads, make_code
from liftedcodes.degrees import _max_reduced_subweight_array, int_reduce, lifting_degree
from liftedcodes.geometry import (
    LineEmbedding,
    _all_lines_cached,
    enumerate_points,
    line_images,
    locate,
    theta,
)
from liftedcodes.gf import GF


# ---------------------------------------------------------------------------
# Tuple reductions and degree sets by direct scan
# ---------------------------------------------------------------------------

def a_reduce(d, q):
    """Reduce every coordinate into [0, q-1] by repeated q-1 subtractions."""
    return tuple(int_reduce(c, q) for c in d)


def is_p_reduced(d, q):
    for i, c in enumerate(d):
        if c >= q:
            if any(d[j] != 0 for j in range(i)):
                return False
            if any(d[j] > q - 1 for j in range(i + 1, len(d))):
                return False
    return True


def p_reduce(d, q):
    """Move excess q-1 blocks leftward until the tuple is reduced.

    Applies the shift with the largest source coordinate first and the
    smallest destination first; the maps commute so the order is cosmetic.
    Preserves the weight and the evaluation of the monomial.
    """
    d = list(d)
    changed = True
    while changed:
        changed = False
        for j in range(len(d) - 1, 0, -1):
            if d[j] >= q:
                i = next((i for i in range(j) if d[i] >= 1), None)
                if i is not None:
                    d[i] += q - 1
                    d[j] -= q - 1
                    changed = True
    return tuple(d)


def p_adic_leq(a, b, p):
    """True iff every base-p digit of a is <= the matching digit of b.

    Accepts integers or same-length tuples (compared componentwise).
    """
    if isinstance(a, tuple) or isinstance(b, tuple):
        return all(p_adic_leq(x, y, p) for x, y in zip(a, b))
    if a < 0 or b < 0:
        raise ValueError("p-adic order is defined on nonnegative integers")
    while a or b:
        if a % p > b % p:
            return False
        a //= p
        b //= p
    return True


def leftmost_nonzero(d):
    return next(i for i, c in enumerate(d) if c)


def lift_tuple(d, q):
    """Add q-1 to the leftmost nonzero coordinate."""
    i = leftmost_nonzero(d)
    return d[:i] + (d[i] + q - 1,) + d[i + 1:]


def eta(d):
    """Suffix after the leading nonzero coordinate."""
    return d[leftmost_nonzero(d) + 1:]


def _p_reduced_sphere(nvars, v, q):
    """All reduced tuples of the given weight: either inside the box, or one
    oversized leading coordinate followed by a boxed tail."""
    out = []
    # fully boxed tuples summing to v
    def boxed(n, s, prefix):
        if n == 0:
            if s == 0:
                out.append(prefix)
            return
        for c in range(min(q - 1, s), -1, -1):
            boxed(n - 1, s - c, prefix + (c,))
    boxed(nvars, v, ())
    # one oversized coordinate at position i, zeros before, boxed tail after
    for i in range(nvars):
        tailn = nvars - i - 1
        for tail in itertools.product(range(q), repeat=tailn):
            head = v - sum(tail)
            if head >= q:
                out.append((0,) * i + (head,) + tail)
    return out


def pdeg_direct(m, k, q):
    """Same array as pdeg, by scanning reduced weight-v tuples and testing
    the shadow condition on the suffix after the leading coordinate."""
    if not 1 <= k <= q - 1:
        raise ValueError(f"projective lifting needs 1 <= k <= q-1, got k={k}")
    v = lifting_degree(m, k, q)
    mrw = _max_reduced_subweight_array(m, q)  # suffixes have length <= m
    out = set()
    for d in _p_reduced_sphere(m + 1, v, q):
        tail = eta(d)
        padded = tail + (0,) * (m - len(tail))
        if mrw[padded] <= k - 1:
            out.add(d)
    return np.array(sorted(out), dtype=np.intp).reshape(-1, m + 1)


# ---------------------------------------------------------------------------
# Ground-truth oracle: restrict the monomial to every line and test
# Reed-Solomon membership definitionally.
# ---------------------------------------------------------------------------

def map_raw(L, x):
    """Image vector of a P^1 representative x = (x0, x1) under the
    embedding L, unnormalized."""
    F = L.field
    x0, x1 = x
    return tuple(F.add(F.mul(x0, a), F.mul(x1, b))
                 for a, b in zip(L.col0, L.col1))


@lru_cache(maxsize=None)
def standard_line_embeddings(field, m):
    """One weight-free embedding per line of P^m, in all_lines order."""
    _, R1, R2 = _all_lines_cached(field, m)
    return tuple(LineEmbedding(field, a, b) for a, b in zip(R1.tolist(), R2.tolist()))


def standard_line_embedding(F, line_points):
    """An embedding of the given line whose weight vector is all ones.

    Its columns are the line's reduced echelon basis: the point with the
    latest leading one, which sorts first, as the second column and the
    next point in sorted order as the first.
    """
    pts = sorted(line_points)
    return LineEmbedding(F, pts[1], pts[0])


def all_embeddings(F, m):
    """All rank-2 maps F_q^2 -> F_q^(m+1), one per scalar class.

    The first column runs over standard representatives, the second over
    all vectors outside its span: the nonzero vectors located elsewhere.
    """
    proj = enumerate_points(F, m, "projective")
    vectors = enumerate_points(F, m + 1, "affine").coords[1:]
    located_at = locate(F, vectors)[2]
    for i, a in enumerate(proj.points):
        for b in vectors[located_at != i].tolist():
            yield LineEmbedding(F, a, b)


def monomial_membership_oracle(d, k, q, space, exhaustive=None):
    """Definitional membership of one monomial in the lifted code.

    Evaluates the monomial along lines and tests Reed-Solomon membership:
    affine uses one embedding per line (translates of a direction agree up
    to reparametrization), projective defaults to every embedding up to
    scalar where that is affordable and to one representative per line
    otherwise (restrictions along the same line differ by a degree-
    preserving substitution, so membership is line-invariant).
    """
    F = GF(q)
    d = tuple(d)
    m = len(d) if space == "affine" else len(d) - 1
    if space == "affine":
        rs = make_code("RS", F, 1, k)
        sup = enumerate_points(F, m, "affine")
        seen = set()
        dirs = enumerate_points(F, m - 1, "projective").points if m > 1 else [(1,)]
        for direction in dirs:
            for base in sup.points:
                key = _affine_line_key(F, base, direction)
                if key in seen:
                    continue
                seen.add(key)
                vals = [0] * q
                for t in range(q):
                    pt = tuple(F.add(b, F.mul(t, dd)) for b, dd in zip(base, direction))
                    acc = 1
                    for c, e in zip(pt, d):
                        acc = F.mul(acc, F.pow(c, e))
                    vals[t] = acc
                if not contains(rs, vals):
                    return False
        return True

    if space == "projective":
        if exhaustive is None:
            exhaustive = q <= 4
        if exhaustive:
            embeddings = all_embeddings(F, m)
        else:
            embeddings = standard_line_embeddings(F, m)
        dom = enumerate_points(F, 1, "projective").points
        for L in embeddings:
            vals = []
            for x in dom:
                raw = map_raw(L, x)
                acc = 1
                for c, e in zip(raw, d):
                    acc = F.mul(acc, F.pow(c, e))
                vals.append(acc)
            if not contains(make_code("PRS", F, 1, k), vals):
                return False
        return True

    raise ValueError(f"unknown space {space!r}")


def line_check_matrix(F, m, k, space):
    """The lifting definition as one parity-check matrix.

    For every line of P^m (space "projective") or of A^m ("affine"), the
    parity rows of PRS_q(k) or RS_q(k) sit at the line's positions, in
    domain order, so a word lies in the lifted code iff every row checks
    it.  The lines are `_all_lines_cached`'s echelon bases (r1, r2): the
    images of (1 : x) and (0 : 1) are already standard, every lambda is
    one, and no weight is stripped.  The affine lines are those with
    r1[0] = 1, read at the domain positions x < q, which land in the first
    q^m positions of P^m, where A^m sits.
    """
    q = F.order
    _, R1, R2 = _all_lines_cached(F, m)
    if space == "affine":
        keep = R1[:, 0] == 1
        R1, R2, n, width, kind = R1[keep], R2[keep], q ** m, q, "RS"
    elif space == "projective":
        n, width, kind = theta(m, q), q + 1, "PRS"
    else:
        raise ValueError(f"unknown space {space!r}")
    checks = make_code(kind, F, 1, k).parity_check()
    positions = line_images(F, R1, R2, np.broadcast_to(np.arange(width), (len(R1), width)))[2]
    H = np.zeros((len(R1), len(checks), n), dtype=F.dtype)
    H[np.arange(len(R1))[:, None, None], np.arange(len(checks))[:, None],
      positions[:, None, :]] = checks
    return H.reshape(-1, n)


def _affine_line_key(F, base, direction):
    # canonicalize an affine line (base + t*direction) by its point set
    pts = []
    for t in range(F.order):
        pts.append(tuple(F.add(b, F.mul(t, dd)) for b, dd in zip(base, direction)))
    return frozenset(pts)


# ---------------------------------------------------------------------------
# Codes, decoding and distance
# ---------------------------------------------------------------------------

def _binom(n, r):
    if r < 0 or n < 0:
        return 0
    return math.comb(n, r)


def rm_dimension(m, d, q):
    """Dimension of the order-m Reed-Muller code of total degree <= d."""
    return sum((-1) ** j * _binom(m, j) * _binom(i - j * q + m - 1, i - j * q)
               for i in range(d + 1) for j in range(m + 1))


def prm_dimension(m, v, q):
    """Dimension of the projective Reed-Muller code of degree v."""
    total = 0
    for t in range(1, v + 1):
        if (t - v) % (q - 1) != 0:
            continue
        total += sum((-1) ** j * _binom(m + 1, j) * _binom(t - j * q + m, t - j * q)
                     for j in range(m + 2))
    return total


def contains(C, values):
    """Whether the word lies in the code C: its parity checks all vanish."""
    H = C.parity_check()
    if H.size == 0:
        return True
    v = np.asarray(values, dtype=C.field.dtype)
    return not linalg.gf_matvec(C.field, H, v).any()


def rowspace_contains(F, A, B):
    """True iff every row of B lies in the row space of A; never when B's
    rows have another length.  The oracle `linalg.reduced_span_contains`
    is pinned to.

    One forward elimination of [A; B] (`linalg._forward`), which stops at
    the first pivot found in a row of B.  Until then every swap stays among
    A's rows, so each row below them is a row of B minus a word of A's row
    space.  Such a pivot leads at a column where no word of A's row space
    can lead: the settled rows lead left of it, and A's remaining rows are
    zero up to and in it.
    """
    A, B = linalg._row_pair(F, A, B)
    if A.shape[1] != B.shape[1]:
        return False
    return all(src < len(A) for src in linalg._forward(F, np.vstack([A, B])))


def rowspace_equal(F, A, B):
    """True iff A and B have the same row space: each lies in the other's."""
    return rowspace_contains(F, A, B) and rowspace_contains(F, B, A)


def restrict_to_line(word, L, v):
    """Divide out the homogenization weights to read a line restriction.

    For a degree-v evaluation word c and embedding L this is the evaluation
    of the restricted polynomial on the projective line: q+1 coordinate
    reads, erasures pass through.
    """
    F = L.field
    if word.support != enumerate_points(F, L.m, "projective"):
        raise ValueError(f"{L!r} does not map into {word.support!r}")
    return Word(enumerate_points(F, 1, "projective"), _strip_reads(word, L.positions, L.lams, v))


def prs_decode_bruteforce(y, k, F):
    """Nearest-codeword search over all q^(k+1) messages (small q only)."""
    q = F.order
    if q ** (k + 1) > 300_000:
        raise ValueError("brute-force oracle restricted to small parameters")
    vals = list(y.values) if isinstance(y, Word) else list(y)
    non_erased = [i for i, v in enumerate(vals) if v is not None]
    s = len(non_erased)
    t = (s - k - 1) // 2
    C = make_code("PRS", F, 1, k)
    words = linalg.span_all(F, C.G)
    # argmin keeps the first nearest word in span_all order
    dist = (words[:, non_erased] != [vals[i] for i in non_erased]).sum(axis=1)
    best = int(dist.argmin())
    return words[best].tolist() if dist[best] <= t else None


_MDS_CHUNK = 4096  # column subsets per null_vectors call


def singular_column_blocks(C):
    """One bool per dim-subset of generator columns, in
    itertools.combinations order: True where that dim x dim block is
    singular.  A square block is singular iff it has a null vector, so
    each chunk of _MDS_CHUNK blocks is one (chunk, dim, dim) stack for
    linalg.null_vectors, whose `has` is the verdict.  A chunk's stack holds
    chunk x dim^2 field elements: 4,096 x 16^2 bytes = 1 MiB at dim = 16
    for q <= 256, and the elimination indexes it with an int32 array of
    the same shape (4 MiB)."""
    subsets = itertools.combinations(range(C.length), C.dim)
    verdicts = []
    while chunk := list(itertools.islice(subsets, _MDS_CHUNK)):
        verdicts.append(linalg.null_vectors(C.field, C.G[:, chunk].transpose(1, 0, 2))[1])
    return np.concatenate(verdicts)


def mds_exact_distance(C):
    """Exact distance of a maximum-distance-separable candidate, by column
    exhaustion: if every dim-subset of generator columns has full rank
    (`singular_column_blocks`) then no codeword has more than dim-1 zeros,
    pinning d = n - dim + 1."""
    if singular_column_blocks(C).any():
        raise AssertionError("code is not MDS; exhaustive sweep required")
    # an explicit word of weight n - dim + 1 exists: a polynomial with
    # dim-1 distinct roots
    return C.length - C.dim + 1
