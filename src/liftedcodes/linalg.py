"""Dense linear algebra over small finite fields.

Matrices are numpy arrays of canonical element indices of one FiniteField,
in the field's element dtype ``F.dtype``.  Characteristic-2 fields add by
XOR of indices, which keeps row elimination at memory bandwidth; odd
characteristic reads the field's add/sub tables elementwise through
``_lookup``, one gather from the flattened table.  Products of a
column of factors with a row (``_multiples``) gather whole contiguous rows
of a product table, never single elements: ``_clear``'s and
``_clear_below``'s row updates and ``gf_matmul``'s rank-one updates go
through it.  ``rref`` and the forward elimination ``_forward`` share one
pivot step (``_pivot``, then a clear): ``rref`` clears every other row,
``_forward`` only the rows below and yields each pivot's source row.
``_clear`` gathers the rows with a nonzero factor, updates them and
scatters them back; in characteristic 2 ``_forward`` instead XORs the
whole contiguous block below the pivot (``_clear_below``) when more than
half of its rows need clearing.  Odd characteristic and ``rref`` keep
the gather; their docstrings say why.  ``rank`` counts the pivots.  A
basis R already reduced, with R[:, pivots] the identity, needs no further
elimination: ``reduced_span_contains`` tests B against it with one
product, B == B[:, pivots] R, so a span test is one ``rref`` and one
product.  ``null_vectors`` runs Gauss-Jordan on a stack of same-shape
matrices at once, for the many small systems of the Monte-Carlo
corrector; its lockstep row update gathers each product from the
flattened multiplication table through ``_lookup``, so it touches only
the stack's own entries whatever q is.
All are adequate at desk scale and deliberately free of structure
shortcuts.
"""

from __future__ import annotations

import numpy as np


def as_matrix(rows, dtype=np.uint8):
    A = np.asarray(rows, dtype=dtype)
    if A.ndim == 1:
        A = A.reshape(1, -1) if A.size else A.reshape(0, 0)
    return A


def _lookup(F, table, A, B):
    """table[A, B] for one of the field's q x q tables, gathered from the
    flattened table through an int32 index (q^2 <= 2^22), not numpy's
    slower 2-D fancy index.  The index is half an intp one, and numpy
    widens it in buffered chunks; `take` would widen all of it at once."""
    return table.ravel()[np.multiply(A, F.order, dtype=np.int32) + B]


def gf_add(F, A, B):
    if F.p == 2:
        return A ^ B
    return _lookup(F, F.np_add, A, B)


def gf_isub(F, A, B):
    """A -= B over the field, in place: no third array in characteristic 2."""
    if F.p == 2:
        A ^= B
    else:
        A[...] = _lookup(F, F.np_sub, A, B)


def gf_scale(F, c, A):
    return F.np_mul[c][A]


def gf_sum(F, A, axis):
    """Field sum along an axis."""
    if F.p == 2:
        return np.bitwise_xor.reduce(A, axis=axis)
    digits = F.np_digits[A].astype(np.int64)  # (..., t)
    s = digits.sum(axis=axis) % F.p
    powers = F.p ** np.arange(F.t, dtype=np.int64)
    return (s * powers).sum(axis=-1).astype(F.dtype)


def gf_matvec(F, A, v):
    """A @ v over the field; A is (r, n), v length n."""
    A = as_matrix(A, F.dtype)
    v = np.asarray(v, dtype=F.dtype)
    prods = F.np_mul[A, v[None, :]]
    return gf_sum(F, prods, axis=1)


def _multiples(F, factors, row):
    """factors[i] * row[j] for every i, j: a (len(factors), len(row)) array.

    Both ways gather whole contiguous rows of a product table instead of
    single elements.  With at least as many factors as field elements, the
    table of row's q multiples is built once, C-ordered by `take`, and
    each factor picks its row of it.  With fewer factors than elements,
    each factor's own row of `F.np_mul` is read and row is gathered from
    it, so a large q never builds a q-row table for a few rows.
    """
    if len(factors) >= F.order:
        return F.np_mul.take(row, axis=1).take(factors, axis=0)
    return F.np_mul.take(factors, axis=0).take(row, axis=1)


def gf_matmul(F, A, B):
    """A @ B over the field: one rank-one update per column of A, added
    into the output in place."""
    A = as_matrix(A, F.dtype)
    B = as_matrix(B, F.dtype)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dimensions differ: {A.shape} times {B.shape}")
    out = np.zeros((A.shape[0], B.shape[1]), dtype=F.dtype)
    for i in range(A.shape[1]):
        col = A[:, i]
        if not col.any():
            continue
        prods = _multiples(F, col, B[i])
        if F.p == 2:
            out ^= prods
        else:
            out[...] = _lookup(F, F.np_add, out, prods)
    return out


def _pivot(F, A, r, c):
    """Move the first nonzero entry at or below row r of column c into row r
    and scale it to one.  Returns the row the entry came from, or -1 if
    there is none.  Rows from r down are zero left of c in both
    eliminations, so only columns c.. move."""
    nz = A[r:, c].nonzero()[0]
    if nz.size == 0:
        return -1
    piv = r + int(nz[0])
    if piv != r:
        row = A[piv, c:].copy()
        A[piv, c:] = A[r, c:]
        A[r, c:] = row
    lead = int(A[r, c])
    if lead != 1:
        A[r, c:] = F.np_mul[F.inv(lead)][A[r, c:]]
    return piv


def _clear(F, A, rows, r, c):
    """Subtract from each of `rows` its column-c entry times pivot row r, in
    one gathered update.  The pivot row is zero left of c, so only columns
    c.. change."""
    if rows.size:
        block = A[rows, c:]
        gf_isub(F, block, _multiples(F, A[rows, c], A[r, c:]))
        A[rows, c:] = block


def _clear_below(F, A, r, c):
    """Characteristic 2 only: XOR into every row below r its column-c entry
    times pivot row r, as one in-place update of the contiguous block
    A[r+1:].  Rows below r are zero left of c, a zero factor XORs nothing
    and the pivot row is not touched, so this equals `_clear` over the
    nonzero rows without their gather and scatter."""
    below = A[r + 1:]
    below ^= _multiples(F, below[:, c], A[r])


def rref(F, A):
    """Reduced row echelon form; returns (R, pivot_columns).  It clears
    with `_clear` in every characteristic: the rows above a pivot are
    cleared too, and over wide, sparse generators most rows of a column
    are zero, so gathering the nonzero ones beats updating all of them."""
    A = as_matrix(A, F.dtype).copy()
    nrows, ncols = A.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r >= nrows:
            break
        if _pivot(F, A, r, c) >= 0:
            rows = A[:, c].nonzero()[0]
            _clear(F, A, rows[rows != r], r, c)
            pivots.append(c)
    return A[:len(pivots)], pivots


def _forward(F, A):
    """Forward elimination of A in place, each pivot clearing only the rows
    below it, so no pass touches a settled entry.  Yields, pivot by pivot,
    the row the pivot was found in, before its rows are cleared: a caller
    that stops early skips the rest.  In characteristic 2, when more than
    half the rows below have a nonzero factor, the whole block below the
    pivot is cleared by XOR (`_clear_below`).  Otherwise only the rows
    with a nonzero factor are gathered (`_clear`): in odd characteristic
    every updated entry is a `_lookup` table read, so skipping zero rows
    pays, and in a wide, sparse generator few rows of a column are
    nonzero, so gathering them moves less than the block would."""
    nrows, ncols = A.shape
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        src = _pivot(F, A, r, c)
        if src >= 0:
            yield src
            factors = A[r + 1:, c]
            if F.p == 2 and 2 * np.count_nonzero(factors) > len(factors):
                _clear_below(F, A, r, c)
            else:
                _clear(F, A, r + 1 + factors.nonzero()[0], r, c)
            r += 1


def rank(F, A):
    """Rank by forward elimination."""
    return sum(1 for _ in _forward(F, as_matrix(A, F.dtype).copy()))


def nullspace(F, A):
    """Rows form a basis of {x : A x = 0}."""
    A = as_matrix(A, F.dtype)
    n = A.shape[1]
    R, pivots = rref(F, A)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((len(free), n), dtype=F.dtype)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = F.np_sub[0][R[:, free].T]  # x_pivot = -R[:, free] x_free
    return basis


def null_vectors(F, A):
    """nullspace(F, A[b])[0] for every slice of a (B, r, c) stack at once.

    Gauss-Jordan runs on all slices in lockstep and stops each slice at its
    first column without a pivot.  Before that column a slice has pivoted
    in every column, so every running slice has its pivot for column j in
    row j and no slice keeps pivot bookkeeping of its own.  The rows that
    later pivots would use are zero in the stopping column, so its entries
    above row j are final: the null vector is their negation with a one at
    j.  Returns (X, has): X[b] is that vector where has[b], and zero where
    A[b] has full column rank.
    """
    A = np.array(A, dtype=F.dtype)
    nslices, nrows, ncols = A.shape
    X = np.zeros((nslices, ncols), dtype=F.dtype)
    has = np.zeros(nslices, dtype=bool)
    live = np.arange(nslices)  # original index of each running slice
    inv = F.np_exp[(F.order - 1 - F.np_log) % (F.order - 1)]  # junk at zero, never read
    for c in range(ncols):
        below = A[:, c:, c] != 0  # (running, nrows - c); empty past the last row
        pivoted = below.any(axis=1)
        if not pivoted.all():
            stop = live[~pivoted]
            X[stop, :c] = F.np_sub[0][A[~pivoted, :c, c]]
            X[stop, c] = 1
            has[stop] = True
            A, live, below = A[pivoted], live[pivoted], below[pivoted]
        if not live.size:
            break
        ar = np.arange(live.size)
        piv = c + below.argmax(axis=1)  # first nonzero at or below row c
        row = A[ar, piv, c:]  # a copy: the pivot rows from column c on
        A[ar, piv, c:] = A[:, c, c:]
        # rows from c down are zero left of c, so only columns c.. change
        row = _lookup(F, F.np_mul, inv[row[:, :1]], row)
        A[:, c, c:] = row
        factors = A[:, :, c].copy()
        factors[:, c] = 0  # the pivot row stays
        gf_isub(F, A[:, :, c:], _lookup(F, F.np_mul, factors[:, :, None], row[:, None, :]))
    return X, has


def inverse(F, M):
    """M^-1 for a square matrix M; ValueError if M is singular."""
    M = as_matrix(M, F.dtype)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("only square matrices have an inverse")
    R, pivots = rref(F, np.hstack([M, np.eye(n, dtype=F.dtype)]))
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return R[:, n:]


def _row_pair(F, A, B):
    """A and B as matrices.  An empty row list (shape (0, 0), as from a
    Python []) takes the other's width; an empty matrix with a width of
    its own, such as np.zeros((0, 3)), keeps it."""
    A, B = as_matrix(A, F.dtype), as_matrix(B, F.dtype)
    return (A.reshape(0, B.shape[1]) if A.shape == (0, 0) else A,
            B.reshape(0, A.shape[1]) if B.shape == (0, 0) else B)


def reduced_span_contains(F, R, pivots, B):
    """True iff every row of B lies in the row space of R, where
    R[:, pivots] is the identity; never when B's rows have another length.

    A word x of that space is x[pivots] times R, since R's columns at the
    pivots are the unit vectors, so one product tests every row of B.  At
    the pivots that product is B[:, pivots] itself, so only the other
    columns are computed."""
    R, B = _row_pair(F, R, B)
    if R.shape[1] != B.shape[1]:
        return False
    free = np.ones(R.shape[1], dtype=bool)
    free[pivots] = False
    return np.array_equal(gf_matmul(F, B[:, pivots], R[:, free]), B[:, free])


def span_all(F, G):
    """Every word in the row space, one per message, message digits varying
    fastest in the last row.  Size grows as q^rows: small inputs only."""
    G = as_matrix(G, F.dtype)
    q = F.order
    out = np.zeros((1, G.shape[1]), dtype=F.dtype)
    for row in G:
        blocks = [gf_add(F, out, gf_scale(F, c, row)[None, :]) for c in range(q)]
        out = np.concatenate(blocks, axis=0)
    return out
