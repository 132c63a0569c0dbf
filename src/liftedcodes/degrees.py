"""Exponent-tuple calculus for monomial evaluation codes.

Provides the two reduction maps that make evaluation injective (subtract
q-1 from a large coordinate for affine supports; move q-1 one coordinate
to the left for projective ones), and the degree sets of affine and
projective lifted codes.

A monomial's evaluations along every line lie in a fixed Reed-Solomon code
exactly when every digitwise shadow of its exponent has low reduced weight;
`adeg` and `pdeg` enumerate those exponents.  The shadow weights of d are
exactly the sums sum_j c_j p^j with 0 <= c_j <= D_j, where D_j is the sum of
base-p digit j over d's coordinates, so the largest reduced shadow weight
depends on the column digit sums D alone.  The definitional brute force
that pins both down (`monomial_membership_oracle`) and the direct scan
(`pdeg_direct`) are in :mod:`liftedcodes.reference`.

The dimensions are counted on that grid of digit sums, never on the box:
the tuples of [0, p-1]^m with digit sum s number c_m(s), the m-fold
convolution of p ones, so the d in [0, q-1]^m with column digit sums D
number prod_j c_m(D_j).  One integer histogram of the largest reduced
shadow weight over the grid, weighted by those counts, gives
dim Lift(m, k) = `adim` for every k in its cumulative sum, and the
shortening/puncturing recursion dim PLift(m, k) = dim Lift(m, k-1) +
dim PLift(m-1, k) telescopes to `pdim` = 1 + sum_{i=1..m} dim Lift(i, k-1).
The grid has (m(p-1)+1)^t <= q^m cells; it is limited to MAX_GRID_CELLS,
and counts to q^m < 2^63 so that int64 holds them exactly.

What is built is limited before it is allocated: the box [0, q-1]^m that
`adeg` reads holds at most MAX_GENERATOR_CELLS exponents, the limit
`codes.make_code` also puts on a lifted code's dim x n generator.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from liftedcodes.gf import prime_power


def int_reduce(e, q):
    """Reduce an exponent into {0} union [1, q-1], preserving evaluation.

    x^e and x^int_reduce(e) agree as functions on GF(q).  An integer array
    is reduced elementwise.
    """
    if isinstance(e, np.ndarray):
        if (e < 0).any():
            raise ValueError("exponent must be nonnegative")
        return np.where(e <= q - 1, e, (e - 1) % (q - 1) + 1)
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e <= q - 1:
        return e
    return (e - 1) % (q - 1) + 1


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


MAX_GRID_CELLS = 2 ** 22
# cells of a lifted code's generator (codes.make_code) and exponents of the
# box adeg reads: 2.25 times the largest generator the tests build,
# PLift_64(3,5) at 56 x 266,305 = 14.9 M cells
MAX_GENERATOR_CELLS = 2 ** 25


def _digit_sum_grid(m, q):
    """The largest reduced shadow weight at every point D of the grid of
    column digit sums [0, m(p-1)]^t, axis j holding D_j.

    Tabulates int_reduce(sum_j c_j p^j) on the grid and takes running
    maxima along every axis, which maximises over 0 <= c <= D.
    """
    p, t = prime_power(q)
    side = m * (p - 1) + 1
    if side ** t > MAX_GRID_CELLS:
        raise ValueError(f"the digit-sum grid at q={q}, m={m} has {side}^{t} cells, "
                         f"past the limit 2^22 = {MAX_GRID_CELLS}")
    w = np.zeros((), dtype=np.int64)
    for j in range(t):
        w = np.add.outer(w, np.arange(side, dtype=np.int64) * p ** j)
    best = int_reduce(w, q)
    for axis in range(t):
        best = np.maximum.accumulate(best, axis=axis)
    return best


@lru_cache(maxsize=None)
def _max_reduced_subweight_array(m, q):
    """For every d in the box [0, q-1]^m (an m-dimensional array indexed by
    d), the maximum over all digitwise shadows e of d of int_reduce(|e|):
    `_digit_sum_grid` gathered at each d's column digit sums D.
    """
    if q ** m > MAX_GENERATOR_CELLS:
        raise ValueError(f"the exponent box at q={q}, m={m} has {q}^{m} cells, "
                         f"past the limit 2^25 = {MAX_GENERATOR_CELLS}")
    p, t = prime_power(q)
    best = _digit_sum_grid(m, q)
    side = best.shape[0]
    # column digit sums never carry, so the flat grid position of D is the
    # sum over coordinates of each coordinate's own position
    digits = np.arange(q, dtype=np.intp)[:, None] // p ** np.arange(t) % p
    pos = digits @ (side ** np.arange(t - 1, -1, -1))
    flat = np.zeros((), dtype=np.intp)
    for _ in range(m):
        flat = np.add.outer(flat, pos)
    out = best.ravel()[flat]
    out.setflags(write=False)  # cached: shared by every caller
    return out


def _check_affine(m, k, q):
    if m < 1:
        raise ValueError(f"affine lifting needs m >= 1, got m={m}")
    if not 0 <= k <= q - 2:
        raise ValueError(f"affine lifting needs 0 <= k <= q-2, got k={k}")


def _check_projective(m, k, q):
    if m < 1:
        raise ValueError(f"projective lifting needs m >= 1, got m={m}")
    if not 1 <= k <= q - 1:
        raise ValueError(f"projective lifting needs 1 <= k <= q-1, got k={k}")


def adeg(m, k, q):
    """Degree set of the affine lifting of order m of a degree-k code.

    The exponents d in [0, q-1]^m such that every digitwise shadow e of d
    has reduced weight at most k, as an (N, m) array with rows in
    lexicographic order.  N is the code dimension.
    """
    _check_affine(m, k, q)
    return np.argwhere(_max_reduced_subweight_array(m, q) <= k)


@lru_cache(maxsize=None)
def _lift_dims(m, q):
    """dim Lift(m, k) at index k, for k = 0..q-1, counted on the digit-sum
    grid: each cell D weighs prod_j c_m(D_j) box tuples, with c_m the
    m-fold convolution of p ones."""
    if q ** m >= 2 ** 63:
        raise ValueError(f"dimension counts at q={q}, m={m} reach q^m = {q}^{m}, "
                         "past the limit 2^63 of exact int64 counts")
    best = _digit_sum_grid(m, q)
    p, t = prime_power(q)
    c = np.ones(1, dtype=np.int64)
    for _ in range(m):
        c = np.convolve(c, np.ones(p, dtype=np.int64))
    weight = c
    for _ in range(t - 1):
        weight = np.multiply.outer(weight, c)
    hist = np.zeros(q, dtype=np.int64)
    np.add.at(hist, best.ravel(), weight.ravel())
    dims = np.cumsum(hist)
    dims.setflags(write=False)  # cached: shared by every caller
    return dims


def adim(m, k, q):
    """len(adeg(m, k, q)), counted without building the array."""
    _check_affine(m, k, q)
    return int(_lift_dims(m, q)[k])


def pdim(m, k, q):
    """len(pdeg(m, k, q)) by the recursion unrolled:
    1 + sum_{i=1..m} adim(i, k-1, q)."""
    _check_projective(m, k, q)
    return 1 + sum(adim(i, k - 1, q) for i in range(1, m + 1))


def lifting_degree(m, k, q):
    """Homogeneous evaluation degree of the projective lifting: k + (m-1)(q-1)."""
    return k + (m - 1) * (q - 1)


def pdeg(m, k, q):
    """Degree set of the projective lifting, built recursively, as an
    (N, m+1) array with rows in lexicographic order.

    Order-1 liftings are the classical projective Reed-Solomon exponents;
    an order-m exponent either starts with a nonzero coordinate (and its
    tail is an order-m affine exponent of degree k-1) or starts with zero
    (and its tail lifts an order-(m-1) projective exponent):
    PDeg(m,k) = {(v-|d|, d) : d in ADeg(m,k-1)} u {(0, lift(d)) : d in PDeg(m-1,k)}.
    """
    _check_projective(m, k, q)
    if m == 1:
        j = np.arange(k + 1)
        return np.column_stack([j, k - j])
    A = adeg(m, k - 1, q)
    affine = np.column_stack([lifting_degree(m, k, q) - A.sum(axis=1), A])
    assert (affine[:, 0] > 0).all()
    P = pdeg(m - 1, k, q)
    P[np.arange(len(P)), (P != 0).argmax(axis=1)] += q - 1  # lift each row
    out = np.vstack([affine, np.column_stack([np.zeros(len(P), P.dtype), P])])
    return out[np.lexsort(out.T[::-1])]
