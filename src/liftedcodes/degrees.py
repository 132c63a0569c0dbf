"""Exponent sets of monomial evaluation codes, built and counted.

Each set is an (N, nvars) array with rows in lexicographic order: `rmdeg`
and `adeg` for the Reed-Muller and affine lifted codes, read off the box
[0, q-1]^m, and `prmdeg` and `pdeg` for their projective counterparts.
`rmdeg` keeps the d with |d| <= k.  A monomial's evaluations along every
line lie in a fixed Reed-Solomon code exactly when every digitwise shadow
of its exponent has low reduced weight; `adeg` keeps those exponents.  The
shadow weights of d are exactly the sums sum_j c_j p^j with 0 <= c_j <= D_j,
where D_j is the sum of base-p digit j over d's coordinates, so the largest
reduced shadow weight depends on the column digit sums D alone.

Both projective families are one chart union, split by the first nonzero
coordinate: {(0^m, v)} u U_{i=1..m} {(0^(m-i), v-|d|, d) : d in A(i, k-1)},
with A = adeg and v = lifting_degree(m, k, q) for the projective lifting
and A = rmdeg and v = k for the projective Reed-Muller code.  Chart m
vanishes at infinity, where shortening leaves A(m, k-1); the other charts
are the order m-1 code that puncturing to infinity leaves.

The dimensions are counted, never read off the box.  The tuples of
[0, n-1]^m of weight s number c_m(s), the m-fold convolution of n ones:
`rmdim` sums c_m(s) for s <= k with n = q.  With n = p, the d in [0, q-1]^m
with column digit sums D number prod_j c_m(D_j), and one integer histogram
of the largest reduced shadow weight over the grid of digit sums, weighted
by those counts, gives `adim` for every k in its cumulative sum.  `prmdim`
= 1 + sum_{i=1..m} rmdim(i, k-1) and `pdim` = 1 + sum_{i=1..m} adim(i, k-1)
count the chart unions.  The grid has (m(p-1)+1)^t <= q^m cells; it is
limited to MAX_GRID_CELLS, and counts to q^m < 2^63 so that int64 holds
them exactly.  A box holds at most MAX_GENERATOR_CELLS exponents, the limit
`codes.make_code` also puts on every code's dim x n generator.  The tuple
reductions, the membership oracle and the direct scans are in
:mod:`liftedcodes.reference`.
"""

from __future__ import annotations

import itertools
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


MAX_GRID_CELLS = 2 ** 22
# cells of a code's generator (codes.make_code) and exponents of the box
# adeg or rmdeg reads: 2.25 times the largest generator the tests build,
# PLift_64(3,5) at 56 x 266,305 = 14.9 M cells
MAX_GENERATOR_CELLS = 2 ** 25


def _check_box(m, q):
    if q ** m > MAX_GENERATOR_CELLS:
        raise ValueError(f"the exponent box at q={q}, m={m} has {q}^{m} cells, "
                         f"past the limit 2^25 = {MAX_GENERATOR_CELLS}")


def _check_counts(m, q):
    if q ** m >= 2 ** 63:
        raise ValueError(f"dimension counts at q={q}, m={m} reach q^m = {q}^{m}, "
                         "past the limit 2^63 of exact int64 counts")


@lru_cache(maxsize=None)
def _weight_counts(m, n):
    """The m-fold convolution of n ones, as a tuple of ints: at index s, how
    many tuples of [0, n-1]^m have weight s.  Each convolution is a running
    sum less the same running sum n places back."""
    c = [1]
    for _ in range(m):
        run = list(itertools.accumulate(c + [0] * (n - 1)))
        c = run[:n] + [a - b for a, b in zip(run[n:], run)]
    return tuple(c)


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
    _check_box(m, q)
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
    _check_counts(m, q)
    best = _digit_sum_grid(m, q)
    p, t = prime_power(q)
    c = np.array(_weight_counts(m, p), dtype=np.int64)
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
    """len(pdeg(m, k, q)): 1 + sum_{i=1..m} adim(i, k-1, q)."""
    _check_projective(m, k, q)
    _check_counts(m, q)
    return 1 + sum(adim(i, k - 1, q) for i in range(1, m + 1))


def lifting_degree(m, k, q):
    """Homogeneous evaluation degree of the projective lifting: k + (m-1)(q-1)."""
    return k + (m - 1) * (q - 1)


def _chart_union(m, v, chart):
    """{(0^m, v)} u U_{i=1..m} {(0^(m-i), v-|d|, d) : d in chart(i)}, rows
    in lexicographic order; chart(i) is an (N_i, i) exponent array, built
    from i = m down so that the largest box is checked first."""
    blocks = [np.array([[0] * m + [v]], dtype=np.intp)]
    for i in range(m, 0, -1):
        A = chart(i)
        block = np.zeros((len(A), m + 1), dtype=np.intp)
        block[:, m - i] = v - A.sum(axis=1)
        block[:, m - i + 1:] = A
        blocks.append(block)
    out = np.vstack(blocks)
    return out[np.lexsort(out.T[::-1])]


def pdeg(m, k, q):
    """Degree set of the projective lifting, as an (N, m+1) array with rows
    in lexicographic order: the chart union of adeg(i, k-1, q) at
    v = lifting_degree(m, k, q)."""
    _check_projective(m, k, q)
    return _chart_union(m, lifting_degree(m, k, q), lambda i: adeg(i, k - 1, q))


def rmdeg(m, k, q):
    """Exponents of the Reed-Muller code of degree k: the d in the box
    [0, q-1]^m with |d| <= k, as an (N, m) array with rows in lexicographic
    order.  The box of weights is built in the smallest dtype that holds
    m(q-1)."""
    _check_box(m, q)
    dtype = np.min_scalar_type(m * (q - 1))
    w = np.zeros((), dtype=dtype)
    for _ in range(m):
        w = np.add.outer(w, np.arange(q, dtype=dtype))
    return np.argwhere(w <= k)


def rmdim(m, k, q):
    """len(rmdeg(m, k, q)): the first k+1 entries of the m-fold convolution
    of q ones, summed."""
    _check_counts(m, q)
    return sum(_weight_counts(m, q)[:max(k + 1, 0)])


def prmdeg(m, k, q):
    """Exponents of the projective Reed-Muller code of degree k: the chart
    union of rmdeg(i, k-1, q) at v = k."""
    return _chart_union(m, k, lambda i: rmdeg(i, k - 1, q))


def prmdim(m, k, q):
    """len(prmdeg(m, k, q)): 1 + sum_{i=1..m} rmdim(i, k-1, q)."""
    _check_counts(m, q)
    return 1 + sum(rmdim(i, k - 1, q) for i in range(1, m + 1))
