"""The elimination kernel: inverse, rank and null spaces."""

import numpy as np
import pytest

from liftedcodes import linalg, reference
from liftedcodes.codes import make_code
from liftedcodes.gf import GF


@pytest.mark.parametrize("q", [4, 9])
def test_inverse_times_matrix_is_identity(q):
    F = GF(q)
    rng = np.random.default_rng(q)
    done = 0
    while done < 20:
        n = int(rng.integers(1, 6))
        M = rng.integers(q, size=(n, n)).astype(F.dtype)
        if linalg.rank(F, M) < n:
            continue
        Minv = linalg.inverse(F, M)
        eye = np.eye(n, dtype=F.dtype)
        assert np.array_equal(linalg.gf_matmul(F, M, Minv), eye)
        assert np.array_equal(linalg.gf_matmul(F, Minv, M), eye)
        done += 1


def test_inverse_of_singular_matrix_raises():
    F = GF(4)
    with pytest.raises(ValueError):
        linalg.inverse(F, [[1, 2], [2, F.mul(2, 2)]])  # row 2 = 2 * row 1
    with pytest.raises(ValueError):
        linalg.inverse(F, [[0, 0], [0, 1]])


def test_empty_row_list_is_an_empty_system():
    assert linalg.as_matrix([]).shape == (0, 0)
    assert linalg.rank(GF(4), []) == 0
    F = GF(8)
    basis = linalg.nullspace(F, np.zeros((0, 3), dtype=F.dtype))
    assert np.array_equal(basis, np.eye(3, dtype=F.dtype))


@pytest.mark.parametrize("q, k", [(8, 5), (9, 6)])
def test_nullspace_is_the_dual(q, k):
    F = GF(q)
    G = make_code("PLift", q, 2, k).G
    H = linalg.nullspace(F, G)
    n = G.shape[1]
    assert not linalg.gf_matmul(F, G, H.T).any()
    assert linalg.rank(F, H) == n - linalg.rank(F, G)


def test_elimination_above_256_elements():
    F = GF(257)
    assert F.dtype == np.uint16
    M = [[256, 1], [3, 200]]
    Minv = linalg.inverse(F, M)
    assert np.array_equal(linalg.gf_matmul(F, M, Minv), np.eye(2, dtype=F.dtype))


def _rank_cases(F, rng):
    """Matrices whose rank stresses the pivot search: full, deficient by
    construction, repeated rows, tall, wide and empty."""
    q = F.order
    def rand(r, c):
        return rng.integers(q, size=(r, c)).astype(F.dtype)
    cases = [rand(6, 6), rand(12, 5), rand(4, 15), rand(1, 7), rand(7, 1)]
    for r, c, thin in [(10, 12, 3), (9, 7, 1), (14, 14, 6)]:
        cases.append(linalg.gf_matmul(F, rand(r, thin), rand(thin, c)))
    A = rand(5, 9)
    cases.append(np.vstack([A, A, linalg.gf_scale(F, q - 1, A)]))
    cases.append(np.vstack([A[:2]] * 4)[rng.permutation(8)])
    cases.append(np.zeros((5, 8), dtype=F.dtype))
    sparse = rand(8, 10)
    sparse[rng.random(sparse.shape) < 0.8] = 0
    cases.append(sparse)
    cases += [np.zeros((0, 4), dtype=F.dtype), np.zeros((4, 0), dtype=F.dtype)]
    return cases


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 2039, 2048])
def test_rank_equals_rref_rank(q):
    F = GF(q)
    rng = np.random.default_rng(q)
    assert linalg.rank(F, []) == 0
    for _ in range(4):
        for A in _rank_cases(F, rng):
            before = A.copy()
            assert linalg.rank(F, A) == linalg.rref(F, A)[0].shape[0], A
            assert np.array_equal(A, before)  # the input is not eliminated in place


def _null_vector_stack(F, rng, nslices, r, c):
    """A (nslices, r, c) stack mixing full-column-rank, all-zero, zero-row,
    repeated-column and rank-2 slices, so that the first free column falls
    at different places within one stack."""
    q = F.order
    A = rng.integers(q, size=(nslices, r, c)).astype(F.dtype)
    for b in range(nslices):
        kind = b % 5
        if kind == 1:
            A[b] = 0
        elif kind == 2 and r:
            A[b, rng.choice(r, size=min(r, 1 + b % 3), replace=False)] = 0
        elif kind == 3 and c > 1:
            j = int(rng.integers(1, c))
            A[b, :, j] = A[b, :, rng.integers(j)]
        elif kind == 4:
            A[b] = linalg.gf_matmul(F, rng.integers(q, size=(r, 2)),
                                    rng.integers(q, size=(2, c)))
    return A


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 32, 49, 81, 125, 256, 257])
def test_null_vectors_equal_first_nullspace_row(q):
    F = GF(q)
    rng = np.random.default_rng(q)
    full_rank = 0
    # (32, 32) is the corrector's key-equation shape at q = s = 32, k = 16
    for r, c in [(4, 9), (3, 5), (6, 6), (8, 8), (11, 5), (9, 3), (1, 1), (0, 3), (3, 0),
                 (32, 32)]:
        A = _null_vector_stack(F, rng, 30, r, c)
        before = A.copy()
        X, has = linalg.null_vectors(F, A)
        assert np.array_equal(A, before)  # the stack is not eliminated in place
        assert X.shape == (30, c) and has.shape == (30,)
        for b in range(30):
            N = linalg.nullspace(F, A[b])
            assert has[b] == bool(len(N)), (r, c, b)
            assert np.array_equal(X[b], N[0] if len(N) else np.zeros(c, F.dtype)), (r, c, b)
            full_rank += not len(N)
    assert full_rank > 0
    X, has = linalg.null_vectors(F, np.zeros((0, 3, 4), dtype=F.dtype))
    assert X.shape == (0, 4) and has.shape == (0,)


# Reference copies of the two stand-alone loops that rref and rank were
# before they shared `_pivot` and `_clear`: each with its own pivot search,
# swap, scaling and update.  They are byte oracles for the shared step.

def _reference_rref(F, A):
    A = linalg.as_matrix(A, F.dtype).copy()
    nrows, ncols = A.shape
    mul = F.np_mul
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        lead = int(A[r, c])
        if lead != 1:
            A[r] = mul[F.inv(lead)][A[r]]
        colv = A[:, c].copy()
        colv[r] = 0
        rows = colv.nonzero()[0]
        if rows.size:
            updates = mul[:, A[r]][colv[rows]]
            if F.p == 2:
                A[rows] ^= updates
            else:
                A[rows] = F.np_sub[A[rows], updates]
        pivots.append(c)
        r += 1
    return A[:r], pivots


def _reference_rank(F, A):
    A = linalg.as_matrix(A, F.dtype).copy()
    nrows, ncols = A.shape
    mul = F.np_mul
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv], c:] = A[[piv, r], c:]
        lead = int(A[r, c])
        if lead != 1:
            A[r, c:] = mul[F.inv(lead)][A[r, c:]]
        rows = r + 1 + A[r + 1:, c].nonzero()[0]
        if rows.size:
            updates = mul[:, A[r, c:]][A[rows, c]]
            if F.p == 2:
                A[rows, c:] ^= updates
            else:
                A[rows, c:] = F.np_sub[A[rows, c:], updates]
        r += 1
    return r


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 2039, 2048])
def test_rref_and_rank_match_reference_loops(q):
    F = GF(q)
    rng = np.random.default_rng(q)
    for _ in range(4):
        for A in _rank_cases(F, rng):
            R, pivots = linalg.rref(F, A)
            R_ref, pivots_ref = _reference_rref(F, A)
            assert R.dtype == R_ref.dtype and np.array_equal(R, R_ref), A
            assert pivots == pivots_ref, A
            assert linalg.rank(F, A) == _reference_rank(F, A), A


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 2039, 2048])
def test_pivot_step_clears_the_right_rows(q, monkeypatch):
    """rank clears only the rows below each pivot and rref every other row;
    each update leaves the pivot column as that elimination needs it.  In
    characteristic 2 rank XORs the block below the pivot (`_clear_below`)
    when more than half its rows need clearing and gathers the rows
    (`_clear`) otherwise, as it always does in odd characteristic; rref
    always gathers."""
    F = GF(q)
    rng = np.random.default_rng(q)
    clear, clear_below = linalg._clear, linalg._clear_below
    calls = []

    def checked(update, path, A, r, c):
        settled = A[:r + 1].copy()
        update()
        if forward:
            assert np.array_equal(A[:r + 1], settled)  # only the rows below change
            assert not A[r + 1:, c].any()
        else:
            assert np.array_equal(A[:, c], np.eye(len(A), dtype=F.dtype)[r])
        calls.append((forward, path))

    def spy(F, A, rows, r, c):
        assert (rows > r).all() if forward else (rows != r).all()
        checked(lambda: clear(F, A, rows, r, c), "gather", A, r, c)

    def spy_below(F, A, r, c):
        checked(lambda: clear_below(F, A, r, c), "block", A, r, c)

    monkeypatch.setattr(linalg, "_clear", spy)
    monkeypatch.setattr(linalg, "_clear_below", spy_below)
    for A in _rank_cases(F, rng):
        for forward, eliminate in [(True, linalg.rank), (False, linalg.rref)]:
            eliminate(F, A)
    forward_paths = {"block", "gather"} if F.p == 2 else {"gather"}
    assert set(calls) == {(True, path) for path in forward_paths} | {(False, "gather")}


# Reference copies of the forward elimination as it was before the rows
# below a pivot were cleared as one block in characteristic 2: every clear
# gathers the rows with a nonzero factor, updates them and scatters them
# back.  Byte oracles for `_forward`'s yielded rows and eliminated matrix.

def _reference_multiples(F, factors, row):
    if len(factors) >= F.order:
        return F.np_mul.take(row, axis=1)[factors]
    return F.np_mul[factors].take(row, axis=1)


def _reference_pivot(F, A, r, c):
    nz = A[r:, c].nonzero()[0]
    if nz.size == 0:
        return -1
    piv = r + int(nz[0])
    if piv != r:
        A[[r, piv], c:] = A[[piv, r], c:]
    lead = int(A[r, c])
    if lead != 1:
        A[r, c:] = F.np_mul[F.inv(lead)][A[r, c:]]
    return piv


def _reference_clear(F, A, rows, r, c):
    if rows.size:
        block = A[rows, c:]
        linalg.gf_isub(F, block, _reference_multiples(F, A[rows, c], A[r, c:]))
        A[rows, c:] = block


def _reference_forward(F, A):
    nrows, ncols = A.shape
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        src = _reference_pivot(F, A, r, c)
        if src >= 0:
            yield src
            _reference_clear(F, A, r + 1 + A[r + 1:, c].nonzero()[0], r, c)
            r += 1


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 2039, 2048])
def test_forward_matches_reference_loop(q):
    """The same source rows in the same order and the same eliminated
    matrix, byte for byte, on the rank cases and on wide, tall (more rows
    than elements where q allows), all-zero, duplicate-row and zero-column
    matrices."""
    F = GF(q)
    rng = np.random.default_rng(q)
    def rand(r, c):
        return rng.integers(q, size=(r, c)).astype(F.dtype)
    for _ in range(3):
        cases = _rank_cases(F, rng)
        A = rand(6, 9)
        A[:, [0, 4, 8]] = 0  # zero columns, first, inner and last
        B = rand(4, 7)
        cases += [rand(3, 40), rand(min(q + 5, 60), 6), np.zeros((9, 4), dtype=F.dtype), A,
                  np.vstack([B, B[::-1], B])[rng.permutation(12)]]
        for M in cases:
            got, want = M.copy(), M.copy()
            assert list(linalg._forward(F, got)) == list(_reference_forward(F, want)), M
            assert got.dtype == want.dtype and np.array_equal(got, want), M


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_and_rref_against_the_enumerated_span(q):
    """An oracle that shares no code with the elimination: q^rank is the
    number of distinct words in the row space, rref's rows span the same
    words, and its pivot columns hold unit vectors."""
    F = GF(q)
    rng = np.random.default_rng(q)
    checked = 0
    for _ in range(4):
        for A in _rank_cases(F, rng):
            if q ** A.shape[0] > 2 ** 16:
                continue
            words = {w.tobytes() for w in linalg.span_all(F, A)}
            R, pivots = linalg.rref(F, A)
            assert q ** linalg.rank(F, A) == len(words), A
            assert {w.tobytes() for w in linalg.span_all(F, R)} == words, A
            assert np.array_equal(R[:, pivots], np.eye(len(pivots), dtype=F.dtype)), A
            checked += 1
    assert checked >= 30


def test_empty_row_list_is_the_zero_space():
    F = GF(4)
    assert reference.rowspace_equal(F, [], [[0, 0, 0]])
    assert reference.rowspace_equal(F, [[0, 0, 0]], [])
    assert not reference.rowspace_equal(F, [], [[1, 2, 3]])
    assert reference.rowspace_contains(F, [], [[0, 0, 0]])
    assert not reference.rowspace_contains(F, [], [[1, 2, 3]])
    assert reference.rowspace_contains(F, [[1, 2, 3]], [])
    assert linalg.reduced_span_contains(F, [], [], [[0, 0, 0]])
    assert not linalg.reduced_span_contains(F, [], [], [[1, 2, 3]])
    assert linalg.reduced_span_contains(F, [[1, 2, 3]], [0], [])
    assert linalg.reduced_span_contains(F, [], [], [])


def test_rowspace_of_another_width_contains_nothing():
    F = GF(4)
    for A, B in [([[1, 0]], [[1, 0, 0]]), ([[1, 0, 0]], [[1, 0]]), ([[1, 2]], [[0, 0, 0]])]:
        assert not reference.rowspace_contains(F, A, B)
        assert not reference.rowspace_equal(F, A, B)
        assert not linalg.reduced_span_contains(F, A, [0], B)


def test_empty_matrix_keeps_its_width():
    # only a Python [] has no width of its own; an explicit (0, 3) array
    # spans the zero space of length 3, which holds no word of length 2
    F = GF(4)
    for A, B in [(np.zeros((0, 3)), [[0, 0]]), ([[0, 0]], np.zeros((0, 3)))]:
        assert not reference.rowspace_contains(F, A, B)
        assert not reference.rowspace_equal(F, A, B)
    assert not linalg.reduced_span_contains(F, np.zeros((0, 3)), [], [[0, 0]])
    assert not linalg.reduced_span_contains(F, [[1, 0]], [0], np.zeros((0, 3)))
    assert reference.rowspace_contains(F, np.zeros((0, 3)), [[0, 0, 0]])
    assert linalg.reduced_span_contains(F, np.zeros((0, 3)), [], [[0, 0, 0]])
    assert reference.rowspace_equal(F, np.zeros((0, 3)), [])
    assert reference.rowspace_equal(F, [], [])


def test_matmul_rejects_differing_inner_dimensions():
    F = GF(4)
    with pytest.raises(ValueError):
        linalg.gf_matmul(F, np.ones((2, 2), dtype=F.dtype), np.ones((3, 4), dtype=F.dtype))
    with pytest.raises(ValueError):
        linalg.gf_matmul(F, np.ones((2, 3), dtype=F.dtype), np.ones((2, 2), dtype=F.dtype))


# Reference copy of gf_matmul as it was before its rank-one updates
# gathered whole rows of the product table: one 2-D element gather per
# column of A.  A byte oracle for both ways `_multiples` gathers.

def _reference_matmul(F, A, B):
    A = linalg.as_matrix(A, F.dtype)
    B = linalg.as_matrix(B, F.dtype)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=F.dtype)
    for i in range(A.shape[1]):
        col = A[:, i]
        if not col.any():
            continue
        out = linalg.gf_add(F, out, F.np_mul[col[:, None], B[i][None, :]])
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 2039, 2048])
def test_matmul_matches_reference_loop(q):
    """Fewer and more rows than field elements, so both gathers run, and
    empty inner, outer and zero-row shapes."""
    F = GF(q)
    rng = np.random.default_rng(q)
    for r, inner, c in [(3, 5, 7), (q + 3, 4, 6), (1, 1, 1), (9, 12, 2), (4, 0, 5),
                        (0, 5, 3), (5, 3, 0), (0, 0, 0)]:
        A = rng.integers(q, size=(r, inner)).astype(F.dtype)
        B = rng.integers(q, size=(inner, c)).astype(F.dtype)
        if r > 1:
            A[1] = 0  # a zero row of the product
        if inner > 1:
            A[:, 0] = 0  # a skipped rank-one update
        got, want = linalg.gf_matmul(F, A, B), _reference_matmul(F, A, B)
        assert got.dtype == want.dtype and np.array_equal(got, want), (r, inner, c)
        assert got.shape == (r, c)


def _rowspace_pairs(F, rng):
    """(A, B) pairs of one width: the _rank_cases of that width against
    each other, and B built from combinations of A's rows plus one row
    that is in their span or drawn at random."""
    q = F.order
    cases = _rank_cases(F, rng)
    pairs = [(A, B) for A in cases for B in cases if A.shape[1] == B.shape[1]]
    for A in cases:
        r, c = A.shape
        for extra in ["in", "random", None]:
            B = linalg.gf_matmul(F, rng.integers(q, size=(3, r)).astype(F.dtype), A)
            if extra == "in":
                row = linalg.gf_matmul(F, rng.integers(q, size=(1, r)).astype(F.dtype), A)
                B = np.vstack([B, row])
            elif extra == "random":
                B = np.vstack([B, rng.integers(q, size=(1, c)).astype(F.dtype)])
            pairs += [(A, B), (B, A), (A, B[rng.permutation(len(B))])]
        pairs.append((A, A[rng.permutation(r)]))
    # A pivots in its first three columns, so [A; B] has used up A's rows
    # before it reaches the column where B's last row leads
    A = np.hstack([np.eye(3, dtype=F.dtype), rng.integers(q, size=(3, 4)).astype(F.dtype)])
    lead = np.zeros((1, 7), dtype=F.dtype)
    lead[0, 5] = 1
    B = np.vstack([linalg.gf_matmul(F, rng.integers(q, size=(2, 3)).astype(F.dtype), A), lead])
    pairs += [(A, B), (B, A)]
    return pairs


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 2039, 2048])
def test_rowspace_tests_match_their_rank_definitions(q):
    F = GF(q)
    rng = np.random.default_rng(q)
    verdicts = set()
    for A, B in _rowspace_pairs(F, rng):
        ra, rb = linalg.rank(F, A), linalg.rank(F, B)
        rab = linalg.rank(F, np.vstack([A, B]))
        contains = reference.rowspace_contains(F, A, B)
        assert contains == (rab == ra), (A, B)
        assert reference.rowspace_equal(F, A, B) == (ra == rb == rab), (A, B)
        verdicts.add(contains)
    assert verdicts == {True, False}
    for rows in [np.zeros((2, 5), dtype=F.dtype), rng.integers(1, q, size=(2, 5)).astype(F.dtype)]:
        nonzero = bool(rows.any())
        assert reference.rowspace_contains(F, [], rows) == (not nonzero)
        assert reference.rowspace_contains(F, rows, [])
        assert reference.rowspace_equal(F, [], rows) == (not nonzero)
        assert reference.rowspace_equal(F, rows, []) == (not nonzero)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_reduced_span_contains_matches_elimination(q):
    """The one-product test against the [A; B] elimination oracle, with R
    the rref of A, and again with A's columns permuted, so that the pivots
    are out of order as qc_certificate's are: on the _rowspace_pairs, on
    rows built in A's span, and on those rows with one entry perturbed."""
    F = GF(q)
    rng = np.random.default_rng(q)
    pairs = _rowspace_pairs(F, rng)
    for A in _rank_cases(F, rng):
        if A.shape[0]:
            B = linalg.gf_matmul(F, rng.integers(q, size=(4, A.shape[0])).astype(F.dtype), A)
            pairs.append((A, B))
            if A.shape[1]:
                B = B.copy()
                i, j = rng.integers(len(B)), rng.integers(A.shape[1])
                B[i, j] = F.add(int(B[i, j]), int(rng.integers(1, q)))
                pairs.append((A, B))
    verdicts = set()
    for A, B in pairs:
        want = reference.rowspace_contains(F, A, B)
        R, pivots = linalg.rref(F, A)
        assert linalg.reduced_span_contains(F, R, pivots, B) == want, (A, B)
        perm = rng.permutation(A.shape[1])
        where = np.argsort(perm)  # column j of A is column where[j] of A[:, perm]
        assert linalg.reduced_span_contains(F, R[:, perm], where[pivots].tolist(),
                                            B[:, perm]) == want, (A, B, perm)
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q", [3, 9, 25, 27, 2039])
def test_odd_characteristic_add_and_sub_read_the_tables(q):
    """gf_add and gf_isub against a plain 2-D lookup in the field's tables,
    on every pair at small q and broadcast against one row."""
    F = GF(q)
    rng = np.random.default_rng(q)
    if q <= 27:
        A, B = np.divmod(np.arange(q * q), q)
        A, B = A.astype(F.dtype), B.astype(F.dtype)
    else:
        A, B = rng.integers(q, size=(2, 5000)).astype(F.dtype)
    assert np.array_equal(linalg.gf_add(F, A, B), F.np_add[A, B])
    D = A.copy()
    linalg.gf_isub(F, D, B)
    assert D.dtype == F.dtype and np.array_equal(D, F.np_sub[A, B])
    M = rng.integers(q, size=(6, 7)).astype(F.dtype)
    row = rng.integers(q, size=(1, 7)).astype(F.dtype)
    assert np.array_equal(linalg.gf_add(F, M, row), F.np_add[M, row])
    assert np.array_equal(linalg.gf_add(F, row, M), F.np_add[row, M])
