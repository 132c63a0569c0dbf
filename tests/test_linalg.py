"""The elimination kernel: inverse, rank and null spaces."""

import numpy as np
import pytest

from liftedcodes import linalg
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
