"""Exponent calculus: reductions, degree sets of lifted codes, and agreement
with the definitional line-restriction oracle."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liftedcodes.degrees import (
    MAX_GENERATOR_CELLS,
    _lift_dims,
    _max_reduced_subweight_array,
    adeg,
    adim,
    int_reduce,
    lifting_degree,
    pdeg,
    pdim,
    prmdeg,
    prmdim,
    rmdeg,
    rmdim,
)
from liftedcodes.gf import is_prime
from liftedcodes.reference import (
    _p_reduced_sphere,
    a_reduce,
    eta,
    is_p_reduced,
    lift_tuple,
    monomial_membership_oracle,
    p_adic_leq,
    p_reduce,
    pdeg_direct,
)

D_A_EXAMPLE = {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 2)}
D_L_EXAMPLE = {(6, 0, 0), (5, 1, 0), (5, 0, 1), (4, 2, 0), (4, 1, 1), (4, 0, 2),
               (0, 6, 0), (0, 5, 1), (0, 4, 2), (0, 0, 6), (2, 2, 2)}


def test_p_adic_leq_basics():
    assert p_adic_leq(5, 7, 2)       # 101 <= 111 digitwise
    assert not p_adic_leq(2, 5, 2)   # digit 1 of 2 exceeds that of 5
    for a in range(40):
        assert p_adic_leq(a, a, 2)
        assert p_adic_leq(a, a, 3)
    assert p_adic_leq((1, 2), (1, 5), 3)


def test_p_adic_leq_matches_digit_definition():
    for p in (2, 3):
        for a in range(30):
            for b in range(30):
                da = [(a // p**i) % p for i in range(6)]
                db = [(b // p**i) % p for i in range(6)]
                assert p_adic_leq(a, b, p) == all(x <= y for x, y in zip(da, db))


def test_int_reduce():
    assert int_reduce(3, 4) == 3
    assert int_reduce(4, 4) == 1
    assert int_reduce(6, 4) == 3
    assert int_reduce(0, 4) == 0
    # evaluation-preserving: x^e = x^red(e) on GF(q)
    from liftedcodes.gf import GF
    for q in (3, 4, 8):
        F = GF(q)
        for e in range(3 * q):
            r = int_reduce(e, q)
            for a in range(q):
                assert F.pow(a, e) == F.pow(a, r)


def test_degree_sets_build_no_field():
    # the digits come from prime_power(q): no GF(q) and its q^2 tables
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("from liftedcodes import degrees, gf; degrees.adeg(2, 3, 49); "
            "print(gf.GF.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "0\n"


def test_reductions():
    assert a_reduce((5, 2), 4) == (2, 2)
    assert p_reduce((1, 6, 0), 4) == (4, 3, 0)
    assert p_reduce((0, 6, 0), 4) == (0, 6, 0)  # leading coordinate may exceed q-1
    assert is_p_reduced((4, 3, 0), 4)
    assert not is_p_reduced((1, 6, 0), 4)
    assert a_reduce((2, 2), 4) == (2, 2)


def test_reduction_idempotent_and_weight_preserving():
    rng = np.random.default_rng(1)
    for q in (3, 4, 8):
        for _ in range(200):
            d = tuple(int(x) for x in rng.integers(0, 3 * q, size=3))
            ar = a_reduce(d, q)
            assert a_reduce(ar, q) == ar
            assert max(ar) <= q - 1
            pr = p_reduce(d, q)
            assert p_reduce(pr, q) == pr
            assert is_p_reduced(pr, q)
            assert sum(pr) == sum(d)
            assert (a_reduce(d, q) == d) == (max(d) <= q - 1)


def test_p_reduce_order_independence():
    # random admissible application orders reach the same fixed point
    rng = np.random.default_rng(2)
    q = 4
    for _ in range(100):
        d = tuple(int(x) for x in rng.integers(0, 12, size=4))
        target = p_reduce(d, q)
        cur = list(d)
        while True:
            moves = [(i, j) for j in range(len(cur)) for i in range(j)
                     if cur[j] >= q and cur[i] >= 1]
            if not moves:
                break
            i, j = moves[int(rng.integers(len(moves)))]
            cur[i] += q - 1
            cur[j] -= q - 1
        assert tuple(cur) == target


def _tuples(exponents):
    return set(map(tuple, exponents.tolist()))


def test_adeg_worked_example():
    np.testing.assert_array_equal(adeg(2, 2, 4), sorted(D_A_EXAMPLE))


def test_adeg_table_values():
    assert len(adeg(2, 6, 8)) == 37
    for q in (4, 8):
        for k in range(q - 1):
            assert len(adeg(1, k, q)) == k + 1  # order-1 lifting is RS


def test_adeg_out_of_range():
    with pytest.raises(ValueError):
        adeg(2, 3, 4)  # k must be <= q-2


def test_max_reduced_subweight_vs_enumeration():
    # the column digit-sum array agrees with enumerating every shadow
    # explicitly; m = 3 widens the digit-sum grid, q = 27 adds a third axis
    for q, p, m in ((4, 2, 2), (8, 2, 2), (9, 3, 2), (27, 3, 2), (8, 2, 3), (9, 3, 3)):
        for d in itertools.product(range(q), repeat=m):
            best = 0
            for e in itertools.product(*(range(c + 1) for c in d)):
                if p_adic_leq(e, d, p):
                    best = max(best, int_reduce(sum(e), q))
            assert _max_reduced_subweight_array(m, q)[d] == best, (q, d)


def _prime_powers(limit):
    """(q, p, t) for every prime power q = p^t <= limit, by increasing q."""
    return sorted((p ** t, p, t) for p in range(2, limit + 1) if is_prime(p)
                  for t in range(1, limit.bit_length()) if p ** t <= limit)


@pytest.mark.parametrize("q", [q for q, _, _ in _prime_powers(125)])
def test_adim_pdim_count_the_arrays(q):
    # counting on the digit-sum grid gives the lengths of the arrays, for
    # every k and every m <= 4 whose box has at most 3 * 10^5 tuples
    for m in range(1, 5):
        if q ** m > 3 * 10 ** 5:
            break
        assert [adim(m, k, q) for k in range(q - 1)] == \
            [len(adeg(m, k, q)) for k in range(q - 1)], (q, m)
        assert [pdim(m, k, q) for k in range(1, q)] == \
            [len(pdeg(m, k, q)) for k in range(1, q)], (q, m)
        ks = range(m * (q - 1) + 1)
        assert [rmdim(m, k, q) for k in ks] == [len(rmdeg(m, k, q)) for k in ks], (q, m)
        if q ** m <= 2 * 10 ** 4:
            assert [prmdim(m, k, q) for k in ks[1:]] == \
                [len(prmdeg(m, k, q)) for k in ks[1:]], (q, m)


@pytest.mark.parametrize("count, array, m, k", [
    (adim, adeg, 0, 1), (adim, adeg, -1, 1), (adim, adeg, 2, -1), (adim, adeg, 2, 3),
    (pdim, pdeg, 0, 1), (pdim, pdeg, -1, 1), (pdim, pdeg, 2, 0), (pdim, pdeg, 2, 4),
], ids=lambda v: getattr(v, "__name__", v))
def test_adim_pdim_reject_what_the_arrays_reject(count, array, m, k):
    with pytest.raises(ValueError) as want:
        array(m, k, 4)
    with pytest.raises(ValueError) as got:
        count(m, k, 4)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("q, p, t", _prime_powers(2048))
def test_pdim_matches_plane_closed_form(q, p, t):
    # p^2t + p^t - (p(p+1)/2)^t, independent of the arrays, up to q = 2048
    assert pdim(2, q - 1, q) == p ** (2 * t) + p ** t - (p * (p + 1) // 2) ** t


def test_count_limits():
    # counts stay exact up to q^m < 2^63; past it, and past 2^22 grid
    # cells, the count is refused before anything is built
    dims = _lift_dims(31, 4)
    assert dims[0] == 1 and dims[-1] == 4 ** 31
    for count in (adim, pdim, rmdim, prmdim):
        with pytest.raises(ValueError, match=r"q\^m = 4\^32, past the limit 2\^63"):
            count(32, 1, 4)
    with pytest.raises(ValueError, match=r"5\^11 cells, past the limit 2\^22"):
        adim(4, 1, 2048)


def test_box_limit():
    # adeg reads a q^m box of int64 cells: past MAX_GENERATOR_CELLS it is
    # refused before anything is built, while the count needs no box
    assert MAX_GENERATOR_CELLS == 2 ** 25
    for build in (lambda: _max_reduced_subweight_array(3, 1024), lambda: adeg(3, 500, 1024),
                  lambda: pdeg(3, 500, 1024), lambda: rmdeg(3, 500, 1024),
                  lambda: prmdeg(3, 500, 1024)):
        with pytest.raises(ValueError, match=r"at q=1024, m=3 has 1024\^3 cells, "
                                             r"past the limit 2\^25 = 33554432$"):
            build()
    assert adim(3, 500, 1024) < 1024 ** 3 and rmdim(3, 500, 1024) < 1024 ** 3


def test_pdeg_worked_example():
    np.testing.assert_array_equal(pdeg(2, 3, 4), sorted(D_L_EXAMPLE))
    assert lifting_degree(2, 3, 4) == 6


def test_pdeg_order_one_is_prs():
    for q in (4, 8):
        for k in range(1, q):
            np.testing.assert_array_equal(pdeg(1, k, q),
                                          sorted((k - j, j) for j in range(k + 1)))


def test_pdeg_table_values():
    assert len(pdeg(2, 7, 8)) == 45
    assert len(pdeg_direct(3, 3, 4)) == 24


def test_pdeg_direct_equals_chart_union():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in (1, 2, 3):
            for k in range(1, q):
                np.testing.assert_array_equal(pdeg_direct(m, k, q), pdeg(m, k, q),
                                              err_msg=str((q, m, k)))


def test_rm_prm_exponents_are_the_reduced_monomials():
    # rmdeg holds the A-reductions of every monomial of degree <= k;
    # prmdeg the P-reductions of every monomial of degree k, which are all
    # the reduced tuples of weight k
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in (1, 2, 3):
            for k in range(m * (q - 1) + 1):
                simplex = [d for d in itertools.product(range(k + 1), repeat=m) if sum(d) <= k]
                want = sorted({a_reduce(d, q) for d in simplex})
                np.testing.assert_array_equal(rmdeg(m, k, q), want, err_msg=str((q, m, k)))
                if k == 0:
                    continue
                sphere = [d for d in itertools.product(range(k + 1), repeat=m + 1)
                          if sum(d) == k]
                want = sorted(_p_reduced_sphere(m + 1, k, q))
                assert sorted({p_reduce(d, q) for d in sphere}) == want, (q, m, k)
                np.testing.assert_array_equal(prmdeg(m, k, q), want, err_msg=str((q, m, k)))


def test_recursive_dimension_identities():
    # |pdeg(m,k)| = |pdeg(m-1,k)| + |adeg(m,k-1)|, and the telescoped sum
    for q in (4, 8):
        for m in (2, 3):
            for k in range(1, q):
                assert len(pdeg(m, k, q)) == len(pdeg(m - 1, k, q)) + len(adeg(m, k - 1, q))
                assert len(pdeg(m, k, q)) == sum(len(adeg(j, k - 1, q)) for j in range(1, m + 1)) + 1


def test_all_pdeg_tuples_reduced_and_on_sphere():
    for q in (4, 8):
        for m in (2, 3):
            for k in range(1, q):
                v = lifting_degree(m, k, q)
                for d in map(tuple, pdeg(m, k, q).tolist()):
                    assert sum(d) == v
                    assert is_p_reduced(d, q)


def test_rm_sandwich():
    # reduced simplex inside the affine degree set; lifted simplex inside
    # the projective one (leading-coordinate lift)
    for q in (4, 8):
        for k in range(q - 1):
            A = _tuples(adeg(2, k, q))
            simplex = {(a, b) for a in range(k + 1) for b in range(k + 1 - a)}
            assert {a_reduce(d, q) for d in simplex} <= A
        for k in range(1, q):
            P = _tuples(pdeg(2, k, q))
            lifted = set()
            for d0 in range(k + 1):
                for d1 in range(k + 1 - d0):
                    d = (d0, d1, k - d0 - d1)
                    lifted.add(lift_tuple(d, q))
            assert lifted <= P


def test_eta_and_lift():
    assert eta((0, 6, 0)) == (0,)
    assert eta((2, 2, 2)) == (2, 2)
    assert lift_tuple((3, 0), 4) == (6, 0)
    assert lift_tuple((0, 3), 4) == (0, 6)


def test_oracle_worked_examples():
    assert monomial_membership_oracle((2, 2), 2, 4, "affine") is True
    assert monomial_membership_oracle((3, 3), 2, 4, "affine") is False
    assert monomial_membership_oracle((2, 2, 2), 3, 4, "projective") is True


def test_oracle_equivalence_small():
    # q = 4, m = 2: every affine box tuple and every reduced sphere tuple,
    # exhaustively over embeddings for the projective side
    q = 4
    for k in range(q - 1):
        A = _tuples(adeg(2, k, q))
        for d0 in range(q):
            for d1 in range(q):
                got = monomial_membership_oracle((d0, d1), k, q, "affine")
                assert got == ((d0, d1) in A), (k, d0, d1)
    for k in range(1, q):
        P = _tuples(pdeg(2, k, q))
        v = lifting_degree(2, k, q)
        for d in _p_reduced_sphere(3, v, q):
            got = monomial_membership_oracle(d, k, q, "projective", exhaustive=True)
            assert got == (d in P), (k, d)


def test_oracle_per_line_matches_exhaustive():
    # the per-line reduction used at larger q agrees with the full
    # quantifier over embeddings
    q = 4
    for k in (1, 3):
        v = lifting_degree(2, k, q)
        for d in _p_reduced_sphere(3, v, q):
            full = monomial_membership_oracle(d, k, q, "projective", exhaustive=True)
            fast = monomial_membership_oracle(d, k, q, "projective", exhaustive=False)
            assert full == fast, (k, d)



def test_lifting_preconditions_share_their_messages():
    for f in (adeg, adim):
        with pytest.raises(ValueError, match=r"^affine lifting needs m >= 1, got m=0$"):
            f(0, 1, 4)
        with pytest.raises(ValueError, match=r"^affine lifting needs 0 <= k <= q-2, got k=3$"):
            f(2, 3, 4)
    for f in (pdeg, pdim):
        with pytest.raises(ValueError, match=r"^projective lifting needs m >= 1, got m=0$"):
            f(0, 1, 4)
        with pytest.raises(ValueError, match=r"^projective lifting needs 1 <= k <= q-1, got k=0$"):
            f(2, 0, 4)
