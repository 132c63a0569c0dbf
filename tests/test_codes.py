"""Code construction: dimensions against published tables, the worked
encoding example, line restrictions, shortening/puncturing, automorphisms."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftedcodes import codes, degrees, linalg
from liftedcodes.codes import (
    Word,
    apply_affine_action,
    apply_projective_action,
    code_equal,
    encode,
    evaluate_monomials,
    make_code,
    puncture_to_infinity,
    random_codeword,
    shorten_at_infinity,
    strip_weights,
    word_from_text,
    word_to_text,
)
from liftedcodes.gf import GF, is_prime
from liftedcodes.geometry import LineEmbedding, all_lines, enumerate_points, random_embedding_through
from liftedcodes.reference import contains, prm_dimension, restrict_to_line, rm_dimension, \
    standard_line_embedding


def test_plift_4_2_3_parameters():
    C = make_code("PLift", 4, 2, 3)
    assert C.length == 21
    assert C.dim == 11
    assert C.v == 6


def test_prs_parameters():
    for q in (4, 8):
        for k in range(q):
            C = make_code("PRS", q, 1, k)
            assert C.length == q + 1
            assert C.dim == k + 1


def test_lift_16_2_14_dimension():
    assert make_code("Lift", 16, 2, 14).dim == 175


def test_generator_full_rank_across_kinds():
    cases = [("RS", 8, 1, 5), ("PRS", 8, 1, 5), ("RM", 4, 2, 3), ("PRM", 4, 2, 3),
             ("Lift", 4, 2, 2), ("PLift", 4, 2, 3), ("RM", 3, 3, 4), ("PRM", 3, 3, 4),
             ("Lift", 8, 3, 6), ("PLift", 8, 2, 7), ("PRM", 9, 2, 10)]
    for kind, q, m, k in cases:
        C = make_code(kind, q, m, k)
        assert linalg.rank(C.field, C.G) == C.dim, (kind, q, m, k)


def test_rm_prm_dimension_formulas():
    # closed formulas match degree-set counts, below and above q-1
    for q, m in ((4, 2), (3, 2), (4, 3)):
        for k in range(1, m * (q - 1) + 1):
            assert make_code("RM", q, m, k).dim == rm_dimension(m, k, q), (q, m, k)
            assert make_code("PRM", q, m, k).dim == prm_dimension(m, k, q), (q, m, k)
    # the counts match them for every prime power q <= 64, m <= 4 and k
    for q in (p ** t for p in range(2, 65) if is_prime(p) for t in range(1, 7) if p ** t <= 64):
        for m in range(1, 5):
            ks = range(m * (q - 1) + 1)
            assert [degrees.rmdim(m, k, q) for k in ks] == \
                [rm_dimension(m, k, q) for k in ks], (q, m)
            assert [degrees.prmdim(m, k, q) for k in ks[1:]] == \
                [prm_dimension(m, k, q) for k in ks[1:]], (q, m)
    # binomial regime
    assert make_code("RM", 4, 2, 3).dim == 10
    assert make_code("PRM", 4, 2, 2).dim == 6
    assert prm_dimension(2, 3, 4) == 10


def test_rm_prm_coincide_with_rs_prs_at_order_one():
    for q in (3, 4, 8):
        for k in range(1, q - 1):
            assert code_equal(make_code("RM", q, 1, k), make_code("RS", q, 1, k))
            assert code_equal(make_code("PRM", q, 1, k), make_code("PRS", q, 1, k))


def test_rm_inside_lift():
    for q in (4, 8):
        for k in range(q - 1):
            RM = make_code("RM", q, 2, k)
            L = make_code("Lift", q, 2, k)
            assert linalg.reduced_span_contains(L.field, *L.reduced(), RM.G), (q, k)


def test_encode_linearity_and_units():
    C = make_code("PLift", 4, 2, 3)
    zero = encode(C, [0] * C.dim)
    assert all(v == 0 for v in zero.values)
    for i in (0, 5, C.dim - 1):
        msg = [0] * C.dim
        msg[i] = 1
        assert encode(C, msg).values == list(C.G[i])
    with pytest.raises(ValueError):
        encode(C, [0] * (C.dim - 1))


def test_encode_worked_example():
    # f = X_1 in PRM_3(2, 1): values at the worked example points
    C = make_code("PRM", 3, 2, 1)
    tuples = C.degree_tuples
    assert (0, 1, 0) in tuples
    msg = [0] * C.dim
    msg[tuples.index((0, 1, 0))] = 1
    w = encode(C, msg)
    example_points = ["([1]:[1]:[1])", "([1]:[1]:[2])", "([1]:[1]:[0])",
                    "([1]:[2]:[1])", "([1]:[2]:[2])", "([1]:[2]:[0])",
                    "([1]:[0]:[1])", "([1]:[0]:[2])", "([1]:[0]:[0])",
                    "([0]:[1]:[1])", "([0]:[1]:[2])", "([0]:[1]:[0])",
                    "([0]:[0]:[1])"]
    example_values = [1, 1, 1, 2, 2, 2, 0, 0, 0, 1, 1, 1, 0]
    for text, val in zip(example_points, example_values):
        pt = C.support.parse_point(text)
        assert w[C.support.position(pt)] == val


def test_restrict_worked_example():
    # restriction of ev(X_1) along the worked F_3 embedding is (1,2,0,1)
    # on the domain points (1:1),(1:2),(1:0),(0:1)
    C = make_code("PRM", 3, 2, 1)
    msg = [0] * C.dim
    msg[C.degree_tuples.index((0, 1, 0))] = 1
    w = encode(C, msg)
    F = GF(3)
    L = LineEmbedding(F, (1, 0, 1), (1, 1, 0))  # rows (1,1), (0,1), (1,0)
    r = restrict_to_line(w, L, 1)
    dom = enumerate_points(F, 1, "projective").points
    by_point = {dom[i]: r[i] for i in range(4)}
    assert by_point[(1, 1)] == 1
    assert by_point[(1, 2)] == 2
    assert by_point[(1, 0)] == 0
    assert by_point[(0, 1)] == 1
    # weighted restriction (lambda^1 = lambda) = literal subword
    subword = [w[pos] for pos in C.support.positions(L.points).tolist()]
    assert [F.mul(a, b) for a, b in zip(L.lams.tolist(), r.values)] == subword


def test_restrictions_land_in_prs():
    rng = np.random.default_rng(9)
    for q in (4, 8):
        C = make_code("PLift", q, 2, q - 1)
        prs = make_code("PRS", q, 1, q - 1)
        sup = C.support
        for _ in range(10):
            c = random_codeword(C, rng)
            P = sup[int(rng.integers(len(sup)))]
            L = random_embedding_through(P, C.field, rng)
            r = restrict_to_line(c, L, C.v)
            assert contains(prs, r.values)
        # zero codeword restricts to zero
        z = encode(C, [0] * C.dim)
        L = random_embedding_through(sup[0], C.field, rng)
        assert all(v == 0 for v in restrict_to_line(z, L, C.v).values)


def test_every_generator_row_restricts_into_prs_exhaustive():
    q = 4
    C = make_code("PLift", q, 2, 3)
    prs = make_code("PRS", q, 1, 3)
    sup = C.support
    for line in all_lines(sup):
        L = standard_line_embedding(C.field, [sup[i] for i in line])
        for row in C.G:
            r = restrict_to_line(Word(sup, list(row)), L, C.v)
            assert contains(prs, r.values)


def test_shorten_puncture_worked_example():
    C = make_code("PLift", 4, 2, 3)
    S = shorten_at_infinity(C)
    P = puncture_to_infinity(C)
    assert code_equal(S, make_code("Lift", 4, 2, 2))
    assert code_equal(P, make_code("PLift", 4, 1, 3))
    assert code_equal(P, make_code("PRS", 4, 1, 3))
    assert S.dim + P.dim == C.dim


def test_shortening_equals_nullspace_reference():
    """One elimination of [G_inf | G_aff] gives the same reduced generator,
    byte for byte, as rref(nullspace(G_inf^T) · G_aff)."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = GF(q)
        for m in (1, 2, 3):
            for k in range(1, q):
                C = make_code("PLift", q, m, k)
                G_aff, G_inf = C.G[:, :q ** m], C.G[:, q ** m:]
                N = linalg.nullspace(F, G_inf.T)
                Gs = (linalg.gf_matmul(F, N, G_aff) if N.size
                      else np.zeros((0, q ** m), dtype=F.dtype))
                ref = linalg.rref(F, Gs)[0]
                S = shorten_at_infinity(C).G
                assert S.dtype == ref.dtype and S.shape == ref.shape, (q, m, k)
                assert S.tobytes() == ref.tobytes(), (q, m, k)


def _projective_codes(qs, ms):
    """PRS, PRM and PLift codes over GF(q) for q in qs, m in ms: every k of
    PRS and PLift, and about four k of each PRM."""
    for q in qs:
        yield from (make_code("PRS", q, 1, k) for k in range(q + 1))
        for m in ms:
            yield from (make_code("PLift", q, m, k) for k in range(1, q))
            top = m * (q - 1)
            yield from (make_code("PRM", q, m, k) for k in range(1, top + 1, -(-top // 4)))


def test_shorten_and_puncture_equal_their_own_eliminations():
    """Shorten and puncture read C's one reduced form; both equal, byte for
    byte and pivot for pivot, a separate rref of [G_inf | G_aff] (its rows
    pivoting on affine columns) and of G_inf."""
    for C in _projective_codes((2, 3, 4, 5, 7, 8, 9), (1, 2, 3)):
        F, n_aff = C.field, C.q ** C.m
        R, pivots = linalg.rref(F, np.hstack([C.G[:, n_aff:], C.G[:, :n_aff]]))
        n_inf = C.length - n_aff
        at_inf = sum(p < n_inf for p in pivots)
        want_s = (R[at_inf:, n_inf:], [p - n_inf for p in pivots[at_inf:]])
        for got, (G, piv) in [(shorten_at_infinity(C), want_s),
                              (puncture_to_infinity(C), linalg.rref(F, C.G[:, n_aff:]))]:
            assert got.G.dtype == G.dtype and got.G.shape == G.shape, C
            assert got.G.tobytes() == G.tobytes(), C
            assert got.reduced()[1] == piv and got.dim == len(piv), C


def test_prm_shortens_to_rm_and_punctures_to_prm():
    # the paper's link between the affine and projective families, for PRM:
    # shortening at infinity gives RM(m, k-1), puncturing to it PRM(m-1, k)
    # while k <= (m-1)(q-1), and the whole space past that
    for q in (2, 3, 4, 5):
        m = 1
        while q ** m <= 200:
            for k in range(1, m * (q - 1) + 1):
                C = make_code("PRM", q, m, k)
                assert code_equal(make_code("RM", q, m, k - 1), shorten_at_infinity(C)), \
                    (q, m, k)
                P = puncture_to_infinity(C)
                if k <= (m - 1) * (q - 1):
                    assert code_equal(make_code("PRM", q, m - 1, k), P), (q, m, k)
                else:
                    assert P.dim == P.length, (q, m, k)
            m += 1


def test_shorten_at_order_one_gives_rs():
    for q in (4, 8):
        for k in range(1, q):
            C = make_code("PLift", q, 1, k)
            S = shorten_at_infinity(C)
            assert code_equal(S, make_code("RS", q, 1, k - 1))
            P = puncture_to_infinity(C)
            assert P.length == 1 and P.dim == 1


def test_code_equal_self_and_mismatch():
    C = make_code("PLift", 4, 2, 3)
    assert code_equal(C, C)
    # a proper subcode lies in the span but has a smaller dim
    small, big = make_code("RM", 4, 2, 1), make_code("RM", 4, 2, 2)
    assert not code_equal(small, big) and not code_equal(big, small)
    assert not code_equal(make_code("Lift", 4, 2, 1), shorten_at_infinity(C))
    with pytest.raises(ValueError):
        code_equal(C, make_code("PRS", 4, 1, 3))


def test_projective_action_preserves_plift():
    rng = np.random.default_rng(4)
    C = make_code("PLift", 4, 2, 3)
    F = C.field
    for _ in range(25):
        c = random_codeword(C, rng)
        M = _random_invertible(F, 3, rng)
        out = apply_projective_action(M, c, C.v)
        assert contains(C, out.values)
    with pytest.raises(ValueError):
        apply_projective_action([[1, 0, 0], [0, 1, 0], [1, 1, 0]], c, C.v)


def test_affine_action_preserves_rm():
    rng = np.random.default_rng(6)
    C = make_code("RM", 8, 2, 3)
    F = C.field
    for _ in range(25):
        c = random_codeword(C, rng)
        M = _random_invertible(F, 2, rng)
        b = [int(x) for x in rng.integers(8, size=2)]
        out = apply_affine_action(M, b, c)
        assert contains(C, out.values)


def _random_invertible(F, n, rng):
    while True:
        M = [[int(x) for x in rng.integers(F.order, size=n)] for _ in range(n)]
        if linalg.rank(F, linalg.as_matrix(M)) == n:
            return M


def test_word_text_roundtrip():
    C = make_code("PLift", 4, 2, 3)
    rng = np.random.default_rng(8)
    w = random_codeword(C, rng)
    w.values[3] = None
    text = word_to_text(C, w)
    C2, w2 = word_from_text(text)
    assert C2.descriptor() == C.descriptor()
    assert w2.values == w.values


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(code=st.sampled_from([("PLift", 4, 2, 3), ("Lift", 4, 2, 2), ("PLift", 9, 2, 5),
                             ("PRS", 8, 1, 3), ("RS", 5, 1, 2), ("PRM", 3, 2, 1), ("RM", 7, 2, 3)]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_word_text_roundtrip_random_erasures(code, seed, data):
    C = make_code(*code)
    w = random_codeword(C, np.random.default_rng(seed))
    for i in data.draw(st.sets(st.integers(0, len(w) - 1))):
        w.values[i] = None
    C2, w2 = word_from_text(word_to_text(C, w))
    assert C2.descriptor() == C.descriptor()
    assert w2.values == w.values


def test_descriptor_shape():
    d = make_code("PLift", 4, 2, 3).descriptor()
    assert d == {"kind": "PLift", "q": 4, "m": 2, "k": 3, "v": 6,
                 "dim": 11, "length": 21}


def test_prs_codeword_over_gf257():
    # element indices above 255: construction, membership and decoding must
    # all take the field's dtype
    from liftedcodes.decode import prs_decode
    assert make_code("RS", 257, 1, 3).dim == 4
    C = make_code("PRS", 257, 1, 3)
    F = C.field
    rng = np.random.default_rng(257)
    word = encode(C, [int(c) for c in rng.integers(257, size=C.dim)])
    assert max(word.values) > 255
    assert contains(C, word.values)
    y = list(word.values)
    for i in rng.choice(len(y), size=3, replace=False):
        y[int(i)] = F.add(y[int(i)], int(rng.integers(1, 257)))
    assert not contains(C, y)
    assert prs_decode(y, C.k, F) == word.values


@pytest.mark.parametrize("q", [2, 4, 9, 257])
def test_evaluate_monomials_matches_scalar_powers(q):
    # each entry is the product of scalar powers, exponents above q-1
    # included, with 0^0 = 1
    F = GF(q)
    rng = np.random.default_rng(q)
    exps = rng.integers(0, 3 * q, size=(12, 3))
    exps[0] = 0
    exps[1, 1] = q - 1
    points = [(0, 0, 0), (1, 0, q - 1)] + [tuple(int(c) for c in rng.integers(q, size=3))
                                           for _ in range(10)]
    G = evaluate_monomials(F, exps, points)
    assert G.dtype == F.dtype and G.shape == (12, 12)
    for r, d in enumerate(exps.tolist()):
        for c, x in enumerate(points):
            want = 1
            for xi, e in zip(x, d):
                want = F.mul(want, F.pow(xi, e))
            assert G[r, c] == want, (d, x)
    np.testing.assert_array_equal(evaluate_monomials(F, exps, points[5]), G[:, 5:6])


# Reference copy of evaluate_monomials as it was before it summed logs:
# one coordinate at a time from a q x q power table.  A byte oracle for the
# log-domain evaluator.

def _reference_evaluate_monomials(F, exponents, points):
    pts = np.asarray(points, dtype=F.dtype)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    q = F.order
    E = degrees.int_reduce(np.asarray(exponents, dtype=np.int64).reshape(-1, pts.shape[1]), q)
    # power[a, e] = a^e for e in [0, q-1]; 0^0 = 1
    power = F.np_exp[np.multiply.outer(F.np_log.astype(np.int64), np.arange(q)) % (q - 1)]
    power[0] = 0
    power[:, 0] = 1
    G = np.ones((len(E), len(pts)), dtype=F.dtype)
    for i in range(pts.shape[1]):
        G = F.np_mul[G, power[pts[:, i], E[:, i, None]]]
    return G


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 2039, 2048])
def test_evaluate_monomials_matches_reference_loop(q):
    """Exponents up to 3q, zeros against zero and positive exponents, no
    exponent rows, and blocks cut at the 256 KiB boundary."""
    F = GF(q)
    rng = np.random.default_rng(q)
    for nexp, npts, m in [(12, 20, 3), (0, 7, 2), (5, 1, 1), (40, 9000, 2), (3, 0, 2)]:
        E = rng.integers(0, 3 * q, size=(nexp, m))
        E[::3] = rng.integers(0, 2, size=(len(E[::3]), m)) * (q - 1)  # 0 and q-1
        pts = rng.integers(q, size=(npts, m)).astype(F.dtype)
        pts[::4] = 0
        pts[1::4, 0] = 0
        got, want = evaluate_monomials(F, E, pts), _reference_evaluate_monomials(F, E, pts)
        assert got.dtype == want.dtype and np.array_equal(got, want), (nexp, npts, m)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_lift_generators_match_reference_loop(q):
    F = GF(q)
    for m in [1, 2, 3]:
        for kind, space, ks, deg in [("Lift", "affine", range(q - 1), degrees.adeg),
                                     ("PLift", "projective", range(1, q), degrees.pdeg)]:
            pts = enumerate_points(F, m, space).coords
            for k in ks:
                E = deg(m, k, q)
                assert np.array_equal(evaluate_monomials(F, E, pts),
                                      _reference_evaluate_monomials(F, E, pts)), (kind, m, k)


def test_evaluate_monomials_memory_is_its_output():
    """PLift_16(3,11), 404 x 4369: an unblocked int64 sum would take 14 MB."""
    F = GF(16)
    E, pts = degrees.pdeg(3, 11, 16), enumerate_points(F, 3, "projective").coords
    tracemalloc.start()
    try:
        G = evaluate_monomials(F, E, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.shape == (404, 4369)
    assert peak < 2 * G.nbytes + 2 ** 20


@pytest.mark.parametrize("q", [2, 3, 4, 9, 32, 257])
def test_strip_weights_matches_scalar_division(q):
    # every (val, lam) pair, or a sample of them at q = 257, and an (r, n)
    # matrix broadcast against n lambdas
    F = GF(q)
    rng = np.random.default_rng(q)
    if q <= 32:
        vals, lams = (a.ravel() for a in np.meshgrid(np.arange(q), np.arange(1, q)))
    else:
        vals, lams = rng.integers(q, size=5000), rng.integers(1, q, size=5000)
    vals, lams = vals.astype(F.dtype), lams.astype(F.dtype)
    M = rng.integers(q, size=(4, len(lams))).astype(F.dtype)
    for v in (0, 1, q - 1, q, 3 * q + 2):
        got = strip_weights(F, v, vals, lams)
        assert got.dtype == F.dtype
        assert got.tolist() == [F.mul(a, F.inv(F.pow(lam, v)))
                                for a, lam in zip(vals.tolist(), lams.tolist())]
        want = [[F.mul(a, F.inv(F.pow(lam, v))) for a, lam in zip(row, lams.tolist())]
                for row in M.tolist()]
        assert strip_weights(F, v, M, lams).tolist() == want


@pytest.mark.parametrize("kind, q, m, k, cells", [
    ("PLift", 64, 3, 40, "12821 x 266305 = 3414296405"),
    ("Lift", 64, 3, 40, "12956 x 262144 = 3396337664"),
    ("PLift", 1024, 3, 500, "21084251 x 1074791425 = 22661172177347675"),
    ("Lift", 128, 4, 5, "126 x 268435456 = 33822867456"),
    ("RM", 64, 3, 150, "251484 x 262144 = 65925021696"),
    ("PRM", 2, 20, 20, "2097150 x 2097151 = 4398040219650"),
    ("PRM", 64, 3, 150, "254825 x 266305 = 67861171625"),
])
def test_lifted_code_too_large_is_refused_before_it_is_built(monkeypatch, kind, q, m, k, cells):
    # dim is counted by adim/pdim/rmdim/prmdim and n by q^m or theta: no
    # degree set is built and no monomial evaluated
    def unreachable(*args):
        raise AssertionError("built past the size check")

    for name in ("adeg", "pdeg", "_max_reduced_subweight_array", "rmdeg", "prmdeg"):
        monkeypatch.setattr(degrees, name, unreachable)
    monkeypatch.setattr(codes, "evaluate_monomials", unreachable)
    with pytest.raises(ValueError) as exc:
        make_code(kind, q, m, k)
    assert str(exc.value) == (f"the {kind}_{q}({m},{k}) generator has {cells} cells, "
                              f"past the limit 2^25 = {degrees.MAX_GENERATOR_CELLS}")


def test_too_large_code_is_refused_before_its_field_is_built():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("from liftedcodes import codes, gf\n"
            "try:\n"
            "    codes.make_code('PLift', 2048, 2, 1000)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "print(gf.GF.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    dim, n = degrees.pdim(2, 1000, 2048), 2048 ** 2 + 2048 + 1
    assert out == (f"the PLift_2048(2,1000) generator has {dim} x {n} = {dim * n} cells, "
                   f"past the limit 2^25 = {degrees.MAX_GENERATOR_CELLS}\n0\n")


@pytest.mark.parametrize("q, message", [(6, "6 is not a prime power"),
                                        (4096, "field order 4096 exceeds the supported limit 2048")])
def test_invalid_order_keeps_its_message(q, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_code("PLift", q, 2, 1000)
