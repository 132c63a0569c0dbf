"""Structural checks: information sets, quasi-cyclicity certificates,
distance bounds and sweeps, design duality, rate tables."""

import itertools
import math

import numpy as np
import pytest

from liftedcodes import linalg, reference
from liftedcodes.analysis import (
    SWEEP_LIMIT,
    design_dual_report,
    distance_report,
    exact_distance,
    format_rate,
    incidence_matrix,
    information_set,
    information_set_check,
    plift_plane_dimension_formula,
    qc_certificate,
    rate_table,
    rate_table_csv,
)
from liftedcodes.codes import LinearCode, MonomialCode, evaluate_monomials, make_code
from liftedcodes.degrees import adeg
from liftedcodes.geometry import standardize, theta
from liftedcodes.gf import GF, ExtensionIso, poly_mulmod, poly_powmod
from liftedcodes.reference import mds_exact_distance, singular_column_blocks


def test_information_set_lift_4_2_2():
    C = make_code("Lift", 4, 2, 2)
    S = information_set(C)
    assert len(S) == C.dim == 7
    assert information_set_check(C, S)


def test_information_set_plift_chart_sizes():
    C = make_code("PLift", 4, 2, 3)
    S = information_set(C)
    assert len(S) == 11
    # chart blocks: the convention point, then sizes dim Lift(1,2), dim Lift(2,2)
    assert S[0] == (0, 0, 1)
    chart1 = [p for p in S if p[:1] == (0,) and p[1] == 1]
    chart2 = [p for p in S if p[0] == 1]
    assert len(chart1) == len(adeg(1, 2, 4)) == 3
    assert len(chart2) == len(adeg(2, 2, 4)) == 7
    assert information_set_check(C, S)


def test_information_set_prs_mds():
    # order-1 projective lifting: any k+1 points work, the constructed set
    # in particular
    for q in (4, 8):
        for k in range(1, q):
            C = make_code("PLift", q, 1, k)
            S = information_set(C)
            assert len(S) == k + 1
            assert information_set_check(C, S)


def test_information_set_random_draws():
    rng = np.random.default_rng(13)
    for q, m, k in ((4, 2, 3), (8, 2, 5), (9, 2, 7), (4, 3, 2)):
        for kind in ("Lift", "PLift"):
            kk = min(k, q - 2) if kind == "Lift" else k
            C = make_code(kind, q, m, kk)
            for _ in range(3):
                assert information_set_check(C, rng=rng), (kind, q, m, kk)


def _digits(iso, a):
    """The polynomial-basis digits over the base of an extension index."""
    q = iso.base.order
    return [a // q ** j % q for j in range(iso.m)]


def _coords(iso, digits):
    return tuple(linalg.gf_matvec(iso.base, iso._to_coords, digits).tolist())


def _omega_powers_by_steps(iso, count):
    """Coordinates of Omega, ..., Omega^count, one poly_mulmod over the
    base modulo the extension's modulus and one gf_matvec per element."""
    omega, w, out = _digits(iso, iso.omega_index), _digits(iso, 1), []
    for _ in range(count):
        w = poly_mulmod(iso.base, w, omega, iso.modulus)
        out.append(_coords(iso, w))
    return out


@pytest.mark.parametrize("q, m", [(4, 2), (3, 2), (9, 2), (8, 3), (2, 4)])
def test_omega_power_points_equal_stepwise(q, m):
    F = GF(q)
    count = min(q ** m - 1, 60)
    for iso in (ExtensionIso(F, m), ExtensionIso.random(F, m, np.random.default_rng(q * m))):
        assert list(map(tuple, iso.powers(range(1, count + 1)).tolist())) == \
            _omega_powers_by_steps(iso, count)
    # the affine information set is the first dim C of them, from the default iso
    C = make_code("Lift", q, m, min(2, q - 2))
    assert information_set(C) == _omega_powers_by_steps(ExtensionIso(F, m), C.dim)


@pytest.mark.parametrize("q, m", [(4, 2), (4, 3), (3, 2), (9, 2), (8, 2), (5, 2)])
def test_qc_vectors_and_twist_equal_stepwise(q, m):
    F = GF(q)
    C = make_code("PLift", q, m, 2)
    cert = qc_certificate(F, m, C)
    iso = ExtensionIso(F, m + 1)
    # u_(i, j) = omega^i * beta_d^(j+1), coordinates and twist element by
    # element, products by poly_mulmod over GF(q) modulo the modulus
    omega = _digits(iso, iso.omega_index)
    beta_d = poly_powmod(F, omega, (q - 1) * cert.d, iso.modulus)
    u = []
    for i in range(cert.d):
        cur = poly_powmod(F, omega, i, iso.modulus)
        for _ in range(cert.n // cert.d):
            cur = poly_mulmod(F, cur, beta_d, iso.modulus)
            u.append(_coords(iso, cur))
    assert cert.u_vectors == u
    lead = [next(c for c in vec if c) for vec in u]
    assert cert.twist == lead  # u = twist * (standard point with leading one)
    where = {tuple(pt): i for i, pt in enumerate(C.support.coords.tolist())}
    assert cert.support_positions == [where[standardize(F, vec)[0]] for vec in u]
    assert cert.verified


def test_qc_certificate_4_2():
    C = make_code("PLift", 4, 2, 3)
    cert = qc_certificate(GF(4), 2, C)
    assert cert is not None and cert.verified
    assert cert.d == 3
    assert [len(c) for c in cert.cycles] == [7, 7, 7]
    # permutation is a product of d disjoint (n/d)-cycles over the blocks
    perm = cert.permutation
    assert sorted(perm) == list(range(21))
    for cyc in cert.cycles:
        assert {perm[i] for i in cyc} == set(cyc)


def test_qc_certificate_4_3_cyclic():
    C = make_code("PLift", 4, 3, 2)
    cert = qc_certificate(GF(4), 3, C)
    assert cert is not None and cert.verified
    assert cert.d == 1
    assert [len(c) for c in cert.cycles] == [85]


def test_qc_certificate_inapplicable():
    # q = 5, m = 2: n = 31, d = gcd(31,4) = 1, but gcd(31,4) = 1 applies...
    # use q = 3, m = 1: n = 4, d = gcd(4,2) = 2, n/d = 2, gcd(2,2) = 2 != 1
    C = make_code("PLift", 3, 1, 2)
    assert qc_certificate(GF(3), 1, C) is None


def test_qc_representation_covers_space():
    C = make_code("PLift", 4, 2, 1)
    cert = qc_certificate(GF(4), 2, C)
    assert sorted(cert.support_positions) == list(range(21))
    assert all(w != 0 for w in cert.twist)


def _qc_by_shifted_generator(F, C, cert):
    """The certificate's claim checked on the twisted generator itself:
    G_u evaluates C at the representation vectors, and its block shift
    lies in its row space, by elimination of [G_u; shifted]."""
    G_u = evaluate_monomials(F, C.degree_tuples, cert.u_vectors)
    shifted = np.empty_like(G_u)
    shifted[:, cert.permutation] = G_u
    return reference.rowspace_contains(F, G_u, shifted)


def test_qc_certificate_verdicts_equal_the_shifted_generator_oracle():
    """Every PLift code with q <= 9, m <= 3 that the certificate applies
    to, and monomial subcodes of each with 1 to 4 exponent rows dropped:
    the subcodes are not lifted, and almost none is quasi-cyclic, so both
    verdicts occur."""
    rng = np.random.default_rng(27)
    subcode_verdicts = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = GF(q)
        for m in (1, 2, 3):
            n = theta(m, q)
            if math.gcd(n // math.gcd(n, q - 1), q - 1) != 1:
                continue
            for k in range(1, q):
                C = make_code("PLift", q, m, k)
                E = np.array(C.degree_tuples)
                codes = [C] + [
                    MonomialCode(C.kind, F, m, k, E[np.sort(rng.choice(len(E), len(E) - drop,
                                                                       replace=False))],
                                 C.support, v=C.v)
                    for drop in range(1, min(4, len(E) - 1) + 1)]
                verdicts = []
                for S in codes:
                    cert = qc_certificate(F, m, S)
                    assert cert.verified == _qc_by_shifted_generator(F, S, cert), \
                        (q, m, k, len(S.degree_tuples))
                    verdicts.append(cert.verified)
                assert verdicts[0], (q, m, k)  # the lifted code itself
                subcode_verdicts += verdicts[1:]
    assert True in subcode_verdicts and False in subcode_verdicts


def test_distance_bounds_plift_4_2_3():
    C = make_code("PLift", 4, 2, 3)
    rep = distance_report(C, exact=True)
    assert rep.lower == 6 and rep.upper == 9
    assert rep.lower <= rep.exact <= rep.upper


def test_distance_exact_sandwich_more():
    for q, k in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2)):
        C = make_code("PLift", q, 2, k)
        rep = distance_report(C, exact=True)
        assert rep.lower <= rep.exact <= rep.upper, (q, k)


def test_prs_distance_mds():
    for q in (4, 8):
        for k in range(1, q):
            C = make_code("PRS", q, 1, k)
            if q ** (k + 1) <= 10 ** 6:
                assert exact_distance(C) == q + 1 - k
            assert mds_exact_distance(C) == q + 1 - k
    # order-1 projective lifting bounds collapse to the exact value
    rep = distance_report(make_code("PLift", 8, 1, 3), exact=True)
    assert rep.lower == rep.upper == rep.exact == 6


@pytest.mark.parametrize("kind, q, m, k, mds", [
    ("PRS", 4, 1, 2, True), ("PRS", 5, 1, 3, True), ("PRM", 3, 2, 2, False),
    ("PLift", 3, 2, 1, False),
])
def test_stacked_column_certificate_equals_rank_per_subset(kind, q, m, k, mds, monkeypatch):
    # a chunk of 7 makes several stacks and a partial last one
    monkeypatch.setattr(reference, "_MDS_CHUNK", 7)
    C = make_code(kind, q, m, k)
    F = C.field
    want = [linalg.rank(F, C.G[:, list(cols)]) < C.dim
            for cols in itertools.combinations(range(C.length), C.dim)]
    assert singular_column_blocks(C).tolist() == want
    assert any(want) != mds
    if mds:
        assert mds_exact_distance(C) == C.length - C.dim + 1
    else:
        with pytest.raises(AssertionError, match="not MDS"):
            mds_exact_distance(C)


def test_exact_distance_guard():
    C = make_code("PLift", 16, 2, 15)
    assert 16 ** C.dim > SWEEP_LIMIT
    with pytest.raises(ValueError):
        exact_distance(C)


def test_design_duality():
    for q in (2, 3, 4):
        rep = design_dual_report(q, 2)
        assert rep["passed"], rep
    assert design_dual_report(2, 3)["passed"]


def _duality_cases(q, m):
    """(name, code) pairs to stand in for PLift_q(m, q-1) in
    design_dual_report: the code itself; PLift_q(m, q-2), whose dual is
    larger than the incidence code; the code with one seeded word added,
    whose dual lies in the incidence code but is smaller; and the code with
    its columns permuted by a seeded permutation, whose dual has the right
    dimension but lies elsewhere."""
    F = GF(q)
    C = make_code("PLift", q, m, q - 1)
    rng = np.random.default_rng(q * 10 + m)
    word = rng.integers(q, size=(1, C.length)).astype(F.dtype)
    perm = rng.permutation(C.length)
    return [("maximal", C), ("lower degree", make_code("PLift", q, m, q - 2)),
            ("one word added", LinearCode(F, C.support, np.vstack([C.G, word]))),
            ("columns permuted", LinearCode(F, C.support, C.G[:, perm]))]


@pytest.mark.parametrize("q, m", [(3, 2), (4, 2), (5, 2), (8, 2), (4, 3)])
def test_design_duality_verdict_matches_elimination(q, m, monkeypatch):
    """spans_dual against the two containments of the [A; B] elimination
    oracle, on codes that fail on dimension alone and on containment
    alone, so neither of the report's two conditions can be dropped."""
    F = GF(q)
    H = incidence_matrix(F, m)
    rank_h = linalg.rank(F, H)
    outcomes = {}
    for name, C in _duality_cases(q, m):
        monkeypatch.setattr("liftedcodes.analysis.make_code", lambda *args, C=C: C)
        rep = design_dual_report(q, m)
        dual = linalg.nullspace(F, C.G)
        assert rep["spans_dual"] == reference.rowspace_equal(F, H, dual), name
        assert rep["incidence_rank"] == rank_h
        outcomes[name] = (rep["spans_dual"], len(dual) == rank_h,
                          reference.rowspace_contains(F, H, dual))
    assert outcomes == {"maximal": (True, True, True),
                        "lower degree": (False, False, False),
                        "one word added": (False, False, True),
                        "columns permuted": (False, True, False)}


def test_design_duality_arithmetic():
    assert plift_plane_dimension_formula(2, 2) == 11
    assert plift_plane_dimension_formula(2, 3) == 45
    assert plift_plane_dimension_formula(2, 1) == 3
    assert plift_plane_dimension_formula(3, 1) == 6
    rep = design_dual_report(4, 2)
    assert rep["dual_dim"] == 21 - 11 == 10 == 3 ** 2 + 1


def test_incidence_matrix_shape():
    H = incidence_matrix(GF(3), 2)
    assert H.shape == (13, 13)
    assert set(H.sum(axis=1).tolist()) == {4}  # q+1 points per line


def test_rate_table_published_rows():
    rows = rate_table(4, 2)
    assert [r["dim_A"] for r in rows] == [1, 3, 7]
    assert [r["dim_P"] for r in rows] == [3, 6, 11]
    assert [r["dim_PRM"] for r in rows] == [3, 6, 10]
    row3 = rows[2]
    assert (row3["n_A"], row3["dim_A"], format_rate(row3["R_A"])) == (16, 7, "0.438")
    assert (row3["n_P"], row3["dim_P"], format_rate(row3["R_P"])) == (21, 11, "0.524")
    assert (row3["dim_PRM"], format_rate(row3["R_PRM"])) == (10, "0.476")


def test_rate_table_csv_table2_bytes():
    expected = (
        "k,n_A,dim_A,R_A,n_P,dim_P,R_P,dim_PRM,R_PRM\n"
        "1,16,1,0.0625,21,3,0.143,3,0.143\n"
        "2,16,3,0.188,21,6,0.286,6,0.286\n"
        "3,16,7,0.438,21,11,0.524,10,0.476\n"
    )
    assert rate_table_csv(4, 2) == expected


def test_rate_table_builds_no_field(monkeypatch):
    def no_field(q):
        raise AssertionError("rate_table built a field")

    expected = rate_table(32, 3)
    monkeypatch.setattr("liftedcodes.analysis.GF", no_field)
    rows = rate_table(32, 3)
    assert rows == expected and [r["k"] for r in rows] == list(range(1, 32))
    with pytest.raises(ValueError, match=r"^6 is not a prime power$"):
        rate_table(6, 2)
    with pytest.raises(ValueError, match=r"^field order 4096 exceeds the supported limit 2048$"):
        rate_table(4096, 2)


def test_rate_table_multiple_q_blocks():
    text = rate_table_csv([4, 8], 2)
    assert text.count("# q=") == 2
    assert text.count("k,n_A") == 2
