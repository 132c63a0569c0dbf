"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass line on success (run with -s to see them).

Expected dimension-table rows are frozen verbatim from the published
parameter tables; Monte-Carlo checks run on fixed seeds.
"""

import itertools
import math
import time

import numpy as np
from scipy.stats import chisquare

from liftedcodes import linalg
from liftedcodes.analysis import (
    design_dual_report,
    distance_report,
    exact_distance,
    information_set,
    information_set_check,
    plift_plane_dimension_formula,
    qc_certificate,
    rate_table_csv,
)
from liftedcodes.cli import main as cli_main
from liftedcodes.codes import (
    apply_affine_action,
    apply_projective_action,
    code_equal,
    make_code,
    puncture_to_infinity,
    random_codeword,
    shorten_at_infinity,
)
from liftedcodes.decode import CorrectionConfig, mc_experiment, query_position_sample
from liftedcodes.degrees import adeg, lifting_degree, pdeg
from liftedcodes.gf import GF
from liftedcodes.reference import (
    _p_reduced_sphere,
    contains,
    line_check_matrix,
    mds_exact_distance,
    monomial_membership_oracle,
)

PRIME_POWERS_LE_16 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)

# Rows of the published parameter tables: (q, m) -> (first k, row strings).
PUBLISHED_TABLES = {
    (4, 2): (1, [
        "1,16,1,0.0625,21,3,0.143,3,0.143",
        "2,16,3,0.188,21,6,0.286,6,0.286",
        "3,16,7,0.438,21,11,0.524,10,0.476",
    ]),
    (8, 2): (1, [
        "1,64,1,0.0156,73,3,0.0411,3,0.0411",
        "2,64,3,0.0469,73,6,0.0822,6,0.0822",
        "3,64,6,0.0938,73,10,0.137,10,0.137",
        "4,64,10,0.156,73,15,0.205,15,0.205",
        "5,64,16,0.25,73,22,0.301,21,0.288",
        "6,64,24,0.375,73,31,0.425,28,0.384",
        "7,64,37,0.578,73,45,0.616,36,0.493",
    ]),
    (16, 2): (8, [
        "8,256,36,0.141,273,45,0.165,45,0.165",
        "9,256,46,0.18,273,56,0.205,55,0.201",
        "10,256,58,0.227,273,69,0.253,66,0.242",
        "11,256,72,0.281,273,84,0.308,78,0.286",
        "12,256,88,0.344,273,101,0.37,91,0.333",
        "13,256,109,0.426,273,123,0.451,105,0.385",
        "14,256,135,0.527,273,150,0.549,120,0.44",
        "15,256,175,0.684,273,191,0.7,136,0.498",
    ]),
    (4, 3): (1, [
        "1,64,1,0.0156,85,4,0.0471,4,0.0471",
        "2,64,4,0.0625,85,10,0.118,10,0.118",
        "3,64,13,0.203,85,24,0.282,20,0.235",
    ]),
    (8, 3): (1, [
        "1,512,1,0.00195,585,4,0.00684,4,0.00684",
        "2,512,4,0.00781,585,10,0.0171,10,0.0171",
        "3,512,10,0.0195,585,20,0.0342,20,0.0342",
        "4,512,20,0.0391,585,35,0.0598,35,0.0598",
        "5,512,38,0.0742,585,60,0.103,56,0.0957",
        "6,512,69,0.135,585,100,0.171,84,0.144",
        "7,512,139,0.271,585,184,0.315,120,0.205",
    ]),
    (16, 3): (8, [
        "8,4096,120,0.0293,4369,165,0.0378,165,0.0378",
        "9,4096,168,0.041,4369,224,0.0513,220,0.0504",
        "10,4096,233,0.0569,4369,302,0.0691,286,0.0655",
        "11,4096,320,0.0781,4369,404,0.0925,364,0.0833",
        "12,4096,434,0.106,4369,535,0.122,455,0.104",
        "13,4096,601,0.147,4369,724,0.166,560,0.128",
        "14,4096,854,0.208,4369,1004,0.23,680,0.156",
        "15,4096,1377,0.336,4369,1568,0.359,816,0.187",
    ]),
}

# stretch rows (q = 32) and optional rows (q = 64), same source
STRETCH_TABLES = {
    (32, 2): (24, [
        "24,1024,336,0.328,1057,361,0.342,325,0.307",
        "25,1024,373,0.364,1057,399,0.377,351,0.332",
        "26,1024,415,0.405,1057,442,0.418,378,0.358",
        "27,1024,462,0.451,1057,490,0.464,406,0.384",
        "28,1024,514,0.502,1057,543,0.514,435,0.412",
        "29,1024,580,0.566,1057,610,0.577,465,0.44",
        "30,1024,660,0.645,1057,691,0.654,496,0.469",
        "31,1024,781,0.763,1057,813,0.769,528,0.5",
    ]),
    (32, 3): (24, [
        "24,32768,3044,0.0929,33825,3405,0.101,2925,0.0865",
        "25,32768,3561,0.109,33825,3960,0.117,3276,0.0969",
        "26,32768,4192,0.128,33825,4634,0.137,3654,0.108",
        "27,32768,4970,0.152,33825,5460,0.161,4060,0.12",
        "28,32768,5928,0.181,33825,6471,0.191,4495,0.133",
        "29,32768,7250,0.221,33825,7860,0.232,4960,0.147",
        "30,32768,9169,0.28,33825,9860,0.292,5456,0.161",
        "31,32768,13011,0.397,33825,13824,0.409,5984,0.177",
    ]),
    (64, 2): (56, [
        "56,4096,2004,0.489,4161,2061,0.495,1653,0.397",
        "57,4096,2122,0.518,4161,2180,0.524,1711,0.411",
        "58,4096,2254,0.55,4161,2313,0.556,1770,0.425",
        "59,4096,2400,0.586,4161,2460,0.591,1830,0.44",
        "60,4096,2560,0.625,4161,2621,0.63,1891,0.454",
        "61,4096,2761,0.674,4161,2823,0.678,1953,0.469",
        "62,4096,3003,0.733,4161,3066,0.737,2016,0.484",
        "63,4096,3367,0.822,4161,3431,0.825,2080,0.5",
    ]),
    (64, 3): (56, [
        "56,262144,44064,0.168,266305,46125,0.173,32509,0.122",
        "57,262144,48340,0.184,266305,50520,0.19,34220,0.128",
        "58,262144,53401,0.204,266305,55714,0.209,35990,0.135",
        "59,262144,59480,0.227,266305,61940,0.233,37820,0.142",
        "60,262144,66810,0.255,266305,69431,0.261,39711,0.149",
        "61,262144,76717,0.293,266305,79540,0.299,41664,0.156",
        "62,262144,90874,0.347,266305,93940,0.353,43680,0.164",
        "63,262144,118873,0.453,266305,122304,0.459,45760,0.172",
    ]),
}

HEADER = "k,n_A,dim_A,R_A,n_P,dim_P,R_P,dim_PRM,R_PRM"


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_dimension_tables(tmp_path):
    start = time.time()
    for (q, m), (k0, rows) in PUBLISHED_TABLES.items():
        out = tmp_path / f"t{q}_{m}.csv"
        code = cli_main(["table", "--q", str(q), "--m", str(m),
                         "--kmin", str(k0), "--kmax", str(k0 + len(rows) - 1),
                         "--out", str(out)])
        assert code == 0
        assert out.read_text() == "\n".join([HEADER] + rows) + "\n", (q, m)
    elapsed = time.time() - start
    assert elapsed < 120, f"table reproduction took {elapsed:.1f}s"
    _report(1, f"all published rows for m=2,3 and q=4,8,16 reproduced "
               f"byte-identically in {elapsed:.1f}s")


def test_criterion_01b_stretch_tables():
    start = time.time()
    for (q, m), (k0, rows) in STRETCH_TABLES.items():
        got = rate_table_csv(q, m, ks=range(k0, k0 + len(rows))).splitlines()[1:]
        assert got == rows, (q, m)
    _report(1, f"stretch/optional rows (q=32, q=64) also reproduced "
               f"in {time.time() - start:.1f}s")


def test_criterion_02_closed_formula():
    start = time.time()
    for p, t in ((2, 1), (2, 2), (2, 3), (3, 1), (2, 4)):
        q = p ** t
        got = len(pdeg(2, q - 1, q))
        want = plift_plane_dimension_formula(p, t)
        assert got == want, (p, t, got, want)
    assert len(pdeg(2, 3, 4)) == 11
    assert len(pdeg(2, 7, 8)) == 45
    assert time.time() - start < 60
    _report(2, "maximal plane lifting dimensions match p^2t + p^t - (p(p+1)/2)^t "
               "for q in {2,3,4,8,16}")


def test_criterion_03_recursive_identities():
    checked = 0
    for q, m in PUBLISHED_TABLES:
        for k in range(1, q):
            left = len(pdeg(m, k, q))
            assert left == len(pdeg(m - 1, k, q)) + len(adeg(m, k - 1, q)), (q, m, k)
            assert left == sum(len(adeg(j, k - 1, q)) for j in range(1, m + 1)) + 1
            checked += 1
    _report(3, f"both recursive dimension identities hold exactly on {checked} "
               "(q, m, k) table entries")


def test_criterion_04_shorten_puncture():
    start = time.time()
    checked = 0
    for q in (4, 8):
        for m in (2, 3):
            for k in range(1, q):
                C = make_code("PLift", q, m, k)
                assert code_equal(shorten_at_infinity(C), make_code("Lift", q, m, k - 1))
                assert code_equal(puncture_to_infinity(C), make_code("PLift", q, m - 1, k))
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"shorten/puncture checks took {elapsed:.1f}s"
    _report(4, f"shortening = affine lifting and puncturing = lower-order "
               f"projective lifting, exact row-space equality on {checked} codes "
               f"({elapsed:.1f}s)")


def test_criterion_05_oracle_equivalence():
    start = time.time()
    checked = 0
    for q in (4, 8, 9):
        for k in range(q - 1):
            A = set(map(tuple, adeg(2, k, q).tolist()))
            for d in itertools.product(range(q), repeat=2):
                assert monomial_membership_oracle(d, k, q, "affine") == (d in A), (q, k, d)
                checked += 1
        for k in range(1, q):
            P = set(map(tuple, pdeg(2, k, q).tolist()))
            v = lifting_degree(2, k, q)
            for d in _p_reduced_sphere(3, v, q):
                assert monomial_membership_oracle(d, k, q, "projective") == (d in P), (q, k, d)
                checked += 1
    # whole codes against the line-check matrix: G H^T = 0 and n - rank H =
    # dim.  Distinct reduced monomials evaluate to independent words, so
    # this also settles each exponent's verdict.
    codes_checked = 0
    for m, qs in ((2, PRIME_POWERS_LE_16), (3, (2, 3, 4, 5))):
        for q in qs:
            F = GF(q)
            for kind, space, ks in (("PLift", "projective", range(1, q)),
                                    ("Lift", "affine", range(q - 1))):
                for k in ks:
                    C = make_code(kind, q, m, k)
                    H = line_check_matrix(F, m, k, space)
                    assert not linalg.gf_matmul(F, C.G, H.T).any(), (kind, q, m, k)
                    assert C.length - linalg.rank(F, H) == C.dim, (kind, q, m, k)
                    codes_checked += 1
    elapsed = time.time() - start
    assert elapsed < 600, f"oracle equivalence took {elapsed:.1f}s"
    _report(5, f"degree-set membership agrees with the line-restriction oracle on "
               f"{checked} exponents for q in {{4,8,9}}, and {codes_checked} whole "
               f"codes equal their line-check matrices' kernels ({elapsed:.1f}s)")


def test_criterion_06_local_correction_bound():
    start = time.time()
    q, m = 8, 2
    trials = 10_000
    results = []
    for k in (3, 5):
        C = make_code("PLift", q, m, k)
        for s in (k + 1, q):
            t = (s - k - 1) // 2
            delta_max = (t + 1) / (2 * s)
            for delta in (0.0, delta_max / 2, delta_max):
                cfg = CorrectionConfig(s=s, delta=delta, seed=20_000 + 100 * k + s)
                rep = mc_experiment(C, cfg, trials=trials)
                bound = 1 - delta * s / (t + 1)
                sigma = math.sqrt(bound * (1 - bound) / trials)
                assert rep.success_rate >= bound - 3 * sigma, \
                    (k, s, delta, rep.success_rate, bound)
                results.append((k, s, delta, rep.success_rate, bound))
    elapsed = time.time() - start
    assert elapsed < 600, f"correction grid took {elapsed:.1f}s"
    worst = min(r[3] - r[4] for r in results)
    _report(6, f"empirical success rate >= 1 - delta*s/(t+1) - 3sigma on all "
               f"{len(results)} grid cells at 10^4 trials each "
               f"(worst margin {worst:+.3f}, {elapsed:.1f}s)")


def test_criterion_07_perfect_smoothness():
    samples = 100_000
    for q, m, k, s in ((3, 2, 1, 2), (4, 2, 3, 4)):
        C = make_code("PLift", q, m, k)
        calls = samples // s
        P = C.support[0]
        hist = query_position_sample(C, P, s, calls, seed=777 + q)
        assert sum(hist) == s * calls
        stat, p = chisquare(hist)
        assert p > 1e-3, (q, p)
        # also at a non-affine target point
        hist2 = query_position_sample(C, C.support[-1], s, calls // 4, seed=778 + q)
        _, p2 = chisquare(hist2)
        assert p2 > 1e-3, (q, p2)
    _report(7, "per-coordinate query frequency is uniform "
               "(chi-square p > 1e-3 at 1e5 samples, q=3 and q=4)")


def test_criterion_08_automorphism_invariance():
    rng = np.random.default_rng(31337)
    plift = make_code("PLift", 4, 2, 3)
    prm = make_code("PRM", 4, 2, 2)
    for _ in range(100):
        M = _random_invertible(plift.field, 3, rng)
        c = random_codeword(plift, rng)
        assert contains(plift, apply_projective_action(M, c, plift.v).values)
        c2 = random_codeword(prm, rng)
        assert contains(prm, apply_projective_action(M, c2, prm.v).values)
    rm = make_code("RM", 8, 2, 3)
    for _ in range(100):
        M = _random_invertible(rm.field, 2, rng)
        b = [int(x) for x in rng.integers(8, size=2)]
        c = random_codeword(rm, rng)
        assert contains(rm, apply_affine_action(M, b, c).values)
    _report(8, "100 random projective actions preserve PLift_4(2,3) and "
               "PRM_4(2,2); 100 random affine maps preserve RM_8(2,3)")


def _random_invertible(F, n, rng):
    while True:
        M = [[int(x) for x in rng.integers(F.order, size=n)] for _ in range(n)]
        if linalg.rank(F, linalg.as_matrix(M)) == n:
            return M


def test_criterion_09_information_sets():
    start = time.time()
    rng = np.random.default_rng(99)
    checked = 0
    for q in PRIME_POWERS_LE_16:
        for m in (1, 2, 3):
            for k in range(0, q - 1):
                C = make_code("Lift", q, m, k)
                for _ in range(3):
                    assert information_set_check(C, information_set(C, rng)), ("Lift", q, m, k)
                checked += 3
            for k in range(1, q):
                C = make_code("PLift", q, m, k)
                for _ in range(3):
                    assert information_set_check(C, information_set(C, rng)), ("PLift", q, m, k)
                checked += 3
    elapsed = time.time() - start
    _report(9, f"information-set rank checks pass for every lifting with "
               f"q <= 16, m <= 3, three random (omega, phi) draws each "
               f"({checked} checks, {elapsed:.1f}s)")


def test_criterion_10_quasi_cyclicity():
    cases = [(4, 2, 3, [7, 7, 7]), (4, 3, 1, [85]), (16, 2, 3, [91, 91, 91])]
    for q, m, want_d, want_cycles in cases:
        F = GF(q)
        for k in range(1, q):
            C = make_code("PLift", q, m, k)
            cert = qc_certificate(F, m, C)
            assert cert is not None, (q, m, k)
            assert cert.verified, (q, m, k)
            assert cert.d == want_d
            assert [len(c) for c in cert.cycles] == want_cycles
            assert sorted(cert.permutation) == list(range(cert.n))
    _report(10, "quasi-cyclicity certificates verified: (q=4,m=2) index 3, "
                "(q=4,m=3) cyclic, (q=16,m=2) index 3, all k")


def test_criterion_11_distance():
    start = time.time()
    C = make_code("PLift", 4, 2, 3)
    rep = distance_report(C, exact=True)
    assert rep.lower == 6 and rep.upper == 9
    assert 6 <= rep.exact <= 9
    sweep_elapsed = time.time() - start

    checked = 0
    for q in PRIME_POWERS_LE_16:
        for k in range(1, q):
            C = make_code("PRS", q, 1, k)
            if q ** (k + 1) <= 2 * 10 ** 6:
                d = exact_distance(C)
            else:
                d = mds_exact_distance(C)
            assert d == q + 1 - k, (q, k, d)
            checked += 1
    elapsed = time.time() - start
    assert sweep_elapsed < 600, f"exhaustive sweep took {sweep_elapsed:.1f}s"
    _report(11, f"exact distance of PLift_4(2,3) is {rep.exact} in [6, 9] "
                f"(sweep {sweep_elapsed:.1f}s); PRS distances equal q+1-k on "
                f"{checked} instances ({elapsed:.1f}s)")


def test_criterion_12_design_duality():
    for q in (2, 3, 4):
        rep = design_dual_report(q, 2)
        assert rep["spans_dual"], rep
        assert rep["incidence_rank"] == rep["rank_formula"], rep
        assert rep["passed"], rep
    _report(12, "dual of the maximal plane lifting equals the point-line "
                "incidence row space for q in {2,3,4}, with rank "
                "(p(p+1)/2)^t + 1")
