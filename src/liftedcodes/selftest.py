"""Fast invariant suites runnable without pytest; the CI entry point behind
`liftedcodes selftest`.  Each suite prints one PASS/FAIL line.  The one
module of the package that imports `reference`; the CLI imports it only
when the selftest command runs."""

from __future__ import annotations

import numpy as np

from liftedcodes import linalg
from liftedcodes.analysis import (
    design_dual_report,
    distance_report,
    information_set_check,
    qc_certificate,
    rate_table_csv,
)
from liftedcodes.codes import code_equal, make_code, puncture_to_infinity, \
    random_codeword, shorten_at_infinity
from liftedcodes.decode import CorrectionConfig, local_correct, prs_decode, \
    query_position_sample
from liftedcodes.degrees import a_reduce, adeg, is_p_reduced, p_reduce, pdeg
from liftedcodes.gf import GF
from liftedcodes.reference import monomial_membership_oracle, pdeg_direct, \
    prs_decode_bruteforce


def _suite_field_identities():
    for q in (2, 3, 4, 8, 9):
        F = GF(q)
        minus_one = F.neg(1)
        for j in range(2 * (q - 1) + 1):
            acc = 0
            for a in range(1, q):
                acc = F.add(acc, F.pow(a, j))
            if acc != (minus_one if j % (q - 1) == 0 else 0):
                return f"character sum failed at q={q}, j={j}"
        for x in range(q):
            for y in range(q):
                acc = 0
                for beta in range(q):
                    acc = F.add(acc, F.pow(F.add(F.mul(beta, x), y), q - 1))
                if acc != F.neg(F.pow(x, q - 1)):
                    return f"line sum failed at q={q}"
        if any(F.pow(a, q) != a for a in range(q)):
            return f"Frobenius fixed point failed at q={q}"
    return None


def _suite_reductions():
    rng = np.random.default_rng(0)
    for q in (3, 4, 8):
        for _ in range(100):
            d = tuple(int(x) for x in rng.integers(0, 3 * q, size=3))
            if a_reduce(a_reduce(d, q), q) != a_reduce(d, q):
                return "A-reduction not idempotent"
            pr = p_reduce(d, q)
            if sum(pr) != sum(d) or not is_p_reduced(pr, q):
                return "P-reduction broken"
    return None


def _suite_degree_sets():
    if adeg(2, 2, 4).tolist() != [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [2, 0], [2, 2]]:
        return "affine degree set of the worked example is wrong"
    for q in (4, 8):
        for m in (2, 3):
            for k in range(1, q):
                np_, na = len(pdeg(m, k, q)), len(adeg(m, k - 1, q))
                if np_ != len(pdeg(m - 1, k, q)) + na:
                    return f"recursion identity failed at q={q}, m={m}, k={k}"
        for k in range(1, q):
            if not np.array_equal(pdeg_direct(2, k, q), pdeg(2, k, q)):
                return f"direct scan disagrees at q={q}, k={k}"
    return None


def _suite_oracle():
    for k in range(3):
        A = set(map(tuple, adeg(2, k, 4).tolist()))
        for d0 in range(4):
            for d1 in range(4):
                if monomial_membership_oracle((d0, d1), k, 4, "affine") != ((d0, d1) in A):
                    return f"affine oracle mismatch at k={k}, d=({d0},{d1})"
    if not monomial_membership_oracle((2, 2, 2), 3, 4, "projective"):
        return "projective oracle rejects the extra worked-example exponent"
    return None


def _suite_codes():
    for kind, q, m, k in [("PLift", 4, 2, 3), ("Lift", 4, 2, 2), ("PRM", 4, 2, 3),
                          ("RM", 8, 2, 3), ("PRS", 8, 1, 5)]:
        C = make_code(kind, q, m, k)
        if linalg.rank(C.field, C.G) != C.dim:
            return f"generator rank deficiency for {kind}"
    if make_code("PLift", 4, 2, 3).dim != 11:
        return "wrong dimension for the worked example"
    if not code_equal(make_code("PRM", 4, 1, 2), make_code("PRS", 4, 1, 2)):
        return "order-1 projective Reed-Muller is not the projective RS code"
    return None


def _suite_shorten_puncture():
    C = make_code("PLift", 4, 2, 3)
    if not code_equal(shorten_at_infinity(C), make_code("Lift", 4, 2, 2)):
        return "shortening mismatch"
    if not code_equal(puncture_to_infinity(C), make_code("PRS", 4, 1, 3)):
        return "puncturing mismatch"
    return None


def _suite_decoder():
    rng = np.random.default_rng(1)
    F = GF(8)
    for _ in range(50):
        y = [int(x) for x in rng.integers(8, size=9)]
        if prs_decode(list(y), 3, F) != prs_decode_bruteforce(list(y), 3, F):
            return "decoder disagrees with the brute-force oracle"
    C = make_code("PLift", 4, 2, 3)
    cfg = CorrectionConfig(s=4)
    for _ in range(20):
        c = random_codeword(C, rng)
        P = C.support[int(rng.integers(21))]
        sym, queried = local_correct(c, P, C, cfg, rng)
        if sym != c[C.support.position(P)] or len(queried) != 4:
            return "clean-channel correction failed"
    return None


def _suite_smoothness():
    from scipy.stats import chisquare
    C = make_code("PLift", 3, 2, 1)
    hist = query_position_sample(C, (1, 0, 0), 2, 5000, seed=3)
    _, p = chisquare(hist)
    if p <= 1e-3:
        return f"query marginal looks non-uniform (p={p:.2e})"
    return None


def _suite_structure():
    C = make_code("PLift", 4, 2, 3)
    if not information_set_check(C):
        return "information-set rank check failed"
    cert = qc_certificate(GF(4), 2, C)
    if cert is None or not cert.verified or cert.d != 3:
        return "quasi-cyclicity certificate failed"
    rep = distance_report(C, exact=True)
    if not rep.lower <= rep.exact <= rep.upper:
        return "distance sandwich violated"
    if not design_dual_report(4, 2)["passed"]:
        return "design duality failed"
    return None


def _suite_tables():
    expected = ("k,n_A,dim_A,R_A,n_P,dim_P,R_P,dim_PRM,R_PRM\n"
                "1,16,1,0.0625,21,3,0.143,3,0.143\n"
                "2,16,3,0.188,21,6,0.286,6,0.286\n"
                "3,16,7,0.438,21,11,0.524,10,0.476\n")
    if rate_table_csv(4, 2) != expected:
        return "dimension table deviates from the published values"
    return None


SUITES = [
    ("field-identities", _suite_field_identities),
    ("reductions", _suite_reductions),
    ("degree-sets", _suite_degree_sets),
    ("membership-oracle", _suite_oracle),
    ("code-construction", _suite_codes),
    ("shorten-puncture", _suite_shorten_puncture),
    ("decoder", _suite_decoder),
    ("smoothness", _suite_smoothness),
    ("structure", _suite_structure),
    ("tables", _suite_tables),
]


def run_selftest(out=print):
    ok = True
    for name, fn in SUITES:
        err = fn()
        if err is None:
            out(f"PASS {name}")
        else:
            out(f"FAIL {name}: {err}")
            ok = False
    return ok
