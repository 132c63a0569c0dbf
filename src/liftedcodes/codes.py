"""Monomial evaluation codes over affine and projective supports.

Covers classical Reed-Solomon / Reed-Muller codes, their projective
analogues, and the affine/projective liftings built from the degree sets in
:mod:`liftedcodes.degrees`.  Generator matrices list monomial evaluations,
one row per exponent tuple in lexicographic order, over the deterministic
supports of :mod:`liftedcodes.geometry`.  strip_weights is the one
division by the homogenization weights lambda^v.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

from liftedcodes import degrees, linalg
from liftedcodes.gf import GF, FiniteField, _check_order, prime_power
from liftedcodes.geometry import enumerate_points, locate, theta

KINDS = ("RS", "PRS", "RM", "PRM", "Lift", "PLift")
_AFFINE_KINDS = {"RS", "RM", "Lift"}

_EVAL_BLOCK_BYTES = 1 << 18  # evaluate_monomials' temporaries, per row block


def evaluate_monomials(F, exponents, points):
    """Evaluation matrix: one row per exponent tuple, one column per point.

    Exponents are reduced by `degrees.int_reduce`.  Each entry is computed
    in the log domain, exp[(E @ log x^T) mod (q-1)]: a zero coordinate
    gets a log `big` so large that any positive exponent on it pushes the
    sum past every sum of true logs, and those entries are zero (0^0 = 1).
    No sum passes m * (q-1) * big, so the sums are int32 where that is
    below 2^31 and int64 past it (for points of one coordinate from
    q = 1297 on, of three from q = 625 on).  The mod is S - (S // (q-1)) * (q-1): numpy divides
    by a scalar several times faster than it takes a remainder.  Rows go
    in blocks of at most 256 KiB at 16 bytes a sum: an int64 sum and its
    quotient, or an int32 sum, its quotient and the intp copy `take`
    widens it to.
    """
    pts = np.asarray(points, dtype=F.dtype)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    q = F.order
    npts, m = pts.shape
    E = degrees.int_reduce(np.asarray(exponents, dtype=np.int64).reshape(-1, m), q)
    # true logs are at most q-2 and reduced exponents at most q-1
    big = m * (q - 1) ** 2 + 1
    dt = np.int32 if m * (q - 1) * big < 2 ** 31 else np.int64
    logs = np.where(pts == 0, big, F.np_log[pts]).T.astype(dt)  # (m, npts)
    E = E.astype(dt)
    G = np.empty((len(E), npts), dtype=F.dtype)
    step = max(1, _EVAL_BLOCK_BYTES // (16 * max(npts, 1)))
    for lo in range(0, len(E), step):
        S = E[lo:lo + step] @ logs
        zero = S >= big
        quot = S // (q - 1)
        quot *= q - 1
        S -= quot
        block = G[lo:lo + step]
        F.np_exp.take(S, out=block, mode="clip")
        block[zero] = 0
    return G


class Word:
    """Vector indexed by a support; None marks an erased position."""

    def __init__(self, support, values):
        if len(values) != len(support):
            raise ValueError("word length does not match support")
        self.support = support
        self.values = list(values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __eq__(self, other):
        return (isinstance(other, Word) and self.support == other.support
                and self.values == other.values)


class LinearCode:
    """A code given by an explicit generator matrix over a support.

    With pivots given, G is already in reduced echelon form and pivots are
    its pivot columns, so the code knows its reduced form and dim.
    """

    # reduced() eliminates the columns from this index on first (0 keeps
    # G's order); a projective monomial code sets it to q^m, where its
    # hyperplane at infinity starts
    _first_col = 0

    def __init__(self, field, support, G, pivots=None):
        self.field = field
        self.support = support
        self.G = linalg.as_matrix(G, field.dtype)
        self._H = None
        self._dim = None if pivots is None else len(pivots)
        self._reduced = None if pivots is None else (self.G, pivots)

    @property
    def length(self):
        return self.G.shape[1]

    @property
    def dim(self):
        if self._dim is None:
            self._dim = linalg.rank(self.field, self.G)
        return self._dim

    def reduced(self):
        """(R, pivots): the reduced echelon form of G with the columns from
        _first_col on moved in front, read back in G's column order, and
        the column each row pivots in; computed once.  R's rows are a basis
        of the code and R[:, pivots] is the identity.  Rows that pivot in
        the moved columns come first."""
        if self._reduced is None:
            G, s = self.G, self._first_col
            R, pivots = linalg.rref(self.field, np.hstack([G[:, s:], G[:, :s]]))
            n_moved = G.shape[1] - s
            self._reduced = (np.hstack([R[:, n_moved:], R[:, :n_moved]]),
                             [p + s if p < n_moved else p - n_moved for p in pivots])
        return self._reduced

    def parity_check(self):
        if self._H is None:
            self._H = linalg.nullspace(self.field, self.G)
        return self._H


class MonomialCode(LinearCode):
    """Evaluation code of a reduced set of monomials, given as an (N, nvars)
    exponent array with rows in lexicographic order."""

    def __init__(self, kind, field, m, k, exponents, support, v=None):
        self.kind = kind
        self.q = field.order
        self.m = m
        self.k = k
        self.v = v
        self.degree_tuples = list(map(tuple, exponents.tolist()))
        G = evaluate_monomials(field, exponents, support.coords)
        super().__init__(field, support, G)
        self._dim = len(exponents)
        if kind not in _AFFINE_KINDS:
            self._first_col = self.q ** m

    def descriptor(self):
        return {"kind": self.kind, "q": self.q, "m": self.m, "k": self.k,
                "v": self.v, "dim": self.dim, "length": self.length}

    def __repr__(self):
        return f"{self.kind}_{self.q}({self.m},{self.k})[n={self.length},k={self.dim}]"


def _exponent_set(kind, q, m, k):
    """(count, build, v) of a code kind, its parameters checked first:
    count(m, k, q) is its dimension and build(m, k, q) its exponent array
    with rows in lexicographic order; v is the homogeneous degree or None.
    RS and PRS are the order-1 RM and PRM codes."""
    if kind == "RS":
        if m != 1:
            raise ValueError("RS codes are univariate; use m=1")
        if not 0 <= k <= q - 1:
            raise ValueError(f"RS needs 0 <= k <= q-1, got k={k}")
        return degrees.rmdim, degrees.rmdeg, None
    if kind == "PRS":
        if m != 1:
            raise ValueError("PRS codes live on the projective line; use m=1")
        if not 0 <= k <= q:
            raise ValueError(f"PRS needs 0 <= k <= q, got k={k}")
        return degrees.prmdim, degrees.prmdeg, k
    if kind in ("RM", "PRM") and m < 1:
        raise ValueError(f"{kind} needs m >= 1, got m={m}")
    if kind == "RM":
        if not 0 <= k <= m * (q - 1):
            raise ValueError(f"RM needs 0 <= k <= m(q-1), got k={k}")
        return degrees.rmdim, degrees.rmdeg, None
    if kind == "PRM":
        if not 1 <= k <= m * (q - 1):
            raise ValueError(f"PRM needs 1 <= k <= m(q-1), got k={k}")
        return degrees.prmdim, degrees.prmdeg, k
    if kind == "Lift":
        return degrees.adim, degrees.adeg, None
    if kind == "PLift":
        return degrees.pdim, degrees.pdeg, degrees.lifting_degree(m, k, q)
    raise ValueError(f"unknown code kind {kind!r}")


def _check_generator_size(kind, q, m, k, count):
    """Reject a code whose dim x n generator would pass
    degrees.MAX_GENERATOR_CELLS, with dim counted and n by q^m or theta,
    before anything of it is built."""
    dim = count(m, k, q)
    n = q ** m if kind in _AFFINE_KINDS else theta(m, q)
    if dim * n > degrees.MAX_GENERATOR_CELLS:
        raise ValueError(f"the {kind}_{q}({m},{k}) generator has {dim} x {n} = "
                         f"{dim * n} cells, past the limit 2^25 = "
                         f"{degrees.MAX_GENERATOR_CELLS}")


@lru_cache(maxsize=None)
def _make_code_cached(kind, field, m, k):
    q = field.order
    count, build, v = _exponent_set(kind, q, m, k)
    _check_generator_size(kind, q, m, k, count)
    space = "affine" if kind in _AFFINE_KINDS else "projective"
    support = enumerate_points(field, m, space)
    return MonomialCode(kind, field, m, k, build(m, k, q), support, v=v)


def make_code(kind, q, m, k):
    """Construct a monomial code; q may be an order or a FiniteField.

    A code whose generator would pass degrees.MAX_GENERATOR_CELLS cells
    raises ValueError before anything of it is built, and for an order
    before its field is built: the count needs only q's factorisation."""
    if isinstance(q, FiniteField):
        return _make_code_cached(kind, q, m, k)
    _check_order(q)
    prime_power(q)
    _check_generator_size(kind, q, m, k, _exponent_set(kind, q, m, k)[0])
    return _make_code_cached(kind, GF(q), m, k)


def encode(C, msg):
    """Message (length dim C) times the generator matrix."""
    vals = [int(v) for v in msg]
    if len(vals) != C.dim:
        raise ValueError(f"message length {len(vals)} != dim {C.dim}")
    word = linalg.gf_matvec(C.field, C.G.T, np.asarray(vals, dtype=C.field.dtype))
    return Word(C.support, [int(x) for x in word])


def random_codeword(C, rng):
    msg = [int(x) for x in rng.integers(C.field.order, size=C.dim)]
    return encode(C, msg)


def strip_weights(F, v, vals, lams):
    """vals / lams^v, lams broadcast along vals' last axis: one gather of
    lams^-v and one product-table lookup, so zero stays zero."""
    return F.np_mul[vals, F.np_exp[-v * F.np_log[lams].astype(np.int64) % (F.order - 1)]]


def _strip_reads(word, positions, lams, v):
    """word[positions] / lams^v as a list, erasures (None) passed through."""
    F = word.support.field
    reads = [word[pos] for pos in positions.tolist()]
    vals = strip_weights(F, v, np.array([val or 0 for val in reads], dtype=F.dtype), lams)
    return [None if val is None else out for val, out in zip(reads, vals.tolist())]


def shorten_at_infinity(C):
    """Restrict the subcode vanishing on the hyperplane at infinity to A^m.

    C's reduced form eliminates the infinity columns first, so its rows
    that pivot on an affine column are zero at infinity and span exactly
    that subcode; restricted to A^m they are its reduced echelon form."""
    n_aff = C.field.order ** C.m
    R, pivots = C.reduced()
    at_inf = sum(p >= n_aff for p in pivots)
    return LinearCode(C.field, enumerate_points(C.field, C.m, "affine"),
                      np.ascontiguousarray(R[at_inf:, :n_aff]), pivots[at_inf:])


def puncture_to_infinity(C):
    """Restrict the whole code to the hyperplane at infinity.

    The rows of C's reduced form that pivot at infinity, restricted to
    those columns, are the reduced echelon form of the restricted
    generator: the reduced form with the infinity columns first is unique,
    and the later rows are zero there."""
    F = C.field
    n_aff = F.order ** C.m
    R, pivots = C.reduced()
    at_inf = sum(p >= n_aff for p in pivots)
    support = enumerate_points(F, C.m - 1, "projective") if C.m >= 1 else None
    return LinearCode(F, support, np.ascontiguousarray(R[:at_inf, n_aff:]),
                      [p - n_aff for p in pivots[:at_inf]])


def code_equal(C1, C2):
    """Row-space equality of two codes on identical supports: equal dims,
    and C1's generator inside C2's span, tested against C2's reduced form."""
    if C1.length != C2.length:
        raise ValueError("codes live on supports of different lengths")
    if C1.support is not None and C2.support is not None and C1.support != C2.support:
        raise ValueError("codes live on different supports")
    R, pivots = C2.reduced()
    return C1.dim == len(pivots) and linalg.reduced_span_contains(C1.field, R, pivots, C1.G)


def apply_projective_action(M, word, v):
    """Map ev(f) to ev(f o M) for an invertible matrix M.

    The output at a point x is lambda^-v times the input at the standard
    representative of M x, with lambda the standardizing scalar.
    """
    F = word.support.field
    M = linalg.as_matrix(M, F.dtype)
    if linalg.rank(F, M) != len(M):
        raise ValueError("projective action needs an invertible matrix")
    _, lams, positions = locate(F, linalg.gf_matmul(F, word.support.coords, M.T))
    return Word(word.support, _strip_reads(word, positions, lams, v))


def apply_affine_action(M, b, word):
    """Map ev(f) to ev(f o T) for the affine map T(x) = M x + b."""
    F = word.support.field
    M = linalg.as_matrix(M, F.dtype)
    if linalg.rank(F, M) != len(M):
        raise ValueError("affine action needs an invertible matrix")
    images = linalg.gf_add(F, linalg.gf_matmul(F, word.support.coords, M.T),
                           np.asarray(b, dtype=F.dtype)[None, :])
    return Word(word.support, [word[pos] for pos in word.support.positions(images).tolist()])


# ---------------------------------------------------------------------------
# Word file format: header line with the code descriptor JSON, then one
# element per line ("?" marks an erasure).
# ---------------------------------------------------------------------------

def word_to_text(C, word):
    lines = [json.dumps(C.descriptor(), sort_keys=True)]
    for v in word.values:
        lines.append("?" if v is None else C.field.format_element(v))
    return "\n".join(lines) + "\n"


def word_from_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        desc = json.loads(lines[0]) if lines else None
    except json.JSONDecodeError:
        desc = None
    if not isinstance(desc, dict):
        raise ValueError("word file must start with a JSON header object")
    missing = [key for key in ("kind", "q", "m", "k", "v", "dim", "length")
               if key not in desc]
    if missing:
        raise ValueError(f"word file header lacks {', '.join(missing)}")
    if desc["kind"] not in KINDS:
        raise ValueError(f"word file header says kind={desc['kind']!r}, not one of {KINDS}")
    for key in ("q", "m", "k", "v", "dim", "length"):
        # type() rather than isinstance: JSON true/false must not pass as 1/0
        if type(desc[key]) is not int and not (key == "v" and desc[key] is None):
            kinds = "an integer or null" if key == "v" else "an integer"
            raise ValueError(f"word file header says {key}={desc[key]!r}, not {kinds}")
    C = make_code(desc["kind"], desc["q"], desc["m"], desc["k"])
    for key, want in C.descriptor().items():
        if desc[key] != want:
            raise ValueError(f"word file header says {key}={desc[key]!r}, "
                             f"but {C!r} has {key}={want!r}")
    values = []
    for ln in lines[1:]:
        ln = ln.strip()
        values.append(None if ln == "?" else C.field.parse_element(ln))
    return C, Word(C.support, values)
