"""Local correction of projective lifted codes.

The corrector draws a uniform random line through the target point, reads s
of its q+1 positions (chosen so that every individual query is uniform over
all coordinates), strips the homogenization weights, and decodes the result
as a projective Reed-Solomon word with q+1-s erasures and up to
t = floor((s-k-1)/2) errors.  One decoder serves every caller: a stack of
homogeneous Berlekamp-Welch key equations N = y E on P^1, with N a form of
degree k+t and E a form of degree t, so the point at infinity is read like
any other.  N's part is eliminated in closed form by the Lagrange basis of
the first k+t+1 reads (products of 2x2 determinants, in the log domain),
which leaves E's t+1 unknowns for one lockstep Gauss-Jordan over all slices
(linalg.null_vectors); the codeword is then read in value form, by
Lagrange interpolation through k+1 of the first k+t+1 reads where E does
not vanish, and checked against those k+t+1 reads only: the key equation
settles the rest.  E's rows are read off the generator of PRS_q(t).
prs_decode is its one-slice call; the brute-force nearest-codeword oracle
reference.prs_decode_bruteforce pins it at small q.

The Monte-Carlo engine checks its arguments, then makes each trial's draws
on its own seeded stream in the order of encode, corrupt_word and
local_correct, through the draw helpers they call too; a trial builds no
line object.  It then works on chunks of trials at once: one
geometry.line_images call locates the queried points and their weights,
one searchsorted finds the errors there, one product evaluates every
codeword at its s queried positions and its target, one strip_weights
call strips the line weights, and one stacked key equation decodes the
chunk.  query_position_sample draws and locates its queries the same way.
local_correct keeps the scalar path, one trial at a time, as the
reference the engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from liftedcodes import linalg
from liftedcodes.codes import Word, make_code, strip_weights
from liftedcodes.geometry import draw_first_column, line_images, random_embedding_through, theta


# ---------------------------------------------------------------------------
# Projective Reed-Solomon error-and-erasure decoding
# ---------------------------------------------------------------------------

def _log_dets(F, X, Y):
    """int32 logs of det(P, R) = a_P b_R - b_P a_R for every P of X and R
    of Y, where X (B, nx) and Y (B, ny) hold P^1 domain positions: position
    x < q is (1 : x) and position q is (0 : 1).  Returns (B, nx, ny), -1
    where P = R, the one zero."""
    q = F.order
    x, y = X[:, :, None], Y[:, None, :]
    # a is 1 or 0 and b is x or 1, in the field's dtype before the two
    # broadcast against each other
    a_x, a_y = x < q, y < q
    b_x = np.where(a_x, x, 1).astype(F.dtype)
    b_y = np.where(a_y, y, 1).astype(F.dtype)
    det = np.where(a_x, b_y, 0)
    linalg.gf_isub(F, det, np.where(a_y, b_x, 0))
    return F.np_log[det]


def _lagrange(F, to_basis, basis):
    """Logs of the Lagrange coefficients l_i(X) = prod_(m != i) det(X, P_m) /
    det(P_i, P_m) on basis points P_i: to_basis (B, T, r) holds the log dets
    of T targets X against the r basis points, basis (B, r, r) those of the
    basis points against each other.  A target on a basis point gets junk
    in its row."""
    w = basis.sum(axis=2, dtype=np.int32) + 1  # the diagonal det(P_i, P_i) = 0 has log -1
    coef = to_basis.sum(axis=2, dtype=np.int32, keepdims=True) - to_basis
    coef -= w[:, None, :]
    coef %= F.order - 1
    return coef


def _combine(F, coef, vals):
    """sum_i l_i(X) vals_i at every target X: coef (B, T, r) are the
    coefficients' logs, vals (B, r) field elements."""
    logs = coef + F.np_log[vals][:, None, :]
    logs %= F.order - 1
    terms = F.np_exp[logs]
    terms *= (vals != 0)[:, None, :]
    return linalg.gf_sum(F, terms, axis=2)


def _interpolate(F, to_basis, basis, vals):
    """Values at the targets of the form of degree r-1 that reads vals at
    the r basis points (arguments as `_lagrange`'s); a target on a basis
    point reads that point's value."""
    out = _combine(F, _lagrange(F, to_basis, basis), vals)
    b, j, i = (to_basis < 0).nonzero()
    out[b, j] = vals[b, i]
    return out


def _key_matrix(F, positions, yE, K):
    """The reduced key equation M of `_decode_stack`, (B, s-K, t+1), from
    the reads' positions and yE[b, j, u] = y_j E_u(P_j).  M is built one
    column at a time, never as a (B, s-K, K, t+1) product."""
    first = _log_dets(F, positions, positions[:, :K])  # (B, s, K)
    coef = _lagrange(F, first[:, K:], first[:, :K])
    M = np.empty((len(yE), yE.shape[1] - K, yE.shape[2]), dtype=F.dtype)
    for u in range(yE.shape[2]):
        col = _combine(F, coef, yE[:, :K, u])
        linalg.gf_isub(F, col, yE[:, K:, u])
        M[:, :, u] = col
    return M


def _decode_stack(F, k, positions, ys, at):
    """Key-equation decoding of a stack of B projective RS reads.

    positions and ys are (B, s) arrays: slice b read ys[b] at the ascending
    line positions positions[b].  Returns (vals, ok): where ok[b], vals[b]
    holds the values at the domain positions `at` of the unique PRS_q(k)
    codeword within t = floor((s-k-1)/2) of slice b on its reads; ok[b] is
    False exactly when there is no such codeword.

    The Berlekamp-Welch key equation asks for forms N of degree k+t and E
    of degree t, not both zero, with N(P_i) = y_i E(P_i) at every read
    P_0..P_(s-1).  Let K = k+t+1.  N is fixed by its values at the first K
    reads, so it is the Lagrange sum N = sum_(i<K) l_i y_i E(P_i), where l_i
    is the degree-(K-1) form that is 1 at P_i and 0 at the other first K
    reads: a product of 2x2 determinants det(X, P_m) / det(P_i, P_m),
    computed in the log domain (`_lagrange`).  What is left of the key
    equation is M e = 0 on E's t+1 coefficients e, one row per read j >= K:
    M[j, u] = sum_(i<K) l_i(P_j) y_i E_u(P_i) - y_j E_u(P_j), with
    E_u = x0^(t-u) x1^u read off PRS_q(t)'s generator.  One
    linalg.null_vectors call on the (B, s-K, t+1) stack solves every slice
    (M has no rows when s = K, and then e = (1)).

    This keeps Berlekamp-Welch's meaning exactly:
    - A nonzero null vector e of M lifts to a key-equation solution (N, E):
      N is the Lagrange sum above, which equals y_j E(P_j) at the reads
      j >= K because M e = 0.  Conversely every solution has E != 0, since
      N = 0 would follow (N has degree k+t and s > k+t zeros), so the
      solutions are exactly the null vectors of M.
    - If a codeword f lies within t of the reads, then N = f E for every
      solution: N1 E2 - N2 E1 of two solutions has degree k+2t and vanishes
      at all s > k+2t reads, and (f E, E) is a solution for the E that
      vanishes at the errors.  So f = y wherever E(P_j) != 0.
    - E is a nonzero form of degree t, so it vanishes at no more than t
      points of P^1: at least k+1 of the first K reads have E != 0.  Let f
      be the form of degree k through y at the first k+1 of them.  If y
      agrees with f at every read where E != 0, f lies within t of the
      reads.  If not, no codeword does, by the point before.
    - The first K reads settle that agreement.  If f = y wherever E != 0
      among them, then N(P_i) = y_i E(P_i) = f(P_i) E(P_i) at all K of
      them (both sides are 0 where E(P_i) = 0), so N - f E, of degree
      k+t = K-1, has K zeros and N = f E.  At every read j >= K, M e = 0
      gives N(P_j) = y_j E(P_j), so f(P_j) = y_j wherever E(P_j) != 0.
    So ok[b] is "e exists and f matches y wherever E != 0 among the first
    K reads", and vals[b] is f read at `at`: E is evaluated, and f
    interpolated, at those K reads and `at` only, and no polynomial
    division is needed.  A codeword within t is unique, as two differ in
    at most 2t of s > k+2t reads.
    """
    B, s = ys.shape
    t = (s - k - 1) // 2
    K = k + t + 1
    # x0^(t-u) x1^u, u = 0..t, at the reads: PRS_q(t)'s generator, rows reversed
    E = make_code("PRS", F, 1, t).G[::-1].T[positions]
    e, ok = linalg.null_vectors(
        F, _key_matrix(F, positions, linalg._lookup(F, F.np_mul, ys[..., None], E), K))
    at_e = linalg.gf_sum(F, linalg._lookup(F, F.np_mul, E[:, :K], e[:, None, :]), axis=2)
    basis = np.argsort(at_e == 0, axis=1, kind="stable")[:, :k + 1]
    rows = np.arange(B)[:, None]
    targets = np.empty((B, K + len(at)), dtype=positions.dtype)
    targets[:, :K] = positions[:, :K]
    targets[:, K:] = at
    to_basis = _log_dets(F, targets, positions[rows, basis])
    f = _interpolate(F, to_basis, to_basis[rows, basis], ys[rows, basis])
    ok &= ((f[:, :K] == ys[:, :K]) | (at_e == 0)).all(axis=1)
    return f[:, K:], ok


def prs_decode(y, k, F):
    """Unique codeword within t = floor((s-k-1)/2) errors of y on its s
    non-erased positions, or None: the one-slice call of _decode_stack."""
    vals = list(y.values) if isinstance(y, Word) else list(y)
    if len(vals) != F.order + 1:
        raise ValueError("projective RS words have length q+1")
    non_erased = [i for i, v in enumerate(vals) if v is not None]
    s = len(non_erased)
    if s < k + 1:
        raise ValueError(f"need at least k+1 = {k + 1} readable positions, got {s}")
    ys = np.array([[vals[i] for i in non_erased]], dtype=F.dtype)
    word, ok = _decode_stack(F, k, np.array([non_erased]), ys, np.arange(F.order + 1))
    return word[0].tolist() if ok[0] else None


# ---------------------------------------------------------------------------
# Query generation and the local corrector
# ---------------------------------------------------------------------------

def _draw_queries(n, s, q, rng):
    """query_gen's draws: whether P's preimage is queried, with probability
    exactly s/n, then the other queries, distinct among the q other domain
    positions and numbered skipping P's preimage.  Returns (with_p, extra)."""
    if not 1 <= s <= q:
        raise ValueError(f"query budget must satisfy 1 <= s <= q, got s={s}")
    with_p = rng.random() < s / n
    return with_p, rng.choice(q, size=s - with_p, replace=False)


def query_gen(P, L, s, rng):
    """Choose s domain positions on the embedded line.

    Includes the preimage of P with probability exactly s/n and fills the
    rest uniformly, so that combined with a uniform line the marginal of
    every individual query is uniform over all n coordinates.  s is
    restricted to at most q (a (q+1)-point line cannot both always be fully
    read and contain P only with probability s/n).
    """
    q = L.field.order
    with_p, extra = _draw_queries(theta(L.m, q), s, q, rng)
    images = L.points
    P = np.asarray(P)
    hits = (images == P).all(axis=1).nonzero()[0] if P.shape == images.shape[1:] else ()
    if len(hits) == 0:
        raise ValueError("target point does not lie on the embedded line")
    p_pre = int(hits[0])
    chosen = (extra + (extra >= p_pre)).tolist()
    return sorted(chosen + [p_pre] if with_p else chosen)


def _draw_line_queries(P, n, s, F, rng):
    """The line and query draws of `random_embedding_through` and
    `query_gen`, in their order, without building the line: (the first
    column, extra).  P's preimage is the point at infinity, domain position
    q, which every other domain position precedes, so the queried domain
    positions are sorted(extra) followed by q when there are fewer than s."""
    col0 = draw_first_column(P, F, rng)
    return col0, _draw_queries(n, s, F.order, rng)[1]


@dataclass
class CorrectionConfig:
    """Parameters of one corrector instance: query budget s in [k+1, q],
    corruption fraction delta, and the experiment seed."""

    s: int
    delta: float = 0.0
    seed: int | None = None


def _check_corrector(C, s):
    """ValueError unless C is projective and k+1 <= s <= q."""
    if C.support.space != "projective":
        raise ValueError(f"local correction needs a projective code, not {C!r}")
    if not C.k + 1 <= s <= C.field.order:
        raise ValueError(f"query budget must satisfy k+1 <= s <= q, got s={s}")


def _draw_line(C, P, s, rng):
    """Check that C is projective and k+1 <= s <= q, then draw a uniform line
    through P and its s queries: (embedding, domain positions, support
    positions), both position lists in domain order."""
    _check_corrector(C, s)
    L = random_embedding_through(P, C.field, rng)
    dom_positions = query_gen(P, L, s, rng)
    return L, dom_positions, L.positions[dom_positions].tolist()


def _symbol_from_reads(C, L, dom_positions, reads):
    """Symbol at the line's point at infinity decoded from the values read at
    dom_positions (None where the word itself is erased), or None."""
    F, k = C.field, C.k
    live = [i for i, val in enumerate(reads) if val is not None]
    if len(live) < k + 1:
        return None  # erased input positions left too few reads
    dom = np.array(dom_positions)[live]
    ys = strip_weights(F, C.v, np.array([reads[i] for i in live], dtype=F.dtype), L.lams[dom])
    # P is the image of the point at infinity (0 : 1), domain position q
    val, ok = _decode_stack(F, k, dom[None], ys[None], [F.order])
    return int(val[0, 0]) if ok[0] else None


def local_correct(y, P, C, cfg, rng):
    """One corrector call: reads exactly s coordinates of y.

    Returns (symbol, queried_positions); symbol is None when the line
    decoder fails (an erasure output).
    """
    L, dom_positions, queried = _draw_line(C, tuple(P), cfg.s, rng)
    return _symbol_from_reads(C, L, dom_positions, [y[pos] for pos in queried]), queried


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    """Aggregate outcome of repeated seeded corrector trials."""

    q: int
    m: int
    k: int
    s: int
    delta: float
    trials: int
    seed: int
    successes: int
    wrong: int
    erasures: int
    success_rate: float
    query_histogram: list = field(repr=False, default_factory=list)

    def to_dict(self):
        return asdict(self)


def _error_count(n, delta):
    """floor(delta * n), the errors of a corruption at fraction delta."""
    if not 0 <= delta <= 1:
        raise ValueError(f"corruption fraction delta must lie in [0, 1], got {delta}")
    return math.floor(delta * n)


def _draw_errors(n, nerr, q, rng):
    """(positions, shifts): nerr distinct uniform positions, each with a
    uniform shift in [1, q), drawn as one array after the positions."""
    if nerr == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return rng.choice(n, size=nerr, replace=False), rng.integers(1, q, size=nerr)


def _corrupt(values, shifts):
    """The values after their shifts, 0 for no error: a shift moves a symbol
    to the shift-th of the q-1 symbols other than it, in index order."""
    return np.where(shifts == 0, values, shifts - (shifts <= values))


def corrupt_word(word, delta, rng):
    """Flip exactly floor(delta * n) uniformly chosen coordinates to
    uniformly chosen wrong symbols.

    An error drawn at an erased coordinate (None) leaves it erased: the
    positions and shifts are drawn as for a word without erasures, so the
    other coordinates change exactly as they would there."""
    n = len(word)
    positions, shifts = _draw_errors(n, _error_count(n, delta), word.support.field.order, rng)
    values = list(word.values)
    known = np.array([values[pos] is not None for pos in positions.tolist()], dtype=bool)
    hit = positions[known].tolist()
    for pos, val in zip(hit, _corrupt(np.array([values[pos] for pos in hit]),
                                      shifts[known]).tolist()):
        values[pos] = val
    return Word(word.support, values)


def _shifts_at(n, q, positions, shifts, queried):
    """Each row's shifts at its queried positions, 0 where it has no error.

    positions and shifts are (B, nerr): row b's distinct error positions
    and their shifts in [1, q); queried is (B, s).  The keys
    (b*n + position)*q + shift are sorted once, and a query's key with
    shift 0 lands by `searchsorted` just before its position's entry, if
    there is one."""
    if not positions.size:
        return np.zeros(queried.shape, dtype=np.int64)
    rows = n * np.arange(len(positions))[:, None]
    keys = positions.astype(np.int64)
    keys += rows
    keys *= q
    keys += shifts
    keys = keys.ravel()
    keys.sort()
    want = (queried + rows) * q
    found = keys[np.minimum(np.searchsorted(keys, want), keys.size - 1)] - want
    return np.where((0 < found) & (found < q), found, 0)


_CHUNK = 256  # trials per stacked decode; mc_experiment's docstring bounds its memory
_CHUNK_ERRORS = 2 ** 16  # error entries a chunk keeps until its shift lookup
_CHUNK_BYTES = 2 ** 26  # bytes a chunk's product and decode may hold, by _trial_bytes


def _trial_bytes(F, dim, s, k):
    """Bytes one trial adds to its chunk's peak, at most.  A trial passes
    through three phases, each of which frees its arrays before the next:
    the codeword product, dim * (s+1) cells, then the decoder's two int32
    determinant tables, s * K and (K+1) * (k+1) cells with K = k+t+1 and t
    the decoding radius.  The charge is the largest phase's cells at 20
    bytes a cell, and 10 * F.t bytes more in odd characteristic (F.t is
    the field's extension degree, q = p^F.t), where gf_sum turns every
    element it sums into F.t digits, gathered as bytes and widened to
    int64.  The interpolation table is the costliest a cell: it holds
    about four int32 arrays of its shape when `_combine` sums, 18 bytes a
    cell in characteristic 2 and 17 + 9 * F.t in odd.  Marginal per-trial
    tracemalloc peaks of uncapped chunks at m = 1, s = q, every q in
    {25, 32, 81, 125, 127, 128, 243, 256, 512} and k from q/12 to q-1 ran
    0.37 to 0.93 of this charge, highest at the largest k (0.89 at q = 243,
    k = 242; 0.93 at q = 25, k = 24 and at q = 32, k = 31)."""
    t = (s - k - 1) // 2
    K = k + t + 1
    cells = max(dim * (s + 1), s * K, (K + 1) * (k + 1))
    return cells * (20 if F.p == 2 else 20 + 10 * F.t)


def mc_experiment(C, cfg, trials):
    """Per trial: uniform codeword, exact floor(delta*n) corruption, uniform
    target point, one corrector call.  Fully reproducible from the seed;
    trials use the streams of SeedSequence(seed).spawn(trials), spawned one
    chunk at a time so that no cost grows with the trial count up front.

    Every argument is checked before the first draw: trials, the seed,
    delta, a projective code, then k+1 <= s <= q.  Each trial then makes
    exactly the draws of encode, corrupt_word and local_correct in their
    order (`_draw_errors`, `_draw_line_queries`), but builds no line: P is
    the image of the point at infinity, so the drawn first column and
    queries are all a trial keeps.  For a chunk of trials at once, one
    `line_images` call locates the queried points, one `searchsorted`
    finds the shifts there, one product evaluates the codewords at the s
    queried positions and the target only, one strip_weights call strips
    the line weights, and one stacked key equation decodes every trial's
    reads.

    A chunk holds up to _CHUNK trials, and fewer when their errors would
    pass _CHUNK_ERRORS entries: each trial keeps its floor(delta*n) error
    positions and shifts, in the smallest unsigned types that hold n-1 and
    q-1, until the chunk's lookup, which sorts them as one int64 key array.
    It holds fewer again when its arrays would pass _CHUNK_BYTES, at
    `_trial_bytes` a trial, computed from dim, s and k before the first
    draw; a trial that alone passes it gets a chunk of its own.  Those
    arrays are a chunk's largest; for B trials the codeword product has
    B * dim * (s+1) field elements, gathered through a `linalg._lookup`
    int32 index (and 9 * F.t bytes each in gf_sum's digit sums for odd p).
    The decoder's int32 determinant logs are the reads against the first
    K = k+t+1 reads, B * s * K, then those K reads and the target against
    the k+1 interpolation points, B * (K+1) * (k+1), each with up to three
    int32 temporaries of its shape; s <= q.  The key equation itself is
    only B * (s-K) * (t+1) field elements.  Peaks under tracemalloc:
    - PLift_256(2,2), s = 3, delta = 1/16, 256 trials (4,112 errors a
      trial, 15 trials a chunk): 1.41 MB;
    - PLift_32(2,16), s = 32, delta = 1/16, 256 trials: 8.17 MB, in the
      codeword product's index (3.02 MB through the 2-D index, which
      builds none, in about twice the time);
    - PLift_64(2,20), s = 64, delta = 1/32, 256 trials: 23.8 MB (8.48 MB
      through the 2-D index);
    - PLift_512(1,256), s = 512, delta = 0.05, 64 trials (17 a chunk):
      30.9 MB, and 146 MB as one chunk;
    - PLift_243(1,242), s = 243, delta = 0.05, 32 trials (16 a chunk):
      59.0 MB.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    seed = cfg.seed
    if seed is None:
        raise ValueError("a seed is required for reproducibility")
    F = C.field
    n, s, k, q = len(C.support), cfg.s, C.k, F.order
    nerr = _error_count(n, cfg.delta)
    _check_corrector(C, s)
    points = C.support.coords
    chunk = max(1, min(_CHUNK, _CHUNK_ERRORS // max(nerr, 1),
                       _CHUNK_BYTES // _trial_bytes(F, C.dim, s, k)))
    root = np.random.SeedSequence(seed)  # spawn keys continue from call to call
    hist = np.zeros(n, dtype=np.int64)
    successes = wrong = 0
    for lo in range(0, trials, chunk):
        B = min(chunk, trials - lo)
        msgs = np.empty((B, C.dim), dtype=F.dtype)
        err_pos = np.empty((B, nerr), dtype=np.min_scalar_type(n - 1))
        err_shift = np.empty((B, nerr), dtype=F.dtype)
        targets = np.empty(B, dtype=np.int64)
        col0 = np.empty((B, C.m + 1), dtype=F.dtype)
        doms = np.full((B, s), q)
        for j, child in enumerate(root.spawn(B)):
            rng = np.random.default_rng(child)
            msgs[j] = rng.integers(q, size=C.dim)
            err_pos[j], err_shift[j] = _draw_errors(n, nerr, q, rng)
            targets[j] = target = rng.integers(n)
            col0[j], extra = _draw_line_queries(points[target].tolist(), n, s, F, rng)
            doms[j, :len(extra)] = extra
        doms.sort(axis=1)
        _, lams, queried = line_images(F, col0, points[targets], doms)
        cols = np.concatenate([queried, targets[:, None]], axis=1)
        vals = linalg.gf_sum(F, linalg._lookup(F, F.np_mul, msgs.T[:, :, None], C.G[:, cols]), axis=0)
        reads = _corrupt(vals[:, :s], _shifts_at(n, q, err_pos, err_shift, queried))
        at_target, ok = _decode_stack(F, k, doms, strip_weights(F, C.v, reads, lams), [q])
        right = ok & (at_target[:, 0] == vals[:, s])
        successes += int(right.sum())
        wrong += int((ok & ~right).sum())
        hist += np.bincount(queried.ravel(), minlength=n)
    return ExperimentReport(
        q=q, m=C.m, k=C.k, s=s, delta=cfg.delta,
        trials=trials, seed=seed, successes=successes, wrong=wrong,
        erasures=trials - successes - wrong, success_rate=successes / trials,
        query_histogram=hist.tolist(),
    )


def query_position_sample(C, P, s, calls, seed):
    """Histogram of queried coordinates at a fixed target point.

    Samples only the query-selection stage (embedding draw plus query
    generation), which is what the smoothness property constrains: the
    draws of `random_embedding_through` and `query_gen` on one stream,
    located in chunks of _CHUNK calls as in mc_experiment.
    """
    F = C.field
    q, n = F.order, len(C.support)
    P = list(P)
    C.support.position(P)  # a point of the support, in standard form
    rng = np.random.default_rng(seed)
    hist = np.zeros(n, dtype=np.int64)
    for lo in range(0, calls, _CHUNK):
        B = min(_CHUNK, calls - lo)
        col0 = np.empty((B, len(P)), dtype=F.dtype)
        doms = np.full((B, s), q)
        for j in range(B):
            col0[j], extra = _draw_line_queries(P, n, s, F, rng)
            doms[j, :len(extra)] = extra
        doms.sort(axis=1)
        positions = line_images(F, col0, np.broadcast_to(P, col0.shape), doms)[2]
        hist += np.bincount(positions.ravel(), minlength=n)
    return hist.tolist()
