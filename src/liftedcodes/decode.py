"""Local correction of projective lifted codes.

The corrector draws a uniform random line through the target point, reads s
of its q+1 positions (chosen so that every individual query is uniform over
all coordinates), strips the homogenization weights, and decodes the result
as a projective Reed-Solomon word with q+1-s erasures and up to
t = floor((s-k-1)/2) errors.  One decoder serves every caller: a stack of
homogeneous Berlekamp-Welch key equations on P^1, N = y E at every read
point with N a form of degree k+t and E a form of degree t, solved by one
lockstep Gauss-Jordan over all slices (linalg.null_vectors), so the point at
infinity is read like any other; its rows are read off the generators of
PRS_q(k+t) and PRS_q(t).  prs_decode is its one-slice call; the brute-force
nearest-codeword oracle reference.prs_decode_bruteforce pins it at small q.

The Monte-Carlo engine makes each trial's draws on its own seeded stream in
the order of encode, corrupt_word and local_correct, sharing the line draw
and the corruption rule with them.  It then works on chunks of trials at
once: one product evaluates every codeword at its s queried positions and
its target, one strip_weights call strips the line weights, and one stacked
key equation decodes the chunk.  local_correct keeps the scalar path, one
trial at a time, as the reference the engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from liftedcodes import linalg
from liftedcodes.codes import Word, encode, make_code, strip_weights
from liftedcodes.gf import poly_divmod
from liftedcodes.geometry import random_embedding_through, theta


# ---------------------------------------------------------------------------
# Projective Reed-Solomon error-and-erasure decoding
# ---------------------------------------------------------------------------

def _decode_stack(F, k, positions, ys):
    """Key-equation decoding of a stack of B projective RS reads.

    positions and ys are (B, s) arrays: slice b read ys[b] at the ascending
    line positions positions[b].  Returns (g, ok): g is (B, k+1), the
    coefficients of the unique degree-<=k polynomial whose codeword lies
    within t = floor((s-k-1)/2) of slice b on its reads, where ok[b].

    Each slice solves the homogeneous key equation N(a, b) = y E(a, b) at
    its read standard points (a : b), with N a form of degree k+t and E a
    form of degree t.  Every nonzero solution has N = f E for the same f
    whenever a codeword lies within t (N1 E2 - N2 E1 has degree k+2t and
    s > k+2t zeros), so any null vector decodes, the point at infinity
    included; the degree and remainder checks reject everything else.  No
    distance check is needed: a nonzero null vector has E != 0 (else N has
    s > k+t zeros), and once N = f E with deg f <= k, f equals y at every
    read where E is nonzero, while the nonzero degree-t form E vanishes at
    no more than t points of P^1.  All slices share one linalg.null_vectors
    call.
    """
    B, s = ys.shape
    t = (s - k - 1) // 2
    neg_y = F.np_sub[0][ys]
    # x0^(d-j) x1^j, j = 0..d, at the reads: PRS_q(d)'s generator, rows reversed
    N, E = (make_code("PRS", F, 1, d).G[::-1].T[positions] for d in (k + t, t))
    A = np.concatenate([N, F.np_mul[neg_y[..., None], E]], axis=2)
    sols, ok = linalg.null_vectors(F, A)
    g = np.zeros((B, k + 1), dtype=F.dtype)
    for b in ok.nonzero()[0].tolist():
        sol = sols[b].tolist()
        # dehomogenize at x0 = 1; E is a nonzero form, so E(1, x) is nonzero
        quot, rem = poly_divmod(F, sol[:k + t + 1], sol[k + t + 1:])
        if rem or len(quot) > k + 1:
            ok[b] = False
        else:
            g[b, :len(quot)] = quot
    return g, ok


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
    g, ok = _decode_stack(F, k, np.array([non_erased]), ys)
    return encode(make_code("PRS", F, 1, k), g[0, ::-1]).values if ok[0] else None


# ---------------------------------------------------------------------------
# Query generation and the local corrector
# ---------------------------------------------------------------------------

def query_gen(P, L, s, rng):
    """Choose s domain positions on the embedded line.

    Includes the preimage of P with probability exactly s/n and fills the
    rest uniformly, so that combined with a uniform line the marginal of
    every individual query is uniform over all n coordinates.  s is
    restricted to at most q (a (q+1)-point line cannot both always be fully
    read and contain P only with probability s/n).
    """
    F = L.field
    q = F.order
    n = theta(L.m, q)
    if not 1 <= s <= q:
        raise ValueError(f"query budget must satisfy 1 <= s <= q, got s={s}")
    images = L.points
    P = np.asarray(P)
    hits = (images == P).all(axis=1).nonzero()[0] if P.shape == images.shape[1:] else ()
    if len(hits) == 0:
        raise ValueError("target point does not lie on the embedded line")
    p_pre = int(hits[0])
    # draw among the q other domain positions, numbered skipping p_pre
    with_p = rng.random() < s / n
    extra = rng.choice(q, size=s - with_p, replace=False)
    chosen = (extra + (extra >= p_pre)).tolist()
    return sorted(chosen + [p_pre] if with_p else chosen)


@dataclass
class CorrectionConfig:
    """Parameters of one corrector instance: query budget s in [k+1, q],
    corruption fraction delta, and the experiment seed."""

    s: int
    delta: float = 0.0
    seed: int | None = None


def _draw_line(C, P, s, rng):
    """Check that C is projective and k+1 <= s <= q, then draw a uniform line
    through P and its s queries: (embedding, domain positions, support
    positions), both position lists in domain order."""
    if C.support.space != "projective":
        raise ValueError(f"local correction needs a projective code, not {C!r}")
    F = C.field
    if not C.k + 1 <= s <= F.order:
        raise ValueError(f"query budget must satisfy k+1 <= s <= q, got s={s}")
    L = random_embedding_through(P, F, rng)
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
    g, ok = _decode_stack(F, k, dom[None], ys[None])
    # P is the image of the point at infinity, where the codeword reads g_k
    return int(g[0, k]) if ok[0] else None


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


def _draw_errors(n, delta, q, rng):
    """{position: shift} for floor(delta * n) distinct uniform positions, each
    with a uniform shift in [1, q), drawn as one array after the positions."""
    if not 0 <= delta <= 1:
        raise ValueError(f"corruption fraction delta must lie in [0, 1], got {delta}")
    nerr = math.floor(delta * n)
    if nerr == 0:
        return {}
    positions = rng.choice(n, size=nerr, replace=False)
    return dict(zip(positions.tolist(), rng.integers(1, q, size=nerr).tolist()))


def _corrupt(values, shifts):
    """The values after their shifts, None for no error: a shift moves a
    symbol to the shift-th of the q-1 symbols other than it, in index order."""
    return [v if shift is None else shift - (shift <= v)
            for v, shift in zip(values, shifts)]


def corrupt_word(word, delta, rng):
    """Flip exactly floor(delta * n) uniformly chosen coordinates to
    uniformly chosen wrong symbols."""
    n = len(word)
    errors = _draw_errors(n, delta, word.support.field.order, rng)
    return Word(word.support, _corrupt(word.values, map(errors.get, range(n))))


_CHUNK = 256  # trials per stacked decode; mc_experiment's docstring bounds its memory


def mc_experiment(C, cfg, trials, seed=None):
    """Per trial: uniform codeword, exact floor(delta*n) corruption, uniform
    target point, one corrector call.  Fully reproducible from the seed;
    trials use the streams of SeedSequence(seed).spawn(trials), spawned one
    chunk at a time so that no cost grows with the trial count up front.

    Each trial makes exactly the draws of encode, corrupt_word and
    local_correct in their order.  Then, for up to _CHUNK trials at a time,
    one product evaluates the codewords at the s queried positions and the
    target only, one strip_weights call strips the line weights, and one
    stacked key equation decodes every trial's reads.

    A trial keeps only the shifts at its s queried positions, not the dict
    of its floor(delta*n) errors: at PLift_256(2,2), s=3, delta=1/16, 256
    trials peak at 1.7 MB under tracemalloc instead of 72 MB.  The chunk
    bounds the rest of memory: its largest arrays are the codeword product,
    _CHUNK * (s+1) * dim field elements (8t bytes each in gf_sum's digit
    sums for odd p), and the key-equation matrix, _CHUNK * s * (k+2t+2)
    field elements, with s <= q, whose elimination indexes its row updates
    with an int32 array of the same shape.  At q = 32, s = 32, k = 16 and
    dim = 153 a full chunk allocates at most 3.1 MB at once: its
    tracemalloc peak is 3.03 MB (2.89 MiB), and 2.67 MB inside the
    elimination.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    seed = cfg.seed if seed is None else seed
    if seed is None:
        raise ValueError("a seed is required for reproducibility")
    F = C.field
    n, s, k = len(C.support), cfg.s, C.k
    root = np.random.SeedSequence(seed)  # spawn keys continue from call to call
    hist = np.zeros(n, dtype=np.int64)
    successes = wrong = 0
    for lo in range(0, trials, _CHUNK):
        msgs, shifts, cols, doms, lams = [], [], [], [], []
        for child in root.spawn(min(_CHUNK, trials - lo)):
            rng = np.random.default_rng(child)
            msgs.append(rng.integers(F.order, size=C.dim))
            errors = _draw_errors(n, cfg.delta, F.order, rng)
            target = int(rng.integers(n))
            L, dom_positions, queried = _draw_line(C, C.support[target], s, rng)
            shifts.append([errors.get(pos) for pos in queried])  # the only shifts read
            cols.append(queried + [target])
            doms.append(dom_positions)
            lams.append(L.lams[dom_positions])
        cols = np.array(cols)
        msgs = np.array(msgs, dtype=F.dtype)
        vals = linalg.gf_sum(F, F.np_mul[C.G[:, cols], msgs.T[:, :, None]], axis=0)
        truth = vals[:, s]
        reads = np.array([_corrupt(row, sh) for row, sh in zip(vals[:, :s].tolist(), shifts)],
                         dtype=F.dtype)
        g, ok = _decode_stack(F, k, np.array(doms), strip_weights(F, C.v, reads, np.array(lams)))
        right = ok & (g[:, k] == truth)
        successes += int(right.sum())
        wrong += int((ok & ~right).sum())
        hist += np.bincount(cols[:, :s].ravel(), minlength=n)
    return ExperimentReport(
        q=F.order, m=C.m, k=C.k, s=s, delta=cfg.delta,
        trials=trials, seed=seed, successes=successes, wrong=wrong,
        erasures=trials - successes - wrong, success_rate=successes / trials,
        query_histogram=hist.tolist(),
    )


def query_position_sample(C, P, s, calls, seed):
    """Histogram of queried coordinates at a fixed target point.

    Samples only the query-selection stage (embedding draw plus query
    generation), which is what the smoothness property constrains.
    """
    F = C.field
    sup = C.support
    rng = np.random.default_rng(seed)
    hist = [0] * len(sup)
    P = tuple(P)
    for _ in range(calls):
        L = random_embedding_through(P, F, rng)
        for pos in L.positions[query_gen(P, L, s, rng)].tolist():
            hist[pos] += 1
    return hist
