"""Local correction of projective lifted codes.

The corrector draws a uniform random line through the target point, reads s
of its q+1 positions (chosen so that every individual query is uniform over
all coordinates), strips the homogenization weights, and decodes the result
as a projective Reed-Solomon word with q+1-s erasures and up to
t = floor((s-k-1)/2) errors.  The PRS decoder reduces to shortened
Reed-Solomon instances solved by error-locator interpolation, with the
point at infinity carried as the leading-coefficient constraint; a
brute-force nearest-codeword oracle pins its correctness at small q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from liftedcodes import linalg
from liftedcodes.codes import Word, encode, make_code
from liftedcodes.gf import GF, FiniteField, poly_divmod, poly_eval
from liftedcodes.geometry import random_embedding_through, theta


def _berlekamp_welch(F, pairs, deg_bound, radius):
    """The unique polynomial of degree <= deg_bound agreeing with the pairs
    in all but at most `radius` places, or None.

    Solves Q(x) = y E(x) for monic E of degree `radius`; requires
    len(pairs) >= deg_bound + 2*radius + 1.
    """
    if radius < 0:
        return None
    if deg_bound < 0:
        g = []
        bad = sum(1 for _, y in pairs if y != 0)
        return g if bad <= radius else None
    nq = deg_bound + radius + 1
    rows, rhs = [], []
    for x, y in pairs:
        xpow = [1]
        for _ in range(nq - 1):
            xpow.append(F.mul(xpow[-1], x))
        row = list(xpow[:nq])
        epow = 1
        for j in range(radius):
            row.append(F.neg(F.mul(y, epow)))
            epow = F.mul(epow, x)
        rows.append(row)
        rhs.append(F.mul(y, epow))  # y * x^radius
    sol = linalg.solve_particular(F, rows, rhs)
    if sol is None:
        return None
    sol = sol.tolist()
    Q = sol[:nq]
    E = sol[nq:] + [1]
    g, rem = poly_divmod(F, Q, E)
    if rem:
        return None
    if len(g) > deg_bound + 1:
        return None
    bad = sum(1 for x, y in pairs if poly_eval(F, g, x) != y)
    return g if bad <= radius else None


# ---------------------------------------------------------------------------
# Projective Reed-Solomon error-and-erasure decoding
# ---------------------------------------------------------------------------

def prs_codeword(F, g, k):
    """Evaluation word of a degree-<=k coefficient list: affine values in
    canonical order, then the degree-k coefficient at infinity."""
    q = F.order
    out = [poly_eval(F, g, x) for x in range(q)]
    out.append(g[k] if len(g) > k else 0)
    return out


def prs_decode(y, k, F):
    """Unique codeword within t = floor((s-k-1)/2) errors of y on its s
    non-erased positions, or None.

    The affine part is a shortened Reed-Solomon instance; a read value at
    infinity constrains the leading coefficient and is handled by deciding
    both hypotheses (infinity correct / infinity in error).
    """
    vals = list(y.values) if isinstance(y, Word) else list(y)
    q = F.order
    if len(vals) != q + 1:
        raise ValueError("projective RS words have length q+1")
    non_erased = [i for i, v in enumerate(vals) if v is not None]
    s = len(non_erased)
    if s < k + 1:
        raise ValueError(f"need at least k+1 = {k + 1} readable positions, got {s}")
    t = (s - k - 1) // 2
    aff = [(x, vals[x]) for x in range(q) if vals[x] is not None]
    y_inf = vals[q]

    candidates = []
    if y_inf is None:
        g = _berlekamp_welch(F, aff, k, t)
        if g is not None:
            candidates.append(g)
    else:
        # infinity read correctly: subtract y_inf * x^k, decode degree k-1
        shifted = [(x, F.sub(v, F.mul(y_inf, F.pow(x, k)))) for x, v in aff]
        h = _berlekamp_welch(F, shifted, k - 1, t)
        if h is not None:
            candidates.append(h + [0] * (k - len(h)) + [y_inf])
        # infinity in error: one fewer error available on the affine part
        g = _berlekamp_welch(F, aff, k, t - 1)
        if g is not None:
            candidates.append(g)

    best = None
    for g in candidates:
        cw = prs_codeword(F, g, k)
        dist = sum(1 for i in non_erased if cw[i] != vals[i])
        if dist <= t:
            if best is not None and best != cw:
                raise AssertionError("two codewords inside the unique-decoding radius")
            best = cw
    return best


def prs_decode_bruteforce(y, k, F):
    """Nearest-codeword search over all q^(k+1) messages (small q only)."""
    q = F.order
    if q ** (k + 1) > 300_000:
        raise ValueError("brute-force oracle restricted to small parameters")
    vals = list(y.values) if isinstance(y, Word) else list(y)
    non_erased = [i for i, v in enumerate(vals) if v is not None]
    s = len(non_erased)
    t = (s - k - 1) // 2
    C = make_code("PRS", F, 1, k)
    from liftedcodes.linalg import span_all
    words = span_all(F, C.G)
    best, best_d = None, None
    for cw in words:
        d = sum(1 for i in non_erased if int(cw[i]) != vals[i])
        if best_d is None or d < best_d:
            best, best_d = [int(x) for x in cw], d
    if best_d is not None and best_d <= t:
        return best
    return None


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
    images = L.image_points()
    if tuple(P) not in images:
        raise ValueError("target point does not lie on the embedded line")
    p_pre = images.index(tuple(P))
    others = [i for i in range(q + 1) if i != p_pre]
    if rng.random() < s / n:
        extra = rng.choice(len(others), size=s - 1, replace=False)
        chosen = [p_pre] + [others[int(i)] for i in extra]
    else:
        extra = rng.choice(len(others), size=s, replace=False)
        chosen = [others[int(i)] for i in extra]
    return sorted(chosen)


@dataclass
class CorrectionConfig:
    """Parameters of one corrector instance: query budget s in [k+1, q],
    corruption fraction delta, and the experiment seed."""

    s: int
    delta: float = 0.0
    seed: int | None = None


def local_correct(y, P, C, cfg, rng):
    """One corrector call: reads exactly s coordinates of y.

    Returns (symbol, queried_positions); symbol is None when the line
    decoder fails (an erasure output).
    """
    if C.support.space != "projective":
        raise ValueError(f"local correction needs a projective code, not {C!r}")
    F = C.field
    q = F.order
    if not C.k + 1 <= cfg.s <= q:
        raise ValueError(f"query budget must satisfy k+1 <= s <= q, got s={cfg.s}")
    P = tuple(P)
    L = random_embedding_through(P, F, rng)
    dom_positions = query_gen(P, L, cfg.s, rng)
    lams = L.lams.tolist()
    queried = L.positions[dom_positions].tolist()
    y1 = [None] * (q + 1)
    for i, pos in zip(dom_positions, queried):
        val = y[pos]
        if val is not None:
            y1[i] = F.div(val, F.pow(lams[i], C.v))
    if sum(1 for v in y1 if v is not None) < C.k + 1:
        return None, queried  # erased input positions left too few reads
    cw = prs_decode(y1, C.k, F)
    if cw is None:
        return None, queried
    # P is the image of the point at infinity, with lambda one
    return cw[q], queried


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


def corrupt_word(word, delta, rng):
    """Flip exactly floor(delta * n) uniformly chosen coordinates to
    uniformly chosen wrong symbols."""
    if not 0 <= delta <= 1:
        raise ValueError(f"corruption fraction delta must lie in [0, 1], got {delta}")
    n = len(word)
    nerr = math.floor(delta * n)
    q = word.support.field.order
    out = word.copy()
    if nerr == 0:
        return out
    positions = rng.choice(n, size=nerr, replace=False)
    for pos in positions:
        pos = int(pos)
        old = out.values[pos]
        shift = int(rng.integers(1, q))
        out.values[pos] = _wrong_symbol(word.support.field, old, shift)
    return out


def _wrong_symbol(F, old, shift):
    # uniform over the q-1 symbols different from old
    candidates = [c for c in range(F.order) if c != old]
    return candidates[shift - 1]


def mc_experiment(C, cfg, trials, seed=None):
    """Per trial: uniform codeword, exact floor(delta*n) corruption, uniform
    target point, one corrector call.  Fully reproducible from the seed;
    trials use deterministically derived substreams."""
    if trials < 1:
        raise ValueError("need at least one trial")
    seed = cfg.seed if seed is None else seed
    if seed is None:
        raise ValueError("a seed is required for reproducibility")
    n = len(C.support)
    children = np.random.SeedSequence(seed).spawn(trials)
    hist = [0] * n
    successes = wrong = erasures = 0
    for tr in range(trials):
        rng = np.random.default_rng(children[tr])
        c = encode(C, [int(x) for x in rng.integers(C.field.order, size=C.dim)])
        y = corrupt_word(c, cfg.delta, rng)
        target = int(rng.integers(n))
        sym, queried = local_correct(y, C.support[target], C, cfg, rng)
        for pos in queried:
            hist[pos] += 1
        truth = c[target]
        if sym is None:
            erasures += 1
        elif sym == truth:
            successes += 1
        else:
            wrong += 1
    return ExperimentReport(
        q=C.field.order, m=C.m, k=C.k, s=cfg.s, delta=cfg.delta,
        trials=trials, seed=seed, successes=successes, wrong=wrong,
        erasures=erasures, success_rate=successes / trials,
        query_histogram=hist,
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
