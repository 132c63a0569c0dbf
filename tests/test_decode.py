"""Error-and-erasure decoding, query generation, and the local corrector."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from liftedcodes import decode, linalg
from liftedcodes.codes import Word, encode, make_code, random_codeword
from liftedcodes.decode import (
    CorrectionConfig,
    ExperimentReport,
    corrupt_word,
    local_correct,
    mc_experiment,
    prs_decode,
    query_gen,
    query_position_sample,
)
from liftedcodes.gf import GF, poly_divmod
from liftedcodes.geometry import enumerate_points, line_images, random_embedding_through, theta
from liftedcodes.reference import (
    prs_decode_bruteforce,
    restrict_to_line,
    rowspace_equal,
    standard_line_embedding,
)


def _random_prs_word(F, k, rng):
    C = make_code("PRS", F, 1, k)
    return random_codeword(C, rng).values


def test_exact_codeword_decodes_to_itself():
    F = GF(8)
    rng = np.random.default_rng(0)
    for k in (1, 3, 5):
        cw = _random_prs_word(F, k, rng)
        assert prs_decode(list(cw), k, F) == cw


def test_erasure_only_recovery_at_minimum_reads():
    # s = k+1 readable positions: pure interpolation on an MDS code
    F = GF(8)
    rng = np.random.default_rng(1)
    for k in (1, 2, 4):
        for _ in range(25):
            cw = _random_prs_word(F, k, rng)
            y = list(cw)
            erased = rng.choice(9, size=9 - (k + 1), replace=False)
            for i in erased:
                y[int(i)] = None
            assert prs_decode(y, k, F) == cw


def test_single_error_full_read():
    F = GF(8)
    rng = np.random.default_rng(2)
    k = 3
    for _ in range(50):
        cw = _random_prs_word(F, k, rng)
        y = list(cw)
        pos = int(rng.integers(9))
        y[pos] = (y[pos] + 1) % 8 if y[pos] != 7 else 0
        got = prs_decode(y, k, F)
        assert got == cw
        assert got == prs_decode_bruteforce(y, k, F)


def test_exhaustive_small_field_against_bruteforce():
    # q = 4, k = 1: every codeword, every <=1-error pattern, every single
    # erasure with <=1 error
    F = GF(4)
    k = 1
    C = make_code("PRS", F, 1, k)
    msgs = itertools.product(range(4), repeat=2)
    for msg in msgs:
        cw = encode(C, list(msg)).values
        # all error patterns of weight <= 1 on the full word (t = 1)
        for pos in range(5):
            for wrong in range(4):
                y = list(cw)
                if wrong == y[pos]:
                    continue
                y[pos] = wrong
                assert prs_decode(y, k, F) == cw
        # one erasure (s = 4, t = 1) plus one error
        for er in range(5):
            for pos in range(5):
                if pos == er:
                    continue
                for wrong in range(4):
                    y = list(cw)
                    y[er] = None
                    if wrong == y[pos]:
                        continue
                    y[pos] = wrong
                    assert prs_decode(y, k, F) == cw


def test_exhaustive_q5_weight_one():
    # q = 5, k = 2: every codeword against every single-symbol corruption
    F = GF(5)
    C = make_code("PRS", F, 1, 2)
    for msg in itertools.product(range(5), repeat=3):
        cw = encode(C, list(msg)).values
        assert prs_decode(list(cw), 2, F) == cw
        for pos in range(6):
            for wrong in range(5):
                if wrong == cw[pos]:
                    continue
                y = list(cw)
                y[pos] = wrong
                assert prs_decode(y, 2, F) == cw


def test_randomized_agreement_with_bruteforce():
    # arbitrary (not necessarily decodable) words: decoder and oracle agree
    rng = np.random.default_rng(3)
    for q, k in ((4, 2), (5, 2), (8, 3)):
        F = GF(q)
        for _ in range(150):
            y = [int(x) for x in rng.integers(q, size=q + 1)]
            n_erase = int(rng.integers(0, q - k))
            for i in rng.choice(q + 1, size=n_erase, replace=False):
                y[int(i)] = None
            got = prs_decode(list(y), k, F)
            want = prs_decode_bruteforce(list(y), k, F)
            assert got == want, (q, k, y)


PROPERTY_CASES = [(q, k) for q in (2, 3, 4, 5, 7, 8, 9) for k in range(q + 1)
                  if q ** (k + 1) <= 300_000]


@pytest.mark.parametrize("q, k", PROPERTY_CASES)
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_decoder_matches_bruteforce_on_random_patterns(q, k, data):
    # every k the brute-force oracle affords, k = 0 and k = q included:
    # erasures anywhere, errors up to two past the radius t
    F = GF(q)
    C = make_code("PRS", F, 1, k)
    msg = data.draw(st.lists(st.integers(0, q - 1), min_size=k + 1, max_size=k + 1))
    cw = encode(C, msg).values
    order = data.draw(st.permutations(range(q + 1)))
    s = data.draw(st.integers(k + 1, q + 1))
    t = (s - k - 1) // 2
    y = [None] * (q + 1)
    for i in order[:s]:
        y[i] = cw[i]
    for i in order[:data.draw(st.integers(0, min(s, t + 2)))]:
        y[i] = F.add(y[i], data.draw(st.integers(1, q - 1)))
    assert prs_decode(y, k, F) == prs_decode_bruteforce(y, k, F)


@pytest.mark.parametrize("q, k", [(7, 2), (8, 1), (9, 2)])
def test_wrong_symbol_at_infinity_with_t_minus_one_affine_errors(q, k):
    # full read, so t = (q-k)//2: the whole error budget is spent, once
    # at infinity
    F = GF(q)
    rng = np.random.default_rng(q)
    cw = _random_prs_word(F, k, rng)
    t = (q - k) // 2
    y = list(cw)
    y[q] = F.add(y[q], 1)
    for i in rng.choice(q, size=t - 1, replace=False):
        y[int(i)] = F.add(y[int(i)], int(rng.integers(1, q)))
    assert prs_decode(y, k, F) == cw == prs_decode_bruteforce(y, k, F)


def test_roundtrip_with_errors_and_erasures_up_to_capacity():
    # decode(encode(m) + noise) = encode(m) whenever erasures <= q+1-s and
    # errors <= t; randomized across q up to 16
    rng = np.random.default_rng(12)
    for q in (4, 5, 8, 9, 13, 16):
        F = GF(q)
        for _ in range(40):
            k = int(rng.integers(1, min(q - 1, 7)))
            cw = _random_prs_word(F, k, rng)
            s = int(rng.integers(k + 1, q + 2))
            t = (s - k - 1) // 2
            y = list(cw)
            erased = rng.choice(q + 1, size=q + 1 - s, replace=False)
            for i in erased:
                y[int(i)] = None
            live = [i for i in range(q + 1) if y[i] is not None]
            nerr = int(rng.integers(0, t + 1))
            for i in rng.choice(len(live), size=nerr, replace=False):
                pos = live[int(i)]
                y[pos] = (y[pos] + 1 + int(rng.integers(q - 1))) % q
                if y[pos] == cw[pos]:
                    y[pos] = (y[pos] + 1) % q
            assert prs_decode(y, k, F) == cw, (q, k, s, nerr)


def test_planted_codeword_over_gf257():
    # element indices above 255: the decoder's elimination must not wrap
    F = GF(257)
    k, s, nerr = 5, 30, 12
    rng = np.random.default_rng(257)
    g = [int(c) for c in rng.integers(257, size=k + 1)]
    cw = encode(make_code("PRS", F, 1, k), g[::-1]).values
    read = sorted(int(i) for i in rng.choice(258, size=s, replace=False))
    y = [None] * 258
    for i in read:
        y[i] = cw[i]
    for i in rng.choice(read, size=nerr, replace=False):
        y[int(i)] = F.add(y[int(i)], int(rng.integers(1, 257)))
    assert prs_decode(y, k, F) == cw


def _monomial_rows(F, positions, d):
    # the decoder's former row builder, kept as the reference: x0^(d-j) x1^j,
    # j = 0..d, at the standard points of the line positions, along a new
    # last axis: x^j at (1 : x) for x < q, and the unit vector at j = d at
    # (0 : 1)
    q = F.order
    x = np.asarray(positions)
    rows = F.np_exp[np.multiply.outer(F.np_log[x % q], np.arange(d + 1)) % (q - 1)]
    rows[x == 0, 1:] = 0  # 0^0 = 1 is already in place
    at_inf = x == q
    rows[at_inf] = 0
    rows[at_inf, d] = 1
    return rows


def _berlekamp_welch_matrix(F, positions, ys, k, t):
    # the full homogeneous key equation N = y E on P^1, N of degree k+t in
    # the first k+t+1 columns and E of degree t in the last t+1
    neg_y = F.np_sub[0][ys]
    return np.concatenate([_monomial_rows(F, positions, k + t),
                           F.np_mul[neg_y[..., None], _monomial_rows(F, positions, t)]], axis=2)


def _reference_decode_stack(F, k, positions, ys):
    # the decoder before it reduced the key equation, kept as the reference:
    # one null vector of the full Berlekamp-Welch system per slice, then
    # N / E by polynomial division at x0 = 1.  Returns (g, ok): g holds the
    # coefficients of f(1, x) where ok.
    B, s = ys.shape
    t = (s - k - 1) // 2
    sols, ok = linalg.null_vectors(F, _berlekamp_welch_matrix(F, positions, ys, k, t))
    g = np.zeros((B, k + 1), dtype=F.dtype)
    for b in ok.nonzero()[0].tolist():
        sol = sols[b].tolist()
        quot, rem = poly_divmod(F, sol[:k + t + 1], sol[k + t + 1:])
        if rem or len(quot) > k + 1:
            ok[b] = False
        else:
            g[b, :len(quot)] = quot
    return g, ok


def _evaluate(F, positions, g):
    # the forms with coefficient rows g (B, k+1) at the line positions
    rows = _monomial_rows(F, positions, g.shape[1] - 1)
    return linalg.gf_sum(F, F.np_mul[rows[None], g[:, None, :]], axis=2)


def _random_reads(F, k, s, B, rng):
    # B slices of s reads of planted PRS_q(k) codewords, slice b with
    # b mod (t+4) errors; (0 : 1) is read in every other slice
    q = F.order
    t = (s - k - 1) // 2
    positions = []
    for b in range(B):
        if b % 2 and s <= q:
            chosen = np.append(rng.choice(q, size=s - 1, replace=False), q)
        else:
            chosen = rng.choice(q + 1, size=s, replace=False)
        positions.append(np.sort(chosen))
    positions = np.array(positions)
    msgs = rng.integers(q, size=(B, k + 1)).astype(F.dtype)
    ys = np.take_along_axis(_evaluate(F, np.arange(q + 1), msgs), positions, axis=1)
    for b in range(B):
        for i in rng.choice(s, size=min(s, b % (t + 4)), replace=False):
            ys[b, i] = F.add(int(ys[b, i]), int(rng.integers(1, q)))
    return positions, ys


# the reference eliminates an s x (k+2t+2) matrix, about s (k+2t+2)^2
# table reads a slice: one slice at q = 2048, k = q-1 took 25 s
_REFERENCE_BUDGET = 4 * 10 ** 7


def _reference_cost(k, s):
    return s * (k + 2 * ((s - k - 1) // 2) + 2) ** 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 32, 257, 2039, 2048])
def test_decode_stack_equals_berlekamp_welch_reference(q):
    # every k in {0, q//2, q-1} and s in {k+1, mid, q+1}; where the
    # reference would pass its budget, s shrinks until it fits, and k is
    # left out when even s = k+1 does not (k >= q//2 at q >= 2039, which
    # test_planted_codeword_at_large_q covers)
    F = GF(q)
    rng = np.random.default_rng(q)
    everywhere = np.arange(q + 1)
    checked = 0
    for k in sorted({0, q // 2, q - 1}):
        for s in sorted({k + 1, (k + q + 2) // 2, q + 1}):
            while s > k + 1 and _reference_cost(k, s) > _REFERENCE_BUDGET:
                s = (s + k + 1) // 2
            if _reference_cost(k, s) > _REFERENCE_BUDGET:
                continue
            B = max(2, min(12, _REFERENCE_BUDGET // _reference_cost(k, s)))
            positions, ys = _random_reads(F, k, s, B, rng)
            g, ok_ref = _reference_decode_stack(F, k, positions, ys.copy())
            vals, ok = decode._decode_stack(F, k, positions, ys.copy(), everywhere)
            assert np.array_equal(ok, ok_ref), (k, s)
            assert np.array_equal(vals[ok], _evaluate(F, everywhere, g)[ok]), (k, s)
            at_inf, ok_inf = decode._decode_stack(F, k, positions, ys.copy(), [q])
            assert np.array_equal(ok_inf, ok) and np.array_equal(at_inf[ok, 0], g[ok, k])
            checked += 1
    assert checked >= (2 if q >= 2039 else 5)


def _reads_around_the_first_k_t_1(F, k, s, rng):
    # planted PRS_q(k) reads in three kinds of slices, 8 of each, with K =
    # k+t+1: errors only past the first K reads, at most t of them; the same
    # with more than t, where s-K allows it; and t-1 to t+1 more errors after
    # one among the first K, where an error locator vanishes
    q = F.order
    t = (s - k - 1) // 2
    K = k + t + 1
    late = np.arange(K, s)
    patterns = []
    for _ in range(8):
        patterns.append(rng.choice(late, size=rng.integers(1, t + 1), replace=False))
        if s - K > t:
            patterns.append(rng.choice(late, size=rng.integers(t + 1, s - K + 1), replace=False))
        first = rng.integers(K)
        rest = rng.choice(np.delete(np.arange(s), first), size=rng.integers(t - 1, t + 2),
                          replace=False)
        patterns.append(np.append(rest, first))
    positions = np.array([np.sort(rng.choice(q + 1, size=s, replace=False)) for _ in patterns])
    msgs = rng.integers(q, size=(len(patterns), k + 1)).astype(F.dtype)
    ys = np.take_along_axis(_evaluate(F, np.arange(q + 1), msgs), positions, axis=1)
    for b, errs in enumerate(patterns):
        ys[b, errs] = F.np_add[ys[b, errs], rng.integers(1, q, size=len(errs))]
    return positions, ys


@pytest.mark.parametrize("q, k, s", [(5, 1, 5), (5, 1, 6), (7, 3, 8), (8, 2, 7), (8, 2, 8),
                                     (8, 2, 9), (9, 3, 9), (9, 3, 10), (16, 2, 12), (16, 2, 17)])
def test_decode_stack_checks_the_first_k_t_1_reads(q, k, s):
    # the decoder compares its interpolant with the reads at the first
    # k+t+1 of them only, as the key equation settles the rest: on slices
    # whose errors lie past those reads, or hit one of them, it agrees
    # with the full Berlekamp-Welch reference and the brute-force oracle
    F = GF(q)
    rng = np.random.default_rng(q * 1000 + k * 100 + s)
    positions, ys = _reads_around_the_first_k_t_1(F, k, s, rng)
    everywhere = np.arange(q + 1)
    vals, ok = decode._decode_stack(F, k, positions, ys.copy(), everywhere)
    g, ok_ref = _reference_decode_stack(F, k, positions, ys.copy())
    assert np.array_equal(ok, ok_ref)
    assert np.array_equal(vals[ok], _evaluate(F, everywhere, g)[ok])
    assert ok.any() and not ok.all()
    for b in range(len(ys)):
        y = [None] * (q + 1)
        for pos, val in zip(positions[b].tolist(), ys[b].tolist()):
            y[pos] = val
        assert (vals[b].tolist() if ok[b] else None) == prs_decode_bruteforce(y, k, F), b


@pytest.mark.parametrize("q", [2039, 2048])
def test_planted_codeword_at_large_q(q):
    # k = q//2 and q-1, where the reference does not fit: up to t errors
    # decode to the planted codeword; a full read at k = q-1 (distance 2)
    # with one error has no codeword within t = 0.  s stays within k+10:
    # at k = q//2 a full read (t = 512) takes the decoder seconds
    F = GF(q)
    rng = np.random.default_rng(q)
    for k in (q // 2, q - 1):
        cw = _evaluate(F, np.arange(q + 1), rng.integers(q, size=(1, k + 1)).astype(F.dtype))
        cw = cw[0].tolist()
        for s in sorted({k + 1, min(k + 10, q + 1)}):
            t = (s - k - 1) // 2
            y = [None] * (q + 1)
            read = rng.choice(q + 1, size=s, replace=False).tolist()
            for i in read:
                y[i] = cw[i]
            for i in read[:t]:
                y[i] = F.add(y[i], int(rng.integers(1, q)))
            assert prs_decode(y, k, F) == cw, (k, s)
    y = list(cw)
    i = int(rng.integers(q + 1))
    y[i] = F.add(y[i], 1)
    assert prs_decode(y, q - 1, F) is None


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 27, 32, 257])
def test_key_equation_rows_equal_monomial_reference(q, monkeypatch):
    # capture the reduced key equations M the decoder hands to
    # null_vectors: the null space of each slice is the E-coordinates of
    # the null space of the full Berlekamp-Welch matrix built from the
    # monomial rows (projecting away N is injective on it, as E = 0
    # forces N = 0)
    F = GF(q)
    rng = np.random.default_rng(q)
    seen = []
    null_vectors = decode.linalg.null_vectors
    monkeypatch.setattr(decode.linalg, "null_vectors",
                        lambda F, A: seen.append(A.copy()) or null_vectors(F, A))
    for k in sorted({0, q // 2, q - 1}):
        for s in sorted({k + 1, (k + q + 2) // 2, q + 1}):
            positions = np.array([np.sort(rng.choice(q + 1, size=s, replace=False))
                                  for _ in range(3)])
            ys = rng.integers(q, size=positions.shape).astype(F.dtype)
            decode._decode_stack(F, k, positions, ys, [q])
            t = (s - k - 1) // 2
            M = seen.pop()
            assert M.shape == (3, s - (k + t + 1), t + 1), (k, s)
            full = _berlekamp_welch_matrix(F, positions, ys, k, t)
            for b in range(3):
                assert rowspace_equal(F, linalg.nullspace(F, M[b]),
                                      linalg.nullspace(F, full[b])[:, k + t + 1:]), (k, s, b)


def test_decode_failure_is_distinct_from_wrong_answer():
    # a word far from every codeword must yield None, never a guess
    F = GF(4)
    k = 1
    found_failure = False
    rng = np.random.default_rng(4)
    for _ in range(200):
        y = [int(x) for x in rng.integers(4, size=5)]
        got = prs_decode(list(y), k, F)
        if got is None:
            found_failure = True
        else:
            non_er = range(5)
            assert sum(1 for i in non_er if got[i] != y[i]) <= 1
    assert found_failure


def test_prs_decode_preconditions():
    F = GF(4)
    with pytest.raises(ValueError):
        prs_decode([None] * 4 + [1], 3, F)  # only one readable < k+1
    with pytest.raises(ValueError):
        prs_decode([0, 0, 0], 1, F)  # wrong length


def test_query_gen_size_and_bounds():
    F = GF(3)
    rng = np.random.default_rng(5)
    P = (1, 0, 0)
    for s in (1, 2, 3):
        for _ in range(50):
            L = random_embedding_through(P, F, rng)
            S = query_gen(P, L, s, rng)
            assert len(S) == len(set(S)) == s
    with pytest.raises(ValueError):
        query_gen(P, random_embedding_through(P, F, rng), 4, rng)  # s > q
    L = random_embedding_through(P, F, rng)
    off_line = next(p for p in enumerate_points(F, 2, "projective").points
                    if p not in map(tuple, L.points.tolist()))
    for bad in (off_line, (1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match="does not lie on the embedded line"):
            query_gen(bad, L, 2, rng)


def test_query_gen_equals_tuple_search_reference():
    """The preimage found by array comparison gives the draws and positions
    of a search through the image tuples, on the same generator state."""
    def reference(P, L, s, rng):
        images = list(map(tuple, L.points.tolist()))
        p_pre = images.index(tuple(P))
        others = [i for i in range(len(images)) if i != p_pre]
        if rng.random() < s / theta(L.m, L.field.order):
            extra = rng.choice(len(others), size=s - 1, replace=False)
            chosen = [p_pre] + [others[int(i)] for i in extra]
        else:
            extra = rng.choice(len(others), size=s, replace=False)
            chosen = [others[int(i)] for i in extra]
        return sorted(chosen)

    for q, m in ((2, 2), (3, 2), (4, 3), (5, 2), (8, 2), (9, 2)):
        F = GF(q)
        pts = enumerate_points(F, m, "projective").points
        rng = np.random.default_rng(q)
        for trial in range(60):
            L = random_embedding_through(pts[int(rng.integers(len(pts)))], F, rng)
            # P at the image of (0:1), where random_embedding_through puts
            # the target, and anywhere on the line
            at_infinity = tuple(L.points[q].tolist())
            P = tuple(L.points[int(rng.integers(q + 1))].tolist())
            s = int(rng.integers(1, q + 1))
            for target in (at_infinity, P):
                a, b = np.random.default_rng(trial), np.random.default_rng(trial)
                assert query_gen(target, L, s, a) == reference(target, L, s, b)
                assert a.bit_generator.state == b.bit_generator.state


def test_query_gen_target_inclusion_rate():
    F = GF(3)
    rng = np.random.default_rng(6)
    P = (1, 1, 2)
    n = theta(2, 3)
    s = 2
    hits = 0
    draws = 20_000
    for _ in range(draws):
        L = random_embedding_through(P, F, rng)
        S = query_gen(P, L, s, rng)
        images = list(map(tuple, L.points.tolist()))
        if any(images[i] == P for i in S):
            hits += 1
    expected = s / n
    sigma = (expected * (1 - expected) / draws) ** 0.5
    assert abs(hits / draws - expected) < 4 * sigma


def test_query_marginal_uniform_small():
    C = make_code("PLift", 3, 2, 1)
    hist = query_position_sample(C, (1, 1, 1), 2, 10_000, seed=7)
    assert sum(hist) == 2 * 10_000
    stat, p = chisquare(hist)
    assert p > 1e-3


def test_local_correct_uncorrupted_and_query_count():
    C = make_code("PLift", 4, 2, 3)
    rng = np.random.default_rng(8)
    cfg = CorrectionConfig(s=4)
    reads = []

    class CountingWord:
        def __init__(self, values):
            self.values = values
            self.count = 0

        def __getitem__(self, i):
            self.count += 1
            return self.values[i]

    for _ in range(40):
        c = random_codeword(C, rng)
        P = C.support[int(rng.integers(len(C.support)))]
        oracle = CountingWord(c.values)
        sym, queried = local_correct(oracle, P, C, cfg, rng)
        assert sym == c[C.support.position(P)]
        assert len(queried) == cfg.s
        assert oracle.count == cfg.s
        reads.append(oracle.count)
    assert max(reads) == cfg.s


def test_local_correct_standard_embedding_matches_general():
    # the drawn line decodes to the same symbol at P whether it is read
    # through the drawn embedding or through its all-ones-weight embedding
    C = make_code("PLift", 4, 2, 3)
    F = C.field
    cfg = CorrectionConfig(s=4)
    for trial in range(30):
        rng_a = np.random.default_rng(100 + trial)
        rng_b = np.random.default_rng(100 + trial)
        c = random_codeword(C, rng_a)
        _ = random_codeword(C, rng_b)
        y = corrupt_word(c, 1 / 21, rng_a)
        y2 = corrupt_word(c, 1 / 21, rng_b)
        assert y.values == y2.values
        P = C.support[int(rng_a.integers(21))]
        P2 = C.support[int(rng_b.integers(21))]
        assert P == P2
        sym_a, q_a = local_correct(y, P, C, cfg, rng_a)
        L = random_embedding_through(P, F, rng_b)
        queried = set(L.positions[query_gen(P, L, cfg.s, rng_b)].tolist())
        assert queried == set(q_a)
        Ls = standard_line_embedding(F, map(tuple, L.points.tolist()))
        symbols = []
        for emb in (L, Ls):
            read = [v if pos in queried else None
                    for v, pos in zip(restrict_to_line(y, emb, C.v).values,
                                      emb.positions.tolist())]
            cw = prs_decode(read, C.k, F)
            at = list(map(tuple, emb.points.tolist())).index(P)
            symbols.append(None if cw is None
                           else F.mul(F.pow(int(emb.lams[at]), C.v), cw[at]))
        assert symbols[0] == symbols[1] == sym_a


def test_local_correct_s_range_enforced():
    C = make_code("PLift", 4, 2, 3)
    rng = np.random.default_rng(9)
    c = random_codeword(C, rng)
    with pytest.raises(ValueError):
        local_correct(c, C.support[0], C, CorrectionConfig(s=3), rng)  # s < k+1
    with pytest.raises(ValueError):
        local_correct(c, C.support[0], C, CorrectionConfig(s=5), rng)  # s > q


def test_corrupt_word_exact_count():
    C = make_code("PLift", 4, 2, 3)
    rng = np.random.default_rng(10)
    c = random_codeword(C, rng)
    y = corrupt_word(c, 0.25, rng)
    diffs = [i for i in range(21) if y[i] != c[i]]
    assert len(diffs) == int(0.25 * 21)
    assert corrupt_word(c, 0.0, rng).values == c.values


@pytest.mark.parametrize("seed", range(10))
def test_corrupt_word_leaves_erasures_erased(seed):
    # the draws are those of the word without erasures: an error drawn at
    # an erased position leaves it erased, every other one changes alike
    C = make_code("PLift", 4, 2, 3)
    c = random_codeword(C, np.random.default_rng(100 + seed))
    erase = lambda values: [None if i % 3 == 0 else v for i, v in enumerate(values)]
    for delta in (0.25, 0.5, 1.0):
        full = corrupt_word(c, delta, np.random.default_rng(seed))
        got = corrupt_word(Word(C.support, erase(c.values)), delta, np.random.default_rng(seed))
        assert got.values == erase(full.values)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_corrupt_word_draws_the_shift_th_other_symbol(q):
    # a draw shift in [1, q) selects the shift-th of the q-1 symbols other
    # than the old one, in index order
    class FixedDraws:
        def choice(self, n, size, replace):
            return np.zeros(size, dtype=np.int64)

        def integers(self, low, high, size):
            return np.full(size, self.shift)

    C = make_code("PRS", GF(q), 1, 0)
    rng = FixedDraws()
    for old in range(q):
        word = encode(C, [old])
        others = [c for c in range(q) if c != old]
        for shift in range(1, q):
            rng.shift = shift
            one_error = 1.5 / (q + 1)
            assert corrupt_word(word, one_error, rng)[0] == others[shift - 1]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 32, 256, 2048])
def test_array_shift_draw_equals_scalar_draws(q):
    # corruption draws its shifts as one array where it once drew them one
    # at a time: same values, and the generator ends in the same state
    for seed in range(200):
        scalar_rng, array_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        nerr = seed % 70
        scalar = [int(scalar_rng.integers(1, q)) for _ in range(nerr)]
        assert array_rng.integers(1, q, size=nerr).tolist() == scalar
        assert array_rng.bit_generator.state == scalar_rng.bit_generator.state


def _per_trial_experiment(C, cfg, trials):
    """The Monte-Carlo report built from the public per-trial pipeline: on
    each spawned stream encode, corrupt_word, a target draw, local_correct."""
    n = len(C.support)
    hist = [0] * n
    outcomes = []
    for child in np.random.SeedSequence(cfg.seed).spawn(trials):
        rng = np.random.default_rng(child)
        c = encode(C, [int(x) for x in rng.integers(C.field.order, size=C.dim)])
        y = corrupt_word(c, cfg.delta, rng)
        target = int(rng.integers(n))
        sym, queried = local_correct(y, C.support[target], C, cfg, rng)
        for pos in queried:
            hist[pos] += 1
        outcomes.append("erasure" if sym is None else "success" if sym == c[target] else "wrong")
    successes = outcomes.count("success")
    return ExperimentReport(
        q=C.field.order, m=C.m, k=C.k, s=cfg.s, delta=cfg.delta, trials=trials,
        seed=cfg.seed, successes=successes, wrong=outcomes.count("wrong"),
        erasures=outcomes.count("erasure"), success_rate=successes / trials,
        query_histogram=hist).to_dict()


@pytest.mark.parametrize("q, m, k, s, delta", [
    (4, 2, 3, 4, 0.0), (4, 2, 1, 4, 0.25), (5, 2, 2, 3, 0.1), (5, 2, 2, 5, 0.1),
    (8, 2, 5, 6, 0.0), (8, 2, 5, 8, 0.2), (9, 2, 5, 6, 0.05), (9, 2, 4, 9, 0.1),
    (4, 3, 2, 3, 0.1), (4, 3, 3, 4, 0.05),
    (5, 1, 2, 5, 0.2), (4, 1, 1, 4, 1.0), (3, 2, 1, 3, 1.0), (25, 2, 12, 25, 0.05),
    (27, 2, 10, 20, 0.05),
])
def test_mc_experiment_equals_per_trial_pipeline(q, m, k, s, delta):
    # the engine computes only the read coordinates; its report must be the
    # one the public encode -> corrupt -> local_correct pipeline gives
    C = make_code("PLift", q, m, k)
    cfg = CorrectionConfig(s=s, delta=delta, seed=q * 100 + m * 10 + k)
    assert mc_experiment(C, cfg, trials=40).to_dict() == _per_trial_experiment(C, cfg, 40)


def test_mc_experiment_equals_per_trial_pipeline_across_a_chunk_boundary():
    # the engine decodes its trials in chunks; the last chunk holds 3
    # trials, and t = 1 gives successes, miscorrections and erasures
    C = make_code("PLift", 4, 2, 1)
    cfg = CorrectionConfig(s=4, delta=0.25, seed=424)
    trials = decode._CHUNK + 3
    assert mc_experiment(C, cfg, trials=trials).to_dict() == _per_trial_experiment(C, cfg, trials)


def test_mc_experiment_equals_per_trial_pipeline_across_capped_chunks():
    # 4,112 errors a trial: a chunk holds only the trials whose errors fit
    # in _CHUNK_ERRORS entries, so these trials span three chunks
    C = make_code("PLift", 256, 2, 2)
    cfg = CorrectionConfig(s=3, delta=1 / 16, seed=2561)
    per_chunk = decode._CHUNK_ERRORS // math.floor(cfg.delta * len(C.support))
    trials = 2 * per_chunk + 3
    assert per_chunk < decode._CHUNK
    assert mc_experiment(C, cfg, trials=trials).to_dict() == _per_trial_experiment(C, cfg, trials)


def test_mc_experiment_chunk_memory_at_many_errors():
    # each trial keeps its 4,112 error positions and shifts until its
    # chunk's lookup; a 256-trial call stays within a stated 3.3 MB
    C = make_code("PLift", 256, 2, 2)
    cfg = CorrectionConfig(s=3, delta=1 / 16, seed=7)
    mc_experiment(C, cfg, trials=2, seed=8)  # fills the caches the call reads
    tracemalloc.start()
    try:
        rep = mc_experiment(C, cfg, trials=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.trials == 256
    assert peak <= 3.3e6


def test_mc_experiment_chunk_memory_at_large_s():
    # a trial at q = 512, k = 256, s = 512 holds about 1.8 MB in its
    # codeword product and determinant tables, and 64 trials in one chunk
    # peaked at 146 MB; chunks capped at _trial_bytes a trial keep the
    # call within _CHUNK_BYTES
    C = make_code("PLift", 512, 1, 256)
    cfg = CorrectionConfig(s=512, delta=0.05, seed=1)
    mc_experiment(C, cfg, trials=1, seed=2)  # fills the caches the call reads
    tracemalloc.start()
    try:
        rep = mc_experiment(C, cfg, trials=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.trials == 64
    assert peak <= decode._CHUNK_BYTES


def test_mc_experiment_chunk_memory_in_odd_characteristic():
    # at q = 3^5, k = q-1, s = q a trial's costliest cells are the
    # interpolation's, about 62 bytes each with gf_sum's digits: 3.7 MB a
    # trial.  Charged by its largest phase, a chunk holds 16 trials (the
    # sum of the phases held 6), and 32 trials in two chunks stay within
    # _CHUNK_BYTES; 19 a chunk would pass it
    C = make_code("PLift", 243, 1, 242)
    cfg = CorrectionConfig(s=243, delta=0.05, seed=1)
    assert decode._CHUNK_BYTES // decode._trial_bytes(C.field, C.dim, 243, 242) == 16
    mc_experiment(C, cfg, trials=1, seed=2)  # fills the caches the call reads
    tracemalloc.start()
    try:
        rep = mc_experiment(C, cfg, trials=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.trials == 32
    assert peak <= decode._CHUNK_BYTES


def test_mc_experiment_spawns_one_chunk_of_streams_at_a_time(monkeypatch):
    # spawning every trial's stream up front costs memory and time linear in
    # the trial count before the first trial runs; spawn keys continue from
    # one call to the next, so per-chunk spawns give the streams of one spawn
    asked, keys = [], []

    class Recording(np.random.SeedSequence):
        def spawn(self, n_children):
            asked.append(n_children)
            children = super().spawn(n_children)
            keys.extend(child.spawn_key for child in children)
            return children

    monkeypatch.setattr(np.random, "SeedSequence", Recording)
    C = make_code("PLift", 4, 2, 1)
    trials = 2 * decode._CHUNK + 3
    mc_experiment(C, CorrectionConfig(s=4, delta=0.25, seed=424), trials=trials)
    assert max(asked) <= decode._CHUNK
    assert keys == [(i,) for i in range(trials)]


def test_mc_experiment_equals_per_trial_pipeline_q32():
    # the benchmark's mc-plane configuration, one 8-trial batch
    C = make_code("PLift", 32, 2, 16)
    cfg = CorrectionConfig(s=32, delta=1 / 16, seed=1_000_000)
    assert mc_experiment(C, cfg, trials=8).to_dict() == _per_trial_experiment(C, cfg, 8)


@pytest.mark.parametrize("kind, s", [("PLift", 3), ("PLift", 5), ("Lift", 4), ("RM", 4)])
def test_mc_experiment_rejects_affine_codes_and_out_of_range_s(kind, s):
    C = make_code(kind, 4, 2, 3 if kind == "PLift" else 2)
    with pytest.raises(ValueError):
        mc_experiment(C, CorrectionConfig(s=s, delta=0.1, seed=1), trials=3)


@pytest.mark.parametrize("kind, s, delta, trials, seed, message", [
    ("Lift", 4, 2, 3, 1, "corruption fraction delta must lie in [0, 1], got 2"),
    ("PLift", 0, math.nan, 3, 1, "corruption fraction delta must lie in [0, 1], got nan"),
    ("PLift", 9, 2, 0, 1, "need at least one trial"),
    ("PLift", 9, 2, 3, None, "a seed is required for reproducibility"),
    ("RM", 9, 0.1, 3, 1, "local correction needs a projective code, not {C!r}"),
    ("PLift", 0, 1, 3, 1, "query budget must satisfy k+1 <= s <= q, got s=0"),
], ids=["affine-delta-2", "delta-nan-s-0", "no-trials-delta-2", "no-seed-delta-2",
        "affine-s-9", "s-0"])
def test_mc_experiment_checks_its_arguments_in_order_before_drawing(
        kind, s, delta, trials, seed, message, monkeypatch):
    # inputs that break two checks get the first check's message, and no
    # stream is seeded before every check has passed
    class NoDraws:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a stream was seeded before the checks")

    C = make_code(kind, 4, 2, 3 if kind == "PLift" else 2)
    monkeypatch.setattr(np.random, "SeedSequence", NoDraws)
    with pytest.raises(ValueError) as exc:
        mc_experiment(C, CorrectionConfig(s=s, delta=delta, seed=seed), trials=trials)
    assert str(exc.value) == message.format(C=C)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_bulk_line_geometry_equals_the_line_object(q, m):
    # the engine's draws on one stream and the embedding plus query_gen on
    # a copy: same queried domain positions, same generator state, and the
    # bulk positions and lambdas there are the line object's; domain
    # position q maps to P with lambda 1
    F = GF(q)
    pts = enumerate_points(F, m, "projective").coords
    n = len(pts)
    rng = np.random.default_rng(q * 10 + m)
    by_s = {}
    for draw in range(500):
        P = pts[int(rng.integers(n))].tolist()
        s = int(rng.integers(1, q + 1))
        line_rng, engine_rng = np.random.default_rng(draw), np.random.default_rng(draw)
        L = random_embedding_through(P, F, line_rng)
        dom = query_gen(P, L, s, line_rng)
        col0, extra = decode._draw_line_queries(P, n, s, F, engine_rng)
        assert engine_rng.bit_generator.state == line_rng.bit_generator.state
        assert sorted(extra.tolist()) + [q] * (s - len(extra)) == dom
        by_s.setdefault(s, []).append((col0, P, dom, L))
    for s, draws in by_s.items():
        col0s, Ps, doms, lines = map(list, zip(*draws))
        at = np.hstack([np.array(doms), np.full((len(doms), 1), q)])
        _, lams, positions = line_images(F, np.array(col0s), np.array(Ps), at)
        assert positions[:, :s].tolist() == [L.positions[d].tolist() for L, d in zip(lines, doms)]
        assert lams[:, :s].tolist() == [L.lams[d].tolist() for L, d in zip(lines, doms)]
        assert positions[:, s].tolist() == enumerate_points(F, m, "projective").positions(Ps).tolist()
        assert (lams[:, s] == 1).all()


def test_mc_experiment_clean_channel():
    C = make_code("PLift", 8, 2, 5)
    cfg = CorrectionConfig(s=8, delta=0.0, seed=42)
    rep = mc_experiment(C, cfg, trials=100)
    assert rep.success_rate == 1.0
    assert rep.successes + rep.wrong + rep.erasures == rep.trials
    assert sum(rep.query_histogram) == cfg.s * rep.trials


def test_mc_experiment_reproducible():
    C = make_code("PLift", 4, 2, 3)
    cfg = CorrectionConfig(s=4, delta=0.1, seed=7)
    r1 = mc_experiment(C, cfg, trials=50)
    r2 = mc_experiment(C, cfg, trials=50)
    assert r1.to_dict() == r2.to_dict()
    r3 = mc_experiment(C, cfg, trials=50, seed=8)
    assert r3.to_dict() != r1.to_dict()


def test_mc_experiment_full_read_regime_q16():
    # s = q regime: with tau = (k+1)/q, success rate >= 1 - 2*delta/(1-tau)
    C = make_code("PLift", 16, 2, 13)
    s, delta = 16, 1 / 64
    cfg = CorrectionConfig(s=s, delta=delta, seed=1234)
    rep = mc_experiment(C, cfg, trials=10_000)
    tau = (13 + 1) / 16
    bound = 1 - 2 * delta / (1 - tau)
    sigma = (bound * (1 - bound) / rep.trials) ** 0.5
    assert rep.success_rate >= bound - 3 * sigma


def test_mc_experiment_bound_small():
    # quick sanity at modest trial count; the acceptance suite runs the
    # full grid at 10^4 trials
    C = make_code("PLift", 8, 2, 5)
    s = 8
    t = (s - 5 - 1) // 2
    delta = 1 / 16
    cfg = CorrectionConfig(s=s, delta=delta, seed=11)
    rep = mc_experiment(C, cfg, trials=800)
    bound = 1 - delta * s / (t + 1)
    sigma = (bound * (1 - bound) / rep.trials) ** 0.5
    assert rep.success_rate >= bound - 3 * sigma
