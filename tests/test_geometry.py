"""Geometry: enumeration counts, standard representatives, lines, and the
homogenization weights that make line restrictions literal subwords."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from liftedcodes.gf import GF
from liftedcodes.geometry import (
    LineEmbedding,
    all_lines,
    enumerate_points,
    locate,
    random_embedding_through,
    standardize,
    theta,
)
from liftedcodes.reference import all_embeddings, map_raw, standard_line_embedding


def eval_monomial(F, point, d):
    acc = 1
    for c, e in zip(point, d):
        acc = F.mul(acc, F.pow(c, e))
    return acc


def eval_poly(F, point, terms):
    acc = 0
    for d, coeff in terms.items():
        acc = F.add(acc, F.mul(coeff, eval_monomial(F, point, d)))
    return acc


def test_point_counts():
    assert len(enumerate_points(GF(3), 2, "projective")) == 13
    assert len(enumerate_points(GF(3), 1, "projective")) == 4
    assert len(enumerate_points(GF(4), 2, "affine")) == 16
    assert len(enumerate_points(GF(4), 3, "projective")) == theta(3, 4) == 85


def test_support_order_and_uniqueness():
    sup = enumerate_points(GF(4), 2, "projective")
    assert len(set(sup.points)) == len(sup)
    # affine chart first, in lexicographic order, then the infinity block
    assert sup.points[0] == (1, 0, 0)
    assert all(pt[0] == 1 for pt in sup.points[:16])
    assert all(pt[0] == 0 for pt in sup.points[16:])
    assert sup.points[-1] == (0, 0, 1)
    # every point is its own standard representative
    F = GF(4)
    for pt in sup.points:
        assert standardize(F, pt)[0] == pt


def test_standardize_worked_values():
    F = GF(3)
    pt, lam = standardize(F, (2, 1, 1))
    assert pt == (1, 2, 2) and lam == 2
    pt, lam = standardize(F, (0, 2, 1))
    assert pt == (0, 1, 2) and lam == 2
    pt, lam = standardize(F, (1, 0, 0))
    assert pt == (1, 0, 0) and lam == 1
    with pytest.raises(ValueError):
        standardize(F, (0, 0, 0))


def _lines_through(P, sup):
    pos = sup.position(P)
    return [line for line in all_lines(sup) if pos in line]


def test_lines_through_counts_and_partition():
    F = GF(3)
    sup = enumerate_points(F, 2, "projective")
    P = (1, 1, 1)
    lines = _lines_through(P, sup)
    assert len(lines) == 4  # theta(1, 3)
    pos_p = sup.position(P)
    residues = [set(line) - {pos_p} for line in lines]
    assert all(pos_p in line for line in lines)
    union = set().union(*residues)
    assert len(union) == sum(len(r) for r in residues) == len(sup) - 1

    sup4 = enumerate_points(GF(4), 3, "projective")
    assert len(_lines_through((1, 0, 0, 0), sup4)) == 21  # theta(2, 4)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_locate_matches_standardize_and_enumeration(q, m):
    F = GF(q)
    proj = enumerate_points(F, m, "projective")
    vectors = [v for v in itertools.product(range(q), repeat=m + 1) if any(v)]
    points, lams, positions = locate(F, np.array(vectors))
    for v, pt, lam, pos in zip(vectors, points.tolist(), lams.tolist(), positions.tolist()):
        std, want_lam = standardize(F, v)
        assert (tuple(pt), lam) == (std, want_lam)
        assert pos == proj.points.index(std) == proj.position(std)
    aff = enumerate_points(F, m, "affine")
    assert [aff.position(x) for x in itertools.product(range(q), repeat=m)] == \
        [aff.points.index(x) for x in itertools.product(range(q), repeat=m)]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3])
def test_all_lines_match_spans_of_point_pairs(q, m):
    F = GF(q)
    sup = enumerate_points(F, m, "projective")
    spans = set()
    for P, Q in itertools.combinations(sup.points, 2):
        span = {standardize(F, tuple(F.add(F.mul(a, x), F.mul(b, y)) for x, y in zip(P, Q)))[0]
                for a in range(q) for b in range(q) if a or b}
        spans.add(tuple(sorted(sup.points.index(pt) for pt in span)))
    assert all_lines(sup) == sorted(spans)


def test_all_lines_count():
    # P^2 is self-dual: as many lines as points
    sup = enumerate_points(GF(4), 2, "projective")
    assert len(all_lines(sup)) == 21
    for line in all_lines(sup):
        assert len(line) == 5  # q + 1


def test_worked_embedding_rank():
    F = GF(3)
    L = LineEmbedding(F, (1, 0, 1), (1, 1, 0))  # rows (1,1), (0,1), (1,0)
    assert L.m == 2 and len(set(L.positions.tolist())) == 4
    with pytest.raises(ValueError):
        LineEmbedding(F, (1, 0, 1), (2, 0, 2))  # rank 1


def _reference_rank_2(F, col0, col1):
    """The rank test LineEmbedding made by `locate`: both columns are
    nonzero and located at different positions."""
    return bool(any(col0) and any(col1)
                and len(set(locate(F, [col0, col1])[2].tolist())) == 2)


def _assert_rank_test(F, col0, col1):
    if _reference_rank_2(F, col0, col1):
        LineEmbedding(F, col0, col1)
    else:
        with pytest.raises(ValueError, match="^embedding matrix must have rank 2$"):
            LineEmbedding(F, col0, col1)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("width", [2, 3])
def test_embedding_rank_test_equals_locate_reference_on_every_pair(q, width):
    F = GF(q)
    vectors = list(itertools.product(range(q), repeat=width))
    for col0, col1 in itertools.product(vectors, repeat=2):
        _assert_rank_test(F, col0, col1)
    with pytest.raises(ValueError, match="^columns of unequal length$"):
        LineEmbedding(F, vectors[1], vectors[1] + (0,))


@pytest.mark.parametrize("q", [9, 32, 257])
def test_embedding_rank_test_equals_locate_reference_on_samples(q):
    """Random pairs, and as many pairs with col0 a multiple of col1 (the
    zero multiple included), which random pairs almost never are."""
    F = GF(q)
    rng = np.random.default_rng(q)
    proportional = 0
    for _ in range(300):
        width = int(rng.integers(2, 5))
        col1 = tuple(rng.integers(q, size=width).tolist())
        scalar = int(rng.integers(q))
        multiple = tuple(F.mul(scalar, c) for c in col1)
        for col0 in (tuple(rng.integers(q, size=width).tolist()), multiple):
            proportional += not _reference_rank_2(F, col0, col1)
            _assert_rank_test(F, col0, col1)
    assert proportional >= 300


def test_worked_weight_vector_point_indexed():
    # weights of a fully worked F_3 embedding, compared point-by-point
    F = GF(3)
    L = LineEmbedding(F, (1, 0, 1), (1, 1, 0))  # rows (1,1), (0,1), (1,0)
    w = L.lams.tolist()  # lambda^1
    dom = enumerate_points(F, 1, "projective").points
    by_domain_point = {dom[i]: w[i] for i in range(4)}
    assert by_domain_point[(1, 1)] == 2
    assert by_domain_point[(1, 2)] == 2
    assert by_domain_point[(1, 0)] == 1
    assert by_domain_point[(0, 1)] == 1
    # the images, standardized, match the worked example
    img = {dom[i]: tuple(L.points[i].tolist()) for i in range(4)}
    assert img[(1, 1)] == (1, 2, 2)
    assert img[(1, 2)] == (0, 1, 2)
    assert img[(1, 0)] == (1, 0, 1)
    assert img[(0, 1)] == (1, 1, 0)


def test_weight_vector_all_ones_for_standard_embedding():
    F = GF(4)
    sup = enumerate_points(F, 2, "projective")
    for line in all_lines(sup)[:6]:
        pts = [sup[i] for i in line]
        L = standard_line_embedding(F, pts)
        assert set(L.lams.tolist()) == {1}
        assert set(map(tuple, L.points.tolist())) == set(pts)


def test_subword_property_random_polys():
    # ev at standardized image = lambda^v * (f o L)(x), hence the weighted
    # restriction equals the subword of the full evaluation
    F = GF(4)
    rng = np.random.default_rng(5)
    v = 6
    sphere = [(d0, d1, v - d0 - d1) for d0 in range(v + 1) for d1 in range(v + 1 - d0)]
    for _ in range(20):
        terms = {tuple(sphere[i]): int(rng.integers(1, 4))
                 for i in rng.choice(len(sphere), size=5, replace=False)}
        P = (1, int(rng.integers(4)), int(rng.integers(4)))
        L = random_embedding_through(P, F, rng)
        dom = enumerate_points(F, 1, "projective").points
        for x, img, lam in zip(dom, L.points.tolist(), L.lams.tolist()):
            lhs = eval_poly(F, img, terms)
            rhs = F.mul(F.pow(lam, v), eval_poly(F, map_raw(L, x), terms))
            assert lhs == rhs


def test_random_embedding_through_contract():
    F = GF(3)
    rng = np.random.default_rng(0)
    P = (1, 2, 0)
    for _ in range(50):
        L = random_embedding_through(P, F, rng)
        assert L.col1 == P
        assert tuple(L.points[-1].tolist()) == P  # infinity maps to P

    # |L(P^1)| = q + 1 for every rank-2 embedding
    for L in list(all_embeddings(F, 2))[:100]:
        assert len(set(map(tuple, L.points.tolist()))) == 4


@pytest.mark.parametrize("P", [(1,), (2,), (0, 0, 0)])
def test_random_embedding_through_without_a_line_raises(P):
    # P^0 has no line; the zero vector is no point
    with pytest.raises(ValueError):
        random_embedding_through(P, GF(4), np.random.default_rng(0))


def test_random_embedding_line_uniformity():
    # 10^4 draws cover the 4 lines through P with frequency ~1/4 each
    F = GF(3)
    sup = enumerate_points(F, 2, "projective")
    P = (1, 1, 1)
    expected_lines = _lines_through(P, sup)
    rng = np.random.default_rng(42)
    counts = {line: 0 for line in expected_lines}
    n_draws = 10_000
    for _ in range(n_draws):
        L = random_embedding_through(P, F, rng)
        counts[tuple(sorted(L.positions.tolist()))] += 1
    stat, p = chisquare(list(counts.values()))
    assert p > 1e-3


def test_all_embeddings_count():
    # one representative per scalar class: theta * (q^(m+1) - q)
    F = GF(3)
    embs = list(all_embeddings(F, 2))
    assert len(embs) == 13 * (27 - 3)


def test_point_text_roundtrip():
    sup = enumerate_points(GF(4), 2, "projective")
    s = sup.format_point(5)
    assert sup.parse_point(s) == sup.points[5]
    sup3 = enumerate_points(GF(3), 2, "projective")
    assert sup3.parse_point("([1]:[2]:[0])") == (1, 2, 0)


@pytest.mark.parametrize("space, text, hint", [
    ("affine", "([1,0])", "(affine points take 2 coordinates)"),
    ("affine", "([1,0]:[0,1]:[0,0])", "(affine points take 2 coordinates)"),
    ("projective", "([1,0]:[0,1])", "(projective points take 3 coordinates)"),
    ("projective", "([1,0]:[0,1]:[0,0]:[1,0])", "(projective points take 3 coordinates)"),
    ("projective", "([0,1]:[1,0]:[0,0])",
     "(projective points take leading nonzero coordinate [1])"),
])
def test_parse_point_hint_names_the_space(space, text, hint):
    sup = enumerate_points(GF(4), 2, space)
    with pytest.raises(ValueError) as exc:
        sup.parse_point(text)
    assert str(exc.value) == f"{text!r} is not a point of {sup!r} {hint}"


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16]), m=st.integers(0, 3),
       space=st.sampled_from(["affine", "projective"]), data=st.data())
def test_point_text_roundtrip_random_supports(q, m, space, data):
    sup = enumerate_points(GF(q), m, space)
    for i in data.draw(st.lists(st.integers(0, len(sup) - 1), min_size=1, max_size=10)):
        point = sup.parse_point(sup.format_point(i))
        assert point == sup[i] and sup.position(point) == i
