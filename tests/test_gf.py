"""Field arithmetic: axioms, defining relations, and the summation identities
that drive monomial extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftedcodes import linalg
from liftedcodes.gf import (
    GF,
    ExtensionIso,
    FiniteField,
    is_irreducible,
    is_prime,
    monic_polys,
    poly_divmod,
    poly_mulmod,
    poly_powmod,
    prime_factors,
    IRREDUCIBLE_POLYS,
)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 16]


def _order(F, a):
    """The multiplicative order of a nonzero a, one power at a time."""
    k, v = 1, a
    while v != 1:
        v, k = F.mul(v, a), k + 1
    return k


def test_gf4_defining_relation():
    F = FiniteField(2, 2, (1, 1, 1))  # x^2 + x + 1
    w = F.omega_index
    assert F.mul(w, w) == F.add(w, 1)  # omega^2 = omega + 1
    assert F.index_to_coeffs(w) == (0, 1)


def test_gf3_omega_is_two():
    F = FiniteField(3, 1)
    assert F.omega_index == 2
    assert _order(F, F.omega_index) == 2


def test_gf16_omega_order_exhaustive():
    F = GF(16)
    orders = {a: _order(F, a) for a in range(1, 16)}
    assert orders[F.omega_index] == 15
    # omega is the first element of full order in canonical enumeration
    first = min(a for a, o in orders.items() if o == 15)
    assert first == F.omega_index
    for a, o in orders.items():
        assert F.pow(a, o) == 1
        assert all(F.pow(a, j) != 1 for j in range(1, o))


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FiniteField(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        FiniteField(4, 1)  # composite characteristic


def test_modulus_coefficient_outside_prime_field_rejected():
    with pytest.raises(ValueError):
        FiniteField(2, 2, (3, 3, 1))  # not silently read as x^2 + x + 1


@pytest.mark.parametrize("make", [lambda: GF(4096), lambda: GF(65537),
                                  lambda: FiniteField(2, 12), lambda: FiniteField(65537, 1)])
def test_field_order_above_limit_rejected(make):
    # rejected before any search or table is built
    with pytest.raises(ValueError, match="exceeds the supported limit 2048"):
        make()


def test_gf4_mul_and_pow():
    F = GF(4)
    w = F.omega_index
    assert F.index_to_coeffs(F.mul(w, w)) == (1, 1)
    assert F.pow(w, 3) == 1
    assert F.pow(w, 0) == 1


def test_gf8_inverse_matches_bruteforce():
    F = GF(8)
    w = F.omega_index
    # brute-force search for the inverse
    inv = next(b for b in range(1, 8) if F.mul(w, b) == 1)
    assert F.inv(w) == inv
    assert F.inv(w) == F.pow(w, 6)


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    F = GF(q)
    n = F.order
    for a in range(n):
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.sub(a, a) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        # Frobenius fixed point: a^q = a
        assert F.pow(a, q) == a
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c = (int(x) for x in rng.integers(n, size=3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@pytest.mark.parametrize("q", SMALL_Q)
def test_character_sum_identity(q):
    # sum over nonzero a of a^j is -1 when (q-1) | j, else 0
    F = GF(q)
    minus_one = F.neg(1)
    for j in range(0, 3 * (q - 1) + 2):
        acc = 0
        for a in range(1, q):
            acc = F.add(acc, F.pow(a, j))
        expected = minus_one if j % (q - 1) == 0 else 0
        assert acc == expected, (q, j)


@pytest.mark.parametrize("q", SMALL_Q)
def test_line_sum_identity(q):
    # sum over beta in F of (beta*x + y)^(q-1) equals -x^(q-1), for all x, y
    F = GF(q)
    e = q - 1
    for x in range(q):
        for y in range(q):
            acc = 0
            for beta in range(q):
                acc = F.add(acc, F.pow(F.add(F.mul(beta, x), y), e))
            assert acc == F.neg(F.pow(x, e)), (q, x, y)


def test_element_text_roundtrip():
    F = GF(4)
    e = F.coeffs_to_index([1, 1])
    assert F.format_element(e) == "[1,1]"
    assert F.parse_element("[1,1]") == e == 3
    assert GF(8).format_element(1) == "[1,0,0]"
    F9 = GF(9)
    for a in range(9):
        assert F9.parse_element(F9.format_element(a)) == a


def test_element_literal_out_of_range_rejected():
    F = GF(4)
    # a bad literal, an out-of-range digit, a nonzero digit past t
    for text in ("1,1", "[1,x]", "[7]", "[2,0]", "[1,-1]", "[1,0,2]", "[1,0,1]", "[0,0,0,1]"):
        with pytest.raises(ValueError):
            F.parse_element(text)
    assert F.parse_element("[1,0,0]") == 1
    assert F.parse_element("[]") == 0


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF(4).inv(0)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_element_text_roundtrip_random_fields(data):
    # a fresh field, not GF(q): the cache would keep every q^2 table alive
    # every q <= 2048; proper powers, a tenth of them, get half the draws
    p, t = data.draw(st.sampled_from([pt for pt in _PRIME_POWERS if pt[1] == 1])
                     | st.sampled_from([pt for pt in _PRIME_POWERS if pt[1] > 1]))
    F = FiniteField(p, t)
    for i in data.draw(st.lists(st.integers(0, F.order - 1), min_size=1, max_size=20)):
        text = F.format_element(i)
        assert len(text.split(",")) == t
        assert F.parse_element(text) == i


_CODEC_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@pytest.mark.parametrize("q", _CODEC_Q, ids=[f"{q}^1" for q in _CODEC_Q])
def test_digit_codec_matches_definition(q):
    # add/sub/neg are digitwise mod p on the base-p digits of an index
    F = GF(q)
    p, t = F.p, F.t
    dig = np.arange(q)[:, None] // p ** np.arange(t) % p
    w = p ** np.arange(t)
    assert [[F.add(a, b) for b in range(q)] for a in range(q)] == \
        ((dig[:, None] + dig[None]) % p @ w).tolist()
    assert [[F.sub(a, b) for b in range(q)] for a in range(q)] == \
        ((dig[:, None] - dig[None]) % p @ w).tolist()
    assert [F.neg(a) for a in range(q)] == (-dig % p @ w).tolist()
    coeffs = list(map(tuple, dig.tolist()))
    assert [F.index_to_coeffs(i) for i in range(q)] == coeffs
    assert [F.coeffs_to_index(c) for c in coeffs] == list(range(q))


def test_shipped_moduli_all_construct():
    for (p, t) in IRREDUCIBLE_POLYS:
        F = FiniteField(p, t)
        assert F.order == p ** t
        assert _order(F, F.omega_index) == F.order - 1


def test_searched_modulus_fallback():
    # (17, 2) is not in the shipped table; deterministic search must kick in
    F = FiniteField(17, 2)
    assert F.order == 289
    assert _order(F, F.omega_index) == 288


# ---------------------------------------------------------------------------
# Every table against the definition: digitwise sums, products by poly_mulmod
# ---------------------------------------------------------------------------

class _ModP:
    """GF(p) straight from integer arithmetic, independent of the tables."""

    def __init__(self, p):
        self.p = self.order = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p


def _assert_tables_match_definition(F, over, ndig):
    """F's elements are ndig digits over the coefficient field `over`."""
    q, base = F.order, over.order
    dig = [[i // base ** j % base for j in range(ndig)] for i in range(q)]
    index = {tuple(d): i for i, d in enumerate(dig)}
    mul = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(a, q):  # products commute: fill both triangles at once
            mul[a][b] = mul[b][a] = index[tuple(poly_mulmod(over, dig[a], dig[b], F.modulus))]
    add = [[index[tuple(map(over.add, dig[a], dig[b]))] for b in range(q)] for a in range(q)]
    sub = [[index[tuple(map(over.sub, dig[a], dig[b]))] for b in range(q)] for a in range(q)]
    assert [[F.mul(a, b) for b in range(q)] for a in range(q)] == mul
    assert [[F.add(a, b) for b in range(q)] for a in range(q)] == add
    assert [[F.sub(a, b) for b in range(q)] for a in range(q)] == sub
    assert [F.inv(a) for a in range(1, q)] == [mul[a].index(1) for a in range(1, q)]
    omega, powers, log = _powers_from_table(mul)
    assert F.omega_index == omega
    assert [F.pow(omega, i) for i in range(q - 1)] == powers
    assert F.np_mul.tolist() == mul
    assert F.np_add.tolist() == add
    assert F.np_sub.tolist() == sub
    assert F.np_digits.tolist() == dig
    assert F.np_exp.tolist() == powers
    assert F.np_log.tolist() == log
    for arr in (F.np_mul, F.np_add, F.np_sub, F.np_exp, F.np_digits):
        assert arr.dtype == F.dtype


def _powers_from_table(mul):
    """(omega, exp, log) read off a full product table: omega is the first
    index of order q - 1, exp its powers, log -1 at zero."""
    q = len(mul)

    def order(a):
        k, v = 1, a
        while v != 1:
            v, k = mul[v][a], k + 1
        return k

    omega = next(a for a in range(1, q) if order(a) == q - 1)
    powers = [1]
    while len(powers) < q - 1:
        powers.append(mul[powers[-1]][omega])
    log = [-1] * q
    for i, v in enumerate(powers):
        log[v] = i
    return omega, powers, log


@pytest.mark.parametrize("make", [
    lambda: FiniteField(3, 2, (1, 0, 1)),  # x^2 + 1: its root has order 4, not 8
    lambda: FiniteField(2, 9),  # searched modulus, omega = 7
    lambda: FiniteField(17, 2),
    lambda: GF(9),
    lambda: GF(16),
    lambda: GF(25),
], ids=["3^2-x2+1", "2^9", "17^2", "9", "16", "25"])
def test_field_tables_match_definition(make):
    F = make()
    _assert_tables_match_definition(F, _ModP(F.p), F.t)


def _ext_digits(q, m, a):
    """The m base-q digits of an extension index: its polynomial-basis
    coefficients over GF(q)."""
    return [a // q ** j % q for j in range(m)]


def _ext_index(q, digits):
    return sum(c * q ** j for j, c in enumerate(digits))


def _ext_mul(iso, a, b):
    """a*b in GF(q^m) from the definition: poly_mulmod over the base
    modulo the extension's modulus."""
    q, m = iso.base.order, iso.m
    return _ext_index(q, poly_mulmod(iso.base, _ext_digits(q, m, a), _ext_digits(q, m, b),
                                     iso.modulus))


def _ext_add(iso, a, b):
    """a+b in GF(q^m): digitwise in the base field."""
    q, m = iso.base.order, iso.m
    return _ext_index(q, map(iso.base.add, _ext_digits(q, m, a), _ext_digits(q, m, b)))


@pytest.mark.parametrize("q, m", [(4, 3), (9, 2)])
def test_extension_tables_match_definition(q, m):
    # the full product table by poly_mulmod; omega is its first index of
    # order q^m - 1, and exp/log are its powers
    iso = ExtensionIso(GF(q), m)
    N = q ** m
    mul = [[0] * N for _ in range(N)]
    for a in range(N):
        for b in range(a, N):  # products commute: fill both triangles at once
            mul[a][b] = mul[b][a] = _ext_mul(iso, a, b)
    omega, powers, log = _powers_from_table(mul)
    assert iso.omega_index == omega == q  # z = x, at index q
    assert iso.exp.tolist() == powers
    assert iso.log.tolist() == log


# ---------------------------------------------------------------------------
# exp/log by doubling against the power-by-power construction
# ---------------------------------------------------------------------------

def _sequential_logs(F):
    """The tables as built one power of omega at a time: omega is the first
    primitive index, and each power is the last one times omega."""
    q = F.order
    omega = next(a for a in range(1, q) if F._is_primitive(a))
    exp = [1] * (q - 1)
    for i in range(1, q - 1):
        exp[i] = F._poly_mul(exp[i - 1], omega)
    log = [-1] * q
    for i, v in enumerate(exp):
        log[v] = i
    return omega, exp, log


def _assert_logs_match_sequential(F):
    omega, exp, log = _sequential_logs(F)
    assert F.omega_index == omega
    assert F._exp == exp
    assert F._log == log


_PRIME_POWERS = [(p, t) for p in range(2, 2049) if is_prime(p)
                 for t in range(1, 12) if p ** t <= 2048]


@pytest.mark.parametrize("p, t", _PRIME_POWERS, ids=[f"{p}^{t}" for p, t in _PRIME_POWERS])
def test_doubling_logs_match_sequential(p, t):
    # a fresh field, not GF(q): the cache would keep every q^2 table alive
    F = FiniteField(p, t)
    _assert_logs_match_sequential(F)
    assert F.np_exp.tolist() == F._exp and F.np_log.tolist() == F._log


def test_doubling_logs_match_sequential_custom_modulus():
    F = FiniteField(3, 2, (1, 0, 1))  # x^2 + 1: omega is not x
    assert F.omega_index != 3
    _assert_logs_match_sequential(F)


def _sequential_extension_logs(base, m, modulus):
    """(omega, exp, log) of GF(q^m) = GF(q)[x]/(modulus) one power at a
    time: omega is the first index passing the primitivity test, and each
    power is the last one times omega, both by polynomial arithmetic over
    the base."""
    q, n = base.order, base.order ** m - 1
    one = [1] + [0] * (m - 1)
    omega = next(a for a in range(1, n + 1)
                 if all(poly_powmod(base, _ext_digits(q, m, a), n // ell, modulus) != one
                        for ell in prime_factors(n)))
    w = _ext_digits(q, m, omega)
    exp = [1] * n
    for i in range(1, n):
        exp[i] = _ext_index(q, poly_mulmod(base, _ext_digits(q, m, exp[i - 1]), w, modulus))
    log = [-1] * (n + 1)
    for i, v in enumerate(exp):
        log[v] = i
    return omega, exp, log


def _trial_division_modulus(base, m):
    """The extension modulus as chosen by trial division: the first monic
    irreducible whose root z (index q; -c0 for m = 1) passes the
    z^((q^m-1)/ell) != 1 tests."""
    q, n = base.order, base.order ** m - 1
    for cand in monic_polys(base, m):
        z = base.neg(cand[0]) if m == 1 else q
        z_digits = [z // q ** i % q for i in range(m)]
        powers = (poly_powmod(base, z_digits, n // ell, cand) for ell in prime_factors(n))
        if is_irreducible(base, cand) and all(w != [1] + [0] * (m - 1) for w in powers):
            return tuple(cand)


_EXTENSIONS = [(q, m) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
               for m in range(1, 13) if q ** m <= 4096]


@pytest.mark.parametrize("q, m", _EXTENSIONS, ids=[f"{q}^{m}" for q, m in _EXTENSIONS])
def test_extension_construction_matches_trial_division(q, m):
    iso = ExtensionIso(GF(q), m)
    assert iso.modulus == _trial_division_modulus(GF(q), m)
    omega, exp, log = _sequential_extension_logs(GF(q), m, iso.modulus)
    assert iso.omega_index == omega
    assert iso.exp.tolist() == exp
    assert iso.log.tolist() == log
    assert not (iso.exp.flags.writeable or iso.log.flags.writeable)


_GCD_CASES = [(4, 2), (9, 2), (8, 3), (2, 9)]


@pytest.mark.parametrize("q, m", _GCD_CASES, ids=[f"{q}^{m}" for q, m in _GCD_CASES])
def test_log_gcd_primitivity_matches_order_test(q, m):
    # z^i is primitive iff gcd(i, q^m - 1) = 1, and exactly the primitive
    # indices are accepted as omega
    base = GF(q)
    iso = ExtensionIso(base, m)
    n, one = q ** m - 1, [1] + [0] * (m - 1)
    primitive = [all(poly_powmod(base, _ext_digits(q, m, a), n // ell, iso.modulus) != one
                     for ell in prime_factors(n)) for a in range(1, n + 1)]
    assert [math.gcd(int(iso.log[a]), n) == 1 for a in range(1, n + 1)] == primitive

    def accepted(a):
        try:
            ExtensionIso(base, m, omega_index=a)
        except ValueError:
            return False
        return True

    assert [accepted(a) for a in range(1, n + 1)] == primitive


def test_omega_index_out_of_range_rejected():
    base = GF(4)
    for bad in (-1, 0, 16):
        with pytest.raises(ValueError, match=rf"^omega index must lie in 1\.\.15, got {bad}$"):
            ExtensionIso(base, 2, omega_index=bad)
    with pytest.raises(ValueError, match="^omega is not primitive in the extension field$"):
        ExtensionIso(base, 2, omega_index=3)  # a base element: its order divides 3


# (q, m, seed) -> (omega, post-map) drawn by ExtensionIso.random: how it
# tests a draw for primitivity must not change which draws it takes
_RANDOM_ISOS = {
    (4, 2, 0): (5, [[0, 3], [2, 3]]),
    (4, 2, 1): (12, [[3, 0], [0, 3]]),
    (4, 2, 2): (4, [[0, 1], [1, 3]]),
    (9, 2, 0): (51, [[4, 2], [2, 0]]),
    (9, 2, 1): (61, [[8, 0], [1, 7]]),
    (9, 2, 2): (9, [[2, 3], [7, 4]]),
    (8, 3, 0): (435, [[5, 4, 2], [2, 0, 0], [0, 1, 6]]),
    (8, 3, 1): (242, [[0, 6, 6], [6, 4, 6], [2, 3, 6]]),
    (8, 3, 2): (429, [[2, 0, 2], [3, 6, 3], [0, 2, 4]]),
}


@pytest.mark.parametrize("q, m, seed", sorted(_RANDOM_ISOS))
def test_random_iso_draws_pinned(q, m, seed):
    iso = ExtensionIso.random(GF(q), m, np.random.default_rng(seed))
    assert (iso.omega_index, iso.post_map) == _RANDOM_ISOS[q, m, seed]


# ---------------------------------------------------------------------------
# Extension isomorphisms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, m", [(4, 2), (3, 2), (9, 2), (8, 3)])
def test_forward_many_equals_per_element_forward(q, m):
    F = GF(q)
    N = q ** m
    for iso in (ExtensionIso(F, m), ExtensionIso.random(F, m, np.random.default_rng(q + m))):
        # per element: the polynomial-basis digits times the coordinate matrix
        ref = [tuple(linalg.gf_matvec(F, iso._to_coords, _ext_digits(q, m, a)).tolist())
               for a in range(N)]
        many = iso.forward_many(range(N))
        assert many.shape == (N, m) and many.dtype == F.dtype
        assert list(map(tuple, many.tolist())) == ref
        assert [tuple(iso.forward_many([a])[0].tolist()) for a in range(N)] == ref


def test_ext_iso_identity_for_m1():
    F = GF(2)
    iso = ExtensionIso(F, 1)
    assert iso.forward_many(range(2)).tolist() == [[0], [1]]
    assert iso.modulus == (0, 1)
    assert (iso.exp.tolist(), iso.log.tolist()) == (F.np_exp.tolist(), F.np_log.tolist())


def test_ext_iso_gf4_linearity_random():
    F = GF(4)
    iso = ExtensionIso(F, 2)
    phi = list(map(tuple, iso.forward_many(range(16)).tolist()))
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = int(rng.integers(16)), int(rng.integers(16))
        fa, fb = phi[a], phi[b]
        fsum = phi[_ext_add(iso, a, b)]
        assert fsum == tuple(F.add(x, y) for x, y in zip(fa, fb))
        lam = int(rng.integers(4))
        # scalar action: lambda * a with lambda embedded as a constant
        fla = phi[_ext_mul(iso, lam, a)]
        assert fla == tuple(F.mul(lam, x) for x in fa)


def test_ext_iso_gf3_bijective_exhaustive():
    F = GF(3)
    iso = ExtensionIso(F, 2)
    phi = list(map(tuple, iso.forward_many(range(9)).tolist()))
    assert len(set(phi)) == 9
    # Omega^0, Omega^1 is the coordinate basis
    assert iso.powers(range(2)).tolist() == [[1, 0], [0, 1]]


def test_ext_iso_random_draw_is_isomorphism():
    F = GF(4)
    rng = np.random.default_rng(3)
    iso = ExtensionIso.random(F, 2, rng)
    phi = list(map(tuple, iso.forward_many(range(16)).tolist()))
    assert len(set(phi)) == 16
    for _ in range(50):
        a, b = int(rng.integers(16)), int(rng.integers(16))
        fa, fb = phi[a], phi[b]
        assert phi[_ext_add(iso, a, b)] == tuple(F.add(x, y) for x, y in zip(fa, fb))


def test_extension_field_frobenius():
    # a^(q^m) = a for every a of GF(16) = GF(4)[x]/(modulus)
    F = GF(4)
    iso = ExtensionIso(F, 2)
    for a in range(16):
        assert poly_powmod(F, _ext_digits(4, 2, a), 16, iso.modulus) == _ext_digits(4, 2, a)


# ---------------------------------------------------------------------------
# Polynomial helpers
# ---------------------------------------------------------------------------

def _poly_mul(F, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def _poly_add(F, a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    out = [F.add(x, y) for x, y in zip(a, b)]
    while out and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize("q", [8, 9])
def test_poly_divmod_identity(q):
    F = GF(q)
    rng = np.random.default_rng(q)
    for _ in range(100):
        a = [int(c) for c in rng.integers(q, size=int(rng.integers(0, 9)))]
        b = [int(c) for c in rng.integers(q, size=int(rng.integers(1, 6)))]
        b[-1] = int(rng.integers(1, q))
        quot, rem = poly_divmod(F, a, b)
        assert len(rem) < len(b)
        assert (rem[-1] if rem else 1) != 0
        trimmed = list(a)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert _poly_add(F, _poly_mul(F, quot, b) if quot else [], rem) == trimmed


def _necklace(q, n):
    # Gauss: number of monic irreducibles of degree n over GF(q)
    def mobius(d):
        out, k = 1, 2
        while d > 1:
            if d % k == 0:
                d //= k
                if d % k == 0:
                    return 0
                out = -out
            k += 1
        return out
    return sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("q", [2, 3, 4])
def test_irreducible_counts_match_necklace_formula(q):
    F = GF(q)
    for n in range(1, 5):
        count = sum(1 for f in monic_polys(F, n) if is_irreducible(F, f))
        assert count == _necklace(q, n), (q, n)


def test_monic_polys_in_index_order():
    F = GF(3)
    assert list(monic_polys(F, 2))[:4] == [[0, 0, 1], [1, 0, 1], [2, 0, 1], [0, 1, 1]]
