"""Exact arithmetic in small prime-power finite fields GF(p^t).

An element is its integer index, the one representation every caller
works on: the coefficient vector over GF(p) of length t (little-endian,
degree < t) packed as ``sum(c_i * p**i)``.  Index 0 is zero, index 1 is
one, and the index order 0, 1, ..., q-1 is the canonical element
enumeration used everywhere (primitive-element search, point orderings,
deterministic sampling).  Its text is the digit list "[c0,c1,...]"
(``format_element`` / ``parse_element``).

Multiplication is reduced modulo a fixed irreducible polynomial.  Default
moduli come from a published table of primitive polynomials, so that field
construction is reproducible across builds; a custom modulus may be passed
and is verified by trial factorization.  Polynomial arithmetic is used only
to test a modulus and in `_primitive_powers`, the one builder of GF(p^t)
over GF(p) and of every extension GF(q^m): it finds omega and multiplies it
into the d base-p unit digit vectors.  Multiplication by omega is
GF(p)-linear on an index's base-p digits, so the exp table is the orbit of
1 under that d x d matrix, filled by doubling (powers L..2L-1 are powers
0..L-1 times the matrix's L-th power).  Scalar products and inverses then
read the exp/log lists, scalar sums and differences read the numpy sum and
difference tables (index XOR in characteristic 2), and the numpy product,
sum and difference tables are read off the powers of omega and the base-p
digits.  The tables never leak into the observable representation.  The
field order is limited to q <= MAX_ORDER = 2048, as the tables grow as q^2.

The extension GF(q^m) over an already-built GF(q) is not a second field
class but a table: :class:`ExtensionIso`, the coordinate isomorphism
GF(q^m) -> GF(q)^m, holds the extension's modulus and the read-only
exp/log arrays of its primitive element.  An extension index is its
base-q digits, each the base-p digits of a base-field index, so the same
builder fills those arrays.  Extension orders are limited to
MAX_EXTENSION_ORDER = 2^20, as the arrays grow as q^m.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

from liftedcodes import linalg

# Largest supported field order, checked before any search or table.
MAX_ORDER = 2048

# Published primitive polynomials, little-endian coefficient lists (monic).
# Keyed by (p, t); degree-1 entries encode x - g with g the smallest
# primitive root mod p.
IRREDUCIBLE_POLYS = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (11, 1): (9, 1),
    (11, 2): (2, 7, 1),
    (13, 1): (11, 1),
    (13, 2): (2, 12, 1),
}


def prime_factors(n):
    """Distinct prime factors of n, by trial division (desk scale); none
    below 2.  `is_prime` and `prime_power` read this one factorization."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n):
    return prime_factors(n) == [n]


def prime_power(q):
    """(p, t) with q = p^t, p prime; ValueError if q is not a prime power."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, t = factors[0], 1
    while p ** t < q:
        t += 1
    return p, t


# ---------------------------------------------------------------------------
# Polynomials over a field F: little-endian lists of F's element indices
# ---------------------------------------------------------------------------

def poly_trim(a):
    """Drop trailing zero coefficients of the list a in place; returns a."""
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_divmod(F, a, b):
    """(quotient, remainder) of a by a nonzero b; the remainder is trimmed."""
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    while len(a) >= len(b):
        c = F.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        quot[shift] = c
        for j, bj in enumerate(b):
            a[shift + j] = F.sub(a[shift + j], F.mul(c, bj))
        poly_trim(a)
    return quot, a


def poly_mulmod(F, a, b, mod):
    """a * b modulo the monic `mod`, padded to deg(mod) coefficients."""
    t = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    for i in range(len(out) - 1, t - 1, -1):
        c = out[i]
        if c:
            for j in range(t):
                out[i - t + j] = F.sub(out[i - t + j], F.mul(c, mod[j]))
    out = out[:t]
    return out + [0] * (t - len(out))


def poly_powmod(F, a, n, mod):
    """a^n modulo the monic `mod`, padded to deg(mod) coefficients."""
    t = len(mod) - 1
    r = [1] + [0] * (t - 1)
    b = list(a) + [0] * (t - len(a))
    while n:
        if n & 1:
            r = poly_mulmod(F, r, b, mod)
        b = poly_mulmod(F, b, b, mod)
        n >>= 1
    return r


def monic_polys(F, deg):
    """Every monic polynomial of degree deg over F, in index order: the
    coefficients below the leading one read as base-q digits of 0, 1, ..."""
    for digits in product(range(F.order), repeat=deg):
        yield list(reversed(digits)) + [1]


def is_irreducible(F, poly):
    """Trial division: no monic divisor of degree 1..deg/2 over F."""
    half = (len(poly) - 1) // 2
    return all(poly_divmod(F, poly, d)[1]
               for deg in range(1, half + 1) for d in monic_polys(F, deg))


# ---------------------------------------------------------------------------
# Powers of a primitive element
# ---------------------------------------------------------------------------

def _power_tables(p, times_omega):
    """exp/log of omega in a field of order p^d whose indices are their d
    base-p digits; times_omega[i] is the index of omega * p^i.

    Multiplying by omega is GF(p)-linear on the d base-p digits of an
    index, so with A the d x d matrix of omega on the unit digit vectors,
    digit rows times A^L are the orbit shifted by L powers: D[L:2L] =
    D[:L] A^L, and A^2L = A^L A^L.  Returns (exp, log) as int32 arrays,
    log -1 at zero.
    """
    d = len(times_omega)
    q, n = p ** d, p ** d - 1
    powers = p ** np.arange(d, dtype=np.int64)
    # the smallest dtype that holds a digit row times A before the mod
    dt = np.min_scalar_type(d * (p - 1) ** 2)
    A = (np.array(times_omega, dtype=np.int64)[:, None] // powers % p).astype(dt)
    D = np.zeros((n, d), dtype=dt)
    D[0, 0] = 1
    L = 1
    while L < n:
        k = min(L, n - L)
        np.matmul(D[:k], A, out=D[L:L + k])
        D[L:L + k] %= p
        A = A @ A % p
        L += k
    exp = np.zeros(n, dtype=np.int32)
    for j in reversed(range(d)):
        exp *= p
        exp += D[:, j]
    del D  # d bytes per power: freed before log is allocated
    log = np.full(q, -1, dtype=np.int32)
    log[exp] = np.arange(n, dtype=np.int32)
    return exp, log


def _primitive_powers(base, modulus, candidates):
    """(w, exp, log) for the first candidate w of order n = q^m - 1 modulo
    the monic `modulus` of degree m over `base` (q = base.order; an index
    is its m base-q digits), exp and log by `_power_tables`; None if no
    candidate passes w^n = 1 and w^(n/ell) != 1 for each prime ell | n,
    as none does when the modulus is reducible."""
    q, m = base.order, len(modulus) - 1
    n, one = q ** m - 1, [1] + [0] * (m - 1)
    for w in candidates:
        a = [w // q ** j % q for j in range(m)]
        if poly_powmod(base, a, n, modulus) == one and all(
                poly_powmod(base, a, n // ell, modulus) != one for ell in prime_factors(n)):
            # w times each base-p unit digit vector p^i, read back as an index
            times_w = (poly_mulmod(base, [base.p ** i // q ** j % q for j in range(m)], a, modulus)
                       for i in range(base.t * m))
            return w, *_power_tables(base.p, [sum(c * q ** j for j, c in enumerate(v))
                                              for v in times_w])
    return None


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

class FiniteField:
    """GF(p^t) with a verified irreducible modulus and deterministic omega.

    An index is its t little-endian base-p digits.  omega is the first
    element in the canonical enumeration whose multiplicative order is
    q - 1, found by the polynomial arithmetic of the definition
    (`_primitive_powers`); every table is read off its powers.  Scalar
    mul, inv and pow read the exp/log lists; scalar add and sub read the
    numpy sum and difference tables (index XOR in characteristic 2).
    """

    def __init__(self, p, t, modulus=None):
        if t < 1:
            raise ValueError("extension degree must be >= 1")
        _check_order(p ** t)
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        self.t = t
        self.order = q = p ** t
        n = q - 1
        if modulus is None:
            modulus = IRREDUCIBLE_POLYS.get((p, t))
            if modulus is None:
                modulus = self._search_modulus(p, t)
        modulus = tuple(int(c) for c in modulus)
        if not all(0 <= c < p for c in modulus):
            raise ValueError(f"modulus coefficients must lie in 0..{p - 1}, got {list(modulus)}")
        if len(modulus) != t + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {t}")
        self.modulus = modulus
        if t > 1 and not is_irreducible(GF(p), modulus):
            raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        if t > 1:
            w, exp, log = _primitive_powers(GF(p), modulus, range(1, q))
        else:  # integers mod p: no base field to build GF(p) over
            w = next(a for a in range(1, q)
                     if all(pow(a, n // ell, p) != 1 for ell in prime_factors(n)))
            exp, log = _power_tables(p, [w])
        self.omega_index = w
        self._exp = exp.tolist()
        self._log = log.tolist()
        # scalar mul: the logs of two nonzero elements sum below 2(q-1),
        # where exp repeats; zero's log here is 2(q-1), so any sum with it
        # lands in a run of zeros.  A closure rather than a method: the
        # polynomial helpers of the field construction and the extension's
        # modulus search, and every corrector trial's rank test of its line
        # embedding, make their products here one at a time, and a closure
        # skips a method's attribute lookups, zero test and modulo on each.
        zlog = [2 * n] + self._log[1:]
        prod = [0] * (4 * n + 1)
        prod[:n] = prod[n:2 * n] = self._exp

        def mul(a, b):
            return prod[zlog[a] + zlog[b]]

        self.mul = mul
        self.dtype = dt = np.dtype(np.uint8 if q <= 256 else np.uint16)
        self.np_exp = exp.astype(dt)
        self.np_log = log  # -1 at zero
        self.np_mul = self.np_exp[np.add.outer(log, log) % n]
        self.np_mul[0] = 0
        self.np_mul[:, 0] = 0
        # addition is digitwise mod p; index XOR in characteristic 2
        powers = p ** np.arange(t)
        digits = np.arange(q)[:, None] // powers % p
        self.np_digits = digits.astype(dt)
        if p == 2:
            idx = np.arange(q, dtype=dt)
            self.np_add = self.np_sub = np.bitwise_xor.outer(idx, idx)
        else:
            cols = list(zip(digits.T, powers))
            self.np_add = sum(np.add.outer(d, d) % p * w for d, w in cols).astype(dt)
            self.np_sub = sum(np.subtract.outer(d, d) % p * w for d, w in cols).astype(dt)

    @staticmethod
    def _search_modulus(p, t):
        # deterministic fallback: first monic irreducible in index order;
        # for t = 1 that is x, as every degree-1 polynomial is irreducible
        if t == 1:
            return (0, 1)
        prime = GF(p)
        return tuple(next(c for c in monic_polys(prime, t) if is_irreducible(prime, c)))

    # -- index-level arithmetic ------------------------------------------

    def index_to_coeffs(self, i):
        return tuple(i // self.p ** j % self.p for j in range(self.t))

    def coeffs_to_index(self, coeffs):
        i = 0
        for c in reversed(coeffs):
            i = i * self.p + c
        return i

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.np_add.item(a, b)

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.np_sub.item(a, b)

    def neg(self, a):
        return self.sub(0, a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in finite field")
        n = self.order - 1
        return self._exp[(n - self._log[a]) % n]

    def pow(self, a, n):
        """a^n with the exponent reduced mod q-1 for nonzero a; 0^0 = 1."""
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        e = n % (self.order - 1)
        if e == 0:
            return 1
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    # -- element text ----------------------------------------------------

    def format_element(self, i):
        """The textual form "[c0,c1,...]" of index i (little-endian digits)."""
        return "[" + ",".join(map(str, self.index_to_coeffs(i))) + "]"

    def parse_element(self, text):
        """The index of the textual form "[c0,c1,...]"; trailing zero digits
        may be given or left out."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"bad element literal: {text!r}")
        coeffs = [int(s) for s in text[1:-1].split(",") if s.strip() != ""]
        if not all(0 <= c < self.p for c in coeffs):
            raise ValueError(f"coefficient out of range in element literal {text!r}")
        i = self.coeffs_to_index(coeffs)
        # digits in range: an index past the field is a nonzero digit past t
        if i >= self.order:
            raise ValueError(f"coefficient vector too long for this field: {text!r}")
        return i

    def __eq__(self, other):
        return (isinstance(other, FiniteField) and self.p == other.p
                and self.t == other.t and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.t, self.modulus))

    def __repr__(self):
        return f"GF({self.order})"


def _check_order(q):
    if q > MAX_ORDER:
        raise ValueError(f"field order {q} exceeds the supported limit {MAX_ORDER}")


@lru_cache(maxsize=None)
def GF(q):
    """Cached field of order q <= MAX_ORDER with the default (published)
    modulus."""
    _check_order(q)
    return FiniteField(*prime_power(q))


# ---------------------------------------------------------------------------
# The extension GF(q^m) over a base GF(q), as coordinates and tables
# ---------------------------------------------------------------------------

MAX_EXTENSION_ORDER = 1 << 20  # desk scale guard


@lru_cache(maxsize=8)
def _extension_tables(base, m):
    """(modulus, exp, log) of GF(q^m) over the base field.

    For m >= 2 the modulus is the first monic polynomial of degree m over
    the base (in canonical index order) whose root z has order q^m - 1.
    A reducible modulus leaves fewer than q^m - 1 units, so this makes it
    irreducible and z both the polynomial-basis generator and the
    primitive element whose powers exp lists (`_primitive_powers`, with z
    its one candidate).  For m = 1 the modulus is x and the tables are the
    base field's.  exp and log are read-only arrays, log -1 at zero, shared
    by every caller.
    """
    q = base.order
    order = q ** m
    if order > MAX_EXTENSION_ORDER:
        raise ValueError(f"extension field order {order} exceeds the supported "
                         f"limit 2^20 = {MAX_EXTENSION_ORDER}")
    if m == 1:
        modulus, exp, log = (0, 1), base.np_exp.view(), base.np_log.view()
    else:
        for modulus in monic_polys(base, m):
            found = _primitive_powers(base, modulus, [q])  # z = x sits at index q
            if found:
                break
        modulus, (_, exp, log) = tuple(modulus), found
    exp.flags.writeable = log.flags.writeable = False
    return modulus, exp, log


class ExtensionIso:
    """Coordinate isomorphism phi: GF(q^m) -> GF(q)^m.

    An extension element is its index: its m base-q digits in the
    polynomial basis of `modulus`.  Coordinates are taken with respect to
    the basis {Omega^0..Omega^(m-1)} for a primitive Omega (z, the root of
    the modulus, by default), with an optional invertible post-map over
    GF(q) so randomized isomorphisms can be drawn for the structural
    checks.  `exp` lists the powers of z and `log` their exponents.
    """

    def __init__(self, base, m, omega_index=None, post_map=None):
        if m < 1:
            raise ValueError("extension dimension must be >= 1")
        self.base = base
        self.m = m
        self.modulus, self.exp, self.log = _extension_tables(base, m)
        n = len(self.exp)  # q^m - 1
        # the default omega is z = exp[1]; exp[0] when n = 1, in GF(2)
        self.omega_index = int(self.exp[1 % n]) if omega_index is None else omega_index
        if not 1 <= self.omega_index <= n:
            raise ValueError(f"omega index must lie in 1..{n}, got {self.omega_index}")
        # Omega = z^e is primitive iff gcd(e, q^m - 1) = 1
        self._omega_log = e = int(self.log[self.omega_index])
        if math.gcd(e, n) != 1:
            raise ValueError("omega is not primitive in the extension field")
        # columns = polynomial-basis digits of Omega^j
        q = base.order
        cols = self.exp[np.arange(m) * e % n].astype(np.int64)[:, None] // q ** np.arange(m) % q
        self.post_map = post_map
        # forward: digits -> post_map . B^-1 . digits
        self._to_coords = linalg.inverse(base, cols.T)
        if post_map is not None:
            self._to_coords = linalg.gf_matmul(base, post_map, self._to_coords)

    def forward_many(self, indices):
        """phi of each extension index: an (N, m) array over the base field."""
        q = self.base.order
        digits = np.asarray(indices, dtype=np.int64).reshape(-1, 1) // q ** np.arange(self.m) % q
        return linalg.gf_matmul(self.base, digits, self._to_coords.T)

    def powers(self, exponents):
        """phi(Omega^e) for each exponent e: an (N, m) array over the base field."""
        e = np.asarray(exponents, dtype=np.int64) * self._omega_log % len(self.exp)
        return self.forward_many(self.exp[e])

    @staticmethod
    def random(base, m, rng):
        """Random primitive omega and random invertible post-map.  Omega is
        drawn uniformly from 1..q^m-1 until one is primitive."""
        _, _, log = _extension_tables(base, m)
        n = len(log) - 1
        while True:
            om = int(rng.integers(1, n + 1))
            if math.gcd(int(log[om]), n) == 1:
                break
        while True:
            M = [[int(rng.integers(base.order)) for _ in range(m)] for _ in range(m)]
            try:
                linalg.inverse(base, M)
                break
            except ValueError:
                continue
        return ExtensionIso(base, m, omega_index=om, post_map=M)
