"""GF(p**r) as exponent, log and trace lookup tables.

Elements are dense coefficient vectors over Z/p in ascending degree order
(c[0] is the constant term).  A coefficient vector doubles as a base-p
integer value sum(c[j] * p**j), which fixes a total order on elements and
an index into the lookup tables.  The modulus is the lexicographically
smallest monic irreducible of degree r under that value order, and the
generator is the smallest primitive element under the same order, so a
given (p, r) always produces the identical field layout.

Construction costs O(p**r * r) time for p = 2 and O(p**r * r**2) for odd
p, and O(p**r) memory: value_of_exp and log_of_value are int32, and the
two trace tables use coeff_dtype, the smallest type that holds 0..p-1.
The frames and character sums index these tables with whole arrays of
values; FieldElem holds a single element's coefficients and value.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    BadShape,
    ContextMismatch,
    DegreeTooLarge,
    InvariantViolation,
    NotADivisor,
    NotPrime,
)

SIZE_CAP = 2 ** 24

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2**24 size cap."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division, ascending: 2, then
    the odd candidates up to sqrt(n), one generator scan per factor."""
    out = []
    d = 2
    while d is not None and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d = next((k for k in range(d + 1 + d % 2, math.isqrt(n) + 1, 2)
                  if n % k == 0), None)
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z/p, used only at construction time
# ---------------------------------------------------------------------------

def _ptrim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, f, p):
    # remainder of a modulo monic f
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            for j in range(df):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
        a[i] = 0
    return _ptrim(a[:df])


def _pmulmod(a, b, f, p):
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(a, e, f, p):
    out = (1,)
    base = _pmod(a, f, p)
    while e > 0:
        if e & 1:
            out = _pmulmod(out, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return out


def _psub(a, b, p):
    w = max(len(a), len(b))
    a = list(a) + [0] * (w - len(a))
    b = list(b) + [0] * (w - len(b))
    return _ptrim([(x - y) % p for x, y in zip(a, b)])


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        lc_inv = pow(b[-1], -1, p)
        bm = tuple(c * lc_inv % p for c in b)
        a, b = bm, _pmod(a, bm, p)
    return a


def _is_irreducible(f, p, r, r_primes):
    # Rabin test: t**(p**r) == t mod f, and t**(p**(r/q)) - t coprime to f
    # for every prime q dividing r.
    t = (0, 1)
    x = t
    for _ in range(r):
        x = _ppowmod(x, p, f, p)
    if _ptrim(x) != t:
        return False
    for q in r_primes:
        y = t
        for _ in range(r // q):
            y = _ppowmod(y, p, f, p)
        g = _pgcd(_psub(y, t, p), f, p)
        if len(g) != 1:
            return False
    return True


# rows per block when a linear map is applied to packed values, which
# bounds the odd-p digit intermediates at a few MiB
_BLOCK_ROWS = 2 ** 16


def _times_packed(values, M, p):
    """x -> x M (mod p) on packed values x, for the r x r matrix M of a
    GF(p)-linear map on coefficient row vectors."""
    r = len(M)
    if p == 2:
        # XOR of the images of x's 8-bit chunks, from 256-entry tables
        bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
        rows = np.vstack((M, np.zeros((-r % 8, r), dtype=np.int64)))
        out = np.zeros_like(values)
        for c in range(0, r, 8):
            image = bits @ rows[c:c + 8] % 2 @ (1 << np.arange(r))
            out ^= image.astype(np.int32)[(values >> c) & 0xFF]
        return out
    powers = np.int64(p) ** np.arange(r)
    digits = values // powers[:, None] % p
    # exact in float64: the entries are at most r (p - 1)**2 < 2**53
    return powers @ ((M.T.astype(np.float64) @ digits).astype(np.int64) % p)


def field_size(p: int, r: int) -> int:
    """n = p**r, once p is a prime, r >= 1 and n within SIZE_CAP; r is
    checked before p**r is formed, so a huge r is refused at once."""
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if r < 1:
        raise BadShape(f"extension degree must be >= 1, got {r}")
    # p >= 2, so r >= SIZE_CAP.bit_length() puts p**r above the cap
    if r >= SIZE_CAP.bit_length() or p ** r > SIZE_CAP:
        raise DegreeTooLarge(f"p**r = {p}**{r} exceeds cap {SIZE_CAP}")
    return p ** r


class FieldElem:
    """Element of a FieldCtx: its coefficient vector and base-p value."""

    __slots__ = ("ctx", "coeffs", "value")

    def __init__(self, ctx: "FieldCtx", coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs
        v = 0
        for c in reversed(coeffs):
            v = v * ctx.p + c
        self.value = v


def _check_bijection(value_of_exp: np.ndarray, n: int) -> None:
    """The n-1 powers of the generator must hit every nonzero value of
    GF(n) once: mark each value seen, in O(n)."""
    seen = np.zeros(n, dtype=bool)
    seen[value_of_exp] = True
    if len(value_of_exp) != n - 1 or seen[0] or not seen[1:].all():
        raise InvariantViolation("exponent table is not a bijection")


class FieldCtx:
    """GF(p**r) with exponent/log/trace tables; build via build_field()."""

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r
        self.n = field_size(p, r)
        self.modulus = self._find_modulus()
        self.ctx_id = f"GF({p}^{r})#{self._poly_value(self.modulus)}"
        self.coeff_dtype = (np.uint8 if p <= 0xFF else
                             np.uint16 if p <= 0xFFFF else np.int32)
        gen_coeffs = self._find_generator()
        self._build_tables(gen_coeffs)
        self.generator = self.elem(gen_coeffs)

    # -- construction ------------------------------------------------------

    def _poly_value(self, coeffs) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def _value_coeffs(self, v: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def _find_modulus(self) -> tuple[int, ...]:
        p, r = self.p, self.r
        if r == 1:
            return (0, 1)
        r_primes = prime_factors(r)
        for c in range(p ** r):
            f = self._value_coeffs(c) + (1,)
            if _is_irreducible(f, p, r, r_primes):
                return f
        raise InvariantViolation("no irreducible polynomial found")

    def _find_generator(self) -> tuple[int, ...]:
        p, n, f = self.p, self.n, self.modulus
        if n == 2:
            return (1,)
        checks = [(n - 1) // q for q in prime_factors(n - 1)]
        one = (1,)
        for v in range(2, n):
            cand = self._value_coeffs(v)
            if all(_ppowmod(cand, e, f, p) != one for e in checks):
                return cand
        raise InvariantViolation("no generator found")

    def _build_tables(self, gen_coeffs) -> None:
        # value_of_exp[k] = g**k by doubling: the next `take` entries are
        # the first `take` times g**filled, a GF(p)-linear map whose matrix
        # M is squared as filled doubles; row j of M starts as the
        # coefficients of g t**j
        p, r, n, f = self.p, self.r, self.n, self.modulus
        values = np.ones(n - 1, dtype=np.int32)
        if n - 1 > 1:
            values[1] = self._poly_value(gen_coeffs)
            M = np.array([self.elem(_pmulmod((0,) * j + (1,), gen_coeffs,
                                             f, p)).coeffs
                          for j in range(r)], dtype=np.int64)
            filled = 2
            while filled < n - 1:
                M = M @ M % p
                take = min(filled, n - 1 - filled)
                for i0 in range(0, take, _BLOCK_ROWS):
                    i1 = min(i0 + _BLOCK_ROWS, take)
                    values[filled + i0:filled + i1] = _times_packed(
                        values[i0:i1], M, p)
                filled += take
        _check_bijection(values, n)
        self.value_of_exp = values
        self.log_of_value = np.full(n, -1, dtype=np.int32)
        self.log_of_value[values] = np.arange(n - 1, dtype=np.int32)
        # the trace is linear in the base-p digits of the value: prepend
        # one digit at a time, Tr(d t**j + x) = d Tr(t**j) + Tr(x)
        trace = np.zeros(1, dtype=np.int32)
        for tr_j in self._trace_basis():
            shifts = (np.arange(p) * tr_j % p).astype(np.int32)
            trace = (np.add.outer(shifts, trace) % p).ravel()
        self.trace_of_value = trace.astype(self.coeff_dtype)
        self.trace_of_exp = self.trace_of_value[values]

    def _trace_basis(self) -> list[int]:
        # Tr(t**j) is the j-th power sum of the roots of the modulus (the
        # conjugates t**(p**i)), read off its coefficients by Newton's
        # identities
        p, r, f = self.p, self.r, self.modulus
        sums = [r % p]
        for j in range(1, r):
            sums.append(-(j * f[r - j] + sum(f[r - i] * sums[j - i]
                                             for i in range(1, j))) % p)
        return sums

    # -- element creation --------------------------------------------------

    def elem(self, coeffs) -> FieldElem:
        cs = [int(c) % self.p for c in coeffs]
        if len(cs) > self.r:
            if any(cs[self.r:]):
                raise BadShape(f"coefficient vector longer than degree {self.r}")
            cs = cs[:self.r]
        cs += [0] * (self.r - len(cs))
        return FieldElem(self, tuple(cs))

    def from_value(self, v: int) -> FieldElem:
        if not 0 <= v < self.n:
            raise BadShape(f"value {v} outside [0, {self.n})")
        return FieldElem(self, self._value_coeffs(v))

    def sub(self, a: FieldElem, b: FieldElem) -> FieldElem:
        """a - b, coefficient by coefficient mod p."""
        for x in (a, b):
            if x.ctx.ctx_id != self.ctx_id:
                raise ContextMismatch(f"element does not belong to "
                                      f"{self.ctx_id}")
        return FieldElem(self, tuple((x - y) % self.p
                                     for x, y in zip(a.coeffs, b.coeffs)))

    def __repr__(self):
        return f"FieldCtx({self.ctx_id})"


def build_field(p: int, r: int) -> FieldCtx:
    """Construct GF(p**r) with canonical modulus, generator and tables."""
    return FieldCtx(p, r)


def subgroup_of_order(ctx: FieldCtx, m: int) -> tuple[int, np.ndarray]:
    """(kappa, members) of the unique subgroup A of GF(p**r)* with m
    elements: its index kappa = (p**r - 1)/m, which alone describes A over
    the field tables, and its members g**(kappa*i) in power order, every
    kappa-th entry of the exponent table."""
    order = ctx.n - 1
    if m < 1 or order % m != 0:
        raise NotADivisor(f"m = {m} does not divide {order}")
    kappa = order // m
    return kappa, ctx.value_of_exp[::kappa].copy()
