"""Field construction, tables, and element arithmetic."""

import json

import numpy as np
import pytest

from groupframes.errors import (
    BadShape,
    ContextMismatch,
    DegreeTooLarge,
    InvariantViolation,
    NotPrime,
)
from groupframes.frames import build_field_frame
from groupframes.gf import (
    _check_bijection,
    _ppowmod,
    _ptrim,
    build_field,
    is_prime,
    prime_factors,
)
from oracles import add, from_log, inv, log, mul, neg, power, sub, trace


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_pseudoprimes():
    # 341 = 11*31 is a base-2 Fermat pseudoprime, 561 is Carmichael,
    # 3215031751 is a strong pseudoprime to bases 2,3,5,7
    for n in (341, 561, 645, 1105, 3215031751):
        assert not is_prime(n)
    for n in (2 ** 13 - 1, 65537, 10 ** 9 + 7):
        assert is_prime(n)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2) == [2]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(1023) == [3, 11, 31]
    assert prime_factors(97) == [97]


def test_gf4_layout():
    ctx = build_field(2, 2)
    # lexicographically smallest irreducible monic quadratic over F2
    assert ctx.modulus == (1, 1, 1)  # 1 + t + t^2
    assert ctx.generator.value == 2  # t itself
    assert ctx.n == 4


def test_gf27_layout():
    ctx = build_field(3, 3)
    assert ctx.modulus == (1, 2, 0, 1)  # 1 + 2t + t^3
    assert ctx.generator.value == 3
    # -1 is the unique element of order 2: g^((n-1)/2)
    assert from_log(ctx, 13) == neg(ctx, 1)


def test_prime_field_generator():
    ctx = build_field(7, 1)
    assert ctx.modulus == (0, 1)
    assert ctx.generator.value == 3  # smallest primitive root mod 7


@pytest.mark.parametrize("p,r", [(2, 1), (2, 8), (3, 4), (5, 3), (13, 2),
                                 (101, 1), (2, 14)])
def test_exp_log_tables_consistent(p, r):
    ctx = build_field(p, r)
    n = ctx.n
    assert ctx.value_of_exp.shape == (n - 1,)
    # bijection onto the nonzero values
    assert len(np.unique(ctx.value_of_exp)) == n - 1
    assert ctx.log_of_value[0] == -1
    ks = np.arange(n - 1)
    assert np.array_equal(ctx.log_of_value[ctx.value_of_exp], ks)
    # Lagrange: g^(n-1) = 1 closes the cycle
    assert from_log(ctx, n - 1) == 1


def doubling_tables(ctx):
    """The four field tables by coefficient-matrix doubling, the reference
    the packed linear maps must reproduce: every power of g is an int64
    row of r coefficients, and each new half of the table is the filled
    prefix times g**filled, by a schoolbook product reduced through the
    rows t**(r+j) mod f; the traces come from the sum of the conjugates
    of each basis monomial."""
    p, r, n, f = ctx.p, ctx.r, ctx.n, ctx.modulus
    red = np.zeros((max(r - 1, 0), r), dtype=np.int64)
    cur = [(-c) % p for c in f[:r]]  # t**r mod f
    for j in range(r - 1):
        red[j] = cur
        lead = cur[r - 1]
        cur = [0] + cur[:r - 1]
        if lead:
            for i in range(r):
                cur[i] = (cur[i] - lead * f[i]) % p

    def block_mul(block, y):
        full = np.zeros((block.shape[0], 2 * r - 1), dtype=np.int64)
        for j in range(r):
            if y[j]:
                full[:, j:j + r] += block * y[j]
        low = full[:, :r]
        if r > 1:
            low = low + full[:, r:] @ red
        return low % p

    E = np.zeros((n - 1, r), dtype=np.int64)
    E[0, 0] = 1
    if n - 1 > 1:
        g = np.array(ctx.generator.coeffs, dtype=np.int64)
        E[1] = g
        filled = 2
        while filled < n - 1:
            take = min(filled, n - 1 - filled)
            yk = block_mul(E[filled - 1:filled], g)[0]
            E[filled:filled + take] = block_mul(E[:take], yk)
            filled += take
    value_of_exp = E @ (np.int64(p) ** np.arange(r, dtype=np.int64))
    log_of_value = np.full(n, -1, dtype=np.int64)
    log_of_value[value_of_exp] = np.arange(n - 1)
    # Tr(t**j) as the sum of the conjugates t**(j p**i), i < r
    basis = []
    for j in range(r):
        total = [0] * r
        y = _ptrim([0] * j + [1])
        for i in range(r):
            for d, c in enumerate(y):
                total[d] = (total[d] + c) % p
            y = _ppowmod(y, p, f, p)
        assert not any(total[1:])
        basis.append(total[0])
    trace_of_exp = E @ np.array(basis, dtype=np.int64) % p
    trace_of_value = np.zeros(n, dtype=np.int64)
    trace_of_value[value_of_exp] = trace_of_exp
    return {"value_of_exp": value_of_exp, "log_of_value": log_of_value,
            "trace_of_exp": trace_of_exp, "trace_of_value": trace_of_value}


def assert_tables_match_oracle(p, r):
    ctx = build_field(p, r)
    assert np.iinfo(ctx.coeff_dtype).max >= p - 1
    dtypes = {"value_of_exp": np.int32, "log_of_value": np.int32,
              "trace_of_exp": ctx.coeff_dtype,
              "trace_of_value": ctx.coeff_dtype}
    for name, want in doubling_tables(ctx).items():
        got = getattr(ctx, name)
        assert got.dtype == dtypes[name], (p, r, name)
        assert np.array_equal(got, want), (p, r, name)


def _prime_powers(limit, min_degree):
    return [(p, r) for p in range(2, limit + 1) if is_prime(p)
            for r in range(min_degree, limit.bit_length())
            if p ** r <= limit]


def test_tables_match_oracle_up_to_2_12():
    for p, r in _prime_powers(2 ** 12, 1):
        assert_tables_match_oracle(p, r)


def test_extension_tables_match_oracle_up_to_2_16():
    for p, r in _prime_powers(2 ** 16, 2):
        if p ** r > 2 ** 12:
            assert_tables_match_oracle(p, r)


@pytest.mark.parametrize("p,r", [(257, 1), (257, 2), (65537, 1), (2, 20)])
def test_tables_match_oracle_large_p_and_n(p, r):
    # p > 255 needs wider trace tables than uint8; 2**20 runs many blocks
    assert_tables_match_oracle(p, r)


def test_bijection_check():
    _check_bijection(np.array([1, 3, 2, 6, 4, 5]), 7)
    _check_bijection(build_field(2, 10).value_of_exp, 1024)
    with pytest.raises(InvariantViolation):
        _check_bijection(np.array([1, 3, 2, 6, 3, 5]), 7)  # 3 twice
    with pytest.raises(InvariantViolation):
        _check_bijection(np.array([1, 3, 2, 0, 4, 5]), 7)  # 0 in place of 6
    with pytest.raises(InvariantViolation):
        _check_bijection(np.array([1, 3, 2, 6, 4]), 7)  # too short


@pytest.mark.parametrize("p,r", [(2, 6), (3, 3), (5, 2), (7, 2), (11, 1)])
def test_generator_has_full_order(p, r):
    ctx = build_field(p, r)
    n = ctx.n
    for q in prime_factors(n - 1):
        assert power(ctx, ctx.generator.value, (n - 1) // q) != 1


@pytest.mark.parametrize("p,r", [(2, 4), (3, 3), (5, 2), (17, 1), (3, 7)])
def test_trace_uniform_and_additive(p, r):
    ctx = build_field(p, r)
    traces = ctx.trace_of_value
    counts = np.bincount(traces, minlength=p)
    # the trace is a surjective linear map, every fiber has n/p points
    assert np.all(counts == ctx.n // p)
    rng = np.random.default_rng(7)
    vals = rng.integers(0, ctx.n, size=40)
    for va, vb in zip(vals[::2], vals[1::2]):
        a, b = int(va), int(vb)
        assert trace(ctx, add(ctx, a, b)) \
            == (trace(ctx, a) + trace(ctx, b)) % p


@pytest.mark.parametrize("p,r", [(3, 3), (2, 5), (7, 2)])
def test_trace_frobenius_invariant(p, r):
    ctx = build_field(p, r)
    for a in range(1, min(ctx.n, 50)):
        assert trace(ctx, power(ctx, a, p)) == trace(ctx, a)


def test_operator_algebra():
    ctx = build_field(5, 3)
    rng = np.random.default_rng(3)
    for _ in range(60):
        a, b, c = (int(v) for v in rng.integers(0, ctx.n, size=3))
        assert mul(ctx, add(ctx, a, b), c) \
            == add(ctx, mul(ctx, a, c), mul(ctx, b, c))
        assert sub(ctx, a, a) == 0
        if b != 0:
            assert mul(ctx, mul(ctx, a, inv(ctx, b)), b) == a
    g = ctx.generator.value
    g7 = 1
    for _ in range(7):
        g7 = mul(ctx, g7, g)
    assert power(ctx, g, 7) == g7
    assert power(ctx, g, -1) == inv(ctx, g)
    assert power(ctx, g, 0) == 1


def test_zero_powers():
    ctx = build_field(3, 2)
    assert power(ctx, 0, 0) == 1
    assert power(ctx, 0, 4) == 0
    with pytest.raises(ZeroDivisionError):
        power(ctx, 0, -1)
    with pytest.raises(ZeroDivisionError):
        inv(ctx, 0)
    with pytest.raises(ValueError):
        log(ctx, 0)


def test_construction_errors():
    with pytest.raises(NotPrime):
        build_field(4, 2)
    with pytest.raises(NotPrime):
        build_field(1, 1)
    with pytest.raises(BadShape):
        build_field(3, 0)
    with pytest.raises(DegreeTooLarge):
        build_field(2, 30)


def test_field_sizes_take_numpy_integers():
    # numpy integers are integers: GF(257) from np.int64 builds, with
    # Python ints in its context and in a frame's provenance; a value that
    # is not an integer is a typed error, not a TypeError
    ctx = build_field(np.int64(257), np.int64(1))
    assert (ctx.n, ctx.p, ctx.r) == (257, 257, 1)
    assert type(ctx.p) is int and type(ctx.r) is int
    assert is_prime(np.int64(257)) and not is_prime(np.int64(259))
    frame = build_field_frame(np.int64(257), 1, 16)
    assert json.dumps(frame.provenance["p"]) == "257"
    for p, r, error in ((3.0, 1, NotPrime), ("3", 1, NotPrime),
                        (3, 2.0, BadShape)):
        with pytest.raises(error, match="is not an integer"):
            build_field(p, r)


def test_context_mismatch():
    a = build_field(3, 2)
    b = build_field(3, 3)
    with pytest.raises(ContextMismatch):
        a.sub(a.from_value(1), b.from_value(1))
    assert a.sub(a.from_value(1), a.from_value(2)).value == sub(a, 1, 2)


def test_from_value_bounds():
    ctx = build_field(2, 3)
    with pytest.raises(BadShape):
        ctx.from_value(8)
    with pytest.raises(BadShape):
        ctx.from_value(-1)


def test_elem_coefficient_reduction():
    ctx = build_field(3, 2)
    assert ctx.elem([4, 5]).coeffs == (1, 2)
    assert ctx.elem([2]).coeffs == (2, 0)
    with pytest.raises(BadShape):
        ctx.elem([0, 0, 1])


def test_elements_enumeration():
    ctx = build_field(2, 3)
    els = [ctx.from_value(v) for v in range(ctx.n)]
    assert len(els) == 8
    assert [e.value for e in els] == list(range(8))
    # closed under addition
    s = {(a.value, b.value, add(ctx, a.value, b.value))
         for a in els for b in els}
    assert all(v < 8 for _, _, v in s)
