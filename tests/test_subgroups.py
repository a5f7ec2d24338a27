"""Subgroup cosets, difference sets, and translation degrees."""

import numpy as np
import pytest

from groupframes.errors import BadShape, NotADivisor
from groupframes.gf import build_field
from groupframes.gf import subgroup_of_order
from oracles import (
    ZERO,
    add,
    coset_of,
    coset_values,
    elements,
    is_difference_set,
    member_logs,
    mul,
    neg,
    parity_of_minus_one,
    sub,
    subgroup_members,
    translation_degree,
)


def test_f7_quadratic_residues():
    ctx = build_field(7, 1)
    kappa, members = subgroup_of_order(ctx, 3)
    assert kappa == 2
    assert sorted(members.tolist()) == [1, 2, 4]
    # 7 = 3 mod 4, so the residues form a Paley difference set
    assert is_difference_set(ctx, kappa) == (True, 1)


def test_f11_paley():
    ctx = build_field(11, 1)
    kappa, members = subgroup_of_order(ctx, 5)
    assert sorted(members.tolist()) == [1, 3, 4, 5, 9]
    assert is_difference_set(ctx, kappa) == (True, 2)


def test_subgroup_closure_and_identity():
    ctx = build_field(3, 3)
    kappa, members = subgroup_of_order(ctx, 13)
    vals = set(int(v) for v in members)
    assert 1 in vals
    for a in elements(ctx, kappa):
        for b in elements(ctx, kappa):
            assert mul(ctx, a, b) in vals


def test_subgroup_of_order_rejects_nondivisor():
    ctx = build_field(7, 1)
    with pytest.raises(NotADivisor):
        subgroup_of_order(ctx, 4)
    with pytest.raises(NotADivisor):
        subgroup_of_order(ctx, 0)


def test_coset_partition():
    ctx = build_field(3, 2)
    kappa, _ = subgroup_of_order(ctx, 2)
    assert kappa == 4
    seen = set()
    for d in range(kappa):
        cv = coset_values(ctx, kappa, d)
        assert len(cv) == 2
        seen.update(int(v) for v in cv)
    assert seen == set(range(1, 9))
    with pytest.raises(BadShape):
        coset_values(ctx, kappa, 4)


def test_coset_of_matches_enumeration():
    ctx = build_field(13, 1)
    kappa, _ = subgroup_of_order(ctx, 3)
    for d in range(kappa):
        for v in coset_values(ctx, kappa, d):
            assert coset_of(ctx, kappa, int(v)) == d
    with pytest.raises(ValueError):
        coset_of(ctx, kappa, 0)


def test_is_difference_set_against_direct_count():
    # independent census with python sets/dicts
    for p, r, m in [(7, 1, 3), (13, 1, 4), (11, 1, 5), (3, 2, 4), (19, 1, 9)]:
        ctx = build_field(p, r)
        kappa, _ = subgroup_of_order(ctx, m)
        els = elements(ctx, kappa)
        counts = {}
        for a in els:
            for b in els:
                d = sub(ctx, a, b)
                if d:
                    counts[d] = counts.get(d, 0) + 1
        lams = set(counts.values())
        full = len(counts) == ctx.n - 1 and len(lams) == 1
        expect = (True, lams.pop()) if full else (False, None)
        assert is_difference_set(ctx, kappa) == expect


@pytest.mark.parametrize("p,r,m", [(7, 1, 3), (11, 1, 5), (3, 3, 13),
                                   (19, 1, 9), (23, 1, 11), (3, 5, 121),
                                   (7, 3, 171)])
def test_paley_kappa2_is_difference_set(p, r, m):
    # p^r = 3 mod 4 and m = (p^r - 1)/2: the classical Paley design
    ctx = build_field(p, r)
    assert ctx.n % 4 == 3
    kappa, _ = subgroup_of_order(ctx, m)
    assert kappa == 2
    ok, lam = is_difference_set(ctx, kappa)
    assert ok
    assert lam == (ctx.n - 3) // 4


def test_translation_degree_zero_semantics():
    ctx = build_field(7, 1)
    kappa, _ = subgroup_of_order(ctx, 3)
    assert translation_degree(ctx, kappa, ZERO, ZERO) == 0
    # 0 + 1 = 1 lies in A = coset 0
    assert translation_degree(ctx, kappa, ZERO, 0) == 1
    assert translation_degree(ctx, kappa, ZERO, 1) == 0
    # -1 = 6 is in coset 1 (6 is not a QR mod 7); 6 + 1 = 0
    assert translation_degree(ctx, kappa, 1, ZERO) == 1
    assert translation_degree(ctx, kappa, 0, ZERO) == 0
    with pytest.raises(BadShape):
        translation_degree(ctx, kappa, 2, 0)


@pytest.mark.parametrize("p,r,m", [(7, 1, 3), (13, 1, 4), (3, 3, 13),
                                   (11, 1, 5), (5, 2, 8)])
def test_translation_degree_row_sums(p, r, m):
    # every element of a coset lands somewhere after adding one
    ctx = build_field(p, r)
    kappa, _ = subgroup_of_order(ctx, m)
    targets = list(range(kappa)) + [ZERO]
    for s in range(kappa):
        assert sum(translation_degree(ctx, kappa, s, t)
                   for t in targets) == m


def test_translation_degree_direct_count():
    ctx = build_field(13, 1)
    kappa, _ = subgroup_of_order(ctx, 6)
    for s in range(kappa):
        for t in range(kappa):
            direct = 0
            for v in coset_values(ctx, kappa, s):
                w = add(ctx, int(v), 1)
                if w != 0 and coset_of(ctx, kappa, w) == t:
                    direct += 1
            assert translation_degree(ctx, kappa, s, t) == direct


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (7, 1), (11, 1), (13, 1),
                                 (3, 4), (2, 6)])
def test_parity_of_minus_one(p, r):
    ctx = build_field(p, r)
    minus_one = neg(ctx, 1)
    order = ctx.n - 1
    for m in range(1, order + 1):
        if order % m:
            continue
        kappa, members = subgroup_of_order(ctx, m)
        info = parity_of_minus_one(ctx, kappa)
        in_a = minus_one in set(int(v) for v in members)
        assert info["in_A"] == in_a
        if not in_a:
            assert coset_of(ctx, kappa, minus_one) == info["coset"]
        if p != 2 and m % 2 == 1 and ctx.n % 2 == 1:
            # odd subgroup of the odd-characteristic field: -1 sits half way
            assert info["is_half_kappa"]


def test_element_values_match_logs():
    # every kappa-th exponent-table entry is the member gathered at its
    # log kappa*i mod (n-1): on every subgroup of every field with
    # n <= 1024, and on three large fields
    ctx = build_field(2, 5)
    kappa, members = subgroup_of_order(ctx, 31)
    assert np.array_equal(members, ctx.value_of_exp[member_logs(ctx, kappa)])
    cases = 0
    for n in range(2, 1025):
        p = next(d for d in range(2, n + 1) if n % d == 0)
        r = round(np.log(n) / np.log(p))
        if p ** r != n:
            continue
        ctx = build_field(p, r)
        for m in [d for d in range(1, n) if (n - 1) % d == 0]:
            kappa, members = subgroup_of_order(ctx, m)
            assert kappa * m == n - 1
            assert members.dtype == ctx.value_of_exp.dtype
            assert np.array_equal(members, subgroup_members(ctx, kappa))
            cases += 1
    assert cases == 2162
    for p, r, m in [(2, 20, 41), (5, 8, 313), (65537, 1, 2)]:
        ctx = build_field(p, r)
        kappa, members = subgroup_of_order(ctx, m)
        assert (kappa, len(members)) == ((ctx.n - 1) // m, m)
        assert np.array_equal(members, subgroup_members(ctx, kappa))
