"""SL2(F_q) class census and character-level coherence."""

import numpy as np
import pytest

import groupframes.sl2 as sl2
from groupframes.errors import (
    BadShape,
    MNotOddDivisor,
    NotEvenPrimePower,
    QMinusOneNotPrime,
    QPlusOneNotPrime,
    ResourceCap,
)
from groupframes.gf import build_field, subgroup_of_order
from groupframes.sl2 import sl2_report
from oracles import (
    admissible_q,
    sl2_cases,
    sl2_class_sums_by_transform,
    sl2_coset_indicators,
)


def pair_counts(rep):
    # ordered pairs per census value, over n: the class mass of the value
    return {round(v.real, 9): c // rep.n for v, c in rep.distinct_values}


def test_class_data_q4():
    # the classes of SL2(F_4), n = 60, read off the census: the identity
    # is the diagonal, the unipotent class holds 15 elements, the one
    # split class 20 and the two nonsplit classes 12 each
    induced = sl2_report(4, 1, "induced")
    cuspidal = sl2_report(4, 1, "cuspidal")
    assert induced.n == cuspidal.n == 60
    for rep in (induced, cuspidal):
        assert sum(pair_counts(rep).values()) + 1 == 60
    # induced: 1/5 on the unipotent class, -1/5 on the split class, 0 on
    # the nonsplit ones
    assert pair_counts(induced) == {0.2: 15, -0.2: 20, 0.0: 2 * 12}
    # cuspidal: -1/3 on the unipotent class, one value per nonsplit
    # class, 0 on the split class
    counts = pair_counts(cuspidal)
    assert counts.pop(round(-1 / 3, 9)) == 15
    assert counts.pop(0.0) == 20
    assert sorted(counts.values()) == [12, 12]


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_class_mass_conservation(q):
    # the identity and the classes the census weighs make up the group
    for mode in ("induced", "cuspidal"):
        if q in admissible_q(mode):
            rep = sl2_report(q, 1, mode)
            assert rep.n == q ** 3 - q
            pairs = sum(c for _, c in rep.distinct_values)
            assert pairs // rep.n + 1 == q ** 3 - q


def test_q_validation():
    for mode in ("induced", "cuspidal"):
        with pytest.raises(NotEvenPrimePower):
            sl2_report(6, 1, mode)
        with pytest.raises(NotEvenPrimePower):
            sl2_report(2, 1, mode)
        with pytest.raises(NotEvenPrimePower):
            sl2_report(27, 1, mode)
        with pytest.raises(ResourceCap):
            sl2_report(2 ** 17, 1, mode)


def test_admissible_q_lists():
    assert admissible_q("induced") == [4, 8, 32, 128, 8192]
    assert admissible_q("cuspidal") == [4, 16, 256, 65536]
    assert admissible_q("induced", cap=40) == [4, 8, 32]
    with pytest.raises(ValueError):
        admissible_q("steinberg")


def test_induced_validation():
    with pytest.raises(QMinusOneNotPrime):
        sl2_report(16, 1, "induced")
    with pytest.raises(MNotOddDivisor):
        sl2_report(8, 2, "induced")
    with pytest.raises(MNotOddDivisor):
        sl2_report(8, 5, "induced")


def test_cuspidal_validation():
    with pytest.raises(QPlusOneNotPrime):
        sl2_report(8, 1, "cuspidal")
    with pytest.raises(MNotOddDivisor):
        sl2_report(4, 2, "cuspidal")


def test_induced_coherence_published_rows():
    rows = [(4, 1, 0.2000, 0.1540), (8, 1, 0.2002, 0.1019),
            (8, 3, 0.1111, 0.0462)]
    for q, m, want_mu, want_welch in rows:
        rep = sl2_report(q, m, "induced")
        assert abs(rep.mu - want_mu) < 5e-4
        assert abs(rep.welch - want_welch) < 5e-4
        assert rep.n == q ** 3 - q
        assert rep.m_dim == m * (q + 1) ** 2


def test_induced_q8_m1_closed_form():
    # max_l |2 cos(2 pi l / 7)| / 9 = 2 cos(pi / 7) / 9
    rep = sl2_report(8, 1, "induced")
    assert abs(rep.mu - 2 * np.cos(np.pi / 7) / 9) < 1e-12
    assert abs(rep.extra["u_value"] - 1 / 9) < 1e-15
    assert len(rep.extra["w_values"]) == 6


def test_cuspidal_q4_closed_form():
    rep = sl2_report(4, 1, "cuspidal")
    assert abs(rep.mu - abs(2 * np.cos(4 * np.pi / 5)) / 3) < 1e-12
    assert rep.m_dim == 9
    assert rep.n == 60


def test_induced_bound_examples():
    assert abs(sl2_report(4, 1, "induced").extra["sl2_bound"] - 0.2) < 1e-15
    assert abs(sl2_report(8, 3, "induced").extra["sl2_bound"]
               - 1 / 9) < 1e-15


@pytest.mark.parametrize("q", [4, 8, 32])
def test_welch_leq_mu_leq_bound_sweep(q):
    for m in range(1, q - 1, 2):
        if (q - 2) % m:
            continue
        rep = sl2_report(q, m, "induced")
        assert rep.welch <= rep.mu
        assert rep.mu <= rep.extra["sl2_bound"] + 1e-12


def test_a2m_is_the_order_2m_subgroup():
    # A union -A computed at the sl2 layer equals the unique subgroup of
    # order 2m in the prime field
    for q, m in [(8, 1), (8, 3), (32, 3), (32, 5)]:
        p = q - 1
        vals = set(sl2_report(q, m, "induced").provenance["A2m"])
        ctx = build_field(p, 1)
        sub = set(int(v) for v in subgroup_of_order(ctx, 2 * m)[1])
        assert vals == sub
        neg = set((p - v) % p for v in vals)
        assert neg == vals  # symmetric set


def test_w_value_symmetry():
    w = sl2_report(32, 3, "induced").extra["w_values"]
    p = 31
    for ell in range(1, p):
        assert abs(w[ell - 1] - w[p - ell - 1]) < 1e-12


def test_report_schema_and_census():
    rep = sl2_report(8, 3, "induced").to_dict()
    assert rep["schema_version"] == 1
    assert rep["mode"] == "sl2-induced"
    assert rep["n"] == 504 and rep["m_dim"] == 243
    total = sum(e["count"] for e in rep["distinct_values"])
    assert total == rep["n"] * (rep["n"] - 1)
    assert abs(rep["nu"] - 1 / (rep["n"] - 1)) < 1e-15
    assert rep["provenance"]["q"] == 8
    assert rep["provenance"]["A2m"] == [1, 2, 3, 4, 5, 6]
    assert rep["sl2_bound"] is not None


def test_report_cuspidal_mode():
    rep = sl2_report(4, 1, "cuspidal").to_dict()
    assert rep["mode"] == "sl2-cuspidal"
    assert rep["m_dim"] == 9
    assert rep["sl2_bound"] is None
    total = sum(e["count"] for e in rep["distinct_values"])
    assert total == rep["n"] * (rep["n"] - 1)
    # the u class contributes a negative real value -1/(q-1)
    vals = [(e["re"], e["count"]) for e in rep["distinct_values"]]
    assert any(abs(v + 1 / 3) < 1e-9 and c == 60 * 15 for v, c in vals)


def test_report_mean_square_consistency():
    rep = sl2_report(8, 1, "induced").to_dict()
    direct = sum(e["count"] * (e["re"] ** 2 + e["im"] ** 2)
                 for e in rep["distinct_values"])
    n = rep["n"]
    assert abs(rep["gram_offdiag_mean_sq"] - direct / (n * (n - 1))) < 1e-15
    # the frame is tight, so the mean square meets its welch value exactly
    assert abs(rep["gram_offdiag_mean_sq"] - rep["welch"] ** 2) < 1e-12


def test_report_bad_mode():
    with pytest.raises(BadShape):
        sl2_report(4, 1, "both")


@pytest.mark.parametrize("q, m, mode", [(8, 1, "induced"), (8192, 1, "induced"),
                                        (65536, 1, "cuspidal")])
def test_report_builds_field_once(monkeypatch, q, m, mode):
    # one field build and one coset-sum kernel call per report
    calls = {"build_field": 0, "coset_sums": 0}

    def counted(name):
        real = getattr(sl2, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(sl2, name, counted(name))
    rep = sl2_report(q, m, mode)
    assert calls == {"build_field": 1, "coset_sums": 1}
    a2m = subgroup_of_order(build_field(rep.provenance["character_modulus"],
                                        1), 2 * m)[1]
    assert rep.provenance["A2m"] == sorted(int(v) for v in a2m)


def test_class_sums_match_transform_oracle():
    # for every admissible (q, m, mode) the coset-sum gather agrees with
    # the transform of A2m as a list, within 1e-15 on the report's torus
    # values, and takes exactly one float per coset of A2m
    cases = sl2_cases()
    assert len(cases) == 41
    for q, m, mode in cases:
        deg = sl2._degree(q, m, mode)
        p = 2 * q - deg
        a2m, periods, coset = sl2._class_sums(p, m)
        want_a2m, want = sl2_class_sums_by_transform(p, m)
        assert np.array_equal(a2m, want_a2m)
        sums = periods[coset]
        assert np.max(np.abs(sums - want)) / (m * deg) <= 1e-15
        kappa = (p - 1) // (2 * m)
        assert len(periods) == len(np.unique(sums)) == kappa, (q, m, mode)
        w = sl2_report(q, m, mode).extra["w_values"]
        assert np.max(np.abs(np.array(w) - np.abs(want) / (m * deg))) \
            <= 1e-15


def test_census_matches_coset_indicator_oracle():
    # the census is one value per coset of A2m, plus u and 0.  The cosets
    # are distinct 0/1 rows in the basis w, ..., w**(p-1) of Z[w], where u
    # is -m(1, ..., 1) over m deg and no row is minus another, so every
    # value is distinct, and only at q = 4 induced, where the one period
    # is -1 = -m, does a torus magnitude merge with u.  The oracle's rows
    # stop at p = 8191; p = 65537 takes the count kappa' + 2
    for q, m, mode in sl2_cases():
        rep = sl2_report(q, m, mode)
        p = rep.provenance["character_modulus"]
        if p <= 8191:
            cosets = len({row.tobytes()
                          for row in sl2_coset_indicators(p, m)})
        else:
            cosets = (p - 1) // (2 * m)
        merged = (q, m, mode) == (4, 1, "induced")
        assert len(rep.distinct_values) == cosets + 2, (q, m, mode)
        assert len(rep.distinct_magnitudes) == cosets + 2 - merged, \
            (q, m, mode)
        # the class masses times n cover the n(n - 1) ordered pairs
        counts = [c for _, c in rep.distinct_values]
        assert all(c % rep.n == 0 for c in counts)
        assert sum(counts) == rep.n * (rep.n - 1)
        assert sum(c for _, c in rep.distinct_magnitudes) == sum(counts)


@pytest.mark.parametrize("q, m, mode, count", [(8192, 1, "induced", 4097),
                                               (65536, 1, "cuspidal", 32770)])
def test_census_counts_at_the_largest_q(q, m, mode, count):
    # kappa' Gauss periods, u and 0, none merged: values about 1/q**2
    # apart are kept apart
    rep = sl2_report(q, m, mode)
    assert len(rep.distinct_values) == count
    assert len(rep.distinct_magnitudes) == count
