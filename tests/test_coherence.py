"""Bounds, character sums, brute-force oracles, and the analyzer."""

import math

import numpy as np
import pytest

import groupframes.coherence as coherence
import groupframes.frames as frames_module
import groupframes.sl2 as sl2
from groupframes.coherence import (
    _census_report,
    _magnitude_census,
    analyze,
    average_coherence,
    bound_general_kappa,
    bound_m_odd,
    bound_sqrt_kappa,
    cluster_complex,
    coherence_bruteforce,
    coherence_properties,
    coset_sums,
    multiplier_sums,
    property_thresholds,
    random_fourier_bound,
    random_fourier_window,
    roots_of_unity,
    tightness_residual,
    welch_bound,
)
from groupframes.errors import (
    BadShape,
    InvariantViolation,
    NotADivisor,
    NotNormalized,
    ResourceCap,
)
from groupframes.frames import (
    ComplexFrame,
    ExponentFrame,
    _exponent_rows,
    build_field_frame,
    build_hadamard_frame,
    build_harmonic_frame,
    build_random_exponent_frame,
    build_random_hadamard_frame,
    materialize,
)
from groupframes.gf import build_field, is_prime, subgroup_of_order
from groupframes.sl2 import sl2_report
import oracles
from oracles import (
    bound_m_odd_formula,
    bound_orbit_min,
    cluster_complex_resort,
    fft_correlation_sums,
    histogram_sums,
    parity_of_minus_one,
    w_vector_check,
)


def test_roots_of_unity_exact_for_p2():
    r = roots_of_unity(2)
    assert r.tolist() == [1 + 0j, -1 + 0j]
    r5 = roots_of_unity(5)
    assert abs(r5.prod() - 1) < 1e-12
    assert abs(r5.sum()) < 1e-12


def test_welch_bound_values():
    assert abs(welch_bound(1024, 341) - 0.0442482) < 1e-6
    assert abs(welch_bound(27, 13) - 0.2035193) < 1e-6
    assert welch_bound(7, 7) == 0.0
    assert welch_bound(1, 1) == 0.0
    with pytest.raises(BadShape):
        welch_bound(5, 6)
    with pytest.raises(BadShape):
        welch_bound(5, 0)


def test_bound_general_kappa_values():
    assert abs(bound_general_kappa(341, 3) - 0.06354) < 1e-5
    assert bound_general_kappa(2, 1) == 0.5
    # exceeds the measured coherence of the matching group frame
    assert bound_general_kappa(341, 3) > 0.0616
    with pytest.raises(BadShape):
        bound_general_kappa(0, 1)


def test_bound_m_odd_values():
    assert abs(bound_m_odd(13, 2) - 0.20353) < 5e-5
    assert abs(bound_m_odd(1, 2) - 1.0) < 1e-12
    # a bound only with m odd and kappa even, None elsewhere
    assert bound_m_odd(5, 3) is None
    assert bound_m_odd(4, 2) is None
    assert bound_m_odd(13, 2) == bound_m_odd_formula(13, 2)
    with pytest.raises(BadShape):
        bound_m_odd(0, 2)
    with pytest.raises(BadShape):
        bound_m_odd(3, 0)


def test_bound_m_odd_meets_welch_at_paley():
    # kappa = 2: the refined bound collapses to the Welch bound exactly
    for m in (3, 13, 121, 665):
        n = 2 * m + 1
        assert abs(bound_m_odd(m, 2) - welch_bound(n, m)) < 1e-12


def test_bound_sqrt_kappa():
    assert bound_sqrt_kappa(27, 13, 1) == welch_bound(27, 13)
    assert abs(bound_sqrt_kappa(27, 13, 4)
               - 2 * welch_bound(27, 13)) < 1e-15
    with pytest.raises(BadShape):
        bound_sqrt_kappa(27, 13, 0)


def test_bound_orbit_min():
    got = bound_orbit_min(27, 13, 27, 13)
    assert abs(got - math.sqrt(2) * welch_bound(27, 13)) < 1e-12
    assert abs(got - 0.2878) < 5e-4


def test_random_fourier_bound():
    assert abs(random_fourier_bound(1024, 341) - 1.2649) < 5e-4
    assert random_fourier_bound(16, 16) == 0.0
    assert random_fourier_window(1024, 341)
    assert not random_fourier_window(1024, 10)
    assert not random_fourier_window(1024, 512)


def test_coherence_properties_thresholds():
    flags = coherence_properties(0.0616, 1 / 1023, 1024, 341)
    assert abs(flags["cp_mu_threshold"] - 0.1 / math.sqrt(2 * math.log(1024))) < 1e-12
    assert abs(flags["scp_mu_threshold"] - 1 / (164 * math.log(1024))) < 1e-12
    assert not flags["coherence_property"]
    assert not flags["strong_coherence_property"]
    assert flags["nu_leq_mu_over_sqrt_dim"]
    assert flags["log_base"] == "e"
    base2 = coherence_properties(0.0616, 1 / 1023, 1024, 341, log_base=2)
    assert base2["log_base"] == 2
    assert base2["cp_mu_threshold"] < flags["cp_mu_threshold"]


@pytest.mark.parametrize("log_base", [1.0, 0.5, -2.0, float("nan")])
def test_bad_log_base_refused(monkeypatch, log_base):
    # a base that is not a finite number above 1 is BadShape on every
    # entry point that takes one; analyze and sl2_report refuse it before
    # any work
    with pytest.raises(BadShape):
        property_thresholds(1024, log_base)
    with pytest.raises(BadShape):
        coherence_properties(0.0616, 1 / 1023, 1024, 341, log_base=log_base)
    frame = build_field_frame(3, 3, 13)
    for name in ("coset_sums", "materialize"):
        monkeypatch.setattr(coherence, name, None)
    monkeypatch.setattr(sl2, "build_field", None)
    with pytest.raises(BadShape):
        analyze(frame, log_base=log_base)
    with pytest.raises(BadShape):
        sl2_report(4, 1, "induced", log_base=log_base)


def test_coset_sum_identity():
    # 1 + m * sum_d c_d = 0 for every subgroup
    for p, r, m in [(3, 3, 13), (7, 1, 3), (2, 8, 51), (5, 2, 8),
                    (13, 1, 6)]:
        ctx = build_field(p, r)
        kappa, _ = subgroup_of_order(ctx, m)
        cs = coset_sums(ctx, kappa)
        assert abs(1 + m * cs.sum()) < 1e-9
    # an index that does not divide n - 1 names no subgroup
    for kappa in (0, 5, 27):
        with pytest.raises(NotADivisor):
            coset_sums(build_field(3, 3), kappa)


def test_coset_sum_conjugation_symmetry():
    for p, r, m in [(3, 3, 13), (5, 2, 8), (13, 1, 6), (3, 5, 121),
                    (13, 1, 3)]:
        ctx = build_field(p, r)
        kappa, _ = subgroup_of_order(ctx, m)
        cs = coset_sums(ctx, kappa)
        if parity_of_minus_one(ctx, kappa)["in_A"]:
            # -A = A makes every sum real
            assert np.max(np.abs(cs.imag)) < 1e-12
        else:
            half = kappa // 2
            paired = np.conj(np.roll(cs, -half))
            assert np.max(np.abs(cs - paired)) < 1e-12


def test_w_vector_identity():
    for p, r, m in [(3, 3, 13), (2, 8, 51), (7, 1, 3), (11, 1, 5)]:
        ctx = build_field(p, r)
        kappa, _ = subgroup_of_order(ctx, m)
        res = w_vector_check(coset_sums(ctx, kappa), m)
        assert res["max_violation"] < 1e-9
    ctx = build_field(3, 3)
    kappa, _ = subgroup_of_order(ctx, 13)
    assert abs(w_vector_check(coset_sums(ctx, kappa), 13)["beta"]
               - 0.39970) < 5e-5


def test_multiplier_sums_extend_coset_sums():
    ctx = build_field(3, 3)
    kappa, members = subgroup_of_order(ctx, 13)
    cs = coset_sums(ctx, kappa)
    ms = multiplier_sums(ctx, members)
    # sums indexed by log z; constant on cosets (log mod kappa)
    for ell in range(ctx.n - 1):
        assert abs(ms[ell] - cs[ell % kappa]) < 1e-12


def _fields(limit):
    for p in range(2, limit + 1):
        if is_prime(p):
            r = 1
            while p ** r <= limit:
                yield p, r
                r += 1


def test_multiplier_sums_match_histogram_oracle_on_subgroups():
    # every subgroup of every field with n <= 1024; the oracle needs only
    # the kappa coset values, the kernel gives all n-1
    worst, cases = 0.0, 0
    for p, r in _fields(1024):
        ctx = build_field(p, r)
        order = ctx.n - 1
        for m in [d for d in range(1, order + 1) if order % d == 0]:
            kappa, members = subgroup_of_order(ctx, m)
            got = multiplier_sums(ctx, members)
            want = histogram_sums(ctx, members, kappa)
            worst = max(worst, float(np.max(np.abs(
                got - want[np.arange(order) % kappa]))))
            cases += 1
    assert cases == 2162
    assert worst <= 1e-12


def test_coset_sums_match_histogram_oracle_on_subgroups():
    # the column sums of the reshaped phase table against exact trace
    # counts, on every subgroup of every field with n <= 1024; for p = 2
    # both are integers over m, bit for bit
    worst, cases = 0.0, 0
    for p, r in _fields(1024):
        ctx = build_field(p, r)
        order = ctx.n - 1
        for m in [d for d in range(1, order + 1) if order % d == 0]:
            kappa, members = subgroup_of_order(ctx, m)
            got = coset_sums(ctx, kappa)
            want = histogram_sums(ctx, members, kappa)
            assert got.shape == (kappa,)
            if p == 2:
                assert np.array_equal(got, want), (r, m)
            worst = max(worst, float(np.max(np.abs(got - want))))
            cases += 1
    assert cases == 2162
    assert worst <= 1e-12


def test_multiplier_sums_match_histogram_oracle_on_random_lists():
    rng = np.random.default_rng(20)
    for p, r in [(2, 1), (2, 10), (3, 6), (5, 4), (7, 3), (1021, 1)]:
        ctx = build_field(p, r)
        for m in (1, 2, 7, 60):
            mv = rng.integers(0, ctx.n, size=m)  # repeats counted
            mv[rng.integers(m)] = 0
            got = multiplier_sums(ctx, mv)
            want = histogram_sums(ctx, mv, ctx.n - 1)
            assert np.max(np.abs(got - want)) <= 1e-12, (p, r, m)


def test_multiplier_sums_refuse_bad_lists():
    # a negative value would wrap to the end of the log table, one past
    # the field would index out of it, and an empty list has no mean
    ctx = build_field(3, 3)
    for bad in ([-1], [27], [0, 5, 27], []):
        with pytest.raises(BadShape):
            multiplier_sums(ctx, bad)
    assert np.allclose(multiplier_sums(ctx, [0, 26]),
                       histogram_sums(ctx, [0, 26], ctx.n - 1))


def test_multiplier_sums_exact_for_p2():
    # the sums of +-1 are integers before the division by m, so the
    # kernel and the integer histogram agree to the last bit
    ctx = build_field(2, 9)
    mv = np.random.default_rng(3).integers(0, ctx.n, size=37)
    got = multiplier_sums(ctx, mv)
    assert np.all(got.imag == 0)
    assert np.array_equal(got, histogram_sums(ctx, mv, ctx.n - 1))


def test_multiplier_sums_match_fft_correlation_for_p2():
    # the Walsh transform and the length-(n-1) FFT correlation both give
    # the exact integer sums, so they agree to the last bit
    rng = np.random.default_rng(9)
    for r in (1, 9, 16, 20):
        ctx = build_field(2, r)
        for m in (1, 6, 41):
            mv = rng.integers(0, ctx.n, size=m)
            mv[-1] = mv[0]  # a repeat, counted twice
            mv[m // 2] = 0
            got = multiplier_sums(ctx, mv)
            assert np.array_equal(got, fft_correlation_sums(ctx, mv)), (r, m)


def test_multiplier_sums_odd_p_blocks_and_fft_digits():
    # GF(7^4) takes two 49 x 49 character tables; GF(257^2) and GF(65537)
    # have digits past the table size and take an FFT along each.  The
    # exact oracle holds a count x p table, so it checks the first
    # 2**22 // p logs; the FFT correlation checks them all
    rng = np.random.default_rng(10)
    for p, r in [(7, 4), (257, 2), (65537, 1)]:
        ctx = build_field(p, r)
        count = min(ctx.n - 1, 2 ** 22 // p)
        for m in (1, 6, 40):
            mv = rng.integers(0, ctx.n, size=m)
            mv[-1] = mv[0]
            mv[m // 2] = 0
            got = multiplier_sums(ctx, mv)
            want = histogram_sums(ctx, mv, count)
            assert np.max(np.abs(got[:count] - want)) <= 1e-12, (p, r, m)
            want = fft_correlation_sums(ctx, mv)
            assert np.max(np.abs(got - want)) <= 1e-12, (p, r, m)


def test_analyze_prime_field_census_at_65537():
    # a kappa x p histogram would need 16 GiB here
    rep = analyze(build_harmonic_frame(65537, 2), brute="off")
    assert rep.kappa == 32768
    assert sum(c for _, c in rep.distinct_values) == rep.n * (rep.n - 1)
    ctx = build_field(65537, 1)
    sums = coset_sums(ctx, subgroup_of_order(ctx, 2)[0])
    assert abs(rep.mu - np.max(np.abs(sums))) < 1e-15


def test_coherence_fast_equals_bruteforce_small():
    for p, r, m in [(3, 3, 13), (7, 1, 3), (2, 5, 31), (5, 2, 12)]:
        frame = build_field_frame(p, r, m)
        fast = analyze(frame, brute="off").mu
        cf = materialize(frame)
        brute = coherence_bruteforce(cf)["mu"]
        assert abs(fast - brute) < 1e-9


def test_bruteforce_orthonormal_and_duplicates():
    eye = ComplexFrame(entries=np.eye(4, dtype=np.complex128),
                       normalized=True)
    res = coherence_bruteforce(eye)
    assert res["mu"] == 0.0
    assert average_coherence(eye) == 0.0
    dup = ComplexFrame(entries=np.ones((3, 2), dtype=np.complex128)
                       / np.sqrt(3), normalized=True)
    assert abs(coherence_bruteforce(dup)["mu"] - 1.0) < 1e-12


def test_bruteforce_guards():
    raw = ComplexFrame(entries=np.ones((2, 2), dtype=np.complex128),
                       normalized=False)
    with pytest.raises(NotNormalized):
        coherence_bruteforce(raw)
    one = ComplexFrame(entries=np.ones((2, 1), dtype=np.complex128)
                       / np.sqrt(2), normalized=True)
    with pytest.raises(BadShape):
        coherence_bruteforce(one)
    # a real factor of paired rows [Re T1; Im T1] has an even row count
    with pytest.raises(BadShape):
        ComplexFrame(entries=np.ones((3, 2)), normalized=True,
                     paired_columns=True)


def test_tightness_residual():
    cf = materialize(build_field_frame(3, 3, 13))
    assert tightness_residual(cf) < 1e-12
    flat = ComplexFrame(entries=np.ones((2, 4), dtype=np.complex128)
                        / np.sqrt(2), normalized=True)
    assert tightness_residual(flat) > 1.0


def _unit_columns(m, n, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return ComplexFrame(entries=mat / np.linalg.norm(mat, axis=0),
                        normalized=True)


def test_blocked_dense_kernels_match_full_gram_oracles():
    # the Gram and frame-operator blocks against the full products: n on
    # both sides of the 128-row block edge, a sign frame without
    # structure, and Gram censuses of two random baselines, each odd-p
    # frame as its whole complex matrix
    frames = [(_unit_columns(5, n, n), True)
              for n in (2, 50, 127, 128, 129, 257)]
    frames += [(oracles.complex_oracle_frame(build_field_frame(3, 7, 1093)),
                False),
               (materialize(build_field_frame(2, 1, 1)), True),
               (materialize(build_hadamard_frame(8, 51)), True),
               (oracles.complex_oracle_frame(
                   build_random_exponent_frame(3, 5, 11, seed=4)), True),
               (oracles.complex_oracle_frame(
                   build_random_exponent_frame(7, 3, 57, seed=2)), True)]
    for cf, census in frames:
        got = coherence_bruteforce(cf, census=census)
        want = oracles.coherence_bruteforce(cf, census=census)
        assert abs(got["mu"] - want["mu"]) <= 1e-15
        assert abs(got["gram_offdiag_mean_sq"]
                   - want["gram_offdiag_mean_sq"]) <= 1e-15
        assert abs(tightness_residual(cf)
                   - oracles.tightness_residual(cf)) <= 1e-15
        assert average_coherence(cf) == oracles.average_coherence(cf)
        if census:
            assert [c for _, c in got["distinct_values"]] \
                == [c for _, c in want["distinct_values"]]
            assert max(abs(v - w) for (v, _), (w, _)
                       in zip(got["distinct_values"],
                              want["distinct_values"])) <= 1e-15
        else:
            assert got["distinct_values"] is None


def _subgroup_frames(limit, keep):
    """Every subgroup frame (p, r, m) with n <= limit that keep admits."""
    frames = []
    for p, r in _fields(limit):
        ctx = build_field(p, r)
        frames += [build_field_frame(p, r, m, ctx=ctx)
                   for m in oracles.divisors_by_trial(ctx.n - 1)
                   if keep(p, m)]
    return frames


def _assert_dense_kernels_match_oracles(cf, full, census=False):
    # the dense kernels on cf against the full-matrix oracles on the
    # complex matrix full that cf stands for.  The tightness bound: each
    # entry of FF* sums n terms whose moduli add up to about n/m (exactly
    # n/m for entries of modulus 1/sqrt(m)); rounded in double, such a
    # sum is off by about sqrt(n) eps times n/m (the probabilistic bound
    # for inner products), and sqrt(n) <= sqrt(BRUTE_CAP) = 64, hence
    # 64 eps max(1, n/m).  For a tight frame the exact residual is 0, so
    # both sides are such rounding errors and |got - want| <= max(got,
    # want) stays within the bound
    m, n = full.entries.shape
    assert cf.n_cols == n
    got = coherence_bruteforce(cf, census=census)
    want = oracles.coherence_bruteforce(full, census=census)
    assert abs(got["mu"] - want["mu"]) <= 1e-14
    assert abs(got["gram_offdiag_mean_sq"]
               - want["gram_offdiag_mean_sq"]) <= 1e-14
    assert abs(average_coherence(cf)
               - oracles.average_coherence(full)) <= 1e-14
    eps = np.finfo(np.float64).eps
    assert abs(tightness_residual(cf) - oracles.tightness_residual(full)) \
        <= 64 * eps * max(1.0, n / m), (m, n)
    if census:
        assert [c for _, c in got["distinct_values"]] \
            == [c for _, c in want["distinct_values"]]
        assert max(abs(v - w) for (v, _), (w, _)
                   in zip(got["distinct_values"],
                          want["distinct_values"])) <= 1e-14


def _assert_materialized_matches_oracles(frame, census=False):
    cf = materialize(frame)
    _assert_dense_kernels_match_oracles(
        cf, oracles.complex_oracle_frame(frame), census=census)
    return cf


def _assert_paired(cf, frame):
    # the columns 1..h of an odd-p frame, real where the rows pair too:
    # a subgroup frame with m even
    m, n = frame.exps.shape
    assert cf.paired_columns
    assert cf.entries.shape == (m, (n - 1) // 2)
    real = m % 2 == 0 and "kappa" in frame.provenance
    assert cf.entries.dtype == (np.float64 if real else np.complex128)


def test_real_gram_route_matches_full_matrix_oracles():
    # where the Gram matrix is real (p = 2, or odd p with m even, the
    # bottom half of rows negating the top half) the dense kernels run on
    # a real factor: the signs for p = 2, and for odd p the columns
    # 1..(n-1)/2 of the top half of rows.  Every odd-p frame pairs its
    # columns, so the random baselines read those columns, complex
    frames = _subgroup_frames(256, lambda p, m: m % 2 == 0 or p == 2)
    frames += [build_hadamard_frame(8, 51), build_field_frame(3, 7, 2186)]
    assert len(frames) > 300
    for frame in frames:
        cf = _assert_materialized_matches_oracles(frame)
        if frame.p == 2:
            assert cf.entries.dtype == np.float64
            assert cf.entries.shape == frame.exps.shape
            assert not cf.paired_columns
        else:
            _assert_paired(cf, frame)
    for frame in (build_field_frame(3, 3, 13), build_field_frame(7, 2, 3),
                  build_random_exponent_frame(3, 5, 12, seed=4),
                  build_random_exponent_frame(5, 3, 62, seed=1)):
        cf = _assert_materialized_matches_oracles(frame)
        assert cf.entries.dtype == np.complex128
        assert cf.entries.shape == (frame.m_rows, frame.n_cols // 2)
        assert cf.paired_columns


def test_paired_columns_route_matches_full_matrix_oracles():
    # every odd-p subgroup frame with m odd and n <= 256, and GF(3^7) with
    # m = 1093: the dense kernels read the complex columns 1..h alone
    frames = _subgroup_frames(256, lambda p, m: p != 2 and m % 2)
    frames.append(build_field_frame(3, 7, 1093))
    assert len(frames) > 100
    for frame in frames:
        _assert_paired(_assert_materialized_matches_oracles(frame), frame)


def test_paired_columns_census_on_bare_frames():
    # odd-p frames without multipliers take the Gram census: the paired
    # blocks give the same counts as the whole Gram, each value within
    # 1e-14, over every odd-p subgroup frame with n <= 125, GF(3^5) and
    # the random baselines
    frames = _subgroup_frames(125, lambda p, m: p != 2)
    frames += [build_field_frame(3, 5, m) for m in (2, 11, 22, 121, 242)]
    frames += [build_random_exponent_frame(3, 5, 12, seed=4),
               build_random_exponent_frame(5, 3, 62, seed=1)]
    for frame in frames:
        bare = ExponentFrame(p=frame.p, exps=frame.exps, provenance={})
        cf = _assert_materialized_matches_oracles(bare, census=True)
        _assert_paired(cf, frame)
    rep = analyze(bare, brute="on")
    assert rep.paths["census_source"] == "gram"
    assert sum(c for _, c in rep.distinct_values) == rep.n * (rep.n - 1)


def test_paired_columns_guards_read_the_whole_width():
    # GF(4099) with m = 2 is stored as 2 x 2049 cells, and is 4099
    # columns wide: above BRUTE_CAP for the Gram oracle, while nu and the
    # tightness residual still run densely
    frame = build_field_frame(4099, 1, 2)
    cf = materialize(frame)
    assert cf.entries.shape == (2, 2049) and cf.n_cols == 4099
    with pytest.raises(ResourceCap):
        coherence_bruteforce(cf)
    rep = analyze(frame, brute="auto")
    assert "mu_bruteforce" not in rep.paths
    assert rep.paths["nu_gap"] <= 1e-12
    assert rep.tightness_residual <= 1e-9
    full = oracles.complex_oracle_frame(frame)
    assert abs(rep.nu - oracles.average_coherence(full)) <= 1e-14
    assert abs(rep.tightness_residual - oracles.tightness_residual(full)) \
        <= 64 * np.finfo(np.float64).eps * 4099 / 2


def test_real_gram_route_census_without_structure():
    # a bare sign frame and an odd-p exponent frame without multipliers
    # take the Gram census: equal counts on the real factor and the
    # complex oracle, and the same mu through analyze.  Their first 100
    # columns are not tight, and their Gram rows do not sum to 0 as a
    # whole field's do, so the frame operator's quadrants and the weight
    # of the row sums are checked too; 100 columns do not pair, so the
    # odd-p frame cut to them is the complex m x 100 matrix
    hadamard = build_hadamard_frame(8, 51)
    subgroup = build_field_frame(3, 5, 22)
    for frame in (hadamard, subgroup):
        for cols in (frame.n_cols, 100):
            bare = ExponentFrame(p=frame.p, exps=frame.exps[:, :cols],
                                 provenance={})
            cf = _assert_materialized_matches_oracles(bare, census=True)
            real = frame.p == 2 or cols == frame.n_cols
            assert cf.entries.dtype == (np.float64 if real
                                        else np.complex128)
            rep = analyze(bare, brute="on")
            assert rep.paths["census_source"] == "gram"
            assert sum(c for _, c in rep.distinct_values) == cols * (cols - 1)
        assert abs(rep.nu - 1 / 99) > 1e-3 and rep.tightness_residual > 0.1
        assert abs(analyze(ExponentFrame(p=frame.p, exps=frame.exps,
                                         provenance={})).mu
                   - analyze(frame, brute="off").mu) <= 1e-14


def _paired_frame(t):
    # [1/sqrt(m), T, conj(T)] by columns, for T with unit columns
    m = len(t)
    return np.hstack((np.full((m, 1), 1 / np.sqrt(m)), t, t.conj()))


def test_conjugate_halves_kernels_on_random_factors():
    # paired columns [1/sqrt(m), T, conj(T)] for random complex T, and for
    # T = [T1; conj(T1)] held as the real [Re T1; Im T1]: frame operators
    # with no zero quadrant, Gram rows that do not sum to 0, widths on
    # both sides of the 128-column block edge.  T1 = [t; it] with
    # unimodular t cancels the quadrants of FF* on its diagonal to 1/m off
    # their diagonals, so that the residual is read from the other two.
    # The census of complex paired columns is that of the whole matrix,
    # value for value and count for count
    rng = np.random.default_rng(0)
    shapes = ((1, 7), (2, 9), (3, 130), (5, 128), (150, 257))
    for rows, width in shapes:
        t = rng.standard_normal((rows, width)) \
            + 1j * rng.standard_normal((rows, width))
        t /= np.linalg.norm(t, axis=0)
        cf = ComplexFrame(entries=t, normalized=True, paired_columns=True)
        whole = ComplexFrame(entries=_paired_frame(t), normalized=True)
        _assert_dense_kernels_match_oracles(cf, whole, census=True)
        assert coherence_bruteforce(cf)["distinct_values"] \
            == coherence_bruteforce(whole)["distinct_values"]
    t = np.exp(2j * np.pi * rng.random(64))
    tops = [rng.standard_normal((h, n)) + 1j * rng.standard_normal((h, n))
            for h, n in shapes]
    tops.append(np.vstack((t, 1j * t)))
    for top in tops:
        whole = np.vstack((top, top.conj()))
        whole /= np.linalg.norm(whole, axis=0)
        top = whole[:len(top)]
        cf = ComplexFrame(entries=np.vstack((top.real, top.imag)),
                          normalized=True, paired_columns=True)
        _assert_dense_kernels_match_oracles(
            cf, ComplexFrame(entries=_paired_frame(whole), normalized=True),
            census=True)


@pytest.mark.parametrize("block", [None, 500])
def test_tampered_bottom_half_takes_complex_route(block, monkeypatch):
    # a changed cell in column 0, in the columns of -x or in those of x,
    # and an even-width cut: the columns no longer pair, so the frame is
    # the complex m x n matrix and still matches the oracles.  A pair of
    # cells x, -x changed together keeps the columns paired but not the
    # rows: the complex columns 1..h.  Both halves are compared a block
    # of rows at a time (500 cells: 4 rows of 121)
    if block is not None:
        monkeypatch.setattr(frames_module, "_HALVES_BLOCK", block)
    frame = build_field_frame(3, 5, 22)
    _assert_paired(materialize(frame), frame)
    for row, col in ((11, 0), (21, 242), (15, 100)):
        exps = frame.exps.copy()
        exps[row, col] = (exps[row, col] + 1) % 3
        tampered = ExponentFrame(p=3, exps=exps, provenance={})
        cf = _assert_materialized_matches_oracles(tampered, census=True)
        assert cf.entries.dtype == np.complex128
        assert not cf.paired_columns
    exps = frame.exps.copy()
    exps[13, 100] = (exps[13, 100] + 1) % 3
    exps[13, 221] = (3 - exps[13, 100]) % 3
    tampered = ExponentFrame(p=3, exps=exps, provenance={})
    cf = _assert_materialized_matches_oracles(tampered, census=True)
    assert cf.entries.dtype == np.complex128 and cf.paired_columns
    cut = ExponentFrame(p=3, exps=frame.exps[:, :242], provenance={})
    cf = _assert_materialized_matches_oracles(cut, census=True)
    assert cf.entries.shape == (22, 242) and not cf.paired_columns


def test_cluster_complex_merges_near_values():
    vals = np.array([0.1 + 0.2j, 0.1 + 0.2j + 1e-12, 0.5])
    reps, counts = cluster_complex(vals)
    assert len(reps) == 2
    assert sorted(counts.tolist()) == [1, 2]
    reps2, counts2 = cluster_complex(vals, weights=[2, 3, 4])
    assert sorted(counts2.tolist()) == [4, 5]


def test_cluster_complex_merges_across_grid_lines():
    # 2e-13 apart, on either side of the grid line at tol/2
    for unit in (1, 1j):
        vals = unit * np.array([0.5e-9 - 1e-13, 0.5e-9 + 1e-13])
        reps, counts = cluster_complex(vals)
        assert counts.tolist() == [2]
        assert abs(reps[0] - unit * 0.5e-9) < 1e-20
    # a chain of neighbours within tol is one cluster; a wider gap splits
    reps, counts = cluster_complex([0.0, 0.8e-9, 1.6e-9, 5e-9])
    assert counts.tolist() == [3, 1]
    mags = _magnitude_census(np.array([0.5e-9 - 1e-13, -0.5e-9 - 1e-13j]),
                             np.array([3, 4]))
    assert [c for _, c in mags] == [7]


def _cluster_cases():
    # seeded inputs where the passes matter: values on a lattice near the
    # tolerance, so chains cross grid lines and cut in both parts, exact
    # duplicates, spread in the imaginary part only, one value, none
    rng = np.random.default_rng(8)
    tol = 1e-9
    for _ in range(300):
        size = int(rng.integers(1, 400))
        steps = rng.choice([0.3, 0.9, 1.0, 1.1, 2.5], size=2) * tol
        re = rng.integers(0, int(rng.integers(1, 30)), size) * steps[0]
        im = rng.integers(0, int(rng.integers(1, 30)), size) * steps[1]
        jitter = rng.normal(0.0, 0.05 * tol, (2, size)) \
            * (rng.random(size) < 0.5)
        yield (re + jitter[0]) + 1j * (im + jitter[1]), None
        yield 1j * (im + jitter[1]), None
        yield np.repeat(re[:5] + 1j * im[:5], 40), None
        yield re + 1j * im, rng.integers(1, 2 ** 20, size)
    yield rng.normal(size=2000) + 1j * rng.normal(size=2000), None
    yield [0.3 - 0.1j], None
    yield [], None
    yield [], []


def test_cluster_complex_matches_resort_oracle():
    for values, weights in _cluster_cases():
        reps, counts = cluster_complex(values, weights=weights)
        want_reps, want_counts = cluster_complex_resort(values,
                                                        weights=weights)
        assert reps.dtype == want_reps.dtype
        assert np.array_equal(reps, want_reps, equal_nan=True)
        assert counts.tolist() == want_counts.tolist()


def test_analyze_skips_gram_census_when_sums_give_it(monkeypatch):
    sizes = []
    real = coherence.cluster_complex

    def spy(values, *args, **kwargs):
        sizes.append(np.size(values))
        return real(values, *args, **kwargs)

    monkeypatch.setattr(coherence, "cluster_complex", spy)
    frame = build_field_frame(3, 3, 13)
    rep = analyze(frame, brute="on")
    assert "mu_bruteforce" in rep.paths
    assert max(sizes) == rep.kappa == 2
    sizes.clear()
    # the same cells without their multipliers take the Gram route
    bare = ExponentFrame(p=frame.p, exps=frame.exps,
                         provenance=frame.provenance)
    rep = analyze(bare, brute="on")
    assert rep.paths["census_source"] == "gram"
    assert max(sizes) == 27 * 26


def test_analyze_census_covers_all_pairs():
    for frame in (build_field_frame(3, 3, 13),
                  build_hadamard_frame(8, 51),
                  build_random_exponent_frame(3, 3, 13, seed=2)):
        rep = analyze(frame, brute="off")
        total = sum(c for _, c in rep.distinct_values)
        assert total == rep.n * (rep.n - 1)


def test_analyze_mean_square_equals_welch_square():
    # tight frames meet the mean-square version of the Welch bound
    for frame in (build_field_frame(3, 3, 13), build_hadamard_frame(8, 85)):
        rep = analyze(frame, brute="off")
        assert abs(rep.gram_offdiag_mean_sq - rep.welch ** 2) < 1e-12


def test_analyze_fast_brute_gaps():
    rep = analyze(build_field_frame(3, 3, 13), brute="on")
    assert rep.paths["mu_gap"] < 1e-9
    assert rep.paths["nu_gap"] < 1e-9
    assert rep.paths["census_source"] == "coset-sums"


def test_analyze_group_frame_invariants():
    rep = analyze(build_field_frame(3, 5, 121), brute="off")
    assert abs(rep.nu - 1 / (rep.n - 1)) < 1e-9
    assert rep.tightness_residual < 1e-9
    assert rep.welch <= rep.mu + 1e-12
    assert rep.kappa == 2
    assert rep.property_flags["equiangular"]


def _structured_frames():
    return (build_field_frame(3, 3, 13), build_field_frame(5, 3, 31),
            build_hadamard_frame(8, 51),
            build_random_exponent_frame(3, 4, 20, seed=3),
            build_random_exponent_frame(7, 2, 9, seed=5, bernoulli=True),
            build_random_hadamard_frame(7, 12, seed=1))


def test_analyze_off_does_no_dense_work(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense work under brute='off'")

    for name in ("materialize", "average_coherence", "tightness_residual"):
        monkeypatch.setattr(coherence, name, dense)
    for frame in _structured_frames():
        rep = analyze(frame, brute="off")
        assert rep.tightness_residual == 0.0
        assert rep.nu == rep.paths["nu_fast"]
        assert "nu_bruteforce" not in rep.paths
        assert "nu_gap" not in rep.paths


def test_analyze_off_agrees_with_dense_route():
    for frame in _structured_frames():
        off = analyze(frame, brute="off")
        on = analyze(frame, brute="on")
        assert abs(on.nu - off.nu) <= 1e-12
        assert abs(on.mu - off.mu) <= 1e-12
        assert on.distinct_values == off.distinct_values
        assert off.tightness_residual == 0.0
        assert on.tightness_residual < 1e-9


def test_analyze_repeated_multiplier_tightness():
    ctx = build_field(3, 3)
    mv = np.array([1, 5, 0, 5, 7], dtype=np.int64)
    frame = ExponentFrame(p=3, exps=_exponent_rows(ctx, mv), provenance={},
                          ctx=ctx, multiplier_values=mv)
    n_over_m = 27 / 5
    assert analyze(frame, brute="off").tightness_residual == n_over_m
    assert abs(tightness_residual(materialize(frame)) - n_over_m) < 1e-9
    assert abs(analyze(frame, brute="on").tightness_residual
               - n_over_m) < 1e-9


def test_analyze_exact_tightness_above_complex_cap(monkeypatch):
    # a frame too large to materialize reports the exact residual
    monkeypatch.setattr(coherence, "COMPLEX_CELL_CAP", 100)
    rep = analyze(build_field_frame(3, 3, 13), brute="auto")
    assert rep.tightness_residual == 0.0
    assert "mu_bruteforce" not in rep.paths


def test_analyze_route_gap_raises(monkeypatch):
    # a perturbed character sum shows as a gap to the dense route, for the
    # coset sums of a subgroup and the multiplier sums of a random list
    def perturbed(real):
        def kernel(*args):
            values = real(*args)
            values[0] += 1e-6
            return values
        return kernel

    for name, frame in (
            ("coset_sums", build_field_frame(3, 3, 13)),
            ("multiplier_sums",
             build_random_exponent_frame(3, 3, 13, seed=4))):
        with monkeypatch.context() as patch:
            patch.setattr(coherence, name,
                          perturbed(getattr(coherence, name)))
            with pytest.raises(InvariantViolation, match="gap"):
                analyze(frame, brute="on")
            # one route only: nothing to judge
            assert analyze(frame, brute="off").mu > 0


def _spy_census_kernels(monkeypatch):
    calls = {"coset_sums": 0, "multiplier_sums": 0}
    for name in calls:
        def spy(*args, _real=getattr(coherence, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(coherence, name, spy)
    return calls


def test_analyze_takes_subgroup_sums_from_coset_sums(monkeypatch):
    calls = _spy_census_kernels(monkeypatch)
    for frame in (build_field_frame(3, 3, 13), build_hadamard_frame(8, 51),
                  build_harmonic_frame(13, 4)):
        analyze(frame, brute="off")
    assert calls == {"coset_sums": 3, "multiplier_sums": 0}
    analyze(build_random_exponent_frame(3, 3, 13, seed=2), brute="off")
    assert calls == {"coset_sums": 3, "multiplier_sums": 1}


def test_analyze_reads_the_subgroup_from_shuffled_multipliers(monkeypatch):
    # a frame built by hand from the subgroup's members in a shuffled
    # order, with no index given, is a subgroup frame: it takes the coset
    # sums, and its report is the built frame's, provenance aside
    calls = _spy_census_kernels(monkeypatch)
    rng = np.random.default_rng(5)
    for p, r, m in [(3, 3, 13), (2, 6, 21), (5, 2, 8), (3, 4, 16)]:
        built = build_field_frame(p, r, m)
        ctx = built.ctx
        mv = subgroup_of_order(ctx, m)[1][rng.permutation(m)]
        frame = ExponentFrame(p=p, exps=_exponent_rows(ctx, mv),
                              provenance={}, ctx=ctx, multiplier_values=mv)
        got, want = (analyze(f, brute="off").to_dict()
                     for f in (frame, built))
        got.pop("provenance")
        want.pop("provenance")
        assert got == want
        assert got["kappa"] == (ctx.n - 1) // m
        assert got["paths"]["census_source"] == "coset-sums"
    assert calls == {"coset_sums": 8, "multiplier_sums": 0}
    # m = (n-1)/kappa values that are not the subgroup keep their own
    # census: the multiplier sums, mu the dense route's
    f = build_random_exponent_frame(3, 4, 16, 5)
    rep = analyze(f, brute="auto")
    assert rep.kappa is None
    assert rep.paths["census_source"] == "multiplier-sums"
    assert abs(rep.mu - 0.4507) < 1e-4 and rep.paths["mu_gap"] <= 1e-9
    assert calls == {"coset_sums": 8, "multiplier_sums": 1}


def test_analyze_random_frame_not_tight_label():
    rep = analyze(build_random_exponent_frame(3, 3, 13, seed=8), brute="on")
    assert rep.kappa is None
    assert rep.paths["census_source"] == "multiplier-sums"
    assert rep.paths["mu_gap"] < 1e-9
    assert sum(c for _, c in rep.distinct_values) == rep.n * (rep.n - 1)


def test_analyze_brute_flag_validation():
    f = build_field_frame(3, 3, 13)
    with pytest.raises(BadShape):
        analyze(f, brute="maybe")
    big = build_hadamard_frame(13, 1)  # 8192 columns
    with pytest.raises(ResourceCap):
        analyze(big, brute="on")


BASE_KEYS = {"schema_version", "n", "m_dim", "kappa", "mu", "nu", "welch",
             "bound_general", "bound_m_odd", "bound_sqrt_kappa",
             "random_fourier", "random_fourier_window_ok",
             "tightness_residual", "gram_offdiag_mean_sq", "distinct_values",
             "distinct_magnitudes", "property_flags", "paths", "provenance"}
SL2_KEYS = {"mode", "sl2_bound", "u_value", "w_values"}


def test_analyze_report_dict_schema():
    # frame and SL2 reports (both modes) share one schema; SL2 adds its
    # own four keys
    for rep, extra in ((analyze(build_field_frame(3, 3, 13), brute="on"),
                        set()),
                       (sl2_report(8, 3, "induced"), SL2_KEYS),
                       (sl2_report(16, 1, "cuspidal"), SL2_KEYS)):
        d = rep.to_dict()
        assert d.keys() == BASE_KEYS | extra
        assert d["schema_version"] == 1
        assert d["distinct_values"][0].keys() == {"re", "im", "count"}
        assert d["distinct_magnitudes"][0].keys() == {"value", "count"}
        assert sum(e["count"] for e in d["distinct_magnitudes"]) \
            == d["n"] * (d["n"] - 1)


def test_census_report_checks_total():
    # the multiplicities must cover the n(n-1) ordered pairs exactly
    values = np.array([0.5 + 0j, -0.25 + 0j])
    assert _census_report(5, 2, 0.5, 0.25, values, np.array([12, 8]),
                          provenance={}).n == 5
    rep = _census_report(5, 2, 0.5, 0.25, values, np.array([3, 2]), 4,
                         provenance={})
    assert [c for _, c in rep.distinct_values] == [12, 8]
    for bad in ([12, 7], [12, 9]):
        with pytest.raises(InvariantViolation, match="ordered pairs"):
            _census_report(5, 2, 0.5, 0.25, values, np.array(bad),
                           provenance={})


def test_census_report_exact_past_int64():
    # n(n-1) past 2**63: the pair counts are Python ints, and the mean
    # square sums the same terms as a Python loop over the census.  Such a
    # census gives its magnitudes, as sl2_report does: cluster_complex
    # takes int64 weights
    n = 2 ** 40
    values = np.array([0.25 + 0.5j, -1e-3 + 0j, 0.125 + 0j])
    counts = np.array([2 ** 39, 2 ** 38, 2 ** 38 - 1])
    pairs = [int(c) * n for c in counts]
    mags = sorted(zip(np.abs(values).tolist(), pairs))
    rep = _census_report(n, 3, 0.6, 0.0, values, counts, n,
                         magnitudes=mags, provenance={})
    assert [c for _, c in rep.distinct_values] == pairs
    assert rep.distinct_magnitudes == mags
    assert sum(c for _, c in rep.distinct_magnitudes) == n * (n - 1)
    loop = 0.0
    for v, c in zip(values.tolist(), pairs):
        loop += c * abs(v) ** 2
    assert rep.gram_offdiag_mean_sq == loop / (n * (n - 1))


def test_bound_m_odd_reported_only_where_valid():
    # -1 must lie outside the subgroup, i.e. m odd (and so kappa even);
    # wherever the bound is reported it holds
    reported, cases = 0, 0
    for p, r in _fields(1024):
        ctx = build_field(p, r)
        order = ctx.n - 1
        for m in [d for d in range(1, order + 1) if order % d == 0]:
            rep = analyze(build_field_frame(p, r, m, ctx=ctx), brute="off")
            cases += 1
            if m % 2 == 0 or rep.kappa % 2 == 1:
                assert rep.bound_m_odd is None, (p, r, m)
                continue
            assert rep.bound_m_odd == bound_m_odd(m, rep.kappa)
            assert rep.mu <= rep.bound_m_odd + 1e-9, (p, r, m)
            reported += 1
    assert cases == 2162
    assert reported == 747
    # the first frame that reported it wrongly: GF(5), m = 2, mu > bound
    rep = analyze(build_field_frame(5, 1, 2), brute="off")
    assert rep.bound_m_odd is None and bound_m_odd(2, 2) is None
    assert rep.mu > bound_m_odd_formula(2, 2)


def test_analyze_off_refuses_unstructured_before_dense_work(monkeypatch):
    # a sign frame without field context and an odd-p frame without its
    # multipliers carry no multiplier structure: "off" refuses them
    # before any dense work; a ComplexFrame is refused at every level
    field_frame = build_hadamard_frame(4, 5)
    sign_frame = ExponentFrame(p=2, exps=field_frame.exps, provenance={})
    bare_frame = ExponentFrame(p=3, exps=build_field_frame(3, 3, 13).exps,
                               provenance={})
    complex_frame = materialize(field_frame)

    def dense(*args, **kwargs):
        raise AssertionError("dense work on a refused frame")

    for name in ("materialize", "average_coherence", "tightness_residual",
                 "coherence_bruteforce"):
        monkeypatch.setattr(coherence, name, dense)
    for frame in (sign_frame, bare_frame):
        with pytest.raises(BadShape, match="no analysis path"):
            analyze(frame, brute="off")
    for brute in ("off", "auto", "on"):
        with pytest.raises(BadShape, match="cannot analyze ComplexFrame"):
            analyze(complex_frame, brute=brute)
