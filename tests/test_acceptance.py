"""Acceptance gate for the package.

Eleven end-to-end criteria: reproduction of the published coherence
tables, structural identities verified across an exhaustive parameter
sweep, bound ordering, random baseline comparisons, and byte-level
determinism of the command line tools.  Each test prints one line

    ACCEPTANCE <k>: PASS|FAIL - <detail>

before asserting, so the suite reads as a checklist (run pytest with -s
to see the lines for passing tests as well).
"""

import statistics
import time

import numpy as np
import pytest

from groupframes import (
    analyze,
    average_coherence,
    bound_general_kappa,
    bound_m_odd,
    build_field,
    build_field_frame,
    build_hadamard_frame,
    build_random_exponent_frame,
    build_random_hadamard_frame,
    coset_sums,
    is_prime,
    materialize,
    sl2_report,
    tightness_residual,
    welch_bound,
)
from groupframes.cli import _divisors
from groupframes.cli import main as cli_main
from groupframes.coherence import (
    CLUSTER_TOL,
    cluster_complex,
    coherence_bruteforce,
)
from oracles import w_vector_check

SWEEP_LIMIT = 1024
TIGHT_LIMIT = 4096

# published coherence values: Sylvester-Hadamard row selections (r, m)
HADAMARD_ROWS = (
    (8, 51, 0.2549),
    (8, 85, 0.1294),
    (9, 73, 0.2329),
    (10, 341, 0.0616),
    (12, 455, 0.1253),
)

# published kappa = 2 equiangular rows (p, r), m = (p^r - 1) / 2
PALEY_ROWS = (
    (3, 3, 0.2035),
    (3, 5, 0.0645),
    (3, 7, 0.0214),
    (7, 3, 0.0542),
    (11, 3, 0.0274),
)

# published SL2(F_q) induced-character rows (q, m, mu, welch)
SL2_ROWS = (
    (4, 1, 0.2000, 0.1540),
    (8, 1, 0.2002, 0.1019),
    (8, 3, 0.1111, 0.0462),
)


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _prime_powers(limit):
    pps = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        q, r = p, 1
        while q <= limit:
            pps.append((p, r, q))
            q *= p
            r += 1
    return sorted(pps, key=lambda t: t[2])


@pytest.fixture(scope="session")
def sweep():
    """Every subgroup frame with n = p^r <= SWEEP_LIMIT, all m | n-1.

    For each case both coherence routes run (character sums and the full
    Gram matrix), along with the census, the w vector, the average
    coherence, and the tightness residual.  The kappa coset sums are kept
    for the census law.
    """
    cases = []
    for p, r, n in _prime_powers(SWEEP_LIMIT):
        ctx = build_field(p, r)
        for m in _divisors(n - 1):
            kappa = (n - 1) // m
            fr = build_field_frame(p, r, m, ctx=ctx)
            cs = coset_sums(ctx, kappa)
            mu = float(np.max(np.abs(cs)))
            _, counts = cluster_complex(cs)
            cf = materialize(fr)
            bf = coherence_bruteforce(cf, census=False)
            cases.append({
                "p": p, "r": r, "n": n, "m": m, "kappa": kappa,
                "mu": mu,
                "mu_brute": bf["mu"],
                "welch": welch_bound(n, m),
                "bg": bound_general_kappa(m, kappa),
                "bmo": (bound_m_odd(m, kappa)
                        if p % 2 == 1 and m % 2 == 1 else None),
                "w_viol": w_vector_check(cs, m)["max_violation"],
                "nu": average_coherence(cf),
                "tight": tightness_residual(cf),
                "census": [int(c) * n * m for c in counts],
                "sums": cs,
            })
    return cases


def test_criterion_01_equiangular_rows():
    t0 = time.perf_counter()
    got = []
    for p, r, pin in PALEY_ROWS:
        n = p ** r
        m = (n - 1) // 2
        fr = build_field_frame(p, r, m)
        got.append((fr, n, m, analyze(fr, brute="off").mu, pin))
    elapsed = time.perf_counter() - t0

    bad = []
    for fr, n, m, mu, pin in got:
        if abs(mu - pin) > 5e-4:
            bad.append(f"mu({n},{m}) = {mu:.6f} != {pin}")
        if abs(mu - welch_bound(n, m)) > 1e-9:
            bad.append(f"mu({n},{m}) off the welch value")
    for fr, n, m, mu, pin in got:
        if n <= 343:
            bf = coherence_bruteforce(materialize(fr), census=False)
            if abs(bf["mu"] - mu) > 1e-9:
                bad.append(f"brute mismatch at n = {n}")
    ok = not bad and elapsed < 10.0
    _verdict(1, ok, bad[0] if bad else
             f"5 rows within 5e-4, mu = welch to 1e-9, "
             f"fast path {elapsed:.2f}s, brute agrees for n <= 343")


def test_criterion_02_hadamard_rows():
    t0 = time.perf_counter()
    got = []
    for r, m, pin in HADAMARD_ROWS:
        fr = build_hadamard_frame(r, m)
        mu = analyze(fr, brute="off").mu
        got.append((fr, 2 ** r, m, mu, pin))
    elapsed = time.perf_counter() - t0

    bad = []
    for fr, n, m, mu, pin in got:
        if abs(mu - pin) > 5e-4:
            bad.append(f"mu({n},{m}) = {mu:.6f} != {pin}")
    for fr, n, m, mu, pin in got:
        if n <= 1024:
            bf = coherence_bruteforce(materialize(fr), census=False)
            if abs(bf["mu"] - mu) > 1e-9:
                bad.append(f"brute mismatch at n = {n}")
    ok = not bad and elapsed < 1.0
    _verdict(2, ok, bad[0] if bad else
             f"5 rows within 5e-4, fast path {elapsed:.3f}s, "
             f"brute agrees for n <= 1024")


def test_criterion_03_sl2_rows():
    t0 = time.perf_counter()
    reports = [(q, m, mu, w, sl2_report(q, m, "induced"))
               for q, m, mu, w in SL2_ROWS]
    elapsed = time.perf_counter() - t0

    bad = []
    for q, m, mu_pin, w_pin, rep in reports:
        if abs(rep.mu - mu_pin) > 5e-4:
            bad.append(f"mu(q={q},m={m}) = {rep.mu:.6f} != {mu_pin}")
        if abs(rep.welch - w_pin) > 5e-4:
            bad.append(f"welch(q={q},m={m}) = {rep.welch:.6f} != {w_pin}")
    ok = not bad and elapsed < 0.5
    _verdict(3, ok, bad[0] if bad else
             f"3 rows within 5e-4 (mu and welch), {elapsed * 1e3:.1f} ms")


def test_criterion_04_tightness(sweep):
    worst = max(c["tight"] for c in sweep)
    checked = len(sweep)

    # above the exhaustive range the residual costs m^2 n, so sweep the
    # small-m frames plus the published large pairs up to n = 4096
    extra = []
    for p, r, n in _prime_powers(TIGHT_LIMIT):
        if n <= SWEEP_LIMIT:
            continue
        ctx = build_field(p, r)
        for m in _divisors(n - 1):
            if m <= 64:
                extra.append(build_field_frame(p, r, m, ctx=ctx))
    extra.append(build_field_frame(3, 7, 1093))
    extra.append(build_field_frame(11, 3, 665))
    extra.append(build_hadamard_frame(12, 455))
    for fr in extra:
        worst = max(worst, tightness_residual(materialize(fr)))
    checked += len(extra)

    ok = worst <= 1e-9
    _verdict(4, ok,
             f"worst residual {worst:.3e} over {checked} frames, n <= 4096")


def _frobenius_orbits(p, r, kappa):
    """Label each coset index d < kappa by the least member of its orbit
    under d -> p*d (mod kappa).  Since kappa | p^r - 1, p^r = 1 (mod
    kappa), so every orbit has at most r members."""
    d = np.arange(kappa)
    steps = np.array([pow(p, k, kappa) for k in range(r)])
    return (d[None, :] * steps[:, None] % kappa).min(axis=0)


def _min_gap(values):
    """Smallest |u - v| over pairs of entries: closest pair by a sweep
    over the values sorted by real part, widening the neighbour offset
    until no pair at that offset can be closer in real part alone."""
    v = np.sort_complex(np.asarray(values, dtype=np.complex128))
    best = np.inf
    for s in range(1, len(v)):
        if np.min(v.real[s:] - v.real[:-s]) >= best:
            break
        best = min(best, float(np.min(np.abs(v[s:] - v[:-s]))))
    return best


def test_criterion_05_census_law(sweep):
    # Off-diagonal Gram entries are the coset sums c_d, d < kappa, each
    # taken by n*m ordered pairs.  Tr(x^p) = Tr(x) makes c_d constant on
    # each orbit of d -> p*d (mod kappa), so there are at most as many
    # distinct values as orbits.  On a prime field every orbit is a single
    # coset and the kappa Gauss periods are distinct; they must also lie
    # further apart than CLUSTER_TOL, or the clustering that counts them
    # separates them only by where the rounding grid happens to fall.
    fails = []
    below_kappa = 0
    gap, gap_at = np.inf, None
    for c in sweep:
        n, m, kappa, census = c["n"], c["m"], c["kappa"], c["census"]
        label = _frobenius_orbits(c["p"], c["r"], kappa)
        orbits = len(np.unique(label))
        found = len(census)
        below_kappa += found < kappa
        spread = float(np.max(np.abs(c["sums"] - c["sums"][label])))
        g = _min_gap(c["sums"]) if c["r"] == 1 else np.inf
        if g < gap:
            gap, gap_at = g, (c["p"], m)
        whole = all(x > 0 and x % (n * m) == 0 for x in census)
        exact = found == kappa and all(x == n * m for x in census)
        rules = [
            ("orbit spread", spread <= CLUSTER_TOL),
            ("values > orbits", found <= orbits <= kappa),
            ("multiplicity", whole and sum(census) == n * (n - 1)),
            ("prime field", c["r"] > 1 or exact),
            ("prime gap", g > CLUSTER_TOL),
        ]
        broken = [name for name, held in rules if not held]
        if broken:
            fails.append((broken[0], (c["p"], c["r"], m, kappa, orbits,
                                      found)))
    ok = not fails
    detail = (f"{len(sweep)} cases, "
              f"{sum(c['r'] == 1 for c in sweep)} prime-field, "
              f"{below_kappa} below kappa; smallest prime-field gap "
              f"{gap:.3g} at (p,m) = {gap_at}, "
              f"{gap / CLUSTER_TOL:.1f}x CLUSTER_TOL; ")
    detail += ("one value per Frobenius orbit at most, exactly kappa "
               "values x n*m on prime fields" if ok else
               f"{len(fails)} violate, first {fails[0][0]} at "
               f"(p,r,m,kappa,orbits,found) = {fails[0][1]}")
    _verdict(5, ok, detail)


def test_criterion_06_w_vector(sweep):
    worst = max(c["w_viol"] for c in sweep)
    ok = len(sweep) >= 30 and worst <= 1e-9
    _verdict(6, ok,
             f"max deviation {worst:.3e} over {len(sweep)} (p,r,m) triples")


def test_criterion_07_average_coherence(sweep):
    worst = max(abs(c["nu"] - 1.0 / (c["n"] - 1)) for c in sweep)
    ratio_bad = [c for c in sweep
                 if c["n"] >= 2 * c["m"]
                 and c["nu"] > c["mu"] / np.sqrt(c["m"]) + 1e-12]
    ok = worst <= 1e-9 and not ratio_bad
    _verdict(7, ok,
             f"max |nu - 1/(n-1)| = {worst:.3e}; nu <= mu/sqrt(m) holds "
             f"on all {sum(c['n'] >= 2 * c['m'] for c in sweep)} "
             f"cases with n >= 2m")


def test_criterion_08_bound_ordering(sweep):
    bad = []
    for c in sweep:
        mu, tol = c["mu"], 1e-12
        if not c["welch"] <= mu + tol:
            bad.append(("welch > mu", c["p"], c["r"], c["m"]))
        if not mu <= np.sqrt(c["kappa"]) * c["welch"] + tol:
            bad.append(("mu > sqrt(kappa) welch", c["p"], c["r"], c["m"]))
        if not mu <= c["bg"] + tol:
            bad.append(("mu > general bound", c["p"], c["r"], c["m"]))
        if c["bmo"] is not None:
            if not mu <= c["bmo"] + tol:
                bad.append(("mu > odd-m bound", c["p"], c["r"], c["m"]))
            if not c["bmo"] <= c["bg"] + tol:
                bad.append(("odd-m bound > general", c["p"], c["r"], c["m"]))
    ok = not bad
    _verdict(8, ok, f"ordering holds on all {len(sweep)} cases"
             if ok else f"violations: {bad[:3]}")


def test_criterion_09_fast_equals_brute(sweep):
    worst = max(abs(c["mu"] - c["mu_brute"]) for c in sweep)
    ok = worst <= 1e-9
    _verdict(9, ok,
             f"max |fast - brute| = {worst:.3e} over {len(sweep)} frames "
             f"with n <= {SWEEP_LIMIT}")


def test_criterion_10_random_baselines():
    seeds = (1, 2, 3)
    bad = []
    rows = []
    for p, r, pin in PALEY_ROWS:
        m = (p ** r - 1) // 2
        group = analyze(build_field_frame(p, r, m), brute="off").mu
        rand = [analyze(build_random_exponent_frame(p, r, m, seed=s),
                        brute="off").mu for s in seeds]
        rows.append((f"{p}^{r}", group, rand))
    for r, m, pin in HADAMARD_ROWS:
        group = analyze(build_hadamard_frame(r, m), brute="off").mu
        rand = [analyze(build_random_hadamard_frame(r, m, seed=s),
                        brute="off").mu for s in seeds]
        rows.append((f"2^{r}", group, rand))
    margin = np.inf
    for label, group, rand in rows:
        for s, mu in zip(seeds, rand):
            if not mu > group:
                bad.append(f"{label} seed {s}: random {mu:.4f} <= "
                           f"group {group:.4f}")
            margin = min(margin, mu - group)
        if not statistics.median(rand) > group:
            bad.append(f"{label}: median not above the group value")
    ok = not bad
    _verdict(10, ok, bad[0] if bad else
             f"all {len(rows)} rows x {len(seeds)} seeds strictly above "
             f"the group coherence (min margin {margin:.4f})")


def test_criterion_11_determinism(tmp_path):
    def run(tag, argv_maker):
        outs = []
        for i in (0, 1):
            d = tmp_path / f"{tag}{i}"
            d.mkdir()
            argv, files = argv_maker(d)
            rc = cli_main(argv)
            assert rc == 0, f"{tag} run {i} exited {rc}"
            outs.append([f.read_bytes() for f in files])
        return outs[0] == outs[1]

    def construct_args(d):
        out = d / "h.csv"
        return (["construct", "--field", "2", "10", "--m", "341",
                 "--out", str(out)],
                [out, d / "h.csv.provenance.json"])

    def random_args(d):
        out = d / "r.csv"
        return (["construct", "--field", "3", "3", "--m", "13", "--random",
                 "--seed", "7", "--out", str(out)],
                [out, d / "r.csv.provenance.json"])

    def analyze_args(d):
        rep, hist = d / "rep.json", d / "hist.csv"
        return (["analyze", "--field", "3", "3", "--m", "13",
                 "--report", str(rep), "--histogram", str(hist),
                 "--bins", "50"],
                [rep, hist])

    def sl2_args(d):
        rep = d / "sl2.json"
        return (["analyze", "--sl2", "8", "3", "--mode", "induced",
                 "--report", str(rep)], [rep])

    def compare_args(d):
        js, csv = d / "cmp.json", d / "cmp.csv"
        return (["compare", "--table", "II", "--seeds", "1", "2", "3",
                 "--out-json", str(js), "--out-csv", str(csv)], [js, csv])

    def bounds_args(d):
        out = d / "bounds.csv"
        return (["bounds", "--kappa", "3", "--n-min", "4", "--n-max", "200",
                 "--out", str(out)], [out])

    makers = [("construct", construct_args), ("random", random_args),
              ("analyze", analyze_args), ("sl2", sl2_args),
              ("compare", compare_args), ("bounds", bounds_args)]
    diffs = [tag for tag, maker in makers if not run(tag, maker)]
    ok = not diffs
    _verdict(11, ok, "byte-identical outputs across repeated runs of all "
             "6 command variants" if ok else f"outputs differ: {diffs}")
