"""Independent checks of the paper's structural facts.

The package computes with whole arrays of table values.  These helpers
work one element, one coset or one formula at a time, over the same
field tables, so the tests can hold the construction to the facts the
paper proves: Paley difference sets at kappa = 2, -1 in the half-way
coset, the translation-degree row sums, the beta modulus of the w-vector
and the orbit form of the mean-square bound.  Elements are base-p values
(ints); zero has no log, no inverse and no coset.  Oracles check the
fast kernels: character sums from exact trace-value counts and from the
length-(n-1) FFT correlation the package once used, subgroup members
from their logs, the SL2 class sums from the transform of the subgroup
as a list, the SL2 census from the cosets of the subgroup as 0/1 rows,
the Sylvester row labels bit by bit, and the census clustering by full
re-sorts of every group on every pass.  The dense kernels are checked
against the full-matrix products the package once used, on a frame's
whole complex matrix, cli._divisors against trial division, and the CSV
byte kernel against the per-row %d and %.17g writers.
"""

import math

import numpy as np

from groupframes.coherence import (
    BRUTE_CAP,
    CLUSTER_TOL,
    _require_normalized,
    cluster_complex,
    multiplier_sums,
    welch_bound,
)
from groupframes.errors import BadShape, ResourceCap
from groupframes.frames import ComplexFrame, roots_of_unity
from groupframes.gf import build_field, is_prime
from groupframes.sl2 import Q_CAP

# ---------------------------------------------------------------------------
# element arithmetic on values
# ---------------------------------------------------------------------------


def add(ctx, a, b):
    x, y = ctx.from_value(a).coeffs, ctx.from_value(b).coeffs
    return ctx.elem([u + v for u, v in zip(x, y)]).value


def neg(ctx, a):
    return ctx.elem([-c for c in ctx.from_value(a).coeffs]).value


def sub(ctx, a, b):
    return add(ctx, a, neg(ctx, b))


def from_log(ctx, k):
    return int(ctx.value_of_exp[k % (ctx.n - 1)])


def log(ctx, a):
    """Discrete log base the canonical generator."""
    if a == 0:
        raise ValueError("zero has no discrete log")
    return int(ctx.log_of_value[a])


def mul(ctx, a, b):
    return 0 if a == 0 or b == 0 else from_log(ctx, log(ctx, a) + log(ctx, b))


def power(ctx, a, k):
    if a == 0:
        if k < 0:
            raise ZeroDivisionError("negative power of zero")
        return int(k == 0)
    return from_log(ctx, log(ctx, a) * k)


def inv(ctx, a):
    if a == 0:
        raise ZeroDivisionError("zero has no inverse")
    return from_log(ctx, -log(ctx, a))


def trace(ctx, a):
    """Field trace down to GF(p), an integer in [0, p)."""
    return int(ctx.trace_of_value[a])


# ---------------------------------------------------------------------------
# cosets of the subgroup A of index kappa
# ---------------------------------------------------------------------------

ZERO = None  # the pseudo-coset {0}


def member_logs(ctx, kappa):
    """The logs kappa*i mod (n-1), i = 0..m-1, of the members of A."""
    m = (ctx.n - 1) // kappa
    return (kappa * np.arange(m, dtype=np.int64)) % (ctx.n - 1)


def subgroup_members(ctx, kappa):
    """Oracle for gf.subgroup_of_order: the members of A in power order,
    gathered at their logs."""
    return ctx.value_of_exp[member_logs(ctx, kappa)]


def elements(ctx, kappa):
    return [int(v) for v in subgroup_members(ctx, kappa)]


def coset_values(ctx, kappa, d):
    """Values of the coset x**d A, where x is the canonical generator."""
    if not 0 <= d < kappa:
        raise BadShape(f"coset index {d} outside [0, {kappa})")
    return ctx.value_of_exp[(member_logs(ctx, kappa) + d) % (ctx.n - 1)]


def coset_of(ctx, kappa, z):
    """Index d in [0, kappa) with z in x**d A."""
    return log(ctx, z) % kappa


def is_difference_set(ctx, kappa):
    """(True, lam) when every nonzero element is a difference a - a' of
    members of A exactly lam times, else (False, None)."""
    powers = np.int64(ctx.p) ** np.arange(ctx.r, dtype=np.int64)
    members = subgroup_members(ctx, kappa)
    digits = members.astype(np.int64)[:, None] // powers % ctx.p
    counts = np.zeros(ctx.n, dtype=np.int64)
    for row in digits:
        counts += np.bincount((row - digits) % ctx.p @ powers,
                              minlength=ctx.n)
    lams = np.unique(counts[1:])
    return (True, int(lams[0])) if len(lams) == 1 else (False, None)


def translation_degree(ctx, kappa, s, t):
    """Number of z in S with 1 + z in T, where S, T are coset indices or
    ZERO for {0}."""
    for lbl in (s, t):
        if lbl is not ZERO and not 0 <= lbl < kappa:
            raise BadShape(f"coset label {lbl!r} outside [0, {kappa}) or ZERO")
    if s is ZERO:
        return int(t is not ZERO and coset_of(ctx, kappa, 1) == t)
    # adding one changes only the constant base-p digit
    values = coset_values(ctx, kappa, s)
    c0 = values % ctx.p
    shifted = values - c0 + (c0 + 1) % ctx.p
    if t is ZERO:
        return int(np.count_nonzero(shifted == 0))
    logs = ctx.log_of_value[shifted]
    return int(np.count_nonzero((logs >= 0) & (logs % kappa == t)))


def parity_of_minus_one(ctx, kappa):
    """Where -1 = g**((n-1)/2) lands (-1 = 1 when p = 2): inside A, or in
    which coset."""
    coset = (0 if ctx.p == 2 else (ctx.n - 1) // 2) % kappa
    return {"in_A": coset == 0, "coset": coset,
            "is_half_kappa": kappa % 2 == 0 and coset == kappa // 2}


# ---------------------------------------------------------------------------
# character sums and census clustering
# ---------------------------------------------------------------------------


def histogram_sums(ctx, multiplier_values, count):
    """Exact oracle for the multiplier sums at log z = 0 .. count-1:
    integer counts of each trace value Tr(a z), one complex combination at
    the end."""
    mv = np.asarray(multiplier_values, dtype=np.int64)
    p, order = ctx.p, ctx.n - 1
    logs = ctx.log_of_value[mv[mv != 0]]
    ell = np.arange(count, dtype=np.int64)
    tr = ctx.trace_of_exp[(logs[:, None] + ell[None, :]) % order]
    counts = np.bincount((ell * p + tr).ravel(),
                         minlength=count * p).reshape(count, p)
    counts[:, 0] += np.count_nonzero(mv == 0)  # Tr(0 z) = 0
    return counts @ roots_of_unity(p) / len(mv)


def fft_correlation_sums(ctx, multiplier_values):
    """Oracle for multiplier_sums: with k_a = log a, the sum at log z = l
    is sum_a phase[k_a + l], a cyclic correlation of the multiplier-log
    indicator with phase = w**trace_of_exp, computed by one FFT round of
    length n-1; each zero multiplier adds 1 everywhere.  For p = 2 the
    sums are rounded to exact integers before the division by m."""
    mv = np.asarray(multiplier_values, dtype=np.int64)
    order = ctx.n - 1
    nonzero = mv[mv != 0]
    indicator = np.bincount(ctx.log_of_value[nonzero], minlength=order)
    phases = roots_of_unity(ctx.p)[ctx.trace_of_exp]
    if ctx.p == 2:
        total = np.rint(np.fft.irfft(
            np.conj(np.fft.rfft(indicator)) * np.fft.rfft(phases.real),
            order))
    else:
        total = np.fft.ifft(np.conj(np.fft.fft(indicator))
                            * np.fft.fft(phases))
    total = total + (len(mv) - len(nonzero))
    return total.astype(np.complex128) / len(mv)


def sylvester_row_labels(ctx, multiplier_values):
    """Oracle for the Sylvester labels of p = 2 rows: the row for
    multiplier a is the Sylvester-Hadamard row whose index has bit j equal
    to Tr(a t**j), matching the column relabeling x -> sum x_j 2**j; the
    zero multiplier is row 0."""
    mv = np.asarray(multiplier_values, dtype=np.int64)
    mono_logs = ctx.log_of_value[2 ** np.arange(ctx.r)]
    logs = ctx.log_of_value[mv][:, None] + mono_logs[None, :]
    bits = ctx.trace_of_exp[logs % (ctx.n - 1)].astype(np.int64)
    labels = bits @ (1 << np.arange(ctx.r, dtype=np.int64))
    return np.where(mv == 0, 0, labels).tolist()


def _split_gaps(labels, x, tol):
    # relabel so that each group is cut wherever its values, sorted, leave
    # a gap wider than tol
    order = np.lexsort((x, labels))
    cut = np.ones(len(x), dtype=bool)
    cut[1:] = (np.diff(labels[order]) != 0) | (np.diff(x[order]) > tol)
    out = np.empty_like(labels)
    out[order] = np.cumsum(cut) - 1
    return out


def cluster_complex_resort(values, weights=None, tol=CLUSTER_TOL):
    """Oracle for cluster_complex: every pass lexsorts all values by
    (group, part) and cuts every group, until a pass cuts nothing."""
    vals = np.asarray(values, dtype=np.complex128).ravel()
    parts = (vals.real, vals.imag)
    labels = _split_gaps(np.zeros(len(vals), dtype=np.int64), parts[0], tol)
    groups, axis = int(labels.max(initial=-1)) + 1, 1
    while True:
        labels = _split_gaps(labels, parts[axis], tol)
        found = int(labels.max(initial=-1)) + 1
        if found == groups:
            break
        groups, axis = found, 1 - axis
    if weights is None:
        w = np.ones(len(vals))
        counts = np.bincount(labels, minlength=groups)
    else:
        ints = [int(x) for x in weights]
        w = np.array(ints, dtype=np.float64)
        counts = np.zeros(groups, dtype=object)
        np.add.at(counts, labels, ints)
    sums = (np.bincount(labels, vals.real * w, minlength=groups)
            + 1j * np.bincount(labels, vals.imag * w, minlength=groups))
    reps = sums / counts.astype(np.float64)
    order = np.lexsort((np.round(reps.imag / tol), np.round(reps.real / tol)))
    return reps[order], counts[order]


def complex_oracle_frame(frame):
    """The exponent frame's complex matrix w**exps / sqrt(m), whole, as
    the full-matrix oracles take it."""
    return ComplexFrame(roots_of_unity(frame.p)[frame.exps]
                        / np.sqrt(frame.m_rows), normalized=True)


def coherence_bruteforce(cf, census=True):
    """Oracle for coherence_bruteforce: the full n x n Gram matrix, its
    off-diagonal gathered by a mask."""
    _require_normalized(cf)
    n = cf.entries.shape[1]
    if n > BRUTE_CAP:
        raise ResourceCap(f"brute force capped at {BRUTE_CAP} columns")
    if n < 2:
        raise BadShape("need at least two columns")
    gram = cf.entries.conj().T @ cf.entries
    off = ~np.eye(n, dtype=bool)
    offvals = gram[off]
    mags = np.abs(offvals)
    out = {
        "mu": float(mags.max()),
        "gram_offdiag_mean_sq": float((mags ** 2).mean()),
        "distinct_values": None,
    }
    if census:
        reps, counts = cluster_complex(offvals)
        out["distinct_values"] = list(zip(reps.tolist(), counts.tolist()))
    return out


def average_coherence(cf):
    """Oracle for average_coherence: the row sums through a conjugate
    copy of the whole matrix."""
    _require_normalized(cf)
    n = cf.entries.shape[1]
    s = cf.entries.sum(axis=1)
    row_sums = cf.entries.conj().T @ s - 1.0
    return float(np.max(np.abs(row_sums)) / (n - 1))


def tightness_residual(cf):
    """Oracle for tightness_residual: the full m x m frame operator."""
    _require_normalized(cf)
    m, n = cf.entries.shape
    R = cf.entries @ cf.entries.conj().T
    R[np.diag_indices(m)] -= n / m
    return float(np.max(np.abs(R)))


def histogram_csv_np(magnitudes, bins):
    """Oracle for cli._histogram_csv: np.histogram with the exact Python
    int counts as object weights, one f-string per bin."""
    vals = np.array([v for v, _ in magnitudes], dtype=np.float64)
    cnts = np.array([c for _, c in magnitudes], dtype=object)
    hi = float(vals.max()) if len(vals) else 0.0
    if hi <= 0.0:
        hi = 1.0
    counts, edges = np.histogram(vals, bins=bins, range=(0.0, hi),
                                 weights=cnts)
    lines = ["bin_left,bin_right,count"]
    for i, c in enumerate(counts):
        lines.append(f"{edges[i]:.17g},{edges[i + 1]:.17g},{int(c)}")
    return "\n".join(lines) + "\n"


def csv_rows_per_row(rows):
    """Oracle for frames._write_cells: the CSV text of an integer matrix
    from one %d template per row, the writer the package used before its
    byte kernel."""
    line = ",".join(["%d"] * rows.shape[1]) + "\n"
    return "".join(line % tuple(row.tolist()) for row in rows).encode()


def complex_csv_per_row(frame, normalize):
    """Oracle for frames.save_complex_csv: the entries w**exps, over
    sqrt(m) when normalized, as alternating re,im cells from one %.17g
    template per row, the writer the package used before its byte
    kernel."""
    entries = roots_of_unity(frame.p)[frame.exps]
    if normalize:
        entries = entries / np.sqrt(frame.m_rows)
    # a C-contiguous complex128 matrix viewed as float64 interleaves re, im
    cells = np.ascontiguousarray(entries).view(np.float64)
    line = ",".join(["%.17g"] * cells.shape[1]) + "\n"
    return "".join(line % tuple(row.tolist()) for row in cells).encode()


# ---------------------------------------------------------------------------
# coherence formulas
# ---------------------------------------------------------------------------


def w_vector_check(sums, m):
    """Fourier transform w of the kappa coset sums and its largest
    deviation from the proven shape: w_0 = -1/m and |w_j| = beta =
    sqrt((kappa + 1/m)/m) for every other j."""
    kappa = len(sums)
    w = kappa * np.fft.ifft(sums)
    beta = math.sqrt((kappa + 1.0 / m) / m)
    dev = [abs(w[0] + 1.0 / m)] + np.abs(np.abs(w[1:]) - beta).tolist()
    return {"w": w, "beta": beta, "max_violation": float(max(dev))}


def bound_m_odd_formula(m, kappa):
    """The refined odd-m bound's closed form, computed whether or not -1
    sits in the half-way coset, where alone it is a bound."""
    beta = math.sqrt((kappa + 1.0 / m) / m)
    half = kappa // 2
    return math.sqrt((1.0 / m + (half - 1) * beta) ** 2
                     + half * half * beta * beta) / kappa


def bound_orbit_min(group_order, min_orbit_block, n, m_dim):
    """Orbit form of the mean-square bound:
    sqrt((|G| - 1)/min block size) * welch."""
    return math.sqrt((group_order - 1) / min_orbit_block) \
        * welch_bound(n, m_dim)


def admissible_q(mode, cap=Q_CAP):
    """All q = 2**d <= cap, d >= 2, where q - 1 (induced) or q + 1
    (cuspidal) is prime."""
    if mode not in ("induced", "cuspidal"):
        raise ValueError(f"mode must be induced or cuspidal, got {mode!r}")
    step = -1 if mode == "induced" else 1
    return [2 ** d for d in range(2, cap.bit_length())
            if is_prime(2 ** d + step)]


def sl2_cases():
    """Every admissible (q, m, mode): m an odd divisor of q - 2 (induced)
    or of q (cuspidal)."""
    cases = []
    for mode, base in (("induced", -2), ("cuspidal", 0)):
        for q in admissible_q(mode):
            cases += [(q, m, mode) for m in range(1, q + base + 1, 2)
                      if (q + base) % m == 0]
    return cases


def sl2_class_sums_by_transform(p, m):
    """Oracle for sl2._class_sums: the subgroup A2m of order 2m in GF(p)*
    and s_l = 2m c at log l, l = 1..p-1, with c the additive-character
    transform (multiplier_sums) of the list A2m, not its coset sums."""
    ctx = build_field(p, 1)
    a2m = subgroup_members(ctx, (p - 1) // (2 * m))
    c = multiplier_sums(ctx, a2m)
    return a2m, 2 * m * c[ctx.log_of_value[1:]]


def sl2_coset_indicators(p, m):
    """The cosets of A2m, the order-2m subgroup of GF(p)*, as 0/1 rows over
    l = 1..p-1, found by multiplying A2m by each l not yet covered.  In the
    basis w, ..., w**(p-1) of Z[w] the row of a coset is the coordinate
    vector of its Gauss period sum_{l in coset} w**l, so two periods are
    equal exactly when their rows are."""
    a2m = subgroup_members(build_field(p, 1), (p - 1) // (2 * m))
    rows = np.zeros(((p - 1) // (2 * m), p - 1), dtype=np.int8)
    covered = np.zeros(p, dtype=bool)
    d = 0
    for ell in range(1, p):
        if not covered[ell]:
            coset = a2m * ell % p
            covered[coset] = True
            rows[d, coset - 1] = 1
            d += 1
    return rows


def divisors_by_trial(x):
    """Oracle for cli._divisors: trial division up to sqrt(x)."""
    small = [d for d in range(1, math.isqrt(x) + 1) if x % d == 0]
    return small + [x // d for d in reversed(small) if d * d != x]
