"""Coherence analysis: exact character-sum paths, brute force, and bounds.

For frames whose columns run over a whole field and whose rows are
multiplier characters x -> w**Tr(ax), every Gram entry depends only on the
column difference z = x_j - x_i, so the full inner-product census reduces
to the n-1 sums c_z = (1/m) sum_a w**Tr(az).  When the multipliers form a
subgroup A, in any order, c is constant on the kappa = (n-1)/m cosets of
A, so the kappa Gauss periods are the whole census, and one pass over the
trace table gives them.  For any other multiplier list the sums are one
additive-character transform of the multiplier-key histogram over
F_q = (Z_p)**r, the Walsh-Hadamard transform when p = 2: r radix-p passes
over a length-n array, exact for p = 2, then read in discrete-log order.
The dense checks on the materialized matrix and the brute-force Gram path
are kept as an independent oracle; wherever both routes run, a gap
between them above ROUTE_TOL is an InvariantViolation.  A frame without
multipliers has only the Gram census, one route over the whole Gram's
upper triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    BadShape,
    InvariantViolation,
    NotADivisor,
    NotNormalized,
    ResourceCap,
)
from .frames import (
    COMPLEX_CELL_CAP,
    ComplexFrame,
    ExponentFrame,
    dual_basis_keys,
    materialize,
    roots_of_unity,
)
from .gf import FieldCtx

BRUTE_CAP = 4096
CLUSTER_TOL = 1e-9
# largest gap allowed between the character-sum and the dense value of mu
# or nu
ROUTE_TOL = 1e-9
# largest character table multiplier_sums applies as one matrix; a digit
# of p > _BLOCK is transformed by FFT
_BLOCK = 64
# rows per block of the dense Hermitian products: the fastest of 16 to 512
# rows measured on 2 CPUs at n = 2187 and 4096, where 16 took 50-70% longer
_GRAM_ROWS = 128


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def welch_bound(n: int, m_dim: int) -> float:
    """Lower bound sqrt((n - m)/(m(n - 1))) on the coherence of n unit
    vectors in dimension m; zero when an orthonormal set fits."""
    if m_dim < 1 or n < m_dim:
        raise BadShape(f"need 1 <= m_dim <= n, got n={n}, m_dim={m_dim}")
    if n <= 1 or n == m_dim:
        return 0.0
    return math.sqrt((n - m_dim) / (m_dim * (n - 1)))


def _beta(m: int, kappa: int) -> float:
    # common modulus of the nontrivial Fourier coefficients of the
    # coset-sum vector
    return math.sqrt((kappa + 1.0 / m) / m)


def bound_general_kappa(m: int, kappa: int) -> float:
    """Upper bound ((kappa-1) beta + 1/m)/kappa on the largest coset-sum
    modulus, valid for any subgroup size m and index kappa."""
    if m < 1 or kappa < 1:
        raise BadShape(f"need m, kappa >= 1, got m={m}, kappa={kappa}")
    return ((kappa - 1) * _beta(m, kappa) + 1.0 / m) / kappa


def bound_m_odd(m: int, kappa: int) -> float | None:
    """Sharper bound available when -1 sits in the half-way coset, else
    None.  -1 lies outside the subgroup exactly when m is odd; with
    m kappa = n - 1 even (p odd) that puts -1 in the half-way coset, so
    the bound needs m odd and kappa even."""
    if m < 1 or kappa < 1:
        raise BadShape(f"need m, kappa >= 1, got m={m}, kappa={kappa}")
    if m % 2 == 0 or kappa % 2 != 0:
        return None
    b = _beta(m, kappa)
    half = kappa // 2
    return math.sqrt((1.0 / m + (half - 1) * b) ** 2
                     + half * half * b * b) / kappa


def bound_sqrt_kappa(n: int, m_dim: int, kappa_count: int) -> float:
    """Mean-square argument: mu <= sqrt(#distinct values) * welch."""
    if kappa_count < 1:
        raise BadShape(f"kappa_count must be >= 1, got {kappa_count}")
    return math.sqrt(kappa_count) * welch_bound(n, m_dim)


def random_fourier_bound(n: int, m_dim: int) -> float:
    """High-probability coherence bound sqrt(118 (n - m) ln n / (m n)) for
    m random rows of an n-point Fourier matrix; see random_fourier_window
    for where it is proven."""
    if m_dim < 1 or n < m_dim:
        raise BadShape(f"need 1 <= m_dim <= n, got n={n}, m_dim={m_dim}")
    if n == m_dim or n < 2:
        return 0.0
    return math.sqrt(118.0 * (n - m_dim) * math.log(n) / (m_dim * n))


def random_fourier_window(n: int, m_dim: int) -> bool:
    """Whether (n, m) sits in the proven window 16 ln n <= m <= n/3."""
    return 16.0 * math.log(n) <= m_dim <= n / 3.0


def _check_log_base(log_base: float | None) -> None:
    # the base of the logs in the property thresholds: None for e, else a
    # finite number above 1, so that log n is positive for every n >= 2
    if log_base is not None and not 1.0 < log_base < math.inf:
        raise BadShape(f"log_base must be a finite number above 1, "
                       f"got {log_base}")


def property_thresholds(n: int, log_base: float | None = None) -> tuple:
    """The worst-case coherence thresholds (0.1/sqrt(2 log n),
    1/(164 log n)) of the coherence and the strong coherence property.
    Logs are natural by default; pass log_base for base-2/base-10
    sensitivity."""
    _check_log_base(log_base)
    if n < 2:
        raise BadShape(f"need n >= 2, got {n}")
    log_n = math.log(n) if log_base is None else math.log(n, log_base)
    return 0.1 / math.sqrt(2.0 * log_n), 1.0 / (164.0 * log_n)


def coherence_properties(mu: float, nu: float, n: int, m_dim: int,
                         log_base: float | None = None) -> dict:
    """Flags for the two coherence properties: each requires
    nu <= mu/sqrt(m) and mu at most its property_thresholds value."""
    cp_threshold, scp_threshold = property_thresholds(n, log_base)
    nu_ok = nu <= mu / math.sqrt(m_dim)
    return {
        "log_base": "e" if log_base is None else log_base,
        "nu_leq_mu_over_sqrt_dim": bool(nu_ok),
        "cp_mu_threshold": cp_threshold,
        "scp_mu_threshold": scp_threshold,
        "coherence_property": bool(mu <= cp_threshold and nu_ok),
        "strong_coherence_property": bool(mu <= scp_threshold and nu_ok),
    }


# ---------------------------------------------------------------------------
# exact character-sum path
# ---------------------------------------------------------------------------

def coset_sums(ctx: FieldCtx, kappa: int) -> np.ndarray:
    """The kappa coset sums c_d = (1/m) sum_{a in A} w**Tr(a x**d), the
    Gauss periods of the subgroup A of index kappa, one per coset.

    The members of A have logs kappa*i, so the phases w**trace_of_exp
    reshaped to (m, kappa) hold Tr(a x**d) for a in A down column d:
    summing the columns gives every sum in one O(n) pass.  For p = 2 the
    phases are +-1 and their sums exact integers before the division by m.
    """
    if kappa < 1 or (ctx.n - 1) % kappa != 0:
        raise NotADivisor(f"kappa = {kappa} does not divide {ctx.n - 1}")
    m = (ctx.n - 1) // kappa
    phases = roots_of_unity(ctx.p)[ctx.trace_of_exp]
    return phases.reshape(m, kappa).sum(axis=0) / m


def _character_table(p: int, digits: int) -> np.ndarray:
    # w**(j.k) for digit vectors j, k of length `digits`: the character
    # table of (Z_p)**digits, real (+-1) for p = 2
    dig = np.arange(p ** digits)[:, None] // p ** np.arange(digits) % p
    table = roots_of_unity(p)[dig @ dig.T % p]
    return table.real.copy() if p == 2 else table


def _character_transform(x: np.ndarray, p: int, r: int) -> np.ndarray:
    # (W x)[v] = sum_k w**(v.k) x[k] over (Z_p)**r, x indexed by packed
    # value; W is the r-fold tensor power of the p x p table, applied one
    # block of digits at a time
    if p > _BLOCK:
        x = x.reshape((p,) * r)
        for axis in range(r):
            x = np.fft.ifft(x, axis=axis) * p
        return x.ravel()
    per_block = 1
    while p ** (per_block + 1) <= _BLOCK:
        per_block += 1
    below = 1  # p**(digits already transformed): the stride of a block
    for lo in range(0, r, per_block):
        table = _character_table(p, min(per_block, r - lo))
        size = len(table)
        if below == 1:
            # the lowest digits, one product (the table is symmetric)
            x = x.reshape(-1, size) @ table
        else:
            x = np.matmul(table, x.reshape(-1, size, below))
        below *= size
    return x.ravel()


def multiplier_sums(ctx: FieldCtx, multiplier_values) -> np.ndarray:
    """c_z = (1/m) sum_a w**Tr(az) for every z != 0, indexed by log z.

    Works for any multiplier list (zero allowed, repeats counted), which
    covers the random baselines.  Tr(az) = sum_j z_j Tr(a t**j), so with
    h the histogram of the multiplier keys (dual_basis_keys) the sums, in
    packed-value order, are m c = W h for W the character table of
    F_q = (Z_p)**r: for p = 2 the Walsh-Hadamard transform, the Sylvester
    matrix.  W is applied as r radix-p passes over a length-n array,
    blocks of digits at a time (one p**g x p**g table with p**g <= 64, or
    an FFT along a digit of p > 64): O(n r) time and O(n) memory.  A zero
    multiplier has key 0 and adds 1 everywhere.  For p = 2 the table and
    the counts are integers, so the sums are exact before the division
    by m.
    """
    mv = np.asarray(multiplier_values, dtype=np.int64)
    if len(mv) == 0 or mv.min() < 0 or mv.max() >= ctx.n:
        raise BadShape(f"multipliers must be a nonempty list of values in "
                       f"[0, {ctx.n})")
    hist = np.bincount(dual_basis_keys(ctx, mv), minlength=ctx.n)
    total = _character_transform(
        hist.astype(np.float64 if ctx.p == 2 else np.complex128),
        ctx.p, ctx.r)
    return total[ctx.value_of_exp].astype(np.complex128) / len(mv)


def inner_product_exact(frame: ExponentFrame, i: int, j: int) -> complex:
    """<f_i, f_j> of the normalized frame from the exponent-difference
    histogram: exact integer counts, one complex combination at the end."""
    p = frame.p
    diff = (frame.exps[:, j].astype(np.int64)
            - frame.exps[:, i].astype(np.int64)) % p
    hist = np.bincount(diff, minlength=p)
    return complex(hist @ roots_of_unity(p) / frame.m_rows)


# ---------------------------------------------------------------------------
# brute-force path over a materialized frame
# ---------------------------------------------------------------------------

def _require_normalized(cf: ComplexFrame):
    if not isinstance(cf, ComplexFrame):
        raise BadShape("expected a materialized ComplexFrame")
    if not cf.normalized:
        raise NotNormalized("operation requires unit-norm columns")


def _rank(order: np.ndarray) -> np.ndarray:
    # the position of each index in order
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank


def cluster_complex(values, weights=None):
    """Group complex values joined by chains of neighbours within tol.

    Values are sorted and cut at every gap wider than tol, in the real and
    the imaginary part in turn, until no cut is left to make; two values
    closer than tol in both parts always share a cluster, wherever they
    sit.  Returns (representatives, counts) sorted by (re, im) of the tol
    grid point nearest the representative.  The representative of a
    cluster is the weighted mean of its members, so downstream statistics
    keep full precision.  Weights default to 1 per value; given weights
    are int64, summed exactly (a frame has n(n-1) < 2.9e14 pairs).

    The groups are kept as blocks of one ordering of the values.  After
    the first cut on the real part, a pass sorts only the groups the pass
    before it cut, by one int64 key (group, rank on this axis), and skips
    those whose span on the axis is within tol: a group a pass leaves
    uncut has no gap on either axis and is final.
    """
    tol = CLUSTER_TOL
    vals = np.asarray(values, dtype=np.complex128).ravel()
    size = len(vals)
    parts = (vals.real, vals.imag)
    by_real = np.argsort(parts[0])
    order = by_real.copy()
    ranks = {}
    first = np.ones(size, dtype=bool)  # first[k]: order[k] starts a group
    first[1:] = np.diff(parts[0][order]) > tol
    group = np.cumsum(first) - 1
    active = np.ones(np.count_nonzero(first), dtype=bool)
    axis = 1
    while active.any():
        starts = np.flatnonzero(first)
        lengths = np.diff(starts, append=size)
        x = parts[axis][order[np.repeat(active, lengths)]]
        local = np.cumsum(lengths[active]) - lengths[active]
        span = np.maximum.reduceat(x, local) - np.minimum.reduceat(x, local)
        room = np.zeros_like(active)
        room[active] = span > tol
        pos = np.flatnonzero(np.repeat(room, lengths))
        if len(pos) == 0:
            break
        if axis not in ranks:
            ranks[axis] = _rank(np.argsort(parts[1]) if axis else by_real)
        # sorting within each group keeps the groups where they are
        sel = order[pos]
        order[pos] = sel = sel[np.argsort(group[pos] * size
                                          + ranks[axis][sel])]
        cut = np.zeros(len(pos), dtype=bool)
        cut[1:] = (np.diff(parts[axis][sel]) > tol) & ~first[pos[1:]]
        if not cut.any():
            break
        was_cut = np.zeros_like(active)
        was_cut[group[pos[cut]]] = True
        first[pos[cut]] = True
        active = was_cut[group[first]]
        group = np.cumsum(first) - 1
        axis = 1 - axis
    starts = np.flatnonzero(first)
    groups = len(starts)
    labels = np.empty(size, dtype=np.int64)
    labels[order] = group
    if weights is None:
        real, imag = parts
        counts = np.diff(starts, append=size)
    else:
        w = np.asarray(weights, dtype=np.int64)
        counts = np.add.reduceat(w[order], starts)
        wf = w.astype(np.float64)
        real, imag = parts[0] * wf, parts[1] * wf
    sums = (np.bincount(labels, real, minlength=groups)
            + 1j * np.bincount(labels, imag, minlength=groups))
    reps = sums / counts.astype(np.float64)
    # complex values sort by real part, then imaginary part
    grid = np.round(reps.real / tol) + 1j * np.round(reps.imag / tol)
    out = np.argsort(grid, kind="stable")
    return reps[out], counts[out]


def _upper_blocks(a: np.ndarray):
    # a[:, i0:i1]^H @ a[:, i0:] for i0 in steps of _GRAM_ROWS: the upper
    # block triangle of the Hermitian a^H a, each block starting with its
    # diagonal square; one block of a is conjugated at a time, and a real
    # a is not copied (its conj() is itself)
    for i0 in range(0, a.shape[1], _GRAM_ROWS):
        yield a[:, i0:i0 + _GRAM_ROWS].conj().T @ a[:, i0:]


def _sum_and_difference(c: np.ndarray, s: np.ndarray):
    # the blocks of _upper_blocks for c^T c + s^T s and c^T c - s^T s of
    # the real c and s, from one product of each
    for cc, ss in zip(_upper_blocks(c), _upper_blocks(s)):
        diff = cc - ss
        cc += ss
        yield cc, diff


def _paired_blocks(t: np.ndarray):
    # (A, B) for each block i0 <= i < i1 of _GRAM_ROWS columns of a paired
    # frame's T: A = T_b^H T[:, i0:] and B = T_b^T T[:, i0:], the upper
    # block triangles of T^H T and of the symmetric T^T T.  For the real
    # [C; S] of T = [T1; conj(T1)], T1 = C + iS, T^H T = 2(C^T C + S^T S)
    # and T^T T = 2(C^T C - S^T S): the blocks are of their halves, from
    # one product of each half of the rows
    if not np.iscomplexobj(t):
        yield from _sum_and_difference(*np.split(t, 2))
        return
    for i0 in range(0, t.shape[1], _GRAM_ROWS):
        tb, rest = t[:, i0:i0 + _GRAM_ROWS], t[:, i0:]
        yield tb.conj().T @ rest, tb.T @ rest


def _paired_bruteforce(t: np.ndarray) -> dict:
    # mu and the mean square of F = [f_0, T, conj(T)] in blocks: <f_0, f_x>
    # = u_x, and for columns x, y of T, <f_x, f_y> = (T^H T)[x, y] =
    # conj(<f_-x, f_-y>) and <f_-x, f_y> = (T^T T)[x, y] = conj(<f_x, f_-y>).
    # So each entry of u, of T^H T above its diagonal and of T^T T off it
    # stands for 4 ordered pairs, and each diagonal entry of T^T T (the
    # pairs x, -x) for 2: 4h^2 + 2h = n(n - 1) pairs.  The real [C; S]
    # gives the halves of u and of the blocks, doubled (exactly) at the end
    m, h = t.shape
    n = 2 * h + 1
    real = not np.iscomplexobj(t)
    weight = 2.0 if real else 1.0
    u = (np.split(t, 2)[0] if real else t).sum(axis=0) / np.sqrt(m)
    mags = np.abs(u)
    mu, total = float(mags.max()), 4.0 * float(np.square(mags).sum())
    for a, b in _paired_blocks(t):
        k = a.shape[0]
        a[:, :k][np.tri(k, dtype=bool)] = 0.0
        b[:, :k][np.tri(k, k=-1, dtype=bool)] = 0.0
        # b's diagonal, counted 4 times with b, stands for 2 pairs
        for x, per_entry in ((a, 4.0), (b, 4.0), (np.diagonal(b), -2.0)):
            mags = np.abs(x)
            mu = max(mu, float(mags.max()))
            total += per_entry * float(np.square(mags, out=mags).sum())
    return {"mu": weight * mu,
            "gram_offdiag_mean_sq": weight ** 2 * total / (n * (n - 1)),
            "distinct_values": None}


def _whole_matrix(t: np.ndarray) -> np.ndarray:
    # an m x n matrix with the Gram of the paired frame t, its columns in
    # the generic order (0, x_1..x_h, -x_1..-x_h): [1/sqrt(m), T, conj(T)],
    # or for the real [C; S] sqrt(2) [Re F1; Im F1] = sqrt(2) [[c0, C, C],
    # [0, S, -S]] of the top rows F1, whose Gram 2 Re(F1^H F1) is F^H F
    m = len(t)
    if np.iscomplexobj(t):
        return np.hstack((np.full((m, 1), 1.0 / np.sqrt(m)), t, t.conj()))
    q = np.sqrt(2.0) * t
    c, s = np.split(q, 2)
    col0 = np.repeat([np.sqrt(2.0 / m), 0.0], len(c))[:, None]
    return np.hstack((col0, q, np.vstack((c, -s))))


def coherence_bruteforce(cf: ComplexFrame, census: bool = True) -> dict:
    """Gram oracle: coherence, mean squared off-diagonal, and the census
    of distinct inner products (ordered pairs i != j).

    The Gram matrix is Hermitian, so only its strict upper triangle is
    formed, _GRAM_ROWS rows at a time, and each block is reduced while it
    is in cache; the census clusters the upper-triangle values with their
    conjugates, which stand for the pairs below the diagonal.  A frame
    with paired columns forms only the blocks of T^H T and T^T T, and
    the row of column 0, each entry standing for its pairs; its census
    runs on _whole_matrix, of the same Gram.  Pass census=False to skip
    the distinct-value clustering, which dominates the cost on large
    sweeps; mu and the mean square are unaffected.
    """
    _require_normalized(cf)
    n = cf.n_cols
    if n > BRUTE_CAP:
        raise ResourceCap(f"brute force capped at {BRUTE_CAP} columns")
    if n < 2:
        raise BadShape("need at least two columns")
    if cf.paired_columns and not census:
        return _paired_bruteforce(cf.entries)
    a = _whole_matrix(cf.entries) if cf.paired_columns else cf.entries
    mu, total, filled = 0.0, 0.0, 0
    if census:
        # each value beside its conjugate, row by row, near the order of
        # the full off-diagonal: a sign frame's census at n = 4096 sorted
        # 1.5x slower as all the values followed by all the conjugates
        pairs = np.empty((n * (n - 1) // 2, 2), dtype=np.complex128)
    for block in _upper_blocks(a):
        rows = block.shape[0]
        # the diagonal and what lies below it in the leading square
        lower = np.tri(rows, dtype=bool)
        block[:, :rows][lower] = 0.0
        mags = np.abs(block)
        mu = max(mu, float(mags.max()))
        total += float((mags * mags).sum())
        if census:
            cols = np.arange(block.shape[1])
            values = block[cols > cols[:rows, None]]
            pairs[filled:filled + len(values), 0] = values
            filled += len(values)
    distinct = None
    if census:
        np.conj(pairs[:, 0], out=pairs[:, 1])
        reps, counts = cluster_complex(pairs.ravel())
        distinct = list(zip(reps.tolist(), counts.tolist()))
    return {"mu": mu, "gram_offdiag_mean_sq": 2.0 * total / (n * (n - 1)),
            "distinct_values": distinct}


def average_coherence(cf: ComplexFrame) -> float:
    """nu = max_i |sum_{j != i} <f_i, f_j>| / (n - 1)."""
    _require_normalized(cf)
    n = cf.n_cols
    if n < 2:
        raise BadShape("need at least two columns")
    t = cf.entries
    if not cf.paired_columns:
        # the conjugates of the row sums, without a conjugate copy of the
        # matrix; the moduli are the same bits
        row_sums = t.T @ t.sum(axis=1).conj()
    else:
        # s = F 1 = 1/sqrt(m) + 2 Re(T) 1 is real, so the Gram's row sums
        # are 1^T s / sqrt(m), T^H s and its conjugate T^T s, whose moduli
        # less 1 are the same; the real [C; S] stands for [T1; conj(T1)],
        # so s is twice over s1 = 1/sqrt(m) + 2 C 1 and T^T s = 2 C^T s1
        col0 = 1.0 / np.sqrt(len(t))
        if np.iscomplexobj(t):
            s = col0 + 2.0 * t.real.sum(axis=1)
            row_sums = np.append(col0 * s.sum(), t.T @ s)
        else:
            c = np.split(t, 2)[0]
            s = col0 + 2.0 * c.sum(axis=1)
            row_sums = 2.0 * np.append(col0 * s.sum(), c.T @ s)
    return float(np.max(np.abs(row_sums - 1.0)) / (n - 1))


def _paired_residual(t: np.ndarray, n_over_m: float) -> float:
    # FF* = (1/m) 1 1^T + T T^H + conj(T T^H) = 1/m + 2 Re(T T^H), real
    # symmetric, formed for rows b >= a only, a block of rows a0 <= a < a1
    # at a time.  Re(T T^H) = C C^T + S S^T for T = C + iS: one product
    # of the m x 2h float64 view of T, its parts interleaved.  For the
    # real [C; S] of T = [T1; conj(T1)], the quadrants of FF* are
    # 1/m + 2(CC^T + SS^T) at (a, b) and (a + m/2, b + m/2), and
    # 1/m + 2(CC^T - SS^T) off them
    m = len(t)
    if np.iscomplexobj(t):
        w = np.ascontiguousarray(t).view(np.float64)
        quadrants = ([block] for block in _upper_blocks(w.T))
    else:
        quadrants = _sum_and_difference(*(half.T for half in np.split(t, 2)))
    worst = 0.0
    for blocks in quadrants:
        for block in blocks:
            block *= 2.0
            block += 1.0 / m
        diag = np.arange(len(blocks[0]))
        blocks[0][diag, diag] -= n_over_m
        worst = max(worst, *(float(np.abs(block).max()) for block in blocks))
    return worst


def tightness_residual(cf: ComplexFrame) -> float:
    """max |MM* - (n/m) I|; zero(ish) iff the frame is tight.

    The blocks of the Gram matrix of M^T are conj(MM*), upper block
    triangle only, whose entries have the same moduli; a frame with
    paired columns gives MM* from the products of T's real parts."""
    _require_normalized(cf)
    m, n = len(cf.entries), cf.n_cols
    if cf.paired_columns:
        return _paired_residual(cf.entries, n / m)
    worst = 0.0
    for block in _upper_blocks(cf.entries.T):
        diag = np.arange(block.shape[0])
        block[diag, diag] -= n / m
        worst = max(worst, float(np.abs(block).max()))
    return worst


# ---------------------------------------------------------------------------
# report orchestration
# ---------------------------------------------------------------------------

@dataclass
class CoherenceReport:
    """Everything the analyzer determined about one frame.  Fields a
    construction has no value for stay None; its own keys ride in extra.
    to_dict, built from the fields, is the one report schema."""

    n: int
    m_dim: int
    mu: float
    nu: float
    welch: float
    distinct_values: list
    distinct_magnitudes: list
    gram_offdiag_mean_sq: float
    property_flags: dict
    provenance: dict
    kappa: int | None = None
    bound_general: float | None = None
    bound_m_odd: float | None = None
    bound_sqrt_kappa: float | None = None
    tightness_residual: float | None = None
    random_fourier: float | None = None
    random_fourier_window_ok: bool | None = None
    paths: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            schema_version=1,
            distinct_values=[
                {"re": float(v.real), "im": float(v.imag), "count": int(c)}
                for v, c in self.distinct_values],
            distinct_magnitudes=[
                {"value": float(v), "count": int(c)}
                for v, c in self.distinct_magnitudes],
            **out.pop("extra"))
        return out


def _magnitude_census(values, pairs):
    # the census magnitudes, clustered like the values and reported at the
    # CLUSTER_TOL grid point nearest each cluster's mean
    mags, counts = cluster_complex(np.abs(values), weights=pairs)
    grid = np.round(mags.real / CLUSTER_TOL) * CLUSTER_TOL
    return list(zip(grid.tolist(), counts.tolist()))


def _census_report(n: int, m_dim: int, mu: float, nu: float,
                   values: np.ndarray, counts: np.ndarray, scale: int = 1,
                   log_base: float | None = None,
                   mean_sq: float | None = None, kappa: int | None = None,
                   magnitudes: list | None = None,
                   **fields) -> CoherenceReport:
    # the tail every construction ends in: from the census, the distinct
    # values each taken by counts * scale ordered pairs, the magnitude
    # census (unless the caller gave its (magnitude, pair count) list),
    # the mean square (unless the Gram gave it), the Welch bound
    # and the property flags; the subgroup index kappa adds the coset-sum
    # bounds, and fields fills in the rest of the report.  scale is a
    # Python int, and the pair counts are Python ints once n(n-1) passes
    # int64, so they stay exact; such a census (SL2's) gives its magnitudes
    total = n * (n - 1)
    if int(counts.sum()) * scale != total:
        raise InvariantViolation("census multiplicities do not cover all "
                                 "ordered pairs")
    pairs = counts.astype(np.int64 if total < 2 ** 63 else object) * scale
    if mean_sq is None:
        # hypot is the correctly rounded modulus; the terms are summed left
        # to right, so every interpreter gives the same bits
        terms = pairs.astype(np.float64) \
            * np.hypot(values.real, values.imag) ** 2
        mean_sq = float(np.cumsum(terms)[-1]) / total
    if magnitudes is None:
        magnitudes = _magnitude_census(values, pairs)
    flags = coherence_properties(mu, nu, n, m_dim, log_base=log_base)
    flags["equiangular"] = len(magnitudes) == 1
    if kappa is not None:
        fields.update(bound_general=bound_general_kappa(m_dim, kappa),
                      bound_m_odd=bound_m_odd(m_dim, kappa),
                      bound_sqrt_kappa=bound_sqrt_kappa(n, m_dim, kappa))
    return CoherenceReport(
        n=n,
        m_dim=m_dim,
        mu=float(mu),
        nu=float(nu),
        welch=welch_bound(n, m_dim),
        distinct_values=list(zip(values.tolist(), pairs.tolist())),
        distinct_magnitudes=magnitudes,
        gram_offdiag_mean_sq=mean_sq,
        property_flags=flags,
        kappa=kappa,
        **fields,
    )


def _judge_gap(paths: dict, key: str, fast: float, dense: float) -> None:
    # both routes compute the same number; a gap past ROUTE_TOL is a bug
    gap = abs(fast - dense)
    paths[key] = gap
    if gap > ROUTE_TOL:
        raise InvariantViolation(f"{key} = {gap:.3g} exceeds the route "
                                 f"tolerance {ROUTE_TOL}")


def analyze(frame, brute: str = "auto",
            log_base: float | None = None) -> CoherenceReport:
    """Analyze an exponent frame; a ComplexFrame is refused.

    brute is the verification level.  When the frame carries its
    multiplier structure (multiplier_values is set), mu, nu and the
    census come from the n-1 character sums (the kappa coset sums when
    the multipliers, sorted, are the subgroup of index kappa = (n-1)/m),
    and with brute="off" nothing else runs: no matrix is materialized,
    and the tightness residual is the exact value that character
    orthogonality gives, 0 for distinct multipliers and n/m when one
    repeats.  "auto" and "on" add the dense checks on the normalized
    matrix (nu, the tightness residual, and up to BRUTE_CAP columns the
    O(n^2 m) Gram oracle for mu; "on" is an error above that cap), and
    their values are the ones reported.  Frames without multiplier
    structure (a bare sign CSV, or an exponent CSV without multipliers)
    need the Gram oracle, so where it cannot run they are refused before
    any dense work.  Where both routes ran, the gaps are recorded under
    paths, and a gap above ROUTE_TOL raises InvariantViolation.
    """
    if brute not in ("on", "off", "auto"):
        raise BadShape(f"brute must be on/off/auto, got {brute!r}")
    _check_log_base(log_base)
    if not isinstance(frame, ExponentFrame):
        raise BadShape(f"cannot analyze {type(frame).__name__}")
    m_rows, n_cols = frame.m_rows, frame.n_cols
    if n_cols < 2:
        raise BadShape("need at least two columns to measure coherence")

    structured = frame.multiplier_values is not None
    fits = m_rows * n_cols <= COMPLEX_CELL_CAP
    if brute == "on" and n_cols > BRUTE_CAP:
        raise ResourceCap(f"brute force requested for n = {n_cols} "
                          f"> {BRUTE_CAP}")
    if brute == "on" and not fits:
        raise ResourceCap("frame too large to materialize for brute force")
    run_brute = brute == "on" or (brute == "auto" and n_cols <= BRUTE_CAP
                                  and fits)
    if not (structured or run_brute):
        raise BadShape("no analysis path available: frame carries no "
                       "multiplier structure and brute force did not run")

    paths: dict = {}
    reps = counts = scale = None
    kappa = fast_mu = fast_nu = tightness = None
    if structured:
        # the multipliers are the subgroup of index kappa, every kappa-th
        # power of g, in any order: c at log z is periodic with period
        # kappa, so its first period, each value taken by n(n-1)/period
        # ordered pairs, is the census
        ctx, mv = frame.ctx, frame.multiplier_values
        kappa = (n_cols - 1) // m_rows
        if kappa * m_rows == n_cols - 1 and np.array_equal(
                np.sort(mv), np.sort(ctx.value_of_exp[::kappa])):
            values = coset_sums(ctx, kappa)
            paths["census_source"] = "coset-sums"
        else:
            kappa = None
            values = multiplier_sums(ctx, mv)
            paths["census_source"] = "multiplier-sums"
        period = len(values)
        fast_mu = float(np.max(np.abs(values)))
        fast_nu = float(abs(values.sum() * ((n_cols - 1) // period))
                        / (n_cols - 1))
        reps, counts = cluster_complex(values)
        scale = n_cols * (n_cols - 1) // period
        paths["mu_fast"] = fast_mu
        paths["nu_fast"] = fast_nu
        # (FF*)[a, b] = (1/m) sum_x w**Tr((a - b) x) = (n/m) [a = b]
        distinct = len(np.unique(mv)) == m_rows
        tightness = 0.0 if distinct else n_cols / m_rows

    cf = materialize(frame) if brute != "off" and fits else None
    nu = fast_nu
    if cf is not None:
        nu = average_coherence(cf)
        tightness = tightness_residual(cf)
        paths["nu_bruteforce"] = nu
        if structured:
            _judge_gap(paths, "nu_gap", fast_nu, nu)

    mu, mean_sq = fast_mu, None
    if run_brute:
        bf = coherence_bruteforce(cf, census=not structured)
        mu, mean_sq = bf["mu"], bf["gram_offdiag_mean_sq"]
        paths["mu_bruteforce"] = mu
        if structured:
            _judge_gap(paths, "mu_gap", fast_mu, mu)
        else:
            reps, counts = (np.array(x)
                            for x in zip(*bf["distinct_values"]))
            scale = 1
            paths["census_source"] = "gram"

    return _census_report(
        n_cols, m_rows, mu, nu, reps, counts, scale, log_base=log_base,
        mean_sq=mean_sq, kappa=kappa,
        tightness_residual=tightness, provenance=dict(frame.provenance),
        random_fourier=random_fourier_bound(n_cols, m_rows),
        random_fourier_window_ok=random_fourier_window(n_cols, m_rows),
        paths=paths)
