"""Frame construction from additive characters of GF(p**r).

A frame here is an m x n matrix whose columns are indexed by the n field
elements (zero first, then ascending powers of the canonical generator)
and whose rows are the characters x -> w**Tr(ax) for a chosen list of
multipliers a, with w the primitive p-th root of unity.  Choosing the
multipliers to be the order-m subgroup of the unit group gives the group
frames; choosing them at random gives the seeded baselines.  A frame
holds the multipliers alone, not the subgroup they may form, and is
frozen once checked.  Entries are stored as exponents of w, whatever the
construction, and materialized only for the dense checks: every CSV, the
complex one too, is written from the exponents (a Hadamard sign row is
w**exps = 1 - 2 exps).  Each row is an additive character, so for odd p
the column of -x conjugates the column of x, and the dense checks read
only the columns of x = g**j, j < (n-1)/2; where the rows pair as well
(m even, -1 a multiplier), they read a real factor of those.  A
subgroup's rows run in power order, so multiplying the columns by
g**kappa cycles the rows; where the cells prove it, the dense checks
read the Gram rows of columns 0..kappa and row 0 of the frame operator.
Only the Gram census reads a whole m x n matrix, one with the same Gram.
Frames hold read-only arrays.
"""

from __future__ import annotations

import json
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BadShape,
    ContextMismatch,
    NotPrime,
    ResourceCap,
    TooManyRows,
    ValidationError,
)
from .gf import FieldCtx, build_field, field_size, is_prime, subgroup_of_order

EXP_CELL_CAP = 2 ** 28
COMPLEX_CELL_CAP = 2 ** 26

RNG_NAME = "numpy.random.default_rng(PCG64)"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _hold_read_only(frame, name: str) -> None:
    # a frame holds read-only arrays: one a caller can still write to is
    # copied, so that no alias changes the cells after the checks; the
    # builders hand over arrays already read-only, without a copy
    a = getattr(frame, name)
    if a is not None and (not isinstance(a, np.ndarray) or a.flags.writeable):
        object.__setattr__(frame, name, _read_only(np.array(a)))


@dataclass(frozen=True)
class ExponentFrame:
    """Frame stored as integer exponents of the p-th root of unity; with
    multiplier_values a_i (and ctx) set, row i is x -> Tr(a_i x) over F_q.
    Frozen, with read-only arrays, so the checks here hold for the frame's
    life; they take constant time, and materialize checks that the cells
    lie in [0, p)."""

    p: int
    exps: np.ndarray = field(repr=False)
    provenance: dict
    ctx: FieldCtx | None = None
    multiplier_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        exps, ctx, mv = self.exps, self.ctx, self.multiplier_values
        if not (isinstance(exps, np.ndarray) and exps.ndim == 2
                and exps.dtype.kind in "iu"):
            raise BadShape("exps must be a 2-D integer array")
        # a Python int prime within SIZE_CAP, as in load_frame
        object.__setattr__(self, "p", field_size(self.p, 1))
        for name in ("exps", "multiplier_values"):
            _hold_read_only(self, name)
        if self.m_rows < 1:
            raise BadShape("a frame needs at least one row")
        if ctx is not None and ctx.p != self.p:
            raise ContextMismatch(f"context {ctx.ctx_id} is not over "
                                  f"GF({self.p})")
        if mv is None:
            return
        if len(mv) != self.m_rows:
            raise BadShape(f"{len(mv)} multipliers for {self.m_rows} rows")
        if ctx is None or self.n_cols != ctx.n:
            raise ContextMismatch("multipliers need the field context of "
                                  "the frame's n columns")

    @property
    def m_rows(self) -> int:
        return self.exps.shape[0]

    @property
    def n_cols(self) -> int:
        return self.exps.shape[1]


@dataclass(frozen=True)
class ComplexFrame:
    """The dense kernels' matrix; columns have unit norm when normalized.

    With paired_columns set, the frame is F = [1/sqrt(m), T, conj(T)] by
    columns, n = 2h + 1 for T of width h: its column 0 is constant and
    its last h columns conjugate the h before them, so entries holds T
    alone.  entries is T itself when complex; when real, the rows pair
    too, T = [T1; conj(T1)], and entries is [Re T1; Im T1], m x h.

    With orbit = kappa set, m = (n-1)/kappa, column 0 is constant and
    column 1 + (c + kappa) mod (n-1) is column 1 + c with its rows cycled
    up by one, whatever the layout.  An inner product sums over the rows,
    which the cycle leaves unchanged, so the Gram matrix is fixed by a
    shift of kappa nonzero columns; the shift permutes the columns, so
    FF*[i+1, j+1] = FF*[i, j]: the frame operator is circulant."""

    entries: np.ndarray = field(repr=False)
    normalized: bool
    paired_columns: bool = False
    orbit: int | None = None

    def __post_init__(self):
        if np.ndim(self.entries) != 2:
            raise BadShape("entries must be a 2-D array")
        _hold_read_only(self, "entries")
        if len(self.entries) < 1:
            raise BadShape("a frame needs at least one row")
        if (self.paired_columns and not np.iscomplexobj(self.entries)
                and len(self.entries) % 2):
            raise BadShape("a real factor of paired rows needs m even")
        if self.orbit is not None and not 0 < 2 * self.orbit < self.n_cols:
            raise BadShape(f"orbit {self.orbit} is not in [1, (n-1)/2]")

    @property
    def n_cols(self) -> int:
        width = self.entries.shape[1]
        return 2 * width + 1 if self.paired_columns else width


def roots_of_unity(p: int) -> np.ndarray:
    """The p complex p-th roots of unity; exact +-1 for p = 2."""
    if p == 2:
        return np.array([1.0 + 0.0j, -1.0 + 0.0j])
    return np.exp(2j * np.pi * np.arange(p) / p)


def _check_cells(m: int, n: int, cap: int):
    if m * n > cap:
        raise ResourceCap(f"{m} x {n} matrix exceeds cell cap {cap}")


def _check_range(exps: np.ndarray, p: int, where: str = "") -> None:
    # one max pass: viewed as unsigned, a negative cell is at least
    # 2**(bits - 1), past every value the signed type holds
    cells = exps.view(f"u{exps.dtype.itemsize}")
    limit = min(p, np.iinfo(exps.dtype).max + 1)
    if int(cells.max(initial=0)) >= limit:
        i, j = (int(v) for v in np.argwhere(cells >= limit)[0])
        raise BadShape(f"{where}exponent at (row {i}, column {j}) is "
                       f"{int(exps[i, j])}, outside [0, {p})")


def _exponent_rows(ctx: FieldCtx, multiplier_values) -> np.ndarray:
    """exps[i][j] = Tr(a_i x_j) with x_0 = 0 and x_j = g**(j-1).

    With k = log a, Tr(a g**(j-1)) = trace_of_exp[(k + j - 1) mod (n-1)],
    so each nonzero row is the trace table cyclically shifted by k: a
    window of the trace table written twice.
    """
    mv = np.asarray(multiplier_values, dtype=np.int64)
    m, n, order = len(mv), ctx.n, ctx.n - 1
    _check_cells(m, n, EXP_CELL_CAP)
    exps = np.zeros((m, n), dtype=ctx.coeff_dtype)
    trace = ctx.trace_of_exp
    windows = sliding_window_view(np.concatenate((trace, trace[:-1])), order)
    tgt = np.flatnonzero(mv != 0)
    logs = ctx.log_of_value[mv[tgt]]
    block = max(1, (2 ** 24) // max(order, 1))
    for i0 in range(0, len(logs), block):
        exps[tgt[i0:i0 + block], 1:] = windows[logs[i0:i0 + block]]
    return _read_only(exps)


def _base_provenance(ctx: FieldCtx) -> dict:
    return {
        "p": ctx.p,
        "r": ctx.r,
        "n": ctx.n,
        "modulus": [int(c) for c in ctx.modulus],
        "generator_value": int(ctx.generator.value),
        "column_order": "zero-then-generator-powers",
    }


def _resolve_ctx(p: int, r: int, ctx: FieldCtx | None) -> FieldCtx:
    if ctx is None:
        return build_field(p, r)
    if ctx.p != p or ctx.r != r:
        raise ContextMismatch(f"context {ctx.ctx_id} is not GF({p}^{r})")
    return ctx


def build_field_frame(p: int, r: int, m: int,
                      ctx: FieldCtx | None = None) -> ExponentFrame:
    """Group frame: rows indexed by the order-m unit subgroup."""
    ctx = _resolve_ctx(p, r, ctx)
    kappa, members = subgroup_of_order(ctx, m)
    exps = _exponent_rows(ctx, members)
    prov = _base_provenance(ctx)
    prov.update({
        "construction": "field-subgroup",
        "m": m,
        "kappa": kappa,
        "row_order": "subgroup-power-order",
    })
    return ExponentFrame(p=p, exps=exps, provenance=prov, ctx=ctx,
                         multiplier_values=members)


def build_harmonic_frame(n: int, m: int) -> ExponentFrame:
    """Prime-field special case: m rows of the n x n DFT matrix."""
    if not is_prime(n):
        raise NotPrime(f"harmonic frames need n prime, got {n}")
    f = build_field_frame(n, 1, m)
    f.provenance["construction"] = "harmonic"
    return f


def dual_basis_keys(ctx: FieldCtx, multiplier_values) -> np.ndarray:
    """key(a) = sum_j Tr(a t**j) p**j for each multiplier a, as int64.

    The digits Tr(a t**j) are the coordinates of a in the basis dual to
    1, t, ..., t**(r-1) under the trace form, so Tr(az) = sum_j z_j
    Tr(a t**j) for z = sum_j z_j t**j: the character x -> w**Tr(ax) is
    row key(a) of the character table of (Z_p)**r, whose columns are the
    packed values.  For p = 2 that table is the Sylvester-Hadamard matrix.
    The zero multiplier has key 0.
    """
    mv = np.asarray(multiplier_values, dtype=np.int64)
    order = ctx.n - 1
    logs = ctx.log_of_value[mv].astype(np.int64)
    keys = np.zeros(len(mv), dtype=np.int64)
    for j in range(ctx.r):
        # t**j has packed value p**j
        shift = int(ctx.log_of_value[ctx.p ** j])
        digit = ctx.trace_of_exp[(logs + shift) % order].astype(np.int64)
        keys += ctx.p ** j * digit
    keys[mv == 0] = 0
    return keys


def _with_sylvester_rows(ef: ExponentFrame,
                         construction: str) -> ExponentFrame:
    ef.provenance.update({
        "construction": construction,
        "sylvester_rows": dual_basis_keys(ef.ctx,
                                          ef.multiplier_values).tolist(),
    })
    return ef


def build_hadamard_frame(r: int, m: int,
                         ctx: FieldCtx | None = None) -> ExponentFrame:
    """Rows of the 2**r Sylvester-Hadamard matrix picked by the order-m
    subgroup of GF(2**r)*; the Sylvester row labels are in provenance."""
    return _with_sylvester_rows(build_field_frame(2, r, m, ctx=ctx),
                                "hadamard-rows")


def _draw_multipliers(n: int, m: int, seed: int, bernoulli: bool):
    if seed < 0:
        raise BadShape(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if bernoulli:
        mask = rng.random(n) < m / n
        values = np.flatnonzero(mask).astype(np.int64)
        if len(values) == 0:
            raise BadShape("bernoulli draw selected zero rows; use another "
                           "seed or a larger m")
        mode = "bernoulli-rate-m-over-n"
    else:
        if m > n:
            raise TooManyRows(f"cannot draw {m} distinct multipliers from {n}")
        values = rng.choice(n, size=m, replace=False).astype(np.int64)
        mode = "without-replacement-draw-order"
    return values, mode


def build_random_exponent_frame(p: int, r: int, m: int, seed: int,
                                ctx: FieldCtx | None = None,
                                bernoulli: bool = False) -> ExponentFrame:
    """Seeded baseline: m rows of the full character table chosen at
    random (uniform multipliers, zero allowed)."""
    if m < 1:
        raise BadShape(f"need m >= 1, got {m}")
    ctx = _resolve_ctx(p, r, ctx)
    values, mode = _draw_multipliers(ctx.n, m, seed, bernoulli)
    exps = _exponent_rows(ctx, values)
    prov = _base_provenance(ctx)
    prov.update({
        "construction": "random-multipliers",
        "m": int(len(values)),
        "m_requested": m,
        "seed": seed,
        "rng": RNG_NAME,
        "sampling": mode,
        "multiplier_values": [int(v) for v in values],
    })
    return ExponentFrame(p=p, exps=exps, provenance=prov, ctx=ctx,
                         multiplier_values=values)


def build_random_hadamard_frame(r: int, m: int, seed: int,
                                ctx: FieldCtx | None = None,
                                bernoulli: bool = False) -> ExponentFrame:
    """Seeded baseline: random rows of the 2**r Sylvester-Hadamard matrix."""
    return _with_sylvester_rows(
        build_random_exponent_frame(2, r, m, seed, ctx=ctx,
                                    bernoulli=bernoulli),
        "random-hadamard-rows")


def _entry_values(frame: ExponentFrame, normalize: bool = True):
    # w**k for each exponent k, over sqrt(m) when normalized: the same
    # division per entry as scaling the gathered matrix
    roots = roots_of_unity(frame.p)
    return roots / np.sqrt(frame.m_rows) if normalize else roots


# cells per block of the conjugate-halves and orbit checks in materialize
_HALVES_BLOCK = 2 ** 16


def _negates(top: np.ndarray, bottom: np.ndarray, p: int) -> bool:
    """Whether bottom is top negated mod p, cell for cell, compared a
    block of rows at a time in the exponents' own dtype."""
    negated = ((p - np.arange(p)) % p).astype(top.dtype)
    rows = max(1, _HALVES_BLOCK // top.shape[1])
    return all(np.array_equal(np.take(negated, top[i:i + rows]),
                              bottom[i:i + rows])
               for i in range(0, len(top), rows))


def _orbit(exps: np.ndarray) -> int | None:
    # kappa = (n-1)/m where column 0 is constant and exps[i, 1 + (c +
    # kappa) mod (n-1)] == exps[(i + 1) mod m, 1 + c] for every cell, as
    # for the rows x -> Tr(g**(kappa i) x) of a subgroup, compared a block
    # of rows at a time; else None, and for one column (no orbit) or
    # m < 4, where the orbit rows are no fewer than the blocked kernels'
    # (2 kappa h against h**2)
    m, n = exps.shape
    kappa = (n - 1) // m
    if (m < 4 or kappa < 1 or kappa * m != n - 1
            or (exps[:, 0] != exps[0, 0]).any()):
        return None
    e, rows = exps[:, 1:], max(1, _HALVES_BLOCK // n)
    pairs = [(e[i:min(i + rows, m - 1)], e[i + 1:i + 1 + rows])
             for i in range(0, m - 1, rows)] + [(e[-1:], e[:1])]
    return kappa if all(np.array_equal(a[:, kappa:], b[:, :-kappa])
                        and np.array_equal(a[:, :kappa], b[:, -kappa:])
                        for a, b in pairs) else None


def materialize(frame: ExponentFrame) -> ComplexFrame:
    """The dense kernels' matrix: the entries w**exps over sqrt(m), whose
    columns have unit norm, decided from the cells alone.

    For p = 2 it is the signs over sqrt(m), real.  For odd p, column 0
    holds x = 0 and column j + h the negation of column j's x, h being
    (n-1)/2, -1 = g**h: every row being a character, e_a(-x) = conj(e_a(x))
    and the cells negate.  Where they do, and column 0 is all zeros, the
    frame is [1/sqrt(m), T, conj(T)], and entries is T = the columns
    1..h, with paired_columns set.  Where T's bottom half of rows also
    negates its top half T1 (every subgroup frame with m even: its members
    g**(kappa i) run in power order and -1 = g**(kappa m/2)), entries is
    the real [Re T1; Im T1].  Every other frame (a bare CSV cut to fewer
    columns, a changed cell) is the complex m x n matrix.  Whatever the
    layout, orbit is kappa where the cells prove that multiplying the
    columns by g**kappa cycles the rows (_orbit), else None.
    """
    if not isinstance(frame, ExponentFrame):
        raise BadShape(f"cannot materialize {type(frame).__name__}")
    p, m, n, exps = frame.p, frame.m_rows, frame.n_cols, frame.exps
    _check_cells(m, n, COMPLEX_CELL_CAP)
    _check_range(exps, p)
    values = _entry_values(frame)
    h, half = n // 2, m // 2
    top = exps[:, 1:1 + h]
    paired = bool(p != 2 and n % 2 and h and not exps[:, 0].any()
                  and _negates(top, exps[:, 1 + h:], p))
    if p == 2:
        entries = values.real[exps]
    elif not paired:
        entries = values[exps]
    elif m % 2 or not _negates(top[:half], top[half:], p):
        entries = values[top]
    else:
        entries = np.empty((m, h))
        # the exponents lie in [0, p), checked above: a take that need not
        # check them writes straight into entries
        np.take(values.real, top[:half], out=entries[:half], mode="clip")
        np.take(values.imag, top[:half], out=entries[half:], mode="clip")
    return ComplexFrame(_read_only(entries), normalized=True,
                        paired_columns=paired, orbit=_orbit(exps))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

# cells encoded per chunk of _write_cells: a chunk may end inside a row,
# and its temporaries stay under 13 MiB (8 + 3 w bytes a cell, w <= 64)
_ENCODE_CHUNK = 2 ** 16

# the sign CSV's words, indexed by exponent: w**0 = 1 and w**1 = -1
_SIGN_WORDS = np.frombuffer(b"\0\0" b"1," b"\0-1,", dtype="V4")


def _digit_words(p: int) -> np.ndarray:
    """Word k is the %d text of k and a comma, right-aligned in NUL bytes,
    for k in [0, p): one void scalar per k, all of a power-of-two width."""
    digits = len(str(p - 1))
    width = 1 << digits.bit_length()
    words = np.zeros((p, width), dtype=np.uint8)
    words[:, -1] = ord(",")
    values = np.arange(p, dtype=np.min_scalar_type(p - 1))
    for i in range(digits):
        # a value below 10**i has no digit i: its byte stays NUL
        low = 10 ** i if i else 0
        words[low:, width - 2 - i] = values[low:] // 10 ** i % 10 + ord("0")
    return words.view(f"V{width}").ravel()


def _complex_words(values: np.ndarray) -> np.ndarray:
    """Word k is the %.17g text of the real and of the imaginary part of
    values[k], each with a comma (at most 2 x 25 bytes), right-aligned in
    NUL bytes to the power-of-two width of the longest word; formatted a
    block at a time, so that the table is the only large array."""
    words = np.zeros((len(values), 64), dtype=np.uint8)
    for start in range(0, len(values), _ENCODE_CHUNK):
        block = values[start:start + _ENCODE_CHUNK].tolist()
        words[start:start + len(block)] = np.frombuffer(b"".join(
            [(b"%.17g,%.17g," % (z.real, z.imag)).rjust(64, b"\0")
             for z in block]), dtype=np.uint8).reshape(-1, 64)
    # the longest word starts at the first column that is not all NUL
    width = 1 << (63 - int(words.any(axis=0).argmax())).bit_length()
    return words[:, 64 - width:].copy().view(f"V{width}").ravel()


def _write_cells(fhs, cells: np.ndarray, words: np.ndarray) -> None:
    """Write the integer matrix cells as CSV text to each binary file in
    fhs, row after row; words[x] is the text of a cell x and a comma,
    right-aligned in NUL bytes (_digit_words, _SIGN_WORDS, _complex_words).

    The text is the same as formatting each cell on its own, joining a
    row with commas and ending it with a newline.  It is encoded once, a
    flat chunk of cells at a time: one gather of words per cell, a
    newline for the comma that ends a row, and the NUL padding dropped
    when the words' texts differ in length.
    """
    n = cells.shape[1]
    flat = cells.reshape(-1)
    width = words.dtype.itemsize
    padded = not words.view(np.uint8)[::width].all()
    for start in range(0, flat.size, _ENCODE_CHUNK):
        text = np.take(words, flat[start:start + _ENCODE_CHUNK]).view(
            np.uint8)
        ends = np.arange((n - 1 - start) % n, len(text) // width, n)
        text[ends * width + width - 1] = ord("\n")
        if padded:
            text = text[text != 0]
        for fh in fhs:
            fh.write(text)


def save_exponent_csv(frame: ExponentFrame, path: str, *copies: str) -> None:
    """CSV of integer exponents with a JSON header line (leading '#'),
    written to path and to each of copies; the text is formatted once."""
    header = {
        "format": "exponent-frame/1",
        "p": frame.p,
        "m_rows": frame.m_rows,
        "n_cols": frame.n_cols,
        "full_columns": frame.multiplier_values is not None,
    }
    for key in ("r", "modulus", "generator_value", "m", "seed",
                "construction", "column_order"):
        if key in frame.provenance:
            header[key] = frame.provenance[key]
    if frame.multiplier_values is not None:
        header["multiplier_values"] = [int(v) for v in frame.multiplier_values]
    line = ("# " + json.dumps(header, sort_keys=True) + "\n").encode("ascii")
    with ExitStack() as stack:
        fhs = [stack.enter_context(open(p, "wb")) for p in (path, *copies)]
        for fh in fhs:
            fh.write(line)
        _write_cells(fhs, frame.exps, _digit_words(frame.p))


def save_sign_csv(frame: ExponentFrame, path: str) -> None:
    """Plain CSV of the +-1 entries 1 - 2 exps of a p = 2 frame, one row
    per line."""
    if frame.p != 2:
        raise BadShape(f"sign CSV needs p = 2, got p = {frame.p}")
    with open(path, "wb") as fh:
        _write_cells([fh], frame.exps, _SIGN_WORDS)


def save_complex_csv(frame: ExponentFrame, path: str,
                     normalize: bool = True) -> None:
    """CSV of the entries w**exps, over sqrt(m) when normalized, as
    alternating re,im columns at 17 significant digits."""
    _check_cells(frame.m_rows, frame.n_cols, COMPLEX_CELL_CAP)
    with open(path, "wb") as fh:
        _write_cells([fh], frame.exps,
                     _complex_words(_entry_values(frame, normalize)))


def _check_stored_rows(stored: np.ndarray, expected: np.ndarray) -> None:
    # the analysis trusts the header's multipliers, so the stored exponents
    # must be exactly the rows those multipliers give
    if stored.shape != expected.shape:
        raise ContextMismatch(f"stored frame is {stored.shape[0]} x "
                              f"{stored.shape[1]}, header gives "
                              f"{expected.shape[0]} x {expected.shape[1]}")
    bad = np.argwhere(stored != expected)
    if len(bad):
        i, j = (int(v) for v in bad[0])
        raise ContextMismatch(f"stored exponent at (row {i}, column {j}) is "
                              f"{int(stored[i, j])}, header gives "
                              f"{int(expected[i, j])}")


def _first_bad_line(path: str, first_line: int) -> str | None:
    # np.loadtxt counts data rows, not file lines: find the line it
    # stopped at, splitting cells as it does
    width = None
    with open(path, errors="replace") as fh:
        for no, line in enumerate(fh, 1):
            cells = line.split("#")[0].strip().split(",")
            if no < first_line or cells == [""]:
                continue
            for cell in cells:
                try:
                    int(cell)
                except ValueError:
                    return f"line {no}: {cell.strip()!r} is not an integer"
            if width not in (None, len(cells)):
                return f"line {no}: {len(cells)} cells, earlier lines {width}"
            width = len(cells)
    return None


def _read_cells(fh, path: str, first_line: int) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file warns; it is refused below
            warnings.simplefilter("ignore", UserWarning)
            cells = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError as exc:
        raise ValidationError(
            f"{path}: {_first_bad_line(path, first_line) or exc}") from None
    if cells.size == 0:
        raise ValidationError(f"{path}: no frame cells")
    return _read_only(cells)


def _header_int(header: dict, key: str, path: str) -> int:
    value = header.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: header needs an integer {key!r}, "
                              f"got {value!r}")
    return value


def load_frame(path: str):
    """Read back an exponent CSV (with header) or a bare sign CSV.

    Exponent frames whose header carries the field parameters are
    reattached to a freshly built context.  When the header also marks
    full columns and names the multipliers, they are attached so the
    exact analysis paths work, and the stored exponents must equal the
    rows they give, or ContextMismatch names the first cell that differs;
    otherwise the frame takes the dense route.  The header keys a report
    repeats (m_rows, n_cols, m, modulus, generator_value, and the
    multiplier_values of a subgroup) must match the stored cells and the
    rebuilt field, or ContextMismatch names the key.  A bare sign CSV
    becomes a p = 2 frame without field context, which only supports the
    brute-force path.  A file that cannot be read or parsed raises
    ValidationError naming the line or header key at fault.
    """
    try:
        # frame files are ASCII, and np.loadtxt can crash the interpreter
        # on some other code points: they never reach it
        with open(path, encoding="ascii") as fh:
            first = fh.readline()
            if not first.startswith("#"):
                fh.seek(0)
                data = _read_cells(fh, path, 1)
                if not np.all(np.isin(data, (-1, 1))):
                    raise BadShape(f"{path}: bare CSV must contain only +-1 "
                                   f"entries")
                return ExponentFrame(
                    p=2, exps=_read_only(((1 - data) // 2).astype(np.uint8)),
                    provenance={"construction": "loaded-sign-csv"})
            header = json.loads(first[1:])
            if not isinstance(header, dict):
                raise ValidationError(f"{path}: line 1: header is not a "
                                      f"JSON object")
            exps = _read_cells(fh, path, 2)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line 1: header is not valid JSON "
                              f"({exc.msg})") from None
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not an ASCII text file") from None
    p = _header_int(header, "p", path)
    # the checks build_field makes, also for a frame without "r"
    field_size(p, _header_int(header, "r", path) if "r" in header else 1)
    _check_range(exps, p, f"{path}: ")
    # the report repeats the header as its provenance, so each of these
    # keys the file carries must be what the cells and the field give,
    # compared as JSON text so that true does not pass for 1
    repeated = {"m_rows": exps.shape[0], "n_cols": exps.shape[1],
                "m": exps.shape[0]}
    ctx = mv = None
    if "r" in header:
        ctx = build_field(p, _header_int(header, "r", path))
        repeated.update(modulus=list(ctx.modulus),
                        generator_value=ctx.generator.value)
    if ctx is not None and header.get("full_columns"):
        if header.get("construction") in ("field-subgroup", "harmonic",
                                          "hadamard-rows"):
            mv = subgroup_of_order(ctx, _header_int(header, "m", path))[1]
            repeated["multiplier_values"] = mv.tolist()
        elif "multiplier_values" in header:
            mv = header["multiplier_values"]
            if not (isinstance(mv, list) and mv and all(
                    type(v) is int and 0 <= v < ctx.n for v in mv)):
                raise BadShape(f"multiplier_values must be a list of "
                               f"field values in [0, {ctx.n})")
            mv = np.array(mv, dtype=np.int64)
        if mv is not None:
            _check_stored_rows(exps, _exponent_rows(ctx, mv))
    for key, want in repeated.items():
        if key in header and json.dumps(header[key]) != json.dumps(want):
            raise ContextMismatch(f"{path}: header {key} does not match "
                                  f"the stored frame and its field")
    return ExponentFrame(p=p, exps=exps, provenance=header, ctx=ctx,
                         multiplier_values=mv)
