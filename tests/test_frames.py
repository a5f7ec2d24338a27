"""Frame construction, materialization, and file round trips."""

import dataclasses
import json
import os

import numpy as np
import pytest

from groupframes import frames
from groupframes.coherence import (
    analyze,
    coherence_bruteforce,
    inner_product_exact,
    tightness_residual,
)
from groupframes.errors import (
    BadShape,
    ContextMismatch,
    DegreeTooLarge,
    NotPrime,
    TooManyRows,
)
from groupframes.frames import (
    ComplexFrame,
    ExponentFrame,
    _draw_multipliers,
    _exponent_rows,
    build_field_frame,
    build_hadamard_frame,
    build_harmonic_frame,
    build_random_exponent_frame,
    build_random_hadamard_frame,
    dual_basis_keys,
    load_frame,
    materialize,
    roots_of_unity,
    save_complex_csv,
    save_exponent_csv,
    save_sign_csv,
)
from groupframes.gf import build_field, is_prime, subgroup_of_order
from oracles import (
    complex_csv_per_row,
    complex_oracle_frame,
    csv_rows_per_row,
    mul,
    sylvester_row_labels,
    trace,
)


def modulo_gather_rows(ctx, multiplier_values):
    """Oracle for _exponent_rows: an explicit (log a + j) mod (n-1) index
    for every cell, gathered from the trace table."""
    mv = np.asarray(multiplier_values, dtype=np.int64)
    m, n, order = len(mv), ctx.n, ctx.n - 1
    exps = np.zeros((m, n), dtype=ctx.coeff_dtype)
    nonzero = mv != 0
    logs = ctx.log_of_value[mv[nonzero]]
    cols = np.arange(order, dtype=np.int64)
    idx = (logs[:, None] + cols[None, :]) % order
    exps[np.flatnonzero(nonzero), 1:] = ctx.trace_of_exp[idx]
    return exps


def assert_rows_match_oracle(ctx, mv):
    got = _exponent_rows(ctx, mv)
    want = modulo_gather_rows(ctx, mv)
    assert got.dtype == want.dtype == ctx.coeff_dtype
    assert np.array_equal(got, want), (ctx.p, ctx.r, list(mv[:8]))


def test_exponent_rows_match_oracle_on_subgroups():
    # every subgroup of every field with n <= 1024
    cases = 0
    for n in range(2, 1025):
        p = next(d for d in range(2, n + 1) if n % d == 0)
        r = round(np.log(n) / np.log(p))
        if p ** r != n:
            continue
        ctx = build_field(p, r)
        order = n - 1
        for m in [d for d in range(1, order + 1) if order % d == 0]:
            assert_rows_match_oracle(ctx, subgroup_of_order(ctx, m)[1])
            cases += 1
    assert cases == 2162


def bernoulli_draw_with_zero(n, m):
    # the first seeded Bernoulli(m/n) draw that selects the zero multiplier
    for seed in range(100):
        try:
            mv, _ = _draw_multipliers(n, m, seed, True)
        except BadShape:  # a draw that selected no row
            continue
        if mv[0] == 0:
            return mv
    raise AssertionError(f"no draw with zero for n = {n}, m = {m}")


def test_exponent_rows_match_oracle_on_lists():
    rng = np.random.default_rng(7)
    for p, r in [(2, 1), (2, 9), (3, 1), (3, 5), (7, 3), (257, 1),
                 (65537, 1)]:
        ctx = build_field(p, r)
        for m in (1, 5, 40):
            # repeats allowed
            assert_rows_match_oracle(ctx, rng.integers(0, ctx.n, size=m))
        if ctx.n <= 343:
            mv = bernoulli_draw_with_zero(ctx.n, ctx.n // 3 + 1)
            assert mv[0] == 0
            assert_rows_match_oracle(ctx, mv)
        assert_rows_match_oracle(
            ctx, np.array([0, 1, ctx.n - 1, 0, 1], dtype=np.int64))


def test_trivial_prime_field_row():
    f = build_field_frame(3, 1, 1)
    assert f.exps.shape == (1, 3)
    assert f.exps[0].tolist() == [0, 1, 2]


def test_f7_rows_by_hand():
    # columns ordered [0, g^0, g^1, ...] with g = 3; rows are a*x mod 7
    f = build_field_frame(7, 1, 3)
    cols = [0, 1, 3, 2, 6, 4, 5]
    assert f.multiplier_values.tolist() == [1, 2, 4]
    for i, a in enumerate([1, 2, 4]):
        assert f.exps[i].tolist() == [(a * x) % 7 for x in cols]


def test_field_frame_shape_and_range():
    f = build_field_frame(3, 3, 13)
    assert f.exps.shape == (13, 27)
    assert f.exps.min() == 0 and f.exps.max() <= 2
    assert f.provenance["construction"] == "field-subgroup"
    assert f.provenance["kappa"] == analyze(f, brute="off").kappa == 2
    assert np.array_equal(f.multiplier_values,
                          subgroup_of_order(f.ctx, 13)[1])


def test_rows_distinct():
    for f in (build_field_frame(3, 3, 13), build_field_frame(7, 1, 3)):
        rows = {tuple(int(e) for e in row) for row in f.exps}
        assert len(rows) == f.m_rows


def test_harmonic_frame():
    f = build_harmonic_frame(499, 166)
    assert f.exps.shape == (166, 499)
    assert f.provenance["construction"] == "harmonic"
    with pytest.raises(NotPrime):
        build_harmonic_frame(500, 100)


def test_hadamard_sylvester_oracle():
    # row labels and column values must index into the Sylvester matrix
    # H[i, j] = (-1)^popcount(i & j)
    for r, m in [(2, 3), (3, 7), (4, 5)]:
        sm = build_hadamard_frame(r, m)
        assert isinstance(sm, ExponentFrame) and sm.p == 2
        labels = sm.provenance["sylvester_rows"]
        ctx = build_field(2, r)
        col_values = np.concatenate([[0], ctx.value_of_exp])
        for i, lab in enumerate(labels):
            expect = [(-1) ** bin(lab & int(v)).count("1")
                      for v in col_values]
            assert (1 - 2 * sm.exps[i].astype(int)).tolist() == expect


def test_dual_basis_keys_reproduce_sylvester_labels():
    rng = np.random.default_rng(4)
    for r in (1, 2, 5, 9, 12):
        ctx = build_field(2, r)
        mv = rng.integers(0, ctx.n, size=50)
        mv[0] = 0
        assert dual_basis_keys(ctx, mv).tolist() \
            == sylvester_row_labels(ctx, mv)


def test_dual_basis_keys_give_the_trace_form():
    # Tr(az) = sum_j key(a)_j z_j (mod p) over the base-p digits of key(a)
    # and of the packed value of z
    rng = np.random.default_rng(5)
    for p, r in [(2, 6), (3, 4), (5, 3), (7, 2), (257, 2), (65537, 1)]:
        ctx = build_field(p, r)
        a = rng.integers(0, ctx.n, size=30)
        z = rng.integers(0, ctx.n, size=30)
        keys = dual_basis_keys(ctx, a)
        for ai, zi, key in zip(a.tolist(), z.tolist(), keys.tolist()):
            dot = sum((key // p ** j % p) * (zi // p ** j % p)
                      for j in range(r))
            assert dot % p == trace(ctx, mul(ctx, ai, zi)), (p, r, ai, zi)


def test_hadamard_rows_nonconstant():
    sm = build_hadamard_frame(2, 3)
    assert sm.exps.shape == (3, 4)
    for row in 1 - 2 * sm.exps.astype(int):
        assert row.sum() == 0  # nontrivial characters balance


def test_sign_to_exponent_conversion(tmp_path):
    # a Hadamard frame is the p = 2 field frame with Sylvester labels; its
    # sign CSV holds the entries 1 - 2 exps
    sm = build_hadamard_frame(3, 7)
    ef = build_field_frame(2, 3, 7)
    assert np.array_equal(sm.exps, ef.exps)
    # m = 7 = 2**3 - 1: the subgroup of index 1
    assert sm.ctx is not None and sm.provenance["kappa"] == 1
    assert np.array_equal(sm.multiplier_values,
                          subgroup_of_order(sm.ctx, 7)[1])
    path = str(tmp_path / "s.csv")
    save_sign_csv(sm, path)
    signs = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    assert np.array_equal(signs, 1 - 2 * sm.exps.astype(np.int64))


def per_cell_csv(rows, cells=lambda e: [str(int(e))]) -> bytes:
    """The CSV writers' rows formatted cell by cell, with str(int(e)) or
    with the given cells(e) strings, the reference for their
    row-at-a-time formatting."""
    return "".join(",".join(c for e in row for c in cells(e)) + "\n"
                   for row in rows).encode()


def complex_cells(z):
    return [f"{z.real:.17g}", f"{z.imag:.17g}"]


def test_csv_writers_match_per_cell_oracle(tmp_path):
    path = str(tmp_path / "f.csv")
    for frame in (build_field_frame(257, 1, 16),
                  build_field_frame(3, 5, 11),
                  build_random_exponent_frame(5, 3, 31, seed=4),
                  build_hadamard_frame(6, 9),
                  build_random_hadamard_frame(5, 12, seed=2)):
        save_exponent_csv(frame, path)
        with open(path, "rb") as fh:
            fh.readline()  # the JSON header
            assert fh.read() == per_cell_csv(frame.exps)
        if frame.p == 2:
            save_sign_csv(frame, path)
            with open(path, "rb") as fh:
                assert fh.read() == per_cell_csv(
                    1 - 2 * frame.exps.astype(np.int64))
        for normalize in (True, False):
            save_complex_csv(frame, path, normalize=normalize)
            entries = roots_of_unity(frame.p)[frame.exps]
            if normalize:
                entries = entries / np.sqrt(frame.m_rows)
            with open(path, "rb") as fh:
                assert fh.read() == per_cell_csv(entries, complex_cells)


def csv_bytes(path):
    """(header line or b"", body) of a frame CSV."""
    with open(path, "rb") as fh:
        text = fh.read()
    if not text.startswith(b"#"):
        return b"", text
    header, body = text.split(b"\n", 1)
    return header + b"\n", body


def assert_writers_match_per_row_oracle(frame, tmp_path, complex_csv=True):
    # the exponent CSV, its copy and, for p = 2, the sign CSV: the same
    # text as one %d template per row, behind the same JSON header; the
    # complex CSV, normalized and not: one %.17g template per row
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    save_exponent_csv(frame, a, b)
    header, body = csv_bytes(a)
    assert json.loads(header[1:])["m_rows"] == frame.m_rows
    assert body == csv_rows_per_row(frame.exps), (frame.p, frame.exps.shape)
    assert csv_bytes(b) == (header, body)
    if frame.p == 2:
        save_sign_csv(frame, a)
        assert csv_bytes(a) == (b"", csv_rows_per_row(
            1 - 2 * frame.exps.astype(np.int64)))
    for normalize in (True, False) if complex_csv else ():
        save_complex_csv(frame, a, normalize=normalize)
        assert csv_bytes(a) == (b"", complex_csv_per_row(frame, normalize))


def oracle_frames():
    """Frames with 1-, 2-, 3- and 5-digit exponents, an all-zero row
    (the zero multiplier, drawn when m = n), and m = 1."""
    return [build_hadamard_frame(6, 9),
            build_field_frame(3, 3, 13),
            build_field_frame(5, 2, 8),
            build_field_frame(7, 2, 16),
            build_field_frame(11, 2, 24),
            build_harmonic_frame(13, 4),
            build_harmonic_frame(101, 20),
            build_harmonic_frame(65537, 2),
            build_random_exponent_frame(3, 2, 9, seed=1),
            build_random_hadamard_frame(4, 16, seed=3),
            build_field_frame(3, 3, 1),
            build_hadamard_frame(5, 1)]


@pytest.mark.parametrize("chunk", [1, 5, 4099, None])
def test_csv_writers_match_per_row_oracle(chunk, tmp_path, monkeypatch):
    # encode chunks of 1, 5 and 4099 cells end inside rows, and rows of
    # n = 65537 span several chunks of the default size
    if chunk is not None:
        monkeypatch.setattr(frames, "_ENCODE_CHUNK", chunk)
    cases = oracle_frames()
    assert {len(str(f.p - 1)) for f in cases} == {1, 2, 3, 5}
    assert any((~f.exps.any(axis=1)).any() for f in cases)
    assert min(f.m_rows for f in cases) == 1
    for frame in cases:
        assert_writers_match_per_row_oracle(frame, tmp_path)


def test_reloaded_frames_written_again_unchanged(tmp_path):
    # a reloaded exponent frame holds int64 cells, a bare sign CSV comes
    # back as a p = 2 frame without a field: each writes the same file
    path, again = str(tmp_path / "f.csv"), str(tmp_path / "g.csv")
    for frame in (build_harmonic_frame(101, 20),
                  build_random_exponent_frame(3, 2, 9, seed=1)):
        save_exponent_csv(frame, path)
        g = load_frame(path)
        assert g.exps.dtype == np.int64
        save_exponent_csv(g, again)
        assert csv_bytes(again) == csv_bytes(path)
        assert_writers_match_per_row_oracle(g, tmp_path)
    save_sign_csv(build_hadamard_frame(6, 9), path)
    g = load_frame(path)
    assert g.ctx is None
    save_sign_csv(g, again)
    assert csv_bytes(again) == csv_bytes(path)
    assert_writers_match_per_row_oracle(g, tmp_path)


def test_csv_writers_across_encode_chunks(tmp_path):
    # frames of more than one default encode chunk: GF(3^7) with seams
    # inside rows (n = 2187), the 5.6 M sign cells of GF(2^12), m = 1365
    # (whose complex CSV the per-row oracle would take seconds to format)
    odd = build_field_frame(3, 7, 1093)
    assert odd.exps.size > frames._ENCODE_CHUNK
    assert frames._ENCODE_CHUNK % odd.n_cols != 0
    assert_writers_match_per_row_oracle(odd, tmp_path)
    assert_writers_match_per_row_oracle(build_hadamard_frame(12, 1365),
                                        tmp_path, complex_csv=False)


def test_random_frames_reproducible():
    a = build_random_exponent_frame(3, 3, 13, seed=42)
    b = build_random_exponent_frame(3, 3, 13, seed=42)
    c = build_random_exponent_frame(3, 3, 13, seed=43)
    assert np.array_equal(a.exps, b.exps)
    assert a.provenance == b.provenance
    assert not np.array_equal(a.multiplier_values, c.multiplier_values)
    assert a.provenance["sampling"] == "without-replacement-draw-order"
    assert a.provenance["seed"] == 42


def test_random_multipliers_distinct_and_in_range():
    f = build_random_exponent_frame(2, 8, 51, seed=1)
    mv = f.multiplier_values
    assert len(set(int(v) for v in mv)) == 51
    assert mv.min() >= 0 and mv.max() < 256  # zero row is allowed


def test_random_bernoulli_mode():
    f = build_random_exponent_frame(2, 8, 51, seed=5, bernoulli=True)
    assert f.provenance["sampling"] == "bernoulli-rate-m-over-n"
    assert f.provenance["m_requested"] == 51
    assert f.provenance["m"] == f.m_rows
    assert f.m_rows != 0


def test_random_hadamard_sign_entries():
    sm = build_random_hadamard_frame(6, 10, seed=9)
    assert sm.exps.shape == (10, 64)
    assert set(np.unique(1 - 2 * sm.exps.astype(int))) <= {-1, 1}
    assert sm.provenance["construction"] == "random-hadamard-rows"


def test_too_many_rows():
    with pytest.raises(TooManyRows):
        build_random_exponent_frame(3, 1, 4, seed=0)


def test_full_character_table_is_unitary():
    # drawing all n multipliers gives the complete Fourier matrix
    f = build_random_exponent_frame(5, 1, 5, seed=11)
    full = complex_oracle_frame(f).entries
    gram = full.conj().T @ full
    assert np.max(np.abs(gram - np.eye(5))) < 1e-12
    # and so for the dense kernels, which read its columns 1 and 2
    cf = materialize(f)
    assert cf.paired_columns
    assert coherence_bruteforce(cf)["mu"] < 1e-12
    assert tightness_residual(cf) < 1e-12


def complex_csv_entries(frame, path, normalize):
    """The entries save_complex_csv writes, read back: %.17g text parses
    to the same float64 bits, and re, im pairs view as complex128."""
    save_complex_csv(frame, path, normalize=normalize)
    return np.loadtxt(path, delimiter=",", ndmin=2).view(np.complex128)


def test_materialize_norms(tmp_path):
    f = build_field_frame(3, 3, 13)
    cf = materialize(f)
    # the columns 1..13 that the dense kernels keep: 14..26 conjugate them
    kept = f.exps[:, 1:14].astype(np.int64)
    assert cf.paired_columns and cf.n_cols == 27
    norms = np.linalg.norm(cf.entries, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    raw = complex_csv_entries(f, str(tmp_path / "c.csv"), normalize=False)
    assert np.max(np.abs(np.linalg.norm(raw, axis=0)
                         - np.sqrt(13))) < 1e-12
    # the root table is scaled before the gather: the same division per
    # entry, so the same bits as scaling the gathered matrix
    roots = roots_of_unity(f.p)
    assert np.array_equal(cf.entries, roots[kept] / np.sqrt(13))
    assert np.array_equal(raw, roots[f.exps.astype(np.int64)])


def test_materialize_hadamard_exact(tmp_path):
    sm = build_hadamard_frame(3, 7)
    raw = complex_csv_entries(sm, str(tmp_path / "c.csv"), normalize=False)
    assert np.array_equal(raw.real.astype(np.int8),
                          1 - 2 * sm.exps.astype(np.int8))
    assert np.all(raw.imag == 0)


def test_materialize_refuses_negative_cells():
    # -1 is the residue of 2 mod 3, but a cell outside [0, p) is refused:
    # the real route's unchecked gather read it as the last root
    frame = build_field_frame(3, 3, 2)
    exps = frame.exps.astype(np.int64)
    col = 1 + int(np.flatnonzero(exps[0, 1:14] == 2)[0])
    exps[0, col] = -1
    bare = ExponentFrame(p=3, exps=exps, provenance={})
    match = rf"\(row 0, column {col}\) is -1, outside \[0, 3\)"
    with pytest.raises(BadShape, match=match):
        materialize(bare)
    with pytest.raises(BadShape, match=match):
        analyze(bare, brute="on")
    # a signed dtype too narrow for p: -1 is no longer past p as unsigned
    narrow = np.zeros((2, 3), dtype=np.int8)
    narrow[1, 2] = -1
    with pytest.raises(BadShape, match=r"\(row 1, column 2\) is -1"):
        materialize(ExponentFrame(p=257, exps=narrow, provenance={}))


def test_materialize_refuses_cells_past_p():
    exps = build_field_frame(3, 3, 13).exps.copy()
    exps[5, 7] = 3
    with pytest.raises(BadShape, match=r"\(row 5, column 7\) is 3"):
        materialize(ExponentFrame(p=3, exps=exps, provenance={}))


@pytest.mark.parametrize("shape", [(27,), (1, 1, 27)])
def test_frame_refuses_exps_not_two_dimensional(shape):
    with pytest.raises(BadShape, match="2-D integer"):
        ExponentFrame(p=3, exps=np.zeros(shape, dtype=np.uint8),
                      provenance={})


def test_frame_refuses_float_exps():
    for dtype in (np.float64, bool):
        with pytest.raises(BadShape, match="2-D integer"):
            ExponentFrame(p=3, exps=np.zeros((2, 9), dtype=dtype),
                          provenance={})


def test_complex_frame_refuses_entries_not_two_dimensional():
    with pytest.raises(BadShape, match="2-D"):
        coherence_bruteforce(ComplexFrame(np.ones(4) / 2, normalized=True))


def test_frame_refuses_multipliers_that_do_not_fit():
    # each of these would give a report whose m_dim or n is not that of
    # the sums over the multipliers
    f = build_field_frame(3, 2, 4)
    ctx, mv = f.ctx, f.multiplier_values
    cases = [
        (BadShape, "3 multipliers for 2 rows",
         dict(exps=np.zeros((2, 9), dtype=np.int64), ctx=ctx,
              multiplier_values=np.array([1, 2, 3]))),
        (ContextMismatch, "not over GF\\(5\\)",
         dict(p=5, exps=f.exps, ctx=ctx)),
        (ContextMismatch, "field context",
         dict(exps=f.exps[:, :7], ctx=ctx, multiplier_values=mv)),
        (ContextMismatch, "field context",
         dict(exps=f.exps, multiplier_values=mv)),
    ]
    for error, match, kwargs in cases:
        with pytest.raises(error, match=match):
            ExponentFrame(**{"p": 3, "provenance": {}, **kwargs})
    assert ExponentFrame(p=3, exps=f.exps, provenance={}, ctx=ctx,
                         multiplier_values=mv).m_rows == 4


def test_frames_are_frozen():
    # a field set after the checks would skip them
    f = build_field_frame(3, 2, 4)
    cf = materialize(f)
    for frame, name, value in [(f, "multiplier_values", None),
                               (f, "exps", f.exps[:1]), (f, "p", 5),
                               (cf, "normalized", False),
                               (cf, "entries", cf.entries[:1])]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frame, name, value)


@pytest.mark.parametrize("p", [1, 4, 2 ** 40, 3.0])
def test_frame_refuses_p_not_prime(p):
    # p = 2**40 reached the writers and the dense checks, and ran them out
    # of memory; p = 1 reported mu = 1.0
    with pytest.raises(NotPrime):
        ExponentFrame(p=p, exps=np.zeros((2, 9), dtype=np.int64),
                      provenance={})


def test_frame_refuses_p_past_size_cap():
    # a prime past SIZE_CAP, as load_frame refuses it
    with pytest.raises(DegreeTooLarge):
        ExponentFrame(p=2 ** 61 - 1, exps=np.zeros((2, 9), dtype=np.int64),
                      provenance={})


def test_frame_refuses_zero_rows():
    with pytest.raises(BadShape, match="at least one row"):
        ExponentFrame(p=3, exps=np.zeros((0, 9), dtype=np.int64),
                      provenance={})


def test_complex_frame_refuses_zero_rows():
    with pytest.raises(BadShape, match="at least one row"):
        ComplexFrame(np.zeros((0, 9), dtype=np.complex128), normalized=True)


def test_inner_product_exact_matches_gram():
    f = build_field_frame(3, 3, 13)
    full = complex_oracle_frame(f).entries
    gram = full.conj().T @ full
    for i, j in [(0, 1), (3, 17), (26, 2), (5, 5)]:
        assert abs(inner_product_exact(f, i, j) - gram[i, j]) < 1e-12


def test_exponent_csv_round_trip(tmp_path):
    f = build_field_frame(3, 3, 13)
    path = str(tmp_path / "f.csv")
    save_exponent_csv(f, path)
    g = load_frame(path)
    assert np.array_equal(g.exps, f.exps)
    assert g.ctx is not None
    # the loaded subgroup keeps its route: m = 13 in GF(27)
    rep = analyze(g, brute="off")
    assert rep.kappa == 2 and rep.paths["census_source"] == "coset-sums"
    assert np.array_equal(g.multiplier_values, f.multiplier_values)


def test_exponent_csv_without_full_columns_loads_dense(tmp_path):
    # a header that does not mark full columns attaches no multipliers,
    # so the stored rows are neither checked nor used by the exact paths
    f = build_field_frame(3, 3, 13)
    path = str(tmp_path / "f.csv")
    save_exponent_csv(f, path)
    with open(path) as fh:
        header, rest = fh.readline(), fh.read()
    assert json.loads(header[1:])["full_columns"] is True
    with open(path, "w") as fh:
        fh.write(header.replace('"full_columns": true',
                                '"full_columns": false') + rest)
    g = load_frame(path)
    assert np.array_equal(g.exps, f.exps)
    assert g.ctx is not None
    assert g.multiplier_values is None


def test_random_exponent_csv_round_trip(tmp_path):
    f = build_random_exponent_frame(3, 3, 13, seed=4)
    path = str(tmp_path / "r.csv")
    save_exponent_csv(f, path)
    g = load_frame(path)
    assert np.array_equal(g.exps, f.exps)
    assert np.array_equal(g.multiplier_values, f.multiplier_values)


def test_sign_csv_round_trip(tmp_path):
    sm = build_hadamard_frame(3, 7)
    path = str(tmp_path / "s.csv")
    save_sign_csv(sm, path)
    g = load_frame(path)
    assert isinstance(g, ExponentFrame) and g.p == 2
    assert g.ctx is None and g.multiplier_values is None
    assert np.array_equal(g.exps, sm.exps)
    with pytest.raises(BadShape):
        save_sign_csv(build_field_frame(3, 3, 13), path)


def test_bare_csv_rejects_non_sign_entries(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("1,2\n-1,1\n")
    with pytest.raises(BadShape):
        load_frame(path)


def _tamper_header(path, key, value):
    # set one key of an exponent CSV's JSON header
    with open(path) as fh:
        lines = fh.readlines()
    header = json.loads(lines[0][1:])
    header[key] = value
    lines[0] = "# " + json.dumps(header, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def test_tampered_modulus_rejected(tmp_path):
    f = build_field_frame(3, 3, 13)
    path = str(tmp_path / "f.csv")
    save_exponent_csv(f, path)
    _tamper_header(path, "modulus", [2, 1, 0, 1])
    with pytest.raises(ContextMismatch, match="header modulus"):
        load_frame(path)


# header keys a report repeats as provenance, each edited in an exponent
# CSV of GF(3^3) with 13 rows: (construction, edited value)
REPEATED_KEYS = {
    "m_rows": ("field-subgroup", 99),
    "n_cols": ("field-subgroup", 5),
    "m": ("random-multipliers", 12),
    "generator_value": ("field-subgroup", 999),
    "multiplier_values": ("field-subgroup", [2, 5, 7]),
}


@pytest.mark.parametrize("key", sorted(REPEATED_KEYS))
def test_tampered_repeated_header_key_rejected(key, tmp_path):
    construction, value = REPEATED_KEYS[key]
    f = (build_field_frame(3, 3, 13) if construction == "field-subgroup"
         else build_random_exponent_frame(3, 3, 13, seed=4))
    path = str(tmp_path / "f.csv")
    save_exponent_csv(f, path)
    g = load_frame(path)
    assert g.provenance["construction"] == construction
    assert g.provenance[key] != value
    _tamper_header(path, key, value)
    with pytest.raises(ContextMismatch, match=f"header {key} does not"):
        load_frame(path)


def test_header_true_does_not_pass_for_one(tmp_path):
    # JSON true equals 1 in Python, but a report would repeat it as true
    path = str(tmp_path / "f.csv")
    save_exponent_csv(build_field_frame(3, 1, 1), path)
    assert load_frame(path).m_rows == 1
    _tamper_header(path, "m_rows", True)
    with pytest.raises(ContextMismatch, match="header m_rows does not"):
        load_frame(path)


def _tamper_cell(path, row, col):
    # bump one stored exponent by 1 mod 3 in an exponent CSV of GF(27)
    with open(path) as fh:
        lines = fh.readlines()
    cells = lines[1 + row].strip().split(",")
    cells[col] = str((int(cells[col]) + 1) % 3)
    lines[1 + row] = ",".join(cells) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def test_tampered_exponents_rejected(tmp_path):
    for f in (build_field_frame(3, 3, 13),
              build_random_exponent_frame(3, 3, 13, seed=4)):
        path = str(tmp_path / "f.csv")
        save_exponent_csv(f, path)
        _tamper_cell(path, 4, 9)
        with pytest.raises(ContextMismatch, match=r"\(row 4, column 9\)"):
            load_frame(path)
    # header multipliers outside the field
    f = build_random_exponent_frame(3, 3, 13, seed=4)
    bad = f.multiplier_values.copy()
    bad[0] = 27
    save_exponent_csv(dataclasses.replace(f, multiplier_values=bad), path)
    with pytest.raises(BadShape, match="multiplier_values"):
        load_frame(path)
    # a dropped row is a shape mismatch
    save_exponent_csv(build_field_frame(3, 3, 13), path)
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])
    with pytest.raises(ContextMismatch, match="12 x 27"):
        load_frame(path)


def test_complex_csv_written(tmp_path):
    f = build_field_frame(3, 1, 2)
    entries = roots_of_unity(f.p)[f.exps] / np.sqrt(f.m_rows)
    path = str(tmp_path / "c.csv")
    save_complex_csv(f, path)
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (2, 6)  # re,im pairs for 3 columns
    back = data[:, 0::2] + 1j * data[:, 1::2]
    assert np.max(np.abs(back - entries)) < 1e-16
