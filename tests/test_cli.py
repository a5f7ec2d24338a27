"""End-to-end command line behavior: files, determinism, exit codes."""

import csv
import dataclasses
import io
import json
import os
import threading

import numpy as np
import pytest

import groupframes.cli as cli
import groupframes.frames as frames
from groupframes.cli import BINS_CAP, BOUNDS_ROW_CAP, main
from groupframes.coherence import CoherenceReport, analyze
from groupframes.frames import (
    ExponentFrame,
    build_field_frame,
    build_harmonic_frame,
    build_random_exponent_frame,
    build_random_hadamard_frame,
    load_frame,
)
from groupframes.gf import is_prime
from groupframes.sl2 import sl2_report
from oracles import divisors_by_trial, histogram_csv_np, sl2_cases


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def json_dumps_oracle(obj):
    if isinstance(obj, CoherenceReport):
        obj = obj.to_dict()
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.fixture(autouse=True)
def outputs_match_their_oracles(monkeypatch):
    # every report JSON and histogram CSV a test here writes is held to
    # the plain indented dump and to np.histogram, byte for byte
    json_text, histogram_csv = cli._json_text, cli._histogram_csv

    def checked_json(obj):
        text = json_text(obj)
        assert text == json_dumps_oracle(obj)
        return text

    def checked_histogram(magnitudes, bins):
        text = histogram_csv(magnitudes, bins)
        assert text == histogram_csv_np(magnitudes, bins)
        return text

    monkeypatch.setattr(cli, "_json_text", checked_json)
    monkeypatch.setattr(cli, "_histogram_csv", checked_histogram)


@pytest.fixture(scope="module")
def reports():
    """Reports of every SL2 case and of frames on each census route."""
    out = [sl2_report(q, m, mode) for q, m, mode in sl2_cases()]
    built = [build_field_frame(3, 5, 121), build_harmonic_frame(257, 16),
             build_random_hadamard_frame(10, 341, 1),
             build_random_exponent_frame(3, 7, 300, 2),
             build_random_exponent_frame(257, 2, 100, 1)]
    out += [analyze(f, brute="off") for f in built]
    # without its multipliers a frame takes the Gram census
    f = build_random_exponent_frame(3, 4, 20, 3)
    out.append(analyze(ExponentFrame(p=f.p, exps=f.exps,
                                     provenance=f.provenance)))
    return out


def test_construct_field_p2_writes_sign_matrix(tmp_path, capsys):
    out = str(tmp_path / "f.csv")
    assert main(["construct", "--field", "2", "10", "--m", "341",
                 "--out", out]) == 0
    frame = load_frame(out)
    assert frame.exps.shape == (341, 1024)
    assert set(np.loadtxt(out, delimiter=",", dtype=int).ravel()) == {-1, 1}
    prov = json.loads(read(out + ".provenance.json"))
    assert prov["construction"] == "hadamard-rows"
    assert prov["p"] == 2 and prov["r"] == 10 and prov["m"] == 341
    assert len(prov["sylvester_rows"]) == 341


def test_construct_exponent_and_complex_outputs(tmp_path):
    out = str(tmp_path / "g.csv")
    cx = str(tmp_path / "g_complex.csv")
    assert main(["construct", "--field", "3", "3", "--m", "13",
                 "--out", out, "--complex-out", cx]) == 0
    frame = load_frame(out)
    assert frame.exps.shape == (13, 27)
    data = np.loadtxt(cx, delimiter=",")
    assert data.shape == (13, 54)
    cols = data[:, 0::2] + 1j * data[:, 1::2]
    assert np.max(np.abs(np.linalg.norm(cols, axis=0) - 1)) < 1e-12


def test_construct_harmonic(tmp_path):
    out = str(tmp_path / "h.csv")
    assert main(["construct", "--harmonic", "499", "166",
                 "--out", out]) == 0
    frame = load_frame(out)
    assert frame.exps.shape == (166, 499)
    assert frame.provenance["construction"] == "harmonic"


def test_construct_harmonic_p2_writes_exponents(tmp_path):
    # a p = 2 frame that is not a Hadamard construction keeps the
    # exponent CSV with its header
    out = str(tmp_path / "h2.csv")
    assert main(["construct", "--harmonic", "2", "1", "--out", out]) == 0
    assert read(out).startswith(b"# ")
    frame = load_frame(out)
    assert frame.exps.tolist() == [[0, 1]]
    assert analyze(frame, brute="off").kappa == 1


def count_encodes(monkeypatch):
    """A list that gets one entry per frames._write_cells call."""
    calls, write_cells = [], frames._write_cells

    def counted(fhs, cells, words):
        calls.append(len(fhs))
        write_cells(fhs, cells, words)

    monkeypatch.setattr(frames, "_write_cells", counted)
    return calls


def test_construct_formats_exponent_text_once(tmp_path, monkeypatch):
    # --out and --exponent-out of a frame that is not Hadamard get the same
    # exponent CSV, encoded once and written to both
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    calls = count_encodes(monkeypatch)
    assert main(["construct", "--field", "3", "3", "--m", "13",
                 "--out", a, "--exponent-out", b]) == 0
    assert calls == [2]
    assert read(a) == read(b)
    assert load_frame(b).exps.shape == (13, 27)


def test_construct_exponent_copy_through_symlink_and_pipe(tmp_path):
    # --out written through a symlink or a named pipe is never read back:
    # --exponent-out still gets the full text
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("")
    link.symlink_to(target)
    b = str(tmp_path / "b.csv")
    assert main(["construct", "--field", "3", "3", "--m", "13",
                 "--out", str(link), "--exponent-out", b]) == 0
    assert link.is_symlink() and read(str(target)) == read(b)
    assert load_frame(b).exps.shape == (13, 27)
    fifo, piped = str(tmp_path / "pipe"), []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: piped.append(read(fifo)),
                              daemon=True)
    reader.start()
    try:
        assert main(["construct", "--field", "3", "3", "--m", "13",
                     "--out", fifo, "--exponent-out", b]) == 0
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert piped == [read(b)] and read(b) == read(str(target))


def test_construct_hadamard_writes_sign_and_exponent_files(tmp_path,
                                                           monkeypatch):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    calls = count_encodes(monkeypatch)
    assert main(["construct", "--field", "2", "4", "--m", "5",
                 "--out", a, "--exponent-out", b]) == 0
    assert calls == [1, 1]
    signs = np.loadtxt(a, delimiter=",", dtype=np.int64, ndmin=2)
    assert not read(a).startswith(b"#")
    exps = load_frame(b).exps
    assert exps.shape == (5, 16)
    assert np.array_equal(signs, 1 - 2 * exps)


def test_construct_random_requires_seed(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    code = main(["construct", "--field", "3", "3", "--m", "5",
                 "--random", "--out", out])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UsageError"


def test_analyze_report_and_histogram(tmp_path):
    rep_path = str(tmp_path / "rep.json")
    hist_path = str(tmp_path / "hist.csv")
    assert main(["analyze", "--field", "3", "3", "--m", "13",
                 "--report", rep_path, "--histogram", hist_path,
                 "--bins", "50"]) == 0
    rep = json.loads(read(rep_path))
    assert abs(rep["mu"] - 0.2035) < 5e-4
    assert abs(rep["mu"] - rep["welch"]) < 1e-9
    assert rep["property_flags"]["equiangular"]
    lines = read(hist_path).decode().strip().split("\n")
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 51
    total = sum(int(l.split(",")[2]) for l in lines[1:])
    assert total == 27 * 26


def test_analyze_stdout_default(capsys):
    assert main(["analyze", "--field", "7", "1", "--m", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n"] == 7 and rep["m_dim"] == 3
    assert rep["kappa"] == 2


def test_analyze_from_file_keeps_exact_path(tmp_path):
    out = str(tmp_path / "f.csv")
    main(["construct", "--field", "3", "3", "--m", "13", "--out", out])
    rep_path = str(tmp_path / "rep.json")
    assert main(["analyze", "--in", out, "--report", rep_path,
                 "--brute", "on"]) == 0
    rep = json.loads(read(rep_path))
    assert rep["paths"]["census_source"] == "coset-sums"
    assert rep["paths"]["mu_gap"] < 1e-9


def test_analyze_rejects_tampered_exponent_csv(tmp_path, capsys):
    path = str(tmp_path / "f.csv")
    assert main(["construct", "--field", "3", "3", "--m", "13",
                 "--out", path]) == 0
    capsys.readouterr()
    clean = read(path)
    for brute in ("off", "auto"):
        assert main(["analyze", "--in", path, "--brute", brute]) == 0
        assert json.loads(capsys.readouterr().out)["paths"][
            "census_source"] == "coset-sums"
    lines = clean.decode().split("\n")
    cells = lines[3].split(",")
    cells[5] = str((int(cells[5]) + 1) % 3)
    lines[3] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    for brute in ("off", "auto"):
        assert main(["analyze", "--in", path, "--brute", brute]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        obj = json.loads(err[0])
        assert obj["error"] == "ContextMismatch"
        assert "(row 2, column 5)" in obj["message"]


def _header_edit(old, new):
    def edit(text):
        first, rest = text.split("\n", 1)
        assert old in first
        return first.replace(old, new) + "\n" + rest
    return edit


# (source file, edit of its text or None to leave it unwritten, error
# type, text the one-line message must hold)
BAD_FRAME_FILES = {
    "complex-cells": ("c.cplx.csv", lambda t: t, "ValidationError",
                      "line 1: '0.27735"),
    "json-header": ("f.csv", _header_edit('"p": 3,', '"p": 3'),
                    "ValidationError", "line 1: header is not valid JSON"),
    "header-no-p": ("f.csv", _header_edit('"p": 3, ', ""),
                    "ValidationError", "needs an integer 'p', got None"),
    "header-no-m": ("f.csv", _header_edit('"m": 13, ', ""),
                    "ValidationError", "needs an integer 'm', got None"),
    "header-m-rows": ("f.csv", _header_edit('"m_rows": 13', '"m_rows": 99'),
                      "ContextMismatch", "header m_rows does not match"),
    "missing": ("f.csv", None, "ValidationError", "cannot read"),
    "empty": ("f.csv", lambda t: "", "ValidationError", "no frame cells"),
    "sign-word": ("f.csv", lambda t: "1,-1\n1,word\n", "ValidationError",
                  "line 2: 'word' is not an integer"),
    "ragged": ("f.csv", lambda t: t.rstrip("\n") + ",0\n",
               "ValidationError", "line 14: 28 cells, earlier lines 27"),
    "exponent-range": ("f.csv", lambda t: '# {"p": 3}\n0,1,5\n',
                       "BadShape", "(row 0, column 2) is 5, outside [0, 3)"),
}


@pytest.mark.parametrize("case", sorted(BAD_FRAME_FILES))
def test_analyze_refuses_bad_frame_files(case, tmp_path, capsys):
    source, edit, error, needle = BAD_FRAME_FILES[case]
    built = str(tmp_path / "f.csv")
    assert main(["construct", "--field", "3", "3", "--m", "13", "--out",
                 built, "--complex-out", str(tmp_path / "c.cplx.csv")]) == 0
    path = str(tmp_path / "in.csv")
    if edit is not None:
        with open(str(tmp_path / source)) as fh:
            text = edit(fh.read())
        with open(path, "w") as fh:
            fh.write(text)
    capsys.readouterr()
    assert main(["analyze", "--in", path, "--brute", "off"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    obj = json.loads(err[0])
    assert obj["error"] == error
    assert needle in obj["message"]
    assert captured.out == ""


def test_analyze_sl2(capsys):
    assert main(["analyze", "--sl2", "8", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["mode"] == "sl2-induced"
    assert abs(rep["mu"] - 1 / 9) < 1e-12


@pytest.mark.parametrize("q,mode", [(8192, "induced"), (65536, "cuspidal")])
def test_analyze_sl2_largest_q(q, mode, tmp_path, capsys):
    # n * |class| exceeds int64 here; the census multiplicities are exact
    hist = str(tmp_path / "hist.csv")
    assert main(["analyze", "--sl2", str(q), "1", "--mode", mode,
                 "--histogram", hist]) == 0
    rep = json.loads(capsys.readouterr().out)
    n = q ** 3 - q
    assert rep["n"] == n
    assert n * (n - 1) > 2 ** 63
    assert sum(e["count"] for e in rep["distinct_values"]) == n * (n - 1)
    assert sum(e["count"] for e in rep["distinct_magnitudes"]) == n * (n - 1)
    lines = read(hist).decode().strip().split("\n")[1:]
    assert sum(int(line.split(",")[2]) for line in lines) == n * (n - 1)


def test_json_text_matches_plain_dump(reports):
    assert len(reports) == 41 + 6
    for rep in reports:
        assert cli._json_text(rep) == json_dumps_oracle(rep)
        for key in ("distinct_values", "distinct_magnitudes"):
            empty = dataclasses.replace(rep, **{key: []})
            assert cli._json_text(empty) == json_dumps_oracle(empty)
    # plain dicts and lists are dumped as they are
    for other in ({"distinct_values": "x", "n": 1}, [1, {"a": 2.5}], {}):
        assert cli._json_text(other) == json_dumps_oracle(other)


def test_histogram_csv_matches_np_histogram(reports):
    for rep in reports:
        for bins in (1, 7, 200, 4096):
            got = cli._histogram_csv(rep.distinct_magnitudes, bins)
            assert got == histogram_csv_np(rep.distinct_magnitudes, bins)
    # an empty census, a zero magnitude alone, and blocks of rows that
    # split a bin range
    for mags, bins in (([], 3), ([(0.0, 5)], 4),
                       (reports[0].distinct_magnitudes, 2 ** 17 + 3)):
        assert cli._histogram_csv(mags, bins) \
            == histogram_csv_np(mags, bins)


def test_analyze_rejects_conflicting_sources(tmp_path, capsys):
    exp = str(tmp_path / "f.exp.csv")
    assert main(["construct", "--field", "3", "3", "--m", "13",
                 "--out", str(tmp_path / "f.csv"),
                 "--exponent-out", exp]) == 0
    capsys.readouterr()
    for argv in ([],
                 ["--sl2", "8", "3", "--field", "3", "3", "--m", "13"],
                 ["--in", exp, "--field", "2", "4", "--m", "5"],
                 ["--in", exp, "--harmonic", "13", "4"],
                 ["--in", exp, "--sl2", "8", "3"],
                 ["--field", "3", "3", "--m", "13", "--harmonic", "13", "4"]):
        assert main(["analyze", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == "UsageError"
        assert err.count("\n") == 1


def test_determinism_byte_identical(tmp_path):
    a1 = str(tmp_path / "a1.json")
    a2 = str(tmp_path / "a2.json")
    for path in (a1, a2):
        assert main(["analyze", "--field", "2", "8", "--m", "51",
                     "--report", path]) == 0
    assert read(a1) == read(a2)
    c1 = str(tmp_path / "c1.csv")
    c2 = str(tmp_path / "c2.csv")
    for path in (c1, c2):
        assert main(["construct", "--field", "2", "8", "--m", "51",
                     "--out", path]) == 0
    assert read(c1) == read(c2)
    assert read(c1 + ".provenance.json") == read(c2 + ".provenance.json")


def test_exit_codes(tmp_path, capsys):
    assert main(["construct", "--field", "4", "2", "--m", "3",
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotPrime"
    assert main(["analyze", "--field", "2", "30", "--m", "7"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DegreeTooLarge"
    assert main(["bounds", "--n-min", "10", "--n-max", "5"]) == 2
    capsys.readouterr()
    assert main(["bounds", "--kappa", "3", "--n-min", "4", "--n-max", "20",
                 "--step", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "UsageError"


def test_analyze_sign_csv_brute_off_refused(tmp_path, capsys):
    # a bare sign CSV carries no multiplier structure, so the character
    # sums cannot run and "off" forbids the Gram oracle
    out = str(tmp_path / "signs.csv")
    assert main(["construct", "--field", "2", "4", "--m", "5",
                 "--out", out]) == 0
    capsys.readouterr()
    assert main(["analyze", "--in", out, "--brute", "off"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "BadShape"
    assert captured.out == ""


def test_compare_table_ii(tmp_path):
    out_json = str(tmp_path / "t2.json")
    out_csv = str(tmp_path / "t2.csv")
    assert main(["compare", "--table", "II", "--out-json", out_json,
                 "--out-csv", out_csv]) == 0
    rep = json.loads(read(out_json))
    assert rep["schema_version"] == 1
    assert rep["seeds"] == [1, 2, 3]
    assert len(rep["rows"]) == 5
    want = {"3^3": 0.2035, "3^5": 0.0645, "3^7": 0.0214,
            "7^3": 0.0542, "11^3": 0.0274}
    for row in rep["rows"]:
        assert abs(row["group_mu"] - want[row["label"]]) < 5e-4
        assert abs(row["group_mu"] - row["welch"]) < 1e-9
        assert len(row["random_mu"]) == 3
        assert row["random_median"] > row["group_mu"]
    lines = read(out_csv).decode().strip().split("\n")
    assert lines[0].startswith("label,n,m_dim,group_mu,welch,bound,")
    assert len(lines) == 6


def test_compare_table_i_csv_rows_match_header(tmp_path):
    # labels such as "(256, 51)" hold a comma, so they must be quoted
    out_csv = str(tmp_path / "t1.csv")
    assert main(["compare", "--table", "I", "--out-csv", out_csv]) == 0
    rows = list(csv.reader(io.StringIO(read(out_csv).decode())))
    assert len(rows) == 6
    assert all(len(row) == len(rows[0]) for row in rows)
    assert rows[1][0] == "(256, 51)"


def test_compare_table_iv(tmp_path):
    out_json = str(tmp_path / "t4.json")
    assert main(["compare", "--table", "IV", "--out-json", out_json,
                 "--out-csv", str(tmp_path / "t4.csv")]) == 0
    rep = json.loads(read(out_json))
    got = {row["label"]: row for row in rep["rows"]}
    assert abs(got["25 x 60"]["group_mu"] - 0.2000) < 5e-4
    assert abs(got["81 x 504"]["group_mu"] - 0.2002) < 5e-4
    assert abs(got["243 x 504"]["group_mu"] - 0.1111) < 5e-4
    assert abs(got["25 x 60"]["welch"] - 0.1540) < 5e-4
    assert rep["baseline"] == "gaussian-column-normalized"


def test_compare_needs_three_seeds(capsys):
    assert main(["compare", "--table", "II", "--seeds", "1", "2"]) == 2
    assert main(["compare", "--table", "II", "--seeds", "1", "2", "2"]) == 2


def test_bounds_kappa_sweep(tmp_path):
    out = str(tmp_path / "b.csv")
    assert main(["bounds", "--kappa", "3", "--n-min", "1000",
                 "--n-max", "1030", "--out", out]) == 0
    lines = read(out).decode().strip().split("\n")
    header = lines[0].split(",")
    assert header[:3] == ["n", "m", "kappa"]
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert 1024 in rows
    row = rows[1024]
    assert row[1] == "341"
    welch_col = header.index("welch")
    bg_col = header.index("bound_general")
    assert abs(float(row[bg_col]) - 0.0635386) < 1e-6
    for cells in rows.values():
        assert float(cells[welch_col]) <= float(cells[bg_col])


@pytest.mark.parametrize("text, error", [("x", "UsageError"),
                                         ("1", "BadShape"),
                                         ("0.5", "BadShape"),
                                         ("-2", "BadShape"),
                                         ("nan", "BadShape"),
                                         ("inf", "BadShape")])
def test_bad_log_base_exit_2(text, error, capsys):
    # a number that is no base is refused by the library's own rule
    for argv in (["analyze", "--sl2", "8", "3"],
                 ["bounds", "--kappa", "2", "--n-min", "3", "--n-max", "9"]):
        assert main([*argv, "--log-base", text]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == error


def test_bounds_agree_with_reports(tmp_path):
    # the thresholds and bound_m_odd cells are the values a report of the
    # frame at that (n, m) carries, or blank where the report has None
    out = str(tmp_path / "b2.csv")
    assert main(["bounds", "--kappa", "2", "--n-min", "3", "--n-max", "60",
                 "--log-base", "2", "--out", out]) == 0
    rows = list(csv.reader(io.StringIO(read(out).decode())))
    col = {k: i for i, k in enumerate(rows[0])}
    checked = 0
    for cells in rows[1:]:
        n, m = int(cells[col["n"]]), int(cells[col["m"]])
        assert (cells[col["bound_m_odd"]] == "") == (m % 2 == 0)
        if not is_prime(n):
            continue
        rep = analyze(build_field_frame(n, 1, m), brute="off", log_base=2)
        flags = rep.property_flags
        for key, name in (("coherence_property_threshold", "cp_mu_threshold"),
                          ("strong_property_threshold", "scp_mu_threshold")):
            assert cells[col[key]] == f"{flags[name]:.6g}"
        bmo = rep.bound_m_odd
        assert cells[col["bound_m_odd"]] == ("" if bmo is None
                                             else f"{bmo:.6g}")
        checked += 1
    assert checked == 16


def test_bounds_regime_snaps(tmp_path):
    out = str(tmp_path / "b45.csv")
    assert main(["bounds", "--regime", "n45", "--n-min", "100",
                 "--n-max", "105", "--out", out]) == 0
    lines = read(out).decode().strip().split("\n")
    header = lines[0].split(",")
    mi, ki, mreq, snap = (header.index(k) for k in
                          ("m", "kappa", "m_requested", "snapped"))
    for line in lines[1:]:
        cells = line.split(",")
        n = int(cells[0])
        m = int(cells[mi])
        assert (n - 1) % m == 0
        assert int(cells[ki]) == (n - 1) // m
        assert cells[mreq] != ""
        assert cells[snap] in ("True", "False")


def test_divisors_match_trial_division():
    # the divisors built from the factorization, against trial division
    # up to sqrt(x): every x to 5000, primes, prime squares and prime
    # powers, and values near 10**12
    cases = list(range(1, 5001))
    cases += [65537, 65537 ** 2, 2 ** 40, 3 ** 25, 999983 ** 2,
              2 * 999983, 999999999989, 10 ** 12 - 1, 10 ** 12]
    for x in cases:
        assert cli._divisors(x) == divisors_by_trial(x), x


def test_bounds_mutual_exclusion(capsys):
    assert main(["bounds", "--kappa", "2", "--regime", "n45",
                 "--n-min", "10", "--n-max", "20"]) == 2


def test_size_caps_refuse_before_work(tmp_path, monkeypatch, capsys):
    # --bins above its cap and a bounds range past the row or the divisor
    # trial cap exit 3 with one JSON line, before any analysis or row
    def no_work(*args, **kwargs):
        raise AssertionError("work started past a cap")

    for name in ("analyze", "sl2_report", "_bound_row"):
        monkeypatch.setattr(cli, name, no_work)
    hist = str(tmp_path / "h.csv")
    big = 10 ** 12
    for argv in (
            ["analyze", "--field", "3", "3", "--m", "13", "--histogram",
             hist, "--bins", str(BINS_CAP + 1)],
            ["analyze", "--sl2", "8", "3", "--histogram", hist, "--bins",
             "1000000000"],
            ["bounds", "--kappa", "1", "--n-min", "2", "--n-max",
             str(BOUNDS_ROW_CAP + 2)],
            ["bounds", "--kappa", "1", "--n-min", "2", "--n-max", str(big)],
            ["bounds", "--regime", "n45", "--n-min", str(big - 200),
             "--n-max", str(big)]):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ResourceCap"
    assert not os.path.exists(hist)


def test_construct_refuses_complex_cap_before_writing(tmp_path,
                                                     monkeypatch, capsys):
    # a frame past the complex CSV's cell cap is refused before --out,
    # its provenance file or --exponent-out is written
    monkeypatch.setattr(cli, "COMPLEX_CELL_CAP", 13 * 27 - 1)
    monkeypatch.setattr(frames, "COMPLEX_CELL_CAP", 13 * 27 - 1)
    out = str(tmp_path / "f.csv")
    assert main(["construct", "--field", "3", "3", "--m", "13", "--out",
                 out, "--exponent-out", str(tmp_path / "e.csv"),
                 "--complex-out", str(tmp_path / "c.csv")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "ResourceCap"
    assert os.listdir(str(tmp_path)) == []


def test_size_caps_admit_their_limit(tmp_path):
    # the largest row count, and a bin count at the cap without a
    # histogram to fill, still run
    out = str(tmp_path / "b.csv")
    assert main(["bounds", "--kappa", "7", "--n-min", "2", "--n-max",
                 str(BOUNDS_ROW_CAP + 1), "--out", out]) == 0
    with open(out) as fh:
        assert len(fh.readlines()) == 1 + BOUNDS_ROW_CAP // 7
    assert main(["analyze", "--field", "3", "3", "--m", "13", "--bins",
                 str(BINS_CAP + 1), "--report", out]) == 0
    hist = str(tmp_path / "h.csv")
    assert main(["analyze", "--sl2", "8", "3", "--report", out,
                 "--histogram", hist, "--bins", "100000"]) == 0
    with open(hist) as fh:
        assert len(fh.readlines()) == 100001


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_output_file_modes(umask, tmp_path):
    # every output is created as open(path, "w") would create it, 0o666
    # less the umask, and one that replaces a file keeps that file's mode
    report = str(tmp_path / "rep.json")
    out = str(tmp_path / "f.csv")
    old = os.umask(umask)
    try:
        assert main(["analyze", "--field", "7", "1", "--m", "3",
                     "--report", report]) == 0
        assert main(["construct", "--field", "3", "3", "--m", "13",
                     "--out", out, "--exponent-out", out + ".exp"]) == 0
        for path in (report, out, out + ".provenance.json", out + ".exp"):
            assert os.stat(path).st_mode & 0o7777 == 0o666 & ~umask, path
        os.chmod(report, 0o640)
        assert main(["analyze", "--field", "7", "1", "--m", "6",
                     "--report", report]) == 0
        assert json.loads(read(report))["m_dim"] == 6
        assert os.stat(report).st_mode & 0o7777 == 0o640
    finally:
        os.umask(old)


def test_scratch_env_respected(tmp_path, monkeypatch):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setenv("GROUPFRAMES_SCRATCH", str(scratch))
    out = str(tmp_path / "out" )
    os.mkdir(out)
    target = os.path.join(out, "rep.json")
    assert main(["analyze", "--field", "7", "1", "--m", "3",
                 "--report", target]) == 0
    assert os.path.exists(target)
    assert os.listdir(str(scratch)) == []  # temp cleaned up


# argv for each output flag, with {bad} an unwritable path and {ok} a
# writable one
UNWRITABLE = {
    "report": ["analyze", "--field", "3", "3", "--m", "13",
               "--report", "{bad}"],
    "histogram": ["analyze", "--field", "3", "3", "--m", "13",
                  "--report", "{ok}", "--histogram", "{bad}"],
    "construct-out": ["construct", "--field", "3", "3", "--m", "13",
                      "--out", "{bad}"],
    "construct-exponent-out": ["construct", "--field", "3", "3", "--m",
                               "13", "--out", "{ok}", "--exponent-out",
                               "{bad}"],
    "compare-out-csv": ["compare", "--table", "IV", "--out-csv", "{bad}"],
    "bounds-out": ["bounds", "--kappa", "3", "--n-min", "4",
                   "--n-max", "40", "--out", "{bad}"],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE) + ["directory",
                                                       "scratch"])
def test_unwritable_output_paths(case, tmp_path, monkeypatch, capsys):
    # a missing directory, a directory as the target, or a missing
    # GROUPFRAMES_SCRATCH: exit 2, one JSON line naming the path, and no
    # temp file left behind
    bad = str(tmp_path / "missing" / "out.csv")
    ok = str(tmp_path / "ok.json")
    argv = UNWRITABLE.get(case, UNWRITABLE["report"])
    if case == "directory":
        bad = str(tmp_path)
    if case == "scratch":
        monkeypatch.setenv("GROUPFRAMES_SCRATCH", str(tmp_path / "nowhere"))
        bad = ok
    argv = [a.format(bad=bad, ok=ok) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    obj = json.loads(err[0])
    assert obj["error"] == "ValidationError"
    assert f"cannot write {bad}" in obj["message"]
    assert not [p for p in tmp_path.rglob(".groupframes-*")]
