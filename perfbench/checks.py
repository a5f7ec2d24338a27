"""Output checks.  Each check returns a list of problems; an operation with
any problem counts as failed, named by the first problem.

The published values below are the benchmark's own copy of the pins in
tests/test_acceptance.py (Tables I, II and IV of the paper).
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

PIN_TOL = 5e-4
ROUTE_TOL = 1e-9

# mu of each row of `compare --table T`, in the CLI's row order; Table IV
# rows also pin the Welch bound.
PINS = {
    "I": ((0.2549,), (0.1294,), (0.2329,), (0.0616,), (0.1253,)),
    "II": ((0.2035,), (0.0645,), (0.0214,), (0.0542,), (0.0274,)),
    "IV": ((0.2000, 0.1540), (0.2002, 0.1019), (0.1111, 0.0462)),
}
# analyze --sl2 q 1 --mode induced: (mu, welch) from Table IV
SL2_PINS = {4: (0.2000, 0.1540), 8: (0.2002, 0.1019)}
# mu of the two frames the tables workload writes and reads back:
# GF(3^7), m = 1093 (Table II) and GF(2^12), m = 455 (Table I)
FILE_PINS = {(3, 7, 1093): 0.0214, (2, 12, 455): 0.1253}


def parse_json(data: bytes, what: str, problems: list):
    try:
        return json.loads(data)
    except (ValueError, UnicodeDecodeError) as exc:
        problems.append(f"{what} is not JSON: {exc}")
        return None


def parse_csv(data: bytes, what: str, problems: list, numeric_from: int = 0):
    """Rows of a small CSV with a header row, whose other cells from
    column numeric_from on are numbers, booleans or empty."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        problems.append(f"{what} is not text: {exc}")
        return None
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or len({len(row) for row in rows}) != 1:
        problems.append(f"{what} has no rows or ragged rows")
        return None
    for row in rows[1:]:
        for cell in row[numeric_from:]:
            if cell in ("", "True", "False"):
                continue
            try:
                float(cell)
            except ValueError:
                problems.append(f"{what} has a non-numeric cell {cell!r}")
                return None
    return rows


def close(got, want, tol) -> bool:
    return got is not None and abs(got - want) <= tol


def check_exit(code: int, stderr: str) -> list[str]:
    """A CLI call that should succeed: exit 0 and no traceback.  Any other
    exit is named by its error type; codes 2, 3 and 4 must come with one
    JSON line on stderr."""
    if code == 0:
        return ["traceback on stderr"] if "Traceback" in stderr else []
    lines = stderr.strip().splitlines()
    if code in (2, 3, 4):
        problems: list = []
        obj = parse_json(lines[0].encode(), "stderr", problems) \
            if len(lines) == 1 else None
        if isinstance(obj, dict) and "error" in obj:
            return [f"{obj['error']} (exit {code})"]
        return [f"exit {code} without one JSON line on stderr"]
    return [f"{error_type(stderr)} (exit {code})"]


def error_type(stderr: str) -> str:
    """Exception type named by the last line of a traceback."""
    lines = stderr.strip().splitlines()
    last = lines[-1] if lines else ""
    head = last.split(":", 1)[0].strip()
    return head if head.isidentifier() else "UnknownError"


def check_report(rep: dict) -> list[str]:
    """Invariants every coherence report satisfies."""
    problems = []
    n = rep["n"]
    pairs = n * (n - 1)
    if sum(v["count"] for v in rep["distinct_values"]) != pairs:
        problems.append("census multiplicities do not sum to n(n-1)")
    if sum(v["count"] for v in rep["distinct_magnitudes"]) != pairs:
        problems.append("magnitude census does not sum to n(n-1)")
    if rep["mu"] < rep["welch"] - ROUTE_TOL:
        problems.append(f"mu {rep['mu']} below welch {rep['welch']}")
    return problems


def check_compare(table: str, seeds: list[int], report: bytes,
                  table_csv: bytes) -> list[str]:
    pins = PINS[table]
    problems: list = []
    rows = parse_csv(table_csv, f"compare {table} CSV", problems,
                     numeric_from=1)
    if rows is not None and len(rows) != len(pins) + 1:
        problems.append(f"compare {table} CSV has {len(rows) - 1} rows")
    rep = parse_json(report, f"compare {table} JSON", problems)
    if rep is None:
        return problems
    if rep.get("seeds") != seeds:
        problems.append(f"compare {table} used seeds {rep.get('seeds')}")
    if len(rep["rows"]) != len(pins):
        return problems + [f"compare {table} JSON has {len(rep['rows'])} "
                           "rows"]
    for row, pin in zip(rep["rows"], pins):
        if not close(row["group_mu"], pin[0], PIN_TOL):
            problems.append(f"table {table} {row['label']}: mu "
                            f"{row['group_mu']:.6f} != pin {pin[0]}")
        if len(pin) > 1 and not close(row["welch"], pin[1], PIN_TOL):
            problems.append(f"table {table} {row['label']}: welch "
                            f"{row['welch']:.6f} != pin {pin[1]}")
        if len(row["random_mu"]) != len(seeds):
            problems.append(f"table {table} {row['label']}: "
                            f"{len(row['random_mu'])} baselines")
    return problems


def check_sl2(q: int, mode: str, report: bytes) -> list[str]:
    problems: list = []
    rep = parse_json(report, f"sl2 {mode} q={q} report", problems)
    if rep is None:
        return problems
    problems += check_report(rep)
    pin = SL2_PINS.get(q) if mode == "induced" else None
    if pin is not None and not (close(rep["mu"], pin[0], PIN_TOL)
                                and close(rep["welch"], pin[1], PIN_TOL)):
        problems.append(f"sl2 q={q}: (mu, welch) = ({rep['mu']:.6f}, "
                        f"{rep['welch']:.6f}) != pin {pin}")
    return problems


def parse_matrix(data: bytes, what: str, problems: list):
    """Integer matrix of a frame CSV; a leading '#' header line is
    skipped."""
    try:
        return np.loadtxt(io.BytesIO(data), delimiter=",", dtype=np.int64,
                          ndmin=2, comments="#")
    except ValueError as exc:
        problems.append(f"{what} is not an integer matrix: {exc}")
        return None


def check_construct(p: int, m: int, n: int, stdout: str, out: str,
                    matrix: bytes, exponents: bytes, provenance: bytes
                    ) -> list[str]:
    problems: list = []
    if stdout != out + "\n":
        problems.append("construct did not echo its output path")
    parse_json(provenance, "provenance", problems)
    header = parse_json(exponents.split(b"\n", 1)[0][1:], "exponent header",
                        problems)
    if header is not None and (header.get("m_rows"), header.get("n_cols")) \
            != (m, n):
        problems.append("exponent header disagrees with the frame size")
    exps = parse_matrix(exponents, "exponent CSV", problems)
    if exps is not None and (exps.shape != (m, n) or exps.min() < 0
                             or exps.max() >= p):
        problems.append(f"exponent CSV is {exps.shape} with values outside "
                        f"[0, {p})")
    entries = parse_matrix(matrix, "matrix CSV", problems)
    if entries is not None and entries.shape != (m, n):
        problems.append(f"matrix CSV is {entries.shape}")
    return problems


def check_file_report(key, report: bytes, histogram: bytes | None
                      ) -> list[str]:
    """Report of a frame read back with analyze --in."""
    problems: list = []
    rep = parse_json(report, "analyze --in report", problems)
    if rep is None:
        return problems
    problems += check_report(rep)
    pin = FILE_PINS.get(key)
    if pin is not None and not close(rep["mu"], pin, PIN_TOL):
        problems.append(f"GF({key[0]}^{key[1]}) m={key[2]}: mu "
                        f"{rep['mu']:.6f} != pin {pin}")
    problems += check_paths(rep)
    if histogram is not None:
        rows = parse_csv(histogram, "histogram CSV", problems)
        if rows is not None:
            total = sum(int(r[2]) for r in rows[1:])
            if total != rep["n"] * (rep["n"] - 1):
                problems.append(f"histogram counts sum to {total}")
    return problems


def check_bounds(n_min: int, n_max: int, table_csv: bytes) -> list[str]:
    problems: list = []
    rows = parse_csv(table_csv, "bounds CSV", problems)
    if rows is None:
        return problems
    if len(rows) - 1 != n_max - n_min + 1:
        problems.append(f"bounds CSV has {len(rows) - 1} rows, "
                        f"want {n_max - n_min + 1}")
    for row in rows[1:]:
        n, m = int(row[0]), int(row[1])
        if (n - 1) % m:
            problems.append(f"bounds row n={n}: m={m} does not divide n-1")
            break
    return problems


def check_paths(rep: dict) -> list[str]:
    """Both routes agree wherever both ran."""
    return [f"{key} = {rep['paths'][key]:.3g} > {ROUTE_TOL}"
            for key in ("mu_gap", "nu_gap")
            if key in rep["paths"] and rep["paths"][key] > ROUTE_TOL]


def check_sweep_case(p: int, r: int, m: int, rep: dict) -> list[str]:
    problems = check_report(rep) + check_paths(rep)
    n = p ** r
    if (n - 1) // m == 2 and n % 4 == 3:
        if not rep["property_flags"]["equiangular"]:
            problems.append("kappa = 2, n = 3 mod 4 frame not equiangular")
        if not close(rep["mu"], rep["welch"], ROUTE_TOL):
            problems.append(f"kappa = 2 frame: mu {rep['mu']} != welch "
                            f"{rep['welch']}")
    return problems


def check_large(rep: dict, subgroup: bool) -> list[str]:
    problems = check_report(rep)
    if subgroup and not rep["mu"] <= rep["bound_general"] + ROUTE_TOL:
        problems.append(f"mu {rep['mu']} above bound_general "
                        f"{rep['bound_general']}")
    return problems
