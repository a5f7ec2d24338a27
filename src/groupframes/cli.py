"""Command-line front end: construct frames, analyze coherence, compare
against seeded random baselines, and emit bound curves.

A command takes exactly one frame source: --field, --harmonic, or for
analyze --in or --sl2.  All outputs are deterministic for a fixed
configuration: JSON is written with sorted keys and no timestamps, a
report as its CoherenceReport.to_dict(), the one report schema; CSV
cells are fixed-format; files are written atomically (temp file in the
target directory, or in GROUPFRAMES_SCRATCH when set, then renamed).
Exit codes: 0 success, 2 validation error (including an output path that
cannot be written), 3 resource cap, 4 internal invariant violation, with
a one-line JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import sys
import uuid
from contextlib import contextmanager, nullcontext
from itertools import chain
from operator import itemgetter

import numpy as np

from .coherence import CoherenceReport, _check_log_base, analyze, \
    bound_general_kappa, bound_m_odd, coherence_bruteforce, \
    property_thresholds, random_fourier_bound, welch_bound
from .errors import (
    InvariantViolation,
    ResourceCap,
    ResourceError,
    ValidationError,
)
from .frames import (
    COMPLEX_CELL_CAP,
    RNG_NAME,
    ComplexFrame,
    _check_cells,
    build_field_frame,
    build_hadamard_frame,
    build_harmonic_frame,
    build_random_exponent_frame,
    build_random_hadamard_frame,
    load_frame,
    save_complex_csv,
    save_exponent_csv,
    save_sign_csv,
)
from .gf import prime_factors
from .sl2 import sl2_report

TABLE_I = ((8, 51), (8, 85), (9, 73), (10, 341), (12, 455))
TABLE_II = ((3, 3, 13), (3, 5, 121), (3, 7, 1093), (7, 3, 171), (11, 3, 665))
TABLE_IV = ((4, 1), (8, 1), (8, 3))
DEFAULT_SEEDS = (1, 2, 3)
# the histogram rows cost time and memory per bin: 10**6 bins took 2.2 s
# and 160 MiB on the widest census (README)
BINS_CAP = 10 ** 6
# histogram rows formatted per block, which bounds the temporary strings
_CSV_BLOCK = 2 ** 16
# bounds visits every n of its range; --regime also factors each n - 1 by
# trial division, at most sqrt(n - 1) candidates a row (README)
BOUNDS_ROW_CAP = 10 ** 5
BOUNDS_TRIAL_CAP = 10 ** 8


class UsageError(ValidationError):
    """Bad command line arguments."""


# ---------------------------------------------------------------------------
# deterministic output helpers
# ---------------------------------------------------------------------------

@contextmanager
def _atomic(path: str):
    """Yield a temp path; on success rename it onto the target.

    Symlinks, devices, and pipes (/dev/stdout and friends) are written
    through directly because renaming over them would replace the node.
    A path that cannot be written (a missing directory, no permission, a
    bad GROUPFRAMES_SCRATCH) raises ValidationError naming it, and no
    temp file is left behind.  The file gets the mode open(path, "w")
    would leave: the replaced file's own, or 0o666 less the umask.
    """
    path = os.path.abspath(path)
    scratch = os.environ.get("GROUPFRAMES_SCRATCH")
    try:
        if os.path.islink(path) or (os.path.exists(path)
                                    and not os.path.isfile(path)):
            yield path
            return
        tmpdir = scratch if scratch else os.path.dirname(path)
        # created as open(path, "w") creates a file, 0o666 less the umask
        tmp = os.path.join(tmpdir, f".groupframes-{uuid.uuid4().hex}")
        open(tmp, "x").close()
        try:
            if os.path.exists(path):
                shutil.copymode(path, tmp)
            yield tmp
            try:
                os.replace(tmp, path)
            except OSError:
                shutil.move(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        via = f" (temp files in {scratch})" if scratch else ""
        raise ValidationError(f"cannot write {path}{via}: "
                              f"{exc.strerror or exc}") from None


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    with _atomic(path) as tmp:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) and a newline; a
    CoherenceReport is written as its to_dict().

    An indented dump runs the pure-Python encoder, which takes seconds on
    a census of 10**5 values, so a report's long lists (the two censuses
    and an SL2 report's p - 1 w_values) are dumped empty and spliced back
    in, one %r template per entry, built from its sorted keys for a
    census entry: to_dict gives the entries Python ints and finite
    floats, whose %r is the text json.dumps writes.
    """
    if not isinstance(obj, CoherenceReport):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    d = obj.to_dict()
    lists = {key: d[key] for key in ("distinct_values", "distinct_magnitudes",
                                     "w_values") if d.get(key)}
    d.update(dict.fromkeys(lists, []))
    text = json.dumps(d, sort_keys=True, indent=2)
    for key, entries in lists.items():
        if key == "w_values":
            entry, flat = "    %r", tuple(entries)
        else:
            keys = sorted(entries[0])
            entry = "    {\n" + ",\n".join(f'      "{k}": %r' for k in keys) \
                + "\n    }"
            flat = tuple(chain.from_iterable(map(itemgetter(*keys),
                                                 entries)))
        body = "[\n" + ",\n".join([entry] * len(entries)) % flat + "\n  ]"
        # a raw newline cannot sit inside a JSON string, and nested keys
        # are indented deeper, so this is the top-level key
        text = text.replace(f'\n  "{key}": []', f'\n  "{key}": {body}', 1)
    return text + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _csv_text(header: list[str], rows: list[list]) -> str:
    # the csv module quotes a cell only when it holds a comma (or a quote)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return out.getvalue()


def _parse_log_base(text: str) -> float | None:
    if text == "e":
        return None
    try:
        base = float(text)
    except ValueError:
        raise UsageError(f"--log-base must be 'e' or a number, got {text!r}")
    _check_log_base(base)
    return base


# ---------------------------------------------------------------------------
# frame construction from flags
# ---------------------------------------------------------------------------

def _build_from_args(args):
    # the parser admits exactly one of the frame sources
    if getattr(args, "infile", None) is not None:
        return load_frame(args.infile)
    if args.field is not None and args.m is None:
        raise UsageError("--field requires --m")
    if args.random and args.seed is None:
        raise UsageError("--random requires --seed")
    if args.field is not None:
        p, r = args.field
        if args.random:
            if p == 2:
                return build_random_hadamard_frame(r, args.m, args.seed,
                                                   bernoulli=args.bernoulli)
            return build_random_exponent_frame(p, r, args.m, args.seed,
                                               bernoulli=args.bernoulli)
        if p == 2:
            return build_hadamard_frame(r, args.m)
        return build_field_frame(p, r, args.m)
    n, m = args.harmonic
    if args.random:
        return build_random_exponent_frame(n, 1, m, args.seed,
                                           bernoulli=args.bernoulli)
    return build_harmonic_frame(n, m)


def _add_construction_flags(sub, with_infile: bool):
    # returns the group of frame sources, of which exactly one is given
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--field", nargs=2, type=int, metavar=("P", "R"),
                        help="prime p and extension degree r")
    sub.add_argument("--m", type=int, default=None,
                     help="number of rows (subgroup order, or draw count "
                          "with --random)")
    source.add_argument("--harmonic", nargs=2, type=int, metavar=("N", "M"),
                        help="prime n and row count m (degree-1 characters)")
    sub.add_argument("--random", action="store_true",
                     help="draw the row multipliers at random instead of "
                          "using the subgroup")
    sub.add_argument("--seed", type=int, default=None,
                     help="PRNG seed for --random")
    sub.add_argument("--bernoulli", action="store_true",
                     help="sample rows via independent Bernoulli(m/n) "
                          "instead of exactly m without replacement")
    if with_infile:
        source.add_argument("--in", dest="infile", default=None,
                            help="read a frame from a CSV written by "
                                 "construct")
    return source


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    frame = _build_from_args(args)
    if args.complex_out:  # refused before any file is written
        _check_cells(frame.m_rows, frame.n_cols, COMPLEX_CELL_CAP)
    # --exponent-out is renamed into place last, so that its text is what
    # a path named twice (as --out or the provenance file too) ends with
    with (_atomic(args.exponent_out) if args.exponent_out
          else nullcontext()) as exp, _atomic(args.out) as out:
        copies = [exp] if exp else []
        # Hadamard constructions are written as their +-1 rows; any other
        # frame's exponent text is formatted once for --out and the copy
        if "sylvester_rows" in frame.provenance:
            save_sign_csv(frame, out)
            if copies:
                save_exponent_csv(frame, *copies)
        else:
            save_exponent_csv(frame, out, *copies)
        _write_text(args.out + ".provenance.json",
                    _json_text(frame.provenance))
    if args.complex_out:
        with _atomic(args.complex_out) as tmp:
            save_complex_csv(frame, tmp, normalize=not args.no_normalize)
    sys.stdout.write(args.out + "\n")
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _histogram_csv(magnitudes: list, bins: int) -> str:
    # magnitudes: the report's (value, count) pairs; the bins are those of
    # np.histogram over [0, max], each closed on the left and the last
    # closed on both sides
    vals = np.array([v for v, _ in magnitudes], dtype=np.float64)
    cnts = [c for _, c in magnitudes]
    hi = float(vals.max()) if len(vals) else 0.0
    if hi <= 0.0:
        hi = 1.0
    edges = np.histogram_bin_edges(vals, bins=bins, range=(0.0, hi))
    where = np.minimum(np.searchsorted(edges, vals, side="right") - 1,
                       bins - 1)
    # counts can exceed int64 (SL2 at the largest q); keep them exact
    counts = np.zeros(bins, dtype=np.int64 if sum(cnts) < 2 ** 63
                      else object)
    np.add.at(counts, where, np.array(cnts, dtype=counts.dtype))
    # one %-template per row, a block of rows at a time; each edge is
    # formatted once, the right edge of a bin being the left of the next
    parts = ["bin_left,bin_right,count\n"]
    for lo in range(0, bins, _CSV_BLOCK):
        end = min(lo + _CSV_BLOCK, bins)
        cells = ("%.17g," * (end - lo + 1)
                 % tuple(edges[lo:end + 1].tolist())).split(",")
        rows = zip(cells[:-2], cells[1:-1], counts[lo:end].tolist())
        parts.append("%s,%s,%d\n" * (end - lo)
                     % tuple(chain.from_iterable(rows)))
    return "".join(parts)


def cmd_analyze(args) -> int:
    log_base = _parse_log_base(args.log_base)
    if args.histogram and args.bins < 1:
        raise UsageError(f"--bins must be >= 1, got {args.bins}")
    if args.histogram and args.bins > BINS_CAP:
        raise ResourceCap(f"--bins {args.bins} exceeds the cap {BINS_CAP}")
    if args.sl2 is not None:
        q, m = args.sl2
        report = sl2_report(q, m, args.mode, log_base=log_base)
    else:
        report = analyze(_build_from_args(args), brute=args.brute,
                         log_base=log_base)
    _write_text(args.report, _json_text(report))
    if args.histogram:
        _write_text(args.histogram,
                    _histogram_csv(report.distinct_magnitudes, args.bins))
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _gaussian_mu(dim: int, n: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
    mat = mat / np.linalg.norm(mat, axis=0, keepdims=True)
    frame = ComplexFrame(entries=mat, normalized=True)
    return coherence_bruteforce(frame, census=False)["mu"]


def _compare_row(label: str, group, bound_kind: str, per_seed: list) -> dict:
    # group is a frame or SL2 report, per_seed the baseline mus
    return {
        "label": label,
        "n": group.n,
        "m_dim": group.m_dim,
        "group_mu": group.mu,
        "welch": group.welch,
        "bound": group.to_dict()[bound_kind],
        "bound_kind": bound_kind,
        "random_mu": per_seed,
        "random_median": statistics.median(per_seed),
        "flags": group.property_flags,
    }


def _field_row(label: str, build, build_random, params: tuple, seeds,
               bernoulli: bool) -> dict:
    # build(*params) is the group frame, build_random(*params, seed) a
    # baseline with the same shape over the group frame's field; the
    # baselines share that field, and the frame's cells are let go
    frame = build(*params)
    ctx, group = frame.ctx, analyze(frame, brute="off")
    del frame
    per_seed = [
        analyze(build_random(*params, s, ctx=ctx, bernoulli=bernoulli),
                brute="off").mu
        for s in seeds]
    return _compare_row(label, group, "bound_general", per_seed)


def _sl2_row(q: int, m: int, seeds) -> dict:
    rep = sl2_report(q, m, "induced")
    per_seed = [_gaussian_mu(rep.m_dim, rep.n, s) for s in seeds]
    return _compare_row(f"{rep.m_dim} x {rep.n}", rep, "sl2_bound", per_seed)


def cmd_compare(args) -> int:
    seeds = list(args.seeds)
    if len(seeds) < 3:
        raise UsageError(f"need at least 3 seeds, got {len(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise UsageError("seeds must be distinct")
    if min(seeds) < 0:
        raise UsageError(f"seeds must be >= 0, got {min(seeds)}")
    if args.table == "I":
        rows = [_field_row(f"({2 ** r}, {m})", build_hadamard_frame,
                           build_random_hadamard_frame, (r, m), seeds,
                           args.bernoulli)
                for r, m in TABLE_I]
        baseline = "random-hadamard-rows"
    elif args.table == "II":
        rows = [_field_row(f"{p}^{r}", build_field_frame,
                           build_random_exponent_frame, (p, r, m), seeds,
                           args.bernoulli)
                for p, r, m in TABLE_II]
        baseline = "random-multipliers"
    else:
        rows = [_sl2_row(q, m, seeds) for q, m in TABLE_IV]
        baseline = "gaussian-column-normalized"
    report = {
        "schema_version": 1,
        "table": args.table,
        "seeds": seeds,
        "rng": RNG_NAME,
        "baseline": baseline,
        "sampling": ("bernoulli-rate-m-over-n" if args.bernoulli
                     else "without-replacement-draw-order"),
        "rows": rows,
    }
    if args.out_json:
        _write_text(args.out_json, _json_text(report))
    columns = ["label", "n", "m_dim", "group_mu", "welch", "bound",
               "random_median"]
    csv_rows = [[row[k] for k in columns] + row["random_mu"] for row in rows]
    _write_text(args.out_csv, _csv_text(
        columns + [f"random_seed_{s}" for s in seeds], csv_rows))
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _divisors(x: int) -> list[int]:
    # ascending, every product of prime powers dividing x
    out = [1]
    for q in prime_factors(x):
        powers = [1]
        while x % (powers[-1] * q) == 0:
            powers.append(powers[-1] * q)
        out = [d * e for d in out for e in powers]
    return sorted(out)


def _bound_row(n: int, m: int, kappa: int, m_requested: int | None,
               log_base: float | None) -> list:
    welch = welch_bound(n, m)
    bg = bound_general_kappa(m, kappa)
    bmo = bound_m_odd(m, kappa)
    rf = random_fourier_bound(n, m)
    cp, scp = property_thresholds(n, log_base)
    snapped = None if m_requested is None else (m != m_requested)
    return [n, m, kappa, m_requested, snapped, welch, bg, bmo, rf, cp, scp]


def cmd_bounds(args) -> int:
    log_base = _parse_log_base(args.log_base)
    if (args.kappa is None) == (args.regime is None):
        raise UsageError("choose exactly one of --kappa or --regime")
    if args.n_min < 2 or args.n_max < args.n_min:
        raise UsageError(f"need 2 <= n_min <= n_max, got "
                         f"[{args.n_min}, {args.n_max}]")
    if args.step < 1:
        raise UsageError(f"--step must be >= 1, got {args.step}")
    count = (args.n_max - args.n_min) // args.step + 1
    if count > BOUNDS_ROW_CAP:
        raise ResourceCap(f"{count} values of n exceed the row cap "
                          f"{BOUNDS_ROW_CAP}")
    trials = count * math.isqrt(args.n_max - 1)
    if args.regime is not None and trials > BOUNDS_TRIAL_CAP:
        raise ResourceCap(f"{count} rows up to n = {args.n_max} need "
                          f"{trials} divisor trials, above the cap "
                          f"{BOUNDS_TRIAL_CAP}")
    rows = []
    if args.kappa is not None:
        if args.kappa < 1:
            raise UsageError(f"--kappa must be >= 1, got {args.kappa}")
        for n in range(args.n_min, args.n_max + 1, args.step):
            if (n - 1) % args.kappa:
                continue
            rows.append(_bound_row(n, (n - 1) // args.kappa, args.kappa,
                                   None, log_base))
    else:
        for n in range(args.n_min, args.n_max + 1, args.step):
            target = max(1, round(n ** 0.8))
            m = min(_divisors(n - 1), key=lambda d: (abs(d - target), d))
            rows.append(_bound_row(n, m, (n - 1) // m, target, log_base))
    header = ["n", "m", "kappa", "m_requested", "snapped", "welch",
              "bound_general", "bound_m_odd", "random_fourier_bound",
              "coherence_property_threshold", "strong_property_threshold"]
    _write_text(args.out, _csv_text(header, rows))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="groupframes",
                     description="Tight group frames from field characters "
                                 "and their coherence.")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a frame and write it out")
    _add_construction_flags(con, with_infile=False)
    con.add_argument("--out", required=True,
                     help="matrix CSV path (sign rows for Hadamard rows, "
                          "i.e. --field 2 R, exponent rows otherwise); "
                          "provenance JSON written alongside")
    con.add_argument("--exponent-out", default=None,
                     help="also write the reloadable exponent CSV")
    con.add_argument("--complex-out", default=None,
                     help="also write the complex entries as re,im columns")
    con.add_argument("--no-normalize", action="store_true",
                     help="skip unit-norm column scaling in --complex-out")
    con.set_defaults(func=cmd_construct)

    ana = sub.add_parser("analyze", help="coherence report for one frame")
    source = _add_construction_flags(ana, with_infile=True)
    source.add_argument("--sl2", nargs=2, type=int, metavar=("Q", "M"),
                        default=None, help="character-level analysis of "
                                           "the SL2(F_q) frame")
    ana.add_argument("--mode", choices=("induced", "cuspidal"),
                     default="induced", help="representation family "
                                             "for --sl2")
    ana.add_argument("--report", default=None,
                     help="report JSON path (default: stdout)")
    ana.add_argument("--histogram", default=None,
                     help="CSV of binned off-diagonal Gram magnitudes")
    ana.add_argument("--bins", type=int, default=200,
                     help=f"histogram bin count (default 200, at most "
                          f"{BINS_CAP})")
    ana.add_argument("--brute", choices=("on", "off", "auto"),
                     default="auto",
                     help="verification level: off uses the character "
                          "sums alone, auto and on add the dense checks "
                          "and the Gram oracle")
    ana.add_argument("--log-base", default="e",
                     help="log base for the property thresholds "
                          "(default natural)")
    ana.set_defaults(func=cmd_analyze)

    cmp_ = sub.add_parser("compare",
                          help="group construction vs seeded random "
                               "baselines")
    cmp_.add_argument("--table", choices=("I", "II", "IV"), required=True,
                      help="which published comparison to reproduce")
    cmp_.add_argument("--seeds", nargs="+", type=int,
                      default=list(DEFAULT_SEEDS),
                      help="baseline seeds (>= 3, default 1 2 3)")
    cmp_.add_argument("--bernoulli", action="store_true",
                      help="Bernoulli(m/n) row sampling for the baselines")
    cmp_.add_argument("--out-json", default=None,
                      help="full-precision report JSON path")
    cmp_.add_argument("--out-csv", default=None,
                      help="6-significant-digit CSV path (default: stdout)")
    cmp_.set_defaults(func=cmd_compare)

    bnd = sub.add_parser("bounds", help="CSV of coherence bound curves")
    bnd.add_argument("--kappa", type=int, default=None,
                     help="fixed subgroup index; rows at every n with "
                          "kappa | n-1")
    bnd.add_argument("--regime", choices=("n45",), default=None,
                     help="m = n^(4/5) regime, m snapped to the nearest "
                          "divisor of n-1")
    bnd.add_argument("--n-min", type=int, required=True)
    bnd.add_argument("--n-max", type=int, required=True)
    bnd.add_argument("--step", type=int, default=1,
                     help="stride through the n range (default 1)")
    bnd.add_argument("--log-base", default="e",
                     help="log base for the property thresholds")
    bnd.add_argument("--out", default=None,
                     help="output CSV path (default: stdout)")
    bnd.set_defaults(func=cmd_bounds)
    return parser


def _error_exit(exc: Exception, code: int) -> int:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)},
        sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        return _error_exit(exc, 2)
    except ResourceError as exc:
        return _error_exit(exc, 3)
    except InvariantViolation as exc:
        return _error_exit(exc, 4)


if __name__ == "__main__":
    sys.exit(main())
