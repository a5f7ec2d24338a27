"""The three workloads.

Each workload makes its fixed operation list from the workload seed and
runs it as a closed loop with one client: the next operation starts when
the previous one has returned.  Only the generated inputs reach the
program.  Every operation's output is checked after it returns, outside
the timed call.

tables  CLI subprocesses, one at a time: the commands a reader runs to
        reproduce the paper's tables, including file writes and reads.
sweep   in-process analyze(brute="auto") on a stratified seeded sample of
        subgroup frames over every prime power n <= 1024 and m | n-1.
large   in-process analyze(brute="off") on large subgroup frames, each
        with a seeded random baseline at the same m.

Operations that fail on the seed program are kept apart as probes: each
run makes them once, after the timed loop, and reports each by name with
its error type.  They stay out of the operation list so that the list
measures work that completes, and fixing a defect does not change what the
list measures; a probe that starts to pass is reported as such.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import groupframes as G
from groupframes import cli as gf_cli

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 150
CHECK_FAILED = "CheckFailed: "


@dataclass
class Op:
    """One operation: a timed call into the program and its check."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], str]


def failed_checks(problems: list) -> list:
    return [CHECK_FAILED + p for p in problems]


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _report_digest(rep) -> str:
    # the CLI's report JSON format: sorted keys, indent 2
    return _sha(json.dumps(rep.to_dict(), sort_keys=True,
                           indent=2).encode())


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _prime_power(n: int):
    for p in range(2, n + 1):
        if n % p == 0:
            r, rest = 0, n
            while rest % p == 0:
                rest //= p
                r += 1
            return (p, r) if rest == 1 else None
    return None


def _divisors(x: int) -> list[int]:
    small = [d for d in range(1, int(x ** 0.5) + 1) if x % d == 0]
    return sorted(set(small) | {x // d for d in small})


class Workload:
    """What every workload provides: its operation list and probes, the
    fields its operations reuse, and the code a fresh interpreter runs to
    reach its first operation."""

    name = ""
    setup_repeats = 5
    in_process = False  # tables: call cli.main in-process, not as a child
    fields: list = []   # (p, r) of every field the operations reuse
    ops: list
    probes: list

    @property
    def setup_code(self) -> str:
        return ("import groupframes\n"
                f"for p, r in {self.fields!r}:\n"
                "    groupframes.build_field(p, r)")

    def setup(self) -> None:
        """Build the fields the operations reuse."""
        self.ctx = {(p, r): G.build_field(p, r) for p, r in self.fields}


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


# Known defects, run as probes.  analyze --sl2 q 1 at the largest
# admissible q of each family overflows int64 census weights and exits 1
# with a traceback.  compare --table I writes labels such as "(256, 51)"
# unquoted, so its CSV rows have one cell more than its header.
SL2_DEFECTS = {("induced", 8192), ("cuspidal", 65536)}
COMPARE_DEFECTS = {"I"}
SL2_Q_CAP = 2 ** 16


def admissible_q(mode: str, cap: int) -> list[int]:
    """q = 2**d <= cap, d >= 2, whose neighbor q-1 (induced) or q+1
    (cuspidal) is prime."""
    step = -1 if mode == "induced" else 1
    return [2 ** d for d in range(2, cap.bit_length())
            if _is_prime(2 ** d + step)]


class Tables(Workload):
    """CLI commands for Tables I, II and IV, every admissible SL2 q in both
    modes, two written and re-read frames, and one bound curve."""

    name = "tables"
    setup_code = "import groupframes.cli"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops: list[Op] = []
        self.probes: list[Op] = []
        seeds = [seed, seed + 1, seed + 2]
        for table in (("IV",) if tiny else ("I", "II", "IV")):
            self._compare(table, seeds)
        for mode in ("induced", "cuspidal"):
            for q in admissible_q(mode, 16 if tiny else SL2_Q_CAP):
                self._sl2(q, mode)
        files = (((3, 3, 13), "hist"), ((2, 4, 5), "off")) if tiny \
            else (((3, 7, 1093), "hist"), ((2, 12, 455), "off"))
        for (p, r, m), variant in files:
            self._construct_and_read(p, r, m, variant)
        n_min = 2 + seed % 100
        self._bounds(n_min, n_min + (50 if tiny else 6000))

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def read(self, name: str) -> bytes:
        try:
            return (self.workdir / name).read_bytes()
        except FileNotFoundError:
            return b""

    def call(self, argv: list[str]) -> CliResult:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = gf_cli.main(argv)
                except Exception:
                    # what the interpreter prints for an uncaught error
                    err.write(traceback.format_exc())
                    code = 1
            return CliResult(code, out.getvalue(), err.getvalue())
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "groupframes.cli", *argv],
                capture_output=True, text=True, env=child_env(), cwd=ROOT,
                timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return CliResult(-1, "", "TimeoutExpired: CLI call\n")
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def _add(self, name, argv, outputs, check, probe=False):
        def run():
            # no output left by an earlier call can pass for this one's
            for o in outputs:
                (self.workdir / o).unlink(missing_ok=True)
            return self.call(argv)

        def checked(res: CliResult) -> list:
            problems = checks.check_exit(res.code, res.stderr)
            return problems or failed_checks(check(res))

        def digest(res: CliResult) -> str:
            return _sha(str(res.code).encode(), res.stdout.encode(),
                        *(self.read(o) for o in outputs))

        (self.probes if probe else self.ops).append(
            Op(name, run, checked, digest))

    def _compare(self, table, seeds):
        js, cs = f"compare-{table}.json", f"compare-{table}.csv"
        argv = ["compare", "--table", table,
                "--seeds", *map(str, seeds),
                "--out-json", self.path(js), "--out-csv", self.path(cs)]
        self._add(f"compare --table {table}", argv, [js, cs],
                  lambda res: checks.check_compare(table, seeds, self.read(js),
                                                   self.read(cs)),
                  probe=table in COMPARE_DEFECTS)

    def _sl2(self, q, mode):
        rep = f"sl2-{mode}-{q}.json"
        argv = ["analyze", "--sl2", str(q), "1", "--mode", mode,
                "--report", self.path(rep)]
        self._add(f"analyze --sl2 {q} 1 --mode {mode}", argv, [rep],
                  lambda res: checks.check_sl2(q, mode, self.read(rep)),
                  probe=(mode, q) in SL2_DEFECTS)

    def _construct_and_read(self, p, r, m, variant):
        stem = f"field-{p}-{r}-{m}"
        out, exp, prov = f"{stem}.csv", f"{stem}.exp.csv", \
            f"{stem}.csv.provenance.json"
        argv = ["construct", "--field", str(p), str(r), "--m", str(m),
                "--out", self.path(out), "--exponent-out", self.path(exp)]
        self._add(f"construct --field {p} {r} --m {m}", argv,
                  [out, exp, prov],
                  lambda res: checks.check_construct(
                      p, m, p ** r, res.stdout, self.path(out),
                      self.read(out), self.read(exp), self.read(prov)))
        rep, hist = f"{stem}.report.json", f"{stem}.hist.csv"
        argv = ["analyze", "--in", self.path(exp), "--report", self.path(rep)]
        if variant == "hist":
            flags = ["--histogram", self.path(hist)]
            outputs = [rep, hist]
        else:
            flags = ["--brute", "off"]
            outputs = [rep]
        self._add(f"analyze --in {exp} {flags[0]}", argv + flags, outputs,
                  lambda res: checks.check_file_report(
                      (p, r, m), self.read(rep),
                      self.read(hist) if variant == "hist" else None))

    def _bounds(self, n_min, n_max):
        out = "bounds.csv"
        argv = ["bounds", "--regime", "n45", "--n-min", str(n_min),
                "--n-max", str(n_max), "--out", self.path(out)]
        self._add(f"bounds --regime n45 --n-min {n_min} --n-max {n_max}",
                  argv, [out],
                  lambda res: checks.check_bounds(n_min, n_max,
                                                  self.read(out)))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_LIMIT = 1024
SWEEP_OPS = 200


def sweep_population(limit: int) -> list[tuple[int, int, int]]:
    """Every (p, r, m) with n = p**r <= limit and m | n - 1, ordered by
    (n, m): the order the sample is stratified in."""
    cases = []
    for n in range(3, limit + 1):
        power = _prime_power(n)
        if power is not None:
            cases += [(*power, m) for m in _divisors(n - 1)]
    return cases


class Sweep(Workload):
    """analyze(brute="auto") on one seeded case from each of SWEEP_OPS
    equal strata of the (n, m)-ordered population, in seeded order."""

    name = "sweep"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        population = sweep_population(64 if tiny else SWEEP_LIMIT)
        rng = np.random.default_rng(seed)
        strata = np.array_split(np.arange(len(population)),
                                10 if tiny else SWEEP_OPS)
        picks = [int(rng.choice(s)) for s in strata]
        order = rng.permutation(len(picks))
        self.cases = [population[picks[k]] for k in order]
        self.fields = sorted({(p, r) for p, r, _ in self.cases})
        self.ops = [self._op(*case) for case in self.cases]
        self.probes: list[Op] = []

    def _op(self, p, r, m):
        def run():
            frame = G.build_field_frame(p, r, m, ctx=self.ctx[(p, r)])
            return G.analyze(frame, brute="auto")

        return Op(f"analyze GF({p}^{r}) m={m}", run,
                  lambda rep: failed_checks(
                      checks.check_sweep_case(p, r, m, rep.to_dict())),
                  _report_digest)


# ---------------------------------------------------------------------------
# large
# ---------------------------------------------------------------------------

LARGE_FRAMES = ((2, 16, 257), (2, 16, 255), (3, 10, 244), (3, 10, 671),
                (5, 8, 313), (2, 20, 41))
LARGE_TINY = ((2, 10, 33), (2, 10, 31), (3, 5, 11), (3, 5, 121))
# a random GF(2^20) baseline at m = 1025 exceeds EXP_CELL_CAP and is
# refused with ResourceCap before any analysis
CAP_WALL = (2, 20, 1025)
PAIRS_PER_FRAME = 4


def column_value(ctx, j: int) -> int:
    """Field value of column j: zero first, then generator powers."""
    return 0 if j == 0 else int(ctx.value_of_exp[j - 1])


def character_sum(ctx, multipliers, z: int) -> complex:
    """(1/m) sum_a w**Tr(a z) over the multiplier list, from the tables."""
    mv = np.asarray(multipliers, dtype=np.int64)
    nz = mv != 0
    prod = np.zeros(len(mv), dtype=np.int64)
    prod[nz] = ctx.value_of_exp[(ctx.log_of_value[mv[nz]]
                                 + ctx.log_of_value[z]) % (ctx.n - 1)]
    tr = ctx.trace_of_value[prod]
    return complex(np.exp(2j * np.pi * tr / ctx.p).sum() / len(mv))


def check_inner_products(frame, pairs) -> list[str]:
    """inner_product_exact at (i, j) against the character sum at
    z = x_j - x_i."""
    ctx = frame.ctx
    ef = frame.as_exponent_frame() if hasattr(frame, "as_exponent_frame") \
        else frame
    problems = []
    for i, j in pairs:
        z = ctx.sub(ctx.from_value(column_value(ctx, j)),
                    ctx.from_value(column_value(ctx, i))).value
        got = G.inner_product_exact(ef, i, j)
        want = character_sum(ctx, frame.multiplier_values, z)
        if abs(got - want) > checks.ROUTE_TOL:
            problems.append(f"<f_{i}, f_{j}> = {got:.6g} but the character "
                            f"sum at z = {z} is {want:.6g}")
    return problems


class Large(Workload):
    """analyze(brute="off") on large subgroup frames and a seeded random
    baseline at each m; fields are built once in set-up."""

    name = "large"
    setup_repeats = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        frames = LARGE_TINY if tiny else LARGE_FRAMES
        self.fields = sorted({(p, r) for p, r, _ in frames}
                             | (set() if tiny else {CAP_WALL[:2]}))
        rng = np.random.default_rng(seed)
        self.ops = []
        for p, r, m in frames:
            n = p ** r
            for random in (False, True):
                pairs = [tuple(int(v) for v in rng.choice(n, 2, replace=False))
                         for _ in range(PAIRS_PER_FRAME)]
                self.ops.append(self._op(p, r, m, pairs,
                                         int(rng.integers(2 ** 31))
                                         if random else None))
        self.probes = [] if tiny else [
            self._op(*CAP_WALL, [], int(rng.integers(2 ** 31)))]

    def _op(self, p, r, m, pairs, random_seed):
        def run():
            ctx = self.ctx[(p, r)]
            if random_seed is None:
                frame = (G.build_hadamard_frame(r, m, ctx=ctx) if p == 2
                         else G.build_field_frame(p, r, m, ctx=ctx))
            elif p == 2:
                frame = G.build_random_hadamard_frame(r, m, random_seed,
                                                      ctx=ctx)
            else:
                frame = G.build_random_exponent_frame(p, r, m, random_seed,
                                                      ctx=ctx)
            return frame, G.analyze(frame, brute="off")

        def check(result):
            frame, rep = result
            return failed_checks(
                checks.check_large(rep.to_dict(), random_seed is None)
                + check_inner_products(frame, pairs))

        kind = "subgroup" if random_seed is None else \
            f"random seed={random_seed}"
        return Op(f"analyze GF({p}^{r}) m={m} {kind}", run, check,
                  lambda result: _report_digest(result[1]))


WORKLOADS = {"tables": Tables, "sweep": Sweep, "large": Large}
