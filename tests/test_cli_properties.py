"""Property suite for the command line error contract.

Whatever the subcommand, flag values, input file or output path, main
returns 0, 2, 3 or 4, no exception escapes it, and stderr is empty or one
JSON line with "error" and "message".  The draws are derandomized and
bounded: fields stay small, and values above a size cap (a field degree,
a bin count, a bounds range) only reach its refusal.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupframes.cli import main
from groupframes.frames import (
    build_field_frame,
    build_hadamard_frame,
    build_random_exponent_frame,
    save_complex_csv,
    save_exponent_csv,
    save_sign_csv,
)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

BIG = "99999999999999999999"


def values(valid, invalid):
    """A flag value: mostly valid, else zero, negative, non-integer,
    empty, above a cap, or left out (None)."""
    return st.sampled_from(list(valid) * 3 + list(invalid))


P = values(["2", "3", "5", "7"], ["4", "1", "-3", "x", None])
R = values(["1", "2", "3"], ["0", "-1", "30", BIG, None])
M = values(["1", "2", "3", "4", "13"], ["0", "-1", "x", "1.5", BIG, None])
SEED = values(["0", "7"], ["-1", "x", BIG, None])
LOG_BASE = values(["e", "2", "10"], ["1", "0", "-2", "nan", "inf", "x",
                                     None])
# writable, in a missing directory, a directory, stdout's device
PATH = st.sampled_from(["ok", "ok", "missing", "dir", "/dev/null"])

# the flags that pick what a subcommand computes: one drawn per call
CHOICES = {
    "field": [("--field", P, R), ("--m", M)],
    "harmonic": [("--harmonic",
                  values(["2", "3", "7", "11"], ["4", "0", "-5", "x",
                                                 "65537", None]), M)],
    "sl2": [("--sl2",
             values(["4", "8", "16", "32", "8192", "65536"],
                    ["6", "2", "0", "-8", "131072", "x", None]),
             values(["1", "3", "5"], ["2", "0", "-1", "x", None])),
            ("--mode", values(["induced", "cuspidal"], ["both", None]))],
    "kappa": [("--kappa", values(["1", "2", "3"], ["0", "-1", "x", None]))],
    "regime": [("--regime", values(["n45"], ["n12", None]))],
    "none": [],
}
RANDOM = [("--random",), ("--seed", SEED), ("--bernoulli",)]
# per subcommand: the choices, its required flags, its other flags
COMMANDS = {
    "construct": (["field", "field", "harmonic", "none"],
                  [("--out", PATH)],
                  [("--exponent-out", PATH), ("--complex-out", PATH),
                   ("--no-normalize",)] + RANDOM),
    "analyze": (["field", "field", "harmonic", "sl2", "sl2", "none"], [],
                [("--report", PATH), ("--histogram", PATH),
                 ("--bins", values(["1", "5", "200"], ["0", "-1", "x",
                                                       "1000000000", None])),
                 ("--brute", values(["on", "off", "auto"], ["maybe", None])),
                 ("--log-base", LOG_BASE)] + RANDOM),
    "compare": (["none"],
                [("--table", values(["I", "II", "IV"], ["V", None]))],
                [("--seeds", st.lists(values(["1", "2", "3", "4", "0"],
                                             ["-1", "x"]), max_size=5)),
                 ("--bernoulli",), ("--out-json", PATH),
                 ("--out-csv", PATH)]),
    "bounds": (["kappa", "kappa", "regime", "none"],
               [("--n-min", values(["2", "4", "100"], ["1", "0", "-7", "x",
                                                       None])),
                ("--n-max", values(["40", "500"], ["1", "-3", "x",
                                                   "1000000000000", None]))],
               [("--step", values(["1", "7"], ["0", "-1", "x", None])),
                ("--log-base", LOG_BASE), ("--out", PATH)]),
}


def run_main(argv, scratch=None):
    """main(argv) with stdout and stderr captured and warnings raised."""
    out, err = io.StringIO(), io.StringIO()
    env = {} if scratch is None else {"GROUPFRAMES_SCRATCH": scratch}
    with mock.patch.dict(os.environ, env), warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, code, err):
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
        return
    lines = err.splitlines()
    assert len(lines) == 1, (argv, err)
    obj = json.loads(lines[0])
    assert obj.keys() == {"error", "message"}, (argv, err)


def resolve(token, tmp, k):
    return {"ok": os.path.join(tmp, f"out{k}"),
            "missing": os.path.join(tmp, "missing", f"out{k}"),
            "dir": tmp}.get(token, token)


@st.composite
def argvs(draw):
    """A subcommand with one of its choices, its required flags and up to
    four of its other flags, each with drawn values."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    choices, required, optional = COMMANDS[command]
    flags = CHOICES[draw(st.sampled_from(choices))] + required
    flags += draw(st.lists(st.sampled_from(optional), max_size=4,
                           unique=True))
    argv = [command]
    for flag, *value_strategies in flags:
        argv.append(flag)
        for strategy in value_strategies:
            token = draw(strategy)
            argv += token if isinstance(token, list) else \
                [] if token is None else [token]
    return argv


@SETTINGS
@given(argv=argvs(), scratch=st.sampled_from([None, "missing"]))
def test_cli_flags_keep_error_contract(argv, scratch):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [resolve(a, tmp, k) for k, a in enumerate(argv)]
        code, _, err = run_main(
            argv, None if scratch is None else os.path.join(tmp, scratch))
        assert_contract(argv, code, err)
        assert not [f for f in os.listdir(tmp) if f.startswith(".groupf")]


@pytest.fixture(scope="module")
def frame_files(tmp_path_factory):
    """Texts of the files construct writes: exponent CSVs with headers, a
    bare sign CSV, a complex CSV."""
    tmp = tmp_path_factory.mktemp("frames")
    writers = {
        "subgroup": (save_exponent_csv, build_field_frame(3, 3, 13)),
        "random": (save_exponent_csv,
                   build_random_exponent_frame(3, 2, 4, seed=1)),
        "hadamard": (save_exponent_csv, build_hadamard_frame(3, 7)),
        "sign": (save_sign_csv, build_hadamard_frame(3, 7)),
        "complex": (save_complex_csv, build_field_frame(3, 1, 2)),
    }
    texts = {}
    for name, (save, frame) in writers.items():
        save(frame, str(tmp / name))
        texts[name] = (tmp / name).read_text()
    return texts


JSON_VALUES = st.one_of(
    st.integers(-2, 6), st.sampled_from([40, 2 ** 31 - 1, 10 ** 30]),
    st.booleans(), st.none(), st.text(max_size=4),
    st.lists(st.integers(-2, 30), max_size=5))
HEADER_KEYS = ["p", "r", "m", "n_cols", "construction", "full_columns",
               "multiplier_values", "modulus", "format"]
CELLS = ["0", "1", "2", "-1", "3", "5", "x", "", "1.5", " 1", BIG]


def tampered(draw, text):
    """text with one drawn defect: truncated, a header key changed or
    dropped, the header replaced, a cell replaced, a row dropped or
    repeated, or raw bytes."""
    lines = text.split("\n")
    kind = draw(st.sampled_from(["none", "truncate", "header", "header-text",
                                 "cell", "row", "bytes"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text)))].encode()
    if kind == "header" and text.startswith("#"):
        header = json.loads(lines[0][1:])
        key = draw(st.sampled_from(HEADER_KEYS))
        if draw(st.booleans()):
            header.pop(key, None)
        else:
            header[key] = draw(JSON_VALUES)
        lines[0] = "# " + json.dumps(header)
    elif kind == "header-text":
        lines[0] = draw(st.text(max_size=20))
    elif kind == "cell":
        row = draw(st.integers(0, len(lines) - 2))
        cells = lines[row].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.sampled_from(CELLS))
        lines[row] = ",".join(cells)
    elif kind == "row":
        row = draw(st.integers(0, len(lines) - 2))
        lines[row:row + 1] = [] if draw(st.booleans()) else [lines[row]] * 2
    elif kind == "bytes":
        return draw(st.binary(max_size=40))
    return "\n".join(lines).encode()


@SETTINGS
@given(data=st.data())
def test_cli_input_files_keep_error_contract(frame_files, data):
    source = data.draw(st.sampled_from(sorted(frame_files)))
    content = tampered(data.draw, frame_files[source])
    brute = data.draw(st.sampled_from(["off", "auto", "on"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "wb") as fh:
            fh.write(content)
        argv = ["analyze", "--in", path, "--brute", brute]
        code, _, err = run_main(argv)
        assert_contract((argv, content), code, err)
