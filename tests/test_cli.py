import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bialgebroid import ExteriorError, InternalError, cli, pair_from_json
from bialgebroid.cli import build_parser, main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"

STRIP_ELAPSED = re.compile(r',\s*"elapsed_ms": \d+')


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, STRIP_ELAPSED.sub("", out)


@pytest.fixture(autouse=True)
def repo_root_cwd(monkeypatch):
    # spec paths are echoed verbatim in reports, so pin the working directory
    monkeypatch.chdir(ROOT)


GOLDEN_CASES = [
    ("check-a-plus-b", 0, ["check", "tests/fixtures/a-plus-b.json"]),
    ("validate-invalid-jacobi", 1, ["validate", "tests/fixtures/invalid-jacobi.json"]),
    ("identities-theorem-c-a-plus-b", 0,
     ["identities", "tests/fixtures/a-plus-b.json", "--suite", "theorem-c"]),
    ("modular-poisson-linear", 0, ["modular", "tests/fixtures/poisson-linear.json"]),
    ("example-a-plus-b", 0,
     ["example", "a-plus-b", "--a", "1", "--b", "2", "--c", "3", "--d", "4"]),
    ("identities-courant-broken-rank3", 1,
     ["identities", "tests/fixtures/broken-rank3.json", "--suite", "courant"]),
    ("identities-theorem-c-pn-diag-x1-1-1", 1,
     ["identities", "tests/fixtures/pn-diag-x1-1-1.json", "--suite", "theorem-c"]),
    ("identities-courant-pn-diag-x1-1-1", 1,
     ["identities", "tests/fixtures/pn-diag-x1-1-1.json", "--suite", "courant"]),
]


@pytest.mark.parametrize("name, want_code, argv", GOLDEN_CASES)
def test_golden_output(capsys, name, want_code, argv):
    code, out = run(capsys, *argv)
    assert code == want_code
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name, want_code, argv", GOLDEN_CASES)
def test_output_is_stable_across_runs(capsys, name, want_code, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_exit_status_field_matches_return_code(capsys):
    for _, want, argv in GOLDEN_CASES:
        code, out = run(capsys, *argv)
        assert json.loads(out)["exit_status"] == code == want


# -- exit code policy ------------------------------------------------------------


def test_validate_good_pair(capsys):
    code, out = run(capsys, "validate", "tests/fixtures/poisson-linear.json")
    assert code == 0
    body = json.loads(out)
    assert body["pass"] and body["A"]["jacobi_ok"]


def test_check_incompatible_pair_is_exit_1(capsys):
    code, out = run(capsys, "check", "tests/fixtures/broken-rank3.json")
    assert code == 1
    body = json.loads(out)
    assert body["is_scalar"] is False
    assert body["square_formula_ok"] is True
    assert "witness" in body


def test_identities_all_suites_on_good_pair(capsys):
    for suite in ("theorem-c", "corollaries", "courant", "generator"):
        code, out = run(capsys, "identities", "tests/fixtures/a-plus-b.json",
                        "--suite", suite)
        assert code == 0, suite
        body = json.loads(out)["suite"]
        assert body["pass"] is True
        assert all(r["pass"] for r in body["identities"])


def test_corollaries_refused_without_compatibility(capsys):
    code, out = run(capsys, "identities", "tests/fixtures/broken-rank3.json",
                    "--suite", "corollaries")
    assert code == 2
    assert "error" in json.loads(out)


def test_bad_bracket_key_is_input_error(capsys):
    code, out = run(capsys, "validate", "tests/fixtures/bad-key.json")
    assert code == 2
    assert "1 <= i < j" in json.loads(out)["error"]


def test_missing_file_is_input_error(capsys):
    code, out = run(capsys, "check", "tests/fixtures/no-such-file.json")
    assert code == 2
    assert "error" in json.loads(out)


def usage_error(capsys, *argv):
    """The "error" text of a rejected command line; asserts the contract."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    body = json.loads(captured.out)
    assert body["exit_status"] == 2
    assert captured.err.startswith("usage: bialgebroid")
    return body["error"]


def test_unknown_subcommand(capsys):
    assert "invalid choice: 'frobnicate'" in usage_error(capsys, "frobnicate")


def test_probe_degree_flag_is_a_usage_error(capsys):
    error = usage_error(capsys, "check", "tests/fixtures/a-plus-b.json", "--probe-degree", "3")
    assert "unrecognized arguments: --probe-degree 3" in error


def test_missing_suite_is_a_usage_error(capsys):
    error = usage_error(capsys, "identities", "tests/fixtures/a-plus-b.json")
    assert error.startswith("bialgebroid identities: ") and "--suite" in error


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["check", "--help"]) == 0
    assert "usage: bialgebroid" in capsys.readouterr().out


def test_deeply_nested_polynomial_is_input_error(capsys, tmp_path):
    doc = json.loads((ROOT / "tests/fixtures/a-plus-b.json").read_text())
    doc["A"]["brackets"]["1,2"][0] = "(" * 3000 + "1" + ")" * 3000
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", str(path))
    assert code == 2
    assert "nested deeper than" in json.loads(out)["error"]


DEEP_JSON = "[" * 100000


def test_deeply_nested_document_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code, out = run(capsys, "check", str(path))
    assert code == 2
    assert "nests too deeply" in json.loads(out)["error"]


@pytest.mark.parametrize("argv", [
    ["example", "poisson", "--dim", "2", "--pi", DEEP_JSON],
    ["example", "exact", "tests/fixtures/tangent-r3.json", "--lambda", DEEP_JSON],
    ["example", "pn", "tests/fixtures/tangent-r3.json", "--n", DEEP_JSON,
     "--lambda", '{"1,2": "1"}'],
])
def test_deeply_nested_json_option_is_input_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert "nests too deeply" in json.loads(out)["error"]


LONG_INT = "1" * 5000  # longer than Python's default 4300-digit int() limit


def _doc_with(tmp_path, name, edit, fixture="a-plus-b.json"):
    doc = json.loads((ROOT / "tests/fixtures" / fixture).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name, edit", [
    ("long-key.json", lambda doc: doc["A"]["brackets"].update({f"1,{LONG_INT}": ["1", "0"]})),
    ("long-literal.json", lambda doc: doc["A"]["brackets"]["1,2"].__setitem__(0, LONG_INT)),
    ("long-denominator.json",
     lambda doc: doc["A"]["brackets"]["1,2"].__setitem__(0, "1/" + LONG_INT)),
])
def test_integer_past_the_digit_limit_in_a_document_is_input_error(capsys, tmp_path, name, edit):
    code, out = run(capsys, "check", _doc_with(tmp_path, name, edit))
    body = json.loads(out)
    assert code == 2 and "internal" not in body, body


def test_bracket_key_past_the_digit_limit_is_out_of_range_on_both_paths(capsys, tmp_path):
    """A document key and a --lambda key go through one parse, with one message."""
    key = f"1,{LONG_INT}"
    path = _doc_with(tmp_path, "long-key.json",
                     lambda doc: doc["A"]["brackets"].update({key: ["1", "0"]}))
    code, out = run(capsys, "check", path)
    assert code == 2
    assert json.loads(out)["error"] == f"A.brackets key '{key}' must satisfy 1 <= i < j <= 2"
    code, out = run(capsys, "example", "exact", "tests/fixtures/tangent-r3.json",
                    "--lambda", json.dumps({key: "1"}))
    assert code == 2
    assert json.loads(out)["error"] == f"--lambda key '{key}' must satisfy 1 <= i < j <= 3"


@pytest.mark.parametrize("command", ["validate", "check", "modular"])
@pytest.mark.parametrize("key, value", [("rank", 2.0), ("base_dim", 2.0), ("rank", True)])
def test_header_number_that_is_not_a_json_integer_is_input_error(capsys, tmp_path, command,
                                                                  key, value):
    # poisson-linear has base_dim 2 and rank 2: only the JSON type is wrong
    path = _doc_with(tmp_path, "not-an-integer.json", lambda doc: doc.__setitem__(key, value),
                     "poisson-linear.json")
    code, out = run(capsys, command, path)
    body = json.loads(out)
    assert code == 2 and "internal" not in body, body
    assert body["error"].startswith(f"schema violation at {key}: must be an integer"), body


def test_json_integer_past_the_digit_limit_is_input_error(capsys, tmp_path):
    path = tmp_path / "long-rank.json"
    path.write_text((ROOT / "tests/fixtures/a-plus-b.json").read_text()
                    .replace('"rank": 2', f'"rank": {LONG_INT}'))
    code, out = run(capsys, "check", str(path))
    assert code == 2
    assert "is not valid JSON" in json.loads(out)["error"]


def test_document_that_is_not_utf8_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes((ROOT / "tests/fixtures/a-plus-b.json").read_text()
                     .replace('"a-plus-b"', '"\u00e9"').encode("latin-1"))
    code, out = run(capsys, "check", str(path))
    assert code == 2
    assert "utf-8" in json.loads(out)["error"]


def test_lambda_entry_that_is_not_text_is_input_error(capsys):
    code, out = run(capsys, "example", "exact", "tests/fixtures/tangent-r3.json",
                    "--lambda", '{"1,2": 5}')
    assert code == 2
    assert "expected polynomial text" in json.loads(out)["error"]


def _cli_subprocess(*argv):
    """Run the CLI in a fresh interpreter; a parse that runs away times out
    here instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "bialgebroid.cli", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("value", ["1/0", "1e999999999", "1.5", "abc", "", "\u0663",
                                   "1/-2", LONG_INT, "1/" + LONG_INT],
                         ids=lambda v: f"{v[:4]}...{len(v)}-chars" if len(v) > 40 else None)
def test_example_a_plus_b_bad_parameter_is_input_error(value):
    result = _cli_subprocess("example", "a-plus-b", "--a", value,
                             "--b", "2", "--c", "3", "--d", "4")
    body = json.loads(result.stdout)
    assert result.returncode == 2 and body["exit_status"] == 2
    assert "internal" not in body
    assert body["error"].startswith("--a must be an integer or p/q: ")


def test_example_a_plus_b_takes_signed_integers_and_fractions(capsys):
    code, out = run(capsys, "example", "a-plus-b", "--a", "-3", "--b", "+2",
                    "--c", "1/2", "--d=-7/3")
    assert code == 0
    assert json.loads(out)["parameters"] == {"a": "-3", "b": "2", "c": "1/2", "d": "-7/3"}


def test_example_a_plus_b_takes_a_negative_fraction_as_a_separate_argument(capsys):
    argv = ["example", "a-plus-b", "--a", "1", "--b", "-2", "--c", "3"]
    code, out = run(capsys, *argv, "--d", "-7/3")
    assert (code, out) == run(capsys, *argv, "--d=-7/3")
    assert code == 0
    assert json.loads(out)["parameters"]["d"] == "-7/3"


def test_oversized_power_is_input_error():
    result = _cli_subprocess("example", "exact", "tests/fixtures/tangent-r3.json",
                             "--lambda", '{"1,2": "(x1+x2+x3+1)^100000"}')
    body = json.loads(result.stdout)
    assert result.returncode == 2 and body["exit_status"] == 2
    assert "internal" not in body
    assert body["error"] == "power ^100000 exceeds total degree 64 (at position 13)"


@pytest.mark.parametrize("text, error", [
    ("(x1+x2+x3+1)^20*(x1+x2+x3+1)^20",
     "product of 1771 and 1771 terms may exceed 2000 terms (at position 15)"),
    ("2^4096*2^4096*2^4096*2^4096", "product exceeds 4096 coefficient bits (at position 6)"),
])
def test_oversized_product_is_input_error(text, error):
    result = _cli_subprocess("example", "exact", "tests/fixtures/tangent-r3.json",
                             "--lambda", json.dumps({"1,2": text}))
    body = json.loads(result.stdout)
    assert result.returncode == 2 and body["exit_status"] == 2
    assert "internal" not in body
    assert body["error"] == error


# -- fuzzed documents ----------------------------------------------------------------

# the polynomial grammar's tokens, a few that pass a bound, and junk
_POLY_TOKENS = ["x1", "x2", "y", "0", "1", "2", "3", "/", "+", "-", "*", "^", "(", ")", " ",
                "x1^99", "9" * 30, "1/0", "2x", "#", ".", ",", "\u00e9", "\u0663", "\x00", "e"]
_WELL_FORMED = ["0", "1", "-1", "1/2", "x1", "-x2", "2*x1", "x1*x2", "x1^2", "x1 - x2"]
_poly_text = st.one_of(st.sampled_from(_WELL_FORMED),
                       st.lists(st.sampled_from(_POLY_TOKENS), max_size=6).map("".join))
_BRACKET_KEYS = ["1,2", "1,2", "2,1", "1,1", "1,3", "0,1", "1, 2", "01,2", "a,b", "1,2,3", ""]


@st.composite
def _pair_documents(draw):
    """Pair documents of rank <= 2 over at most two coordinates, with fuzzed
    polynomial text and bracket keys that may be invalid."""
    base_dim = draw(st.integers(0, 2))
    rank = draw(st.integers(1, 2))

    def side():
        anchor = [[draw(_poly_text) for _ in range(base_dim)] for _ in range(rank)]
        keys = draw(st.lists(st.sampled_from(_BRACKET_KEYS), max_size=2, unique=True))
        return {"anchor": anchor,
                "brackets": {key: [draw(_poly_text) for _ in range(rank)] for key in keys}}

    doc = {"base_dim": base_dim, "coordinates": ["x1", "x2"][:base_dim], "rank": rank,
           "A": side(), "Astar": side()}
    if draw(st.booleans()):
        doc["frame"] = {"s_density": draw(_poly_text)}
    return doc


_CONSTANTS = ["0", "1", "-1", "2", "1/2"]


@st.composite
def _valid_pair_documents(draw):
    """Rank-2 pair documents that pass the axioms, so that the suites run:
    every rank-2 bracket satisfies Jacobi, so over a point any constant
    brackets do, and over R^1 or R^2 so do constant brackets with zero
    anchor.  Over R^2 the primal side may be TR^2 instead, which makes
    most of these pairs fail the suites."""
    base_dim = draw(st.integers(0, 2))

    def constant_side():
        return {"anchor": [["0"] * base_dim for _ in range(2)],
                "brackets": {"1,2": [draw(st.sampled_from(_CONSTANTS)) for _ in range(2)]}}

    tangent = {"anchor": [["1", "0"], ["0", "1"]], "brackets": {}}
    primal = tangent if base_dim == 2 and draw(st.booleans()) else constant_side()
    return {"base_dim": base_dim, "coordinates": ["x1", "x2"][:base_dim], "rank": 2,
            "A": primal, "Astar": constant_side()}


@pytest.fixture(scope="module")
def fuzz_dir():
    with tempfile.TemporaryDirectory() as folder:
        yield Path(folder)


_FUZZED_COMMANDS = [["validate"], ["check"], ["modular"]] + [
    ["identities", "--suite", suite] for suite in ("theorem-c", "corollaries", "courant", "generator")]


def _assert_exit_contract(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    body = json.loads(out.getvalue())
    assert code in (0, 1, 2), (argv, body)
    assert body["exit_status"] == code
    assert "internal" not in body


@settings(max_examples=210, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.one_of(_pair_documents(), _valid_pair_documents()),
       command=st.sampled_from(_FUZZED_COMMANDS))
def test_fuzzed_document_keeps_the_exit_contract(fuzz_dir, doc, command):
    """Any such document gives exit 0, 1 or 2 with a JSON report whose
    exit_status matches, and never an internal fault, for every command
    that reads a pair document."""
    path = fuzz_dir / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _assert_exit_contract([command[0], str(path), *command[1:]])


# JSON option text that is malformed or of the wrong shape
_JSON_JUNK = ["", "[", "{", "null", "1", '"1"', "[]", "{}", "[[]]", '[["1"]]', '{"1,2": 1}']
# algebroid documents for `example exact` and `example pn`: TR^2, and the
# rank-2 algebra [e1, e2] = e1 over a point
_ALGEBROID_DOCS = {
    "tangent-r2": {"base_dim": 2, "coordinates": ["x1", "x2"], "rank": 2,
                   "anchor": [["1", "0"], ["0", "1"]], "brackets": {}},
    "point-r2": {"base_dim": 0, "coordinates": [], "rank": 2,
                 "anchor": [[], []], "brackets": {"1,2": ["1", "0"]}},
}


def _matrix_text(size, skew):
    """A JSON size x size matrix of polynomial text, skew if asked, or junk."""
    entries = st.lists(_poly_text, min_size=size * size, max_size=size * size)
    if skew:
        rows = entries.map(lambda ps: [["0" if i == j else ps[i * size + j] if i < j
                                        else f"-({ps[j * size + i]})" for j in range(size)]
                                       for i in range(size)])
    else:
        rows = entries.map(lambda ps: [ps[i * size:(i + 1) * size] for i in range(size)])
    return st.one_of(st.sampled_from(_JSON_JUNK), rows.map(json.dumps))


# diagonal N that are torsion-free on TR^2
_DIAGONAL_N = [json.dumps([[p, "0"], ["0", q]])
               for p, q in (("1", "1"), ("2", "2"), ("x1", "x1"), ("1", "x2"), ("x1", "1"))]
_lambda_text = st.one_of(st.sampled_from(['{"1,2": "1"}', '{"1,2": "x1"}', '{"1,2": "-1/2"}']),
                         st.sampled_from(_JSON_JUNK),
                         st.dictionaries(st.sampled_from(_BRACKET_KEYS), _poly_text,
                                         max_size=2).map(json.dumps))
_index_text = st.sampled_from(["0", "1", "2", "0", "1", "2", "-1", "x", "", "99999"])


@st.composite
def _example_argvs(draw):
    """Command lines of `example poisson`, `example exact` and `example pn`
    with fuzzed option text."""
    family = draw(st.sampled_from(["poisson", "exact", "pn"]))
    if family == "poisson":
        dim = draw(st.sampled_from(["0", "1", "2", "2", "3", "-1", "x"]))
        size = int(dim) if dim in ("0", "1", "2") else 2
        return ["example", "poisson", "--dim", dim, "--pi", draw(_matrix_text(size, True))]
    spec = draw(st.sampled_from(sorted(_ALGEBROID_DOCS)))
    argv = ["example", family, spec, "--lambda", draw(_lambda_text)]
    if family == "pn":
        n = draw(st.one_of(st.sampled_from(_DIAGONAL_N), _matrix_text(2, False)))
        argv += ["--n", n, "--k", draw(_index_text), "--l", draw(_index_text)]
    return argv


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_example_argvs())
def test_fuzzed_example_options_keep_the_exit_contract(fuzz_dir, argv):
    """The example builders keep the same contract on any option text."""
    for name, doc in _ALGEBROID_DOCS.items():
        (fuzz_dir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    if argv[1] != "poisson":
        argv = argv[:2] + [str(fuzz_dir / f"{argv[2]}.json")] + argv[3:]
    _assert_exit_contract(argv)


# -- internal faults ----------------------------------------------------------------


def test_internal_error_is_not_an_input_error():
    assert not issubclass(InternalError, ValueError)


def test_input_errors_are_the_package_classes():
    assert ValueError not in cli._INPUT_ERRORS
    assert ExteriorError in cli._INPUT_ERRORS and issubclass(ExteriorError, ValueError)


@pytest.mark.parametrize("fault", [InternalError("check failed (internal error)"),
                                   ZeroDivisionError("division by zero"),
                                   ValueError("a bug, not bad input")])
def test_internal_fault_is_exit_3(capsys, monkeypatch, fault):
    def broken_suite(pair):
        raise fault

    monkeypatch.setitem(cli._SUITES, "generator", broken_suite)
    code, out = run(capsys, "identities", "tests/fixtures/a-plus-b.json",
                    "--suite", "generator")
    assert code == 3
    body = json.loads(out)
    assert body["internal"] is True and body["exit_status"] == 3
    assert body["error"] == f"{type(fault).__name__}: {fault}"


# -- example families --------------------------------------------------------------


def test_example_poisson(capsys):
    code, out = run(capsys, "example", "poisson", "--dim", "2",
                    "--pi", '[["0", "x1"], ["-x1", "0"]]')
    assert code == 0
    body = json.loads(out)
    assert body["family"] == "poisson"
    assert body["pair"]["base_dim"] == 2
    assert body["suite"]["pass"] is True


def test_example_exact(capsys):
    code, out = run(capsys, "example", "exact", "tests/fixtures/tangent-r3.json",
                    "--lambda", '{"1,2": "1"}')
    assert code == 0
    body = json.loads(out)
    assert body["pair"]["label"] == "triangular"


def test_example_pn(capsys):
    code, out = run(capsys, "example", "pn", "tests/fixtures/tangent-r3.json",
                    "--n", '[["x1","0","0"],["0","x1","0"],["0","0","1"]]',
                    "--lambda", '{"1,2": "1"}', "--k", "1", "--l", "1")
    assert code == 0
    body = json.loads(out)
    assert body["pair"]["label"] == "pn-l1-k1"
    assert body["suite"]["pass"] is True
    assert {r["id"] for r in body["suite"]["identities"]} >= {"pn/scene", "pn/legality"}


PN_N = '[["x1","0","0"],["0","x1","0"],["0","0","1"]]'


@pytest.mark.parametrize("argv", [
    ["poisson", "--dim", "0", "--pi", "[]"],
    ["poisson", "--dim", "1", "--pi", '[["0"]]'],
    ["poisson", "--dim", "2", "--pi", '[["0", "x1"], ["-x1", "0"]]'],
    ["a-plus-b", "--a", "1", "--b", "2", "--c", "3", "--d", "4"],
    ["exact", "tests/fixtures/tangent-r3.json", "--lambda", '{"1,2": "1"}'],
    ["pn", "tests/fixtures/tangent-r3.json", "--n", PN_N, "--lambda", '{"1,2": "1"}',
     "--k", "1", "--l", "1"],
])
def test_example_reports_embed_a_loadable_pair_or_exit_2(capsys, argv):
    """An example refuses its input (exit 2) or embeds a pair document that
    `check` would load: over a base of dimension 0 the Poisson double has
    rank 0, which the pair schema refuses."""
    code, out = run(capsys, "example", *argv)
    body = json.loads(out)
    if code == 2:
        assert "pair" not in body and "internal" not in body
    else:
        pair_from_json(body["pair"])


@pytest.mark.parametrize("family", ["exact", "pn"])
@pytest.mark.parametrize("key", ["1,\u0662", "1, 2", "+1,2", "01,2", "1,0_2", "1,2,3", ","])
def test_lambda_key_outside_the_document_grammar_is_input_error(capsys, family, key):
    # "1,2" itself is accepted: test_example_exact and test_example_pn
    extra = ["--n", PN_N] if family == "pn" else []
    code, out = run(capsys, "example", family, "tests/fixtures/tangent-r3.json", *extra,
                    "--lambda", json.dumps({key: "1"}))
    body = json.loads(out)
    assert code == 2 and "internal" not in body
    assert body["error"] == f"--lambda key '{key}' is not of the form 'i,j'"


def test_example_pn_rejects_bad_matrix(capsys):
    code, out = run(capsys, "example", "pn", "tests/fixtures/tangent-r3.json",
                    "--n", '[["1","0","0"],["0","1","0"],["0","0","x1"]]',
                    "--lambda", '{"1,2": "1"}')
    assert code == 2
    assert "torsion" in json.loads(out)["error"]


@pytest.mark.parametrize("n_rows, k, l, error", [
    ('[["x1","0","0"],["0","x1","0"],["0","0","1"]]', "100000", "1",
     "N^100000: the index exceeds 64"),
    ('[["3","0","0"],["0","3","0"],["0","0","1"]]', "10000", "0",
     "N^10000: the index exceeds 64"),
])
def test_example_pn_oversized_hierarchy_index_is_input_error(n_rows, k, l, error):
    result = _cli_subprocess("example", "pn", "tests/fixtures/tangent-r3.json", "--n", n_rows,
                             "--lambda", '{"1,2": "1"}', "--k", k, "--l", l)
    body = json.loads(result.stdout)
    assert result.returncode == 2 and body["exit_status"] == 2
    assert "internal" not in body
    assert body["error"] == error


# -- text rendering -----------------------------------------------------------------


def test_text_output_mode(capsys):
    code = main(["--output", "text", "check", "tests/fixtures/a-plus-b.json"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert "command: check" in lines
    assert "f_tilde: -11/4" in lines
    assert any(line.startswith("elapsed_ms: ") for line in lines)


def test_text_output_nested_keys(capsys):
    main(["--output", "text", "validate", "tests/fixtures/invalid-jacobi.json"])
    out = capsys.readouterr().out
    assert "A.jacobi_ok: False" in out
    assert "A.witnesses[0].kind: jacobi" in out


def test_text_output_prints_empty_objects_and_lists(capsys):
    """An empty object prints as `{}`, as an empty list prints as `[]`: the
    abelian A of a Poisson double has no brackets."""
    main(["--output", "text", "example", "poisson", "--dim", "2",
          "--pi", '[["0","x1"],["-x1","0"]]'])
    lines = capsys.readouterr().out.splitlines()
    assert "pair.A.brackets: {}" in lines
    assert "pair.Astar.brackets.1,2[0]: 1" in lines


def test_parser_help_smoke():
    parser = build_parser()
    assert parser.prog == "bialgebroid"
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--help"])
    assert exc.value.code == 0
