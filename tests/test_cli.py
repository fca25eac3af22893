import json
import re
from pathlib import Path

import pytest

from bialgebroid import InternalError, cli
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


# -- internal faults ----------------------------------------------------------------


def test_internal_error_is_not_an_input_error():
    assert not issubclass(InternalError, ValueError)


@pytest.mark.parametrize("fault", [InternalError("check failed (internal error)"),
                                   ZeroDivisionError("division by zero")])
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


def test_example_pn_rejects_bad_matrix(capsys):
    code, out = run(capsys, "example", "pn", "tests/fixtures/tangent-r3.json",
                    "--n", '[["1","0","0"],["0","1","0"],["0","0","x1"]]',
                    "--lambda", '{"1,2": "1"}')
    assert code == 2
    assert "torsion" in json.loads(out)["error"]


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


def test_parser_help_smoke():
    parser = build_parser()
    assert parser.prog == "bialgebroid"
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--help"])
    assert exc.value.code == 0
