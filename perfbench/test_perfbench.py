"""Tests of the benchmark itself.

Run from the root of a checkout:  python -m pytest perfbench -q
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bialgebroid  # noqa: E402
import bialgebroid.cli  # noqa: E402,F401
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


# -- seeded inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name):
    make = workloads.WORKLOADS[name].inputs
    first = workloads.encode(make(7))
    assert workloads.encode(make(7)) == first
    assert workloads.encode(make(8)) != first


def test_inputs_do_not_depend_on_the_hash_seed():
    script = ("import hashlib, sys; sys.path.insert(0, 'perfbench'); import workloads; "
              "print(hashlib.sha256(b''.join(workloads.encode(w.inputs(3)) "
              "for _, w in sorted(workloads.WORKLOADS.items()))).hexdigest())")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        digests.add(out.stdout.strip())
    expected = hashlib.sha256(b"".join(workloads.encode(w.inputs(3))
                                       for _, w in sorted(workloads.WORKLOADS.items())))
    assert digests == {expected.hexdigest()}


def test_random_point_pairs_fill_both_quotas():
    docs = workloads.point_algebras_inputs(5)["random"]
    verdicts = [workloads._pair_verdict(doc) for doc in docs]
    assert verdicts == [True] * 4 + [False] * 4


# -- the tracer ---------------------------------------------------------------------


def _package_bindings():
    out = {}
    for module in tracing.package_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(value.__qualname__, attr)] = member
    return out


def test_wrappers_are_removed_after_a_traced_run():
    before = _package_bindings()
    P = bialgebroid.a_plus_b(1, 2, 3, 4)
    tracer = tracing.Tracer(bialgebroid)
    with tracer:
        assert tracing.leftover_wrappers()
        report = bialgebroid.pair.dirac_square(P)
    assert report.is_scalar
    assert tracing.leftover_wrappers() == []
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.stats["pair.suites"][0] == 1
    assert tracer.stats["pair.dirac_apply"][0] > 0
    assert tracer.stats["ring.mul"][0] > 0


def test_self_times_add_up_to_the_root_spans():
    P = bialgebroid.a_plus_b(1, 2, 3, 4)
    tracer = tracing.Tracer(bialgebroid)
    with tracer:
        bialgebroid.pair.generator_check(P)
        bialgebroid.pair.theorem_c_suite(P)
    roots = [span for span in tracer.spans if span[2] == -1]
    assert [span[0] for span in roots] == ["pair.suites", "pair.suites"]
    assert tracer.roots == 2
    total = sum(end - start for _n, _r, _p, start, end in roots)
    assert tracer.self_time() == pytest.approx(total, rel=1e-9)


# -- the oracle -----------------------------------------------------------------------


def test_oracle_catches_a_flipped_verdict():
    P = bialgebroid.a_plus_b(1, 2, 3, 4)
    square = bialgebroid.dirac_square(P)
    oracle.check_verdict("check", True, square)
    square.is_scalar = False
    with pytest.raises(oracle.Wrong):
        oracle.check_verdict("check", True, square)

    leibniz = bialgebroid.is_lie_bialgebroid(P)
    oracle.check_verdict("leibniz", True, leibniz)
    leibniz.records[0].passed = False
    with pytest.raises(oracle.Wrong):
        oracle.check_verdict("leibniz", True, leibniz)


def test_oracle_catches_a_flipped_cli_exit():
    argv = ["check", "tests/fixtures/broken-rank3.json"]
    proc = subprocess.run([sys.executable, "-m", "bialgebroid.cli", *argv],
                          env=workloads.cli_environment(), capture_output=True,
                          text=True, timeout=120)
    workloads._judge_cli(argv, {"exit": 1, "verdict": False}, proc.returncode,
                         proc.stdout, proc.stderr)
    with pytest.raises(oracle.Wrong):
        workloads._judge_cli(argv, {"exit": 0, "verdict": True}, proc.returncode,
                             proc.stdout, proc.stderr)


def test_cocycle_oracle_on_known_pairs():
    one = Fraction(1)
    broken = json.loads((ROOT / "tests/fixtures/broken-rank3.json").read_text())
    assert workloads._pair_verdict(broken) is False
    triangular = json.loads((ROOT / "tests/fixtures/triangular-rank3.json").read_text())
    assert workloads._pair_verdict(triangular) is True
    assert oracle.is_lie_bialgebra({(1, 2): [one, 2 * one]}, {(1, 2): [3 * one, 4 * one]}, 2)
    assert oracle.a_plus_b_f_tilde(1, 2, 3, 4) == Fraction(-11, 4)


def test_log_canonical_modular_field_by_hand():
    c = {(1, 2): Fraction(2, 3), (1, 3): Fraction(-1, 2), (2, 3): Fraction(3)}
    assert oracle.log_canonical_x0(c, 3) == {1: Fraction(1, 3), 2: Fraction(14, 3),
                                             3: Fraction(-5)}
    rows = workloads._log_canonical_rows({"1,2": "2/3", "1,3": "-1/2", "2,3": "3"}, 3)
    P = bialgebroid.poisson_double(bialgebroid.PoissonManifoldData(3, rows))
    assert oracle.linear_vector_terms(P.modular.x0) == oracle.log_canonical_x0(c, 3)


# -- the description ------------------------------------------------------------------


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _k, _f in run.PER_LAYER] + list(run.EXTRA_PER_LAYER)
