"""The benchmark's workloads: seeded inputs, set-up, and the calls of one round.

Each workload has three parts:

* ``inputs(seed)`` builds the inputs as plain JSON data, with no help from
  the package, so the same seed gives byte-identical inputs;
* ``setup(bg, data)`` turns them into the objects the timed calls use,
  through the package's public constructors, and checks what it can
  already check (modular cocycles, documents accepted by the CLI);
* ``calls(ctx, in_process)`` lists the calls of one round.  A round is
  closed-loop with one caller: each call starts after the previous one
  returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import Failure, Wrong, expect

WORK = Path(".perfbench_work")
COORDS3 = ("x1", "x2", "x3")
KEYS3 = ("1,2", "1,3", "2,3")
SO3 = {"1,2": [0, 0, 1], "1,3": [0, -1, 0], "2,3": [1, 0, 0]}
HEISENBERG = {"1,2": [0, 0, 1]}
ALGEBRAS = {"so3": SO3, "heisenberg": HEISENBERG}
CLI_TIMEOUT_S = 120


class Call:
    """One timed call: what to run, which metrics it feeds, how to judge it."""

    __slots__ = ("label", "metrics", "run", "check")

    def __init__(self, label, metrics, run, check):
        self.label = label
        self.metrics = metrics
        self.run = run
        self.check = check


def encode(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


# -- seeded building blocks -------------------------------------------------------


def _rational(rng):
    """A seeded non-integer rational p/q, 1 <= |p| <= 5, q in 2..5.

    Never an integer: Fraction arithmetic with denominator 1 is about 20 %
    faster, which would make the cost depend on the seed.
    """
    while True:
        value = Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(2, 5))
        if value.denominator > 1:
            return str(value)


def _log_canonical_rows(c, dim):
    """pi^{jk} = c_jk x_j x_k as a skew matrix of polynomial strings."""
    rows = [["0"] * dim for _ in range(dim)]
    for key, value in c.items():
        j, k = (int(t) for t in key.split(","))
        rows[j - 1][k - 1] = f"{value}*x{j}*x{k}"
        rows[k - 1][j - 1] = f"{-Fraction(value)}*x{j}*x{k}"
    return rows


def _point_side(brackets, rank):
    return {"anchor": [[] for _ in range(rank)],
            "brackets": {k: [str(v) for v in e] for k, e in brackets.items() if any(e)}}


def _point_doc(primal, dual, rank, label):
    return {"base_dim": 0, "coordinates": [], "rank": rank,
            "A": _point_side(primal, rank), "Astar": _point_side(dual, rank),
            "frame": {"s_density": "1"}, "label": label}


def _failing_tangent_doc(algebra, scale):
    """TR^3 against constant brackets with zero anchor: never a bialgebroid."""
    eye = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    dual = {k: [str(scale * v) for v in e] for k, e in ALGEBRAS[algebra].items()}
    return {"base_dim": 3, "coordinates": list(COORDS3), "rank": 3,
            "A": {"anchor": eye, "brackets": {}},
            "Astar": {"anchor": [["0"] * 3 for _ in range(3)], "brackets": dual},
            "frame": {"s_density": "1"}, "label": f"tangent-vs-{algebra}"}


NONZERO = 3


def _random_point_pairs(rng, passing, failing):
    """Rank-3 pairs with constants in {-1, 0, 1}, NONZERO of nine nonzero on
    each side; both halves satisfy Jacobi.

    Candidates are drawn until the quota of each verdict is filled, so
    every seed yields the same mix.
    """
    found = {True: [], False: []}
    want = {True: passing, False: failing}
    while len(found[True]) < passing or len(found[False]) < failing:
        sides = []
        for _ in range(2):
            values = [rng.choice((-1, 1)) for _ in range(NONZERO)] + [0] * (9 - NONZERO)
            rng.shuffle(values)
            table = {k: values[3 * t:3 * t + 3] for t, k in enumerate(KEYS3)}
            sides.append({k: e for k, e in table.items() if any(e)})
        primal, dual = sides
        cp, cd = oracle.constants(primal, 3), oracle.constants(dual, 3)
        if not (oracle.satisfies_jacobi(cp, 3) and oracle.satisfies_jacobi(cd, 3)):
            continue
        verdict = oracle.is_lie_bialgebra(cp, cd, 3)
        if len(found[verdict]) < want[verdict]:
            tag = "pass" if verdict else "fail"
            found[verdict].append(_point_doc(primal, dual, 3,
                                             f"random-{tag}-{len(found[verdict]) + 1}"))
    return found[True] + found[False]


def _ints(rng, count, low=-3, high=3):
    return [rng.randint(low, high) for _ in range(count)]


def _nonzero(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


# -- the library context ------------------------------------------------------------


class Context:
    """The imported package plus the objects a workload's calls use."""

    def __init__(self, bg):
        self.bg = bg
        self.pairs = []      # (label, pair, expected verdict, extra check or None)
        self.argvs = []      # (argv, expectation, metrics) for cli-corpus
        self.checked = 0     # set-up checks made
        self.wrong = []      # set-up checks that failed

    def check(self, condition, message):
        self.checked += 1
        if not condition:
            self.wrong.append(message)


def _pair_verdict(doc):
    rank = doc["rank"]
    return oracle.is_lie_bialgebra(oracle.constants(doc["A"]["brackets"], rank),
                                   oracle.constants(doc["Astar"]["brackets"], rank), rank)


def _validate_documents(ctx, docs, name):
    """Write each pair document and run ``bialgebroid validate`` on it in-process."""
    folder = WORK / name
    folder.mkdir(parents=True, exist_ok=True)
    for index, doc in enumerate(docs):
        path = folder / f"setup-{index}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ctx.bg.cli.main(["validate", str(path)])
        ctx.check(code == 0, f"validate {path} exited {code}: {out.getvalue()}")


def _check_x0(ctx, label, pair, expected):
    try:
        got = oracle.linear_vector_terms(pair.modular.x0)
    except Wrong as exc:
        got = str(exc)
    ctx.check(got == expected, f"{label}: X0 gives {got}, expected {expected}")


def _library_calls(ctx, kinds):
    pair = ctx.bg.pair
    functions = {"check": "dirac_square", "leibniz": "is_lie_bialgebroid",
                 "generator": "generator_check", "theorem_c": "theorem_c_suite",
                 "courant": "courant_axioms", "corollaries": "corollary_suite"}
    refusal = pair.PreconditionError

    def make(label, kind, P, verdict, extra):
        name = functions[kind]

        def run():
            return getattr(pair, name)(P)

        def check(result):
            oracle.check_verdict(kind, verdict, result, refusal)
            if extra is not None and kind == "check":
                extra(result)

        return Call(f"{label}:{kind}", (kind,), run, check)

    calls = []
    for label, P, verdict, extra in ctx.pairs:
        for kind in kinds(label):
            calls.append(make(label, kind, P, verdict, extra))
    return calls


# -- poisson-base -----------------------------------------------------------------


LOG_CANONICAL_DOUBLES = 3


def poisson_base_inputs(seed):
    rng = random.Random(f"poisson-base:{seed}")
    doubles = [{key: _rational(rng) for key in KEYS3} for _ in range(LOG_CANONICAL_DOUBLES)]
    c2 = {"1,2": _rational(rng)}
    algebra = rng.choice(sorted(ALGEBRAS))
    return {"log_canonical": [{"dim": 3, "c": c3} for c3 in doubles],
            "plane": {"dim": 2, "c": c2},
            "failing": _failing_tangent_doc(algebra, _nonzero(rng))}


SO3_DUAL_ROWS = [["0", "x3", "-x2"], ["-x3", "0", "x1"], ["x2", "-x1", "0"]]


def poisson_base_setup(bg, data):
    ctx = Context(bg)
    con = bg.constructions

    def double(dim, rows):
        return con.poisson_double(con.PoissonManifoldData(dim, rows))

    def c_table(c):
        return {tuple(int(t) for t in k.split(",")): Fraction(v) for k, v in c.items()}

    for index, lc in enumerate(data["log_canonical"], start=1):
        P = double(3, _log_canonical_rows(lc["c"], 3))
        label = f"log-canonical-{index}"
        _check_x0(ctx, label, P, oracle.log_canonical_x0(c_table(lc["c"]), 3))
        ctx.pairs.append((label, P, True, None))
    so3_pair = double(3, SO3_DUAL_ROWS)
    _check_x0(ctx, "so3-dual", so3_pair, {})
    failing = bg.serialize.pair_from_json(data["failing"])
    failing.modular  # noqa: B018 - computes and caches the modular cocycles
    plane = data["plane"]
    plane_pair = double(2, _log_canonical_rows(plane["c"], 2))
    _check_x0(ctx, "plane", plane_pair, oracle.log_canonical_x0(c_table(plane["c"]), 2))
    ctx.pairs += [("so3-dual", so3_pair, True, None),
                  (failing.label, failing, False, None),
                  ("plane", plane_pair, True, None)]
    _validate_documents(ctx, [bg.serialize.pair_to_json(P) for _l, P, _v, _e in ctx.pairs],
                        "poisson-base")
    return ctx


def poisson_base_calls(ctx, in_process):
    def kinds(label):
        # dirac_square (0.1 s) and corollary_suite (0.9 s) are too short to
        # time once; the 3-5 s and 5-9 s decisions run on one log-canonical
        # double
        if label == "plane":
            return ("theorem_c", "corollaries", "corollaries", "corollaries", "courant")
        if label == "log-canonical-1":
            return ("check", "check", "check", "leibniz", "generator")
        if label.startswith("log-canonical-"):
            return ("check", "check", "check")
        return ("check", "check", "leibniz", "generator")
    return _library_calls(ctx, kinds)


# -- point-algebras -----------------------------------------------------------------


def point_algebras_inputs(seed):
    rng = random.Random(f"point-algebras:{seed}")
    return {
        "a_plus_b": [[_nonzero(rng) for _ in range(4)] for _ in range(2)],
        "exact": [
            {"algebra": "heisenberg", "r": {"1,3": _nonzero(rng), "2,3": _nonzero(rng)},
             "triangular": True},
            {"algebra": "heisenberg", "r": {"1,2": _nonzero(rng), "1,3": _nonzero(rng)}},
            {"algebra": "so3", "r": {k: _nonzero(rng) for k in KEYS3}},
        ],
        "random": _random_point_pairs(rng, passing=4, failing=4),
    }


def point_algebras_setup(bg, data):
    ctx = Context(bg)
    con, ser = bg.constructions, bg.serialize
    for a, b, c, d in data["a_plus_b"]:
        P = con.a_plus_b(a, b, c, d)
        want = oracle.a_plus_b_f_tilde(a, b, c, d)

        def f_tilde_check(result, want=want):
            got = oracle.constant_value(result.f_tilde)
            expect(got == want, f"a_plus_b f~ = {got}, expected {want}")

        verdict = oracle.is_lie_bialgebra({(1, 2): [Fraction(a), Fraction(b)]},
                                          {(1, 2): [Fraction(c), Fraction(d)]}, 2)
        ctx.pairs.append((f"a-plus-b:{a},{b},{c},{d}", P, verdict, f_tilde_check))
    for spec in data["exact"]:
        alg_doc = {"base_dim": 0, "coordinates": [], "rank": 3, "anchor": [[], [], []],
                   "brackets": {k: [str(v) for v in e]
                                for k, e in ALGEBRAS[spec["algebra"]].items()}}
        A = ser.algebroid_from_json(alg_doc, "vector")
        Poly = bg.ring.Polynomial
        terms = {tuple(int(t) for t in k.split(",")): Poly.const((), v)
                 for k, v in spec["r"].items()}
        P = con.exact_from_bivector(A, con.BivectorData(bg.exterior.Multivector(3, (), terms)))
        if spec.get("triangular"):
            ctx.check(P.label == "triangular", f"{spec} built a pair labelled {P.label!r}")
        # exact pairs are coboundary bialgebras; the cocycle check must agree
        ctx.check(_pair_verdict(ser.pair_to_json(P)),
                  f"{spec}: the induced dual is not a 1-cocycle")
        ctx.pairs.append((f"exact-{spec['algebra']}:{P.label}", P, True, None))
    for doc in data["random"]:
        ctx.pairs.append((doc["label"], ser.pair_from_json(doc), _pair_verdict(doc), None))
    for _label, P, _verdict, _extra in ctx.pairs:
        P.modular  # noqa: B018 - computes and caches the modular cocycles
    _validate_documents(ctx, [ser.pair_to_json(P) for _l, P, _v, _e in ctx.pairs],
                        "point-algebras")
    return ctx


def point_algebras_calls(ctx, in_process):
    # calls of 5-70 ms run several times, so each kind is timed over enough
    # work; six of the 5-7 ms ones also put call_ms.p50 inside their block
    kinds = (("check", "leibniz") * 6 + ("theorem_c", "corollaries") * 3
             + ("generator",) * 2 + ("courant",))
    return _library_calls(ctx, lambda label: kinds)


# -- cli-corpus -----------------------------------------------------------------------

FIXTURES = Path("tests/fixtures")
GOLDEN = Path("tests/golden")
STRIP_ELAPSED = re.compile(r',\s*"elapsed_ms": \d+')

PAIR_COMMANDS = ("validate", "check", "modular", "theorem-c", "corollaries",
                 "courant", "generator")
# expected exit codes per fixture, in PAIR_COMMANDS order, then for
# `example exact`, which runs only on EXACT_FIXTURES: the algebroid fixture
# and one pair document that it must refuse
FIXTURE_EXITS = {
    "a-plus-b.json":         (0, 0, 0, 0, 0, 0, 0, 2),
    "bad-key.json":          (2, 2, 2, 2, 2, 2, 2, 2),
    "broken-rank3.json":     (0, 1, 0, 1, 2, 1, 1, 2),
    "invalid-jacobi.json":   (1, 2, 2, 2, 2, 2, 2, 2),
    "poisson-linear.json":   (0, 0, 0, 0, 0, 0, 0, 2),
    "tangent-r3.json":       (2, 2, 2, 2, 2, 2, 2, 0),
    "triangular-rank3.json": (0, 0, 0, 0, 0, 0, 0, 2),
}
EXACT_FIXTURES = ("tangent-r3.json", "a-plus-b.json")
PASSING_EXITS = (0, 0, 0, 0, 0, 0, 0)
FAILING_EXITS = (0, 1, 0, 1, 2, 1, 1)
GOLDEN_CASES = (
    ("check-a-plus-b", ["check", "tests/fixtures/a-plus-b.json"]),
    ("validate-invalid-jacobi", ["validate", "tests/fixtures/invalid-jacobi.json"]),
    ("identities-theorem-c-a-plus-b",
     ["identities", "tests/fixtures/a-plus-b.json", "--suite", "theorem-c"]),
    ("modular-poisson-linear", ["modular", "tests/fixtures/poisson-linear.json"]),
    ("example-a-plus-b", ["example", "a-plus-b", "--a", "1", "--b", "2", "--c", "3", "--d", "4"]),
)
PN_ARGV = ["example", "pn", "tests/fixtures/tangent-r3.json",
           "--n", '[["x1","0","0"],["0","x1","0"],["0","0","1"]]',
           "--lambda", '{"1,2": "1"}', "--k", "1", "--l", "1"]


def cli_corpus_inputs(seed):
    rng = random.Random(f"cli-corpus:{seed}")
    return {
        "example_a_plus_b": _ints(rng, 4),
        "example_poisson": {"dim": 2, "c": {"1,2": _rational(rng)}},
        "documents": _random_point_pairs(rng, passing=1, failing=1),
    }


def _argv(command, path):
    if command in ("validate", "check", "modular"):
        return [command, path]
    return ["identities", path, "--suite", command]


def _metrics_of(command, code, valid_pair):
    kinds = {"check": ("check",), "theorem-c": ("theorem_c",), "courant": ("courant",),
             "generator": ("generator",), "corollaries": ("corollaries",)}.get(command, ())
    if command == "corollaries" and code == 2 and valid_pair:
        # the corollary suite refuses at its Leibniz gate: the CLI's Leibniz verdict
        kinds += ("leibniz",)
    return kinds


def cli_corpus_setup(bg, data):
    ctx = Context(bg)
    ser = bg.serialize
    folder = WORK / "cli-corpus"
    folder.mkdir(parents=True, exist_ok=True)
    goldens = {tuple(argv): (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
               for name, argv in GOLDEN_CASES}
    for name, exits in FIXTURE_EXITS.items():
        path = (FIXTURES / name).as_posix()
        if not (FIXTURES / name).is_file():
            raise FileNotFoundError(path)
        argvs = [_argv(command, path) for command in PAIR_COMMANDS]
        metrics = [_metrics_of(command, code, exits[0] == 0)
                   for command, code in zip(PAIR_COMMANDS, exits)]
        if name in EXACT_FIXTURES:
            argvs.append(["example", "exact", path, "--lambda", '{"1,2": "1"}'])
            metrics.append(())
        for argv, code, kinds in zip(argvs, exits, metrics):
            expectation = {"exit": code}
            if tuple(argv) in goldens:
                expectation["golden"] = goldens.pop(tuple(argv))
            ctx.argvs.append((argv, expectation, kinds))
    ctx.argvs.append((PN_ARGV, {"exit": 0}, ()))
    for argv, golden in goldens.items():
        ctx.argvs.append((list(argv), {"exit": json.loads(golden)["exit_status"],
                                       "golden": golden}, ()))
    a, b, c, d = data["example_a_plus_b"]
    ctx.argvs.append((["example", "a-plus-b", "--a", str(a), "--b", str(b),
                       "--c", str(c), "--d", str(d)],
                      {"exit": 0, "f_tilde": oracle.a_plus_b_f_tilde(a, b, c, d)}, ()))
    plane = data["example_poisson"]
    rows = _log_canonical_rows(plane["c"], plane["dim"])
    ctx.argvs.append((["example", "poisson", "--dim", str(plane["dim"]), "--pi", json.dumps(rows)],
                      {"exit": 0, "suite_pass": True}, ()))

    for index, doc in enumerate(data["documents"]):
        written = ser.pair_to_json(ser.pair_from_json(doc))
        path = (folder / f"seeded-{index}.json").as_posix()
        Path(path).write_text(json.dumps(written, indent=2) + "\n", encoding="utf-8")
        verdict = _pair_verdict(written)
        for command, code in zip(PAIR_COMMANDS, PASSING_EXITS if verdict else FAILING_EXITS):
            ctx.argvs.append((_argv(command, path), {"exit": code, "verdict": verdict},
                              _metrics_of(command, code, True)))
    # the Leibniz-gate refusals are this workload's only leibniz_s samples:
    # run each three times
    ctx.argvs += [entry for entry in ctx.argvs if "leibniz" in entry[2]] * 2
    return ctx


def _judge_cli(argv, expectation, code, stdout, stderr):
    """Raise Failure for a broken contract, Wrong for a wrong answer."""
    if "Traceback" in stderr:
        raise Failure(f"{argv}: traceback\n{stderr}")
    if code not in (0, 1, 2):
        raise Failure(f"{argv}: exit {code}")
    try:
        body = json.loads(stdout)
    except ValueError:
        raise Failure(f"{argv}: stdout is not JSON: {stdout[:200]!r}") from None
    if not isinstance(body, dict) or body.get("exit_status") != code:
        raise Failure(f"{argv}: exit_status field does not match exit {code}")
    expect(code == expectation["exit"], f"{argv}: exit {code}, expected {expectation['exit']}")
    if "golden" in expectation:
        expect(STRIP_ELAPSED.sub("", stdout) == expectation["golden"],
               f"{argv}: report differs from its golden file")
    if "f_tilde" in expectation:
        got, want = Fraction(body["f_tilde"]), expectation["f_tilde"]
        expect(got == want, f"{argv}: f_tilde {got}, expected {want}")
    if expectation.get("suite_pass"):
        expect(body["suite"]["pass"] is True, f"{argv}: suite did not pass")
    if argv[0] == "check" and "verdict" in expectation:
        expect(body["is_scalar"] is expectation["verdict"],
               f"{argv}: is_scalar {body['is_scalar']}, expected {expectation['verdict']}")


def cli_environment():
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_corpus_calls(ctx, in_process):
    env = cli_environment()
    main = ctx.bg.cli

    def subprocess_run(argv):
        proc = subprocess.run([sys.executable, "-m", "bialgebroid.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def in_process_run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    runner = in_process_run if in_process else subprocess_run
    calls = []
    for argv, expectation, metrics in ctx.argvs:
        def run(argv=argv):
            return runner(argv)

        def check(result, argv=argv, expectation=expectation):
            if isinstance(result, BaseException):
                raise Failure(f"{argv}: {result!r}")
            _judge_cli(argv, expectation, *result)

        calls.append(Call(" ".join(argv[:2]), metrics, run, check))
    return calls


class Workload:
    def __init__(self, name, inputs, setup, calls, child_rss):
        self.name = name
        self.inputs = inputs
        self.setup = setup
        self.calls = calls
        self.child_rss = child_rss


WORKLOADS = {
    "poisson-base": Workload("poisson-base", poisson_base_inputs, poisson_base_setup,
                             poisson_base_calls, False),
    "point-algebras": Workload("point-algebras", point_algebras_inputs, point_algebras_setup,
                               point_algebras_calls, False),
    "cli-corpus": Workload("cli-corpus", cli_corpus_inputs, cli_corpus_setup,
                           cli_corpus_calls, True),
}
