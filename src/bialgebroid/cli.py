"""Command-line surface.

Subcommands:

* ``validate <spec.json>``: run the algebroid axiom checks on both halves
  of a pair document; exit 1 when an axiom fails (witnesses in report).
* ``check <spec.json>``: decide whether the square of the Dirac-type
  operator is multiplication by a function; prints the function or the
  failing probe.  The probes x^gamma e_I have |gamma| <= 2, the degree
  the order-2 argument fixes (pair.PROBE_DEGREE), and are products of at
  most 2 generators x_a, e_i (pair.dirac_square); it is not an option.
* ``identities <spec.json> --suite theorem-c|corollaries|courant|generator``.
* ``modular <spec.json>``: the two modular cocycles and the square scalar.
* ``example a-plus-b|poisson|exact|pn ...``: build a documented example
  family, run its identity report, and embed the pair document.  The
  a-plus-b parameters are rationals in the polynomial grammar's form
  (ring.parse_rational): a signed ASCII integer or p/q with q != 0, as
  ``--d -7/3`` or ``--d=-7/3``.

Exit codes: 0 all checked properties hold, 1 a property failed (report
carries a witness), 2 input, validation or usage error (a JSON document
or option nested too deeply for the parser, or an integer longer than
int's digit limit, included), 3 an internal fault: pair.InternalError or
any other unexpected exception, a plain ValueError included, reported as
JSON with "internal": true instead of a traceback.  Reports are JSON
on stdout (``--output text`` for a line-per-fact rendering); the
elapsed_ms field is the only non-deterministic part.  A usage error (an
unknown subcommand or flag, a missing argument) prints the usage on
stderr and a JSON report with an "error" field on stdout; ``--help``
exits 0.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import Optional, Tuple

from .algebroid import AlgebroidError, validate_algebroid
from .constructions import (BivectorData, ConstructionError, NijenhuisData,
                            PoissonManifoldData, a_plus_b, exact_from_bivector,
                            exact_identities, pn_hierarchy, pn_identities,
                            poisson_double, poisson_homology_check)
from .exterior import ExteriorError, Multivector
from .pair import (PROBE_DEGREE, PairError, corollary_suite, courant_axioms,
                   dirac_square, f_tilde, generator_check, theorem_c_suite)
from .ring import PolynomialError, parse_rational
from .serialize import (_BRACKET_KEY, DocumentError, _bracket_indices, algebroid_from_json,
                        document_to_structures, pair_from_json, pair_to_json)

# The package's own input classes only: a plain ValueError is a fault of
# this package (exit 3), so every ValueError that input can raise is turned
# into one of these where it arises.
_INPUT_ERRORS = (DocumentError, ConstructionError, AlgebroidError, PairError,
                 PolynomialError, ExteriorError, OSError)


class _UsageError(Exception):
    """A command line that the argument parser rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises _UsageError on a rejected command line instead of exiting, so
    that main can still print a JSON report; subparsers inherit the class.

    A signed p/q such as -7/3 is read as a value, as argparse already reads
    -3, so that --d -7/3 means --d=-7/3 instead of a missing argument.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[0-9]+(/[0-9]+)?$|^-[0-9]*\.[0-9]+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


def _parse_json(text: str, what: str):
    """json.loads, with malformed JSON, an integer longer than int's digit
    limit and nesting too deep for the parser all input errors."""
    try:
        return json.loads(text)
    except RecursionError:
        raise DocumentError(f"{what} nests too deeply to parse") from None
    except ValueError as exc:
        raise DocumentError(f"{what} is not valid JSON: {exc}") from None


def _load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except ValueError as exc:  # not UTF-8 text, or a NUL byte in the path
        raise DocumentError(f"cannot read {path!r}: {exc}") from None
    doc = _parse_json(text, path)
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    return doc


def _validation_json(report) -> dict:
    return {
        "jacobi_ok": report.jacobi_ok,
        "anchor_morphism_ok": report.anchor_morphism_ok,
        "witnesses": [{"kind": key[0], "indices": list(key[1:]), "defect": text}
                      for key, text in report.witnesses],
    }


def _cmd_validate(args) -> Tuple[dict, int]:
    A, Astar, _frame, _label = document_to_structures(_load_doc(args.spec))
    rep_a = validate_algebroid(A)
    rep_b = validate_algebroid(Astar)
    ok = rep_a.ok and rep_b.ok
    body = {
        "command": "validate",
        "input": args.spec,
        "A": _validation_json(rep_a),
        "Astar": _validation_json(rep_b),
        "pass": ok,
    }
    return body, 0 if ok else 1


def _cmd_check(args) -> Tuple[dict, int]:
    pair = pair_from_json(_load_doc(args.spec))
    report = dirac_square(pair)
    ok = report.is_scalar and report.square_formula_ok
    body = {
        "command": "check",
        "input": args.spec,
        "probe_degree": PROBE_DEGREE,
        "is_scalar": report.is_scalar,
        "square_formula_ok": report.square_formula_ok,
        "f_tilde": str(report.f_tilde),
    }
    _add_square_witnesses(body, report)
    body["pass"] = ok
    return body, 0 if ok else 1


def _add_square_witnesses(body: dict, report) -> None:
    """Add a dirac_square report's witness and formula_witness to body, each
    only when set, so a passing report adds neither."""
    for key in ("witness", "formula_witness"):
        if getattr(report, key) is not None:
            body[key] = getattr(report, key)


_SUITES = {
    "theorem-c": theorem_c_suite,
    "corollaries": corollary_suite,
    "courant": courant_axioms,
    "generator": generator_check,
}


def _cmd_identities(args) -> Tuple[dict, int]:
    pair = pair_from_json(_load_doc(args.spec))
    report = _SUITES[args.suite](pair)
    body = {
        "command": "identities",
        "input": args.spec,
        "suite": report.to_json(),
    }
    return body, 0 if report.passed else 1


def _cmd_modular(args) -> Tuple[dict, int]:
    pair = pair_from_json(_load_doc(args.spec))
    mod = pair.modular
    body = {
        "command": "modular",
        "input": args.spec,
        "x0": str(mod.x0),
        "xi0": str(mod.xi0),
        "f_tilde": str(f_tilde(pair)),
    }
    return body, 0


def _bivector_from_arg(raw, rank: int, coords) -> BivectorData:
    if not isinstance(raw, dict):
        raise DocumentError("--lambda must be a JSON object of 'i,j' keys")
    from .ring import Polynomial
    terms = {}
    for key, value in raw.items():
        if not _BRACKET_KEY.fullmatch(key):
            raise DocumentError(f"--lambda key '{key}' is not of the form 'i,j'")
        i, j = _bracket_indices(key, rank, "--lambda")
        poly = Polynomial.parse(value, coords)
        if not poly.is_zero():
            terms[(i, j)] = poly
    return BivectorData(Multivector(rank, coords, terms))


def _rational_arg(name: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except PolynomialError as exc:
        raise DocumentError(f"--{name} must be an integer or p/q: {exc}") from None


def _cmd_example_a_plus_b(args) -> Tuple[dict, int]:
    params = {name: _rational_arg(name, getattr(args, name)) for name in ("a", "b", "c", "d")}
    pair = a_plus_b(params["a"], params["b"], params["c"], params["d"])
    report = dirac_square(pair)
    ok = report.is_scalar and report.square_formula_ok
    body = {
        "command": "example",
        "family": "a-plus-b",
        "parameters": {k: str(v) for k, v in params.items()},
        "pair": pair_to_json(pair),
        "is_scalar": report.is_scalar,
        "f_tilde": str(report.f_tilde),
    }
    _add_square_witnesses(body, report)
    body["pass"] = ok
    return body, 0 if ok else 1


def _cmd_example_poisson(args) -> Tuple[dict, int]:
    rows = _parse_json(args.pi, "--pi")
    if not isinstance(rows, list):
        raise DocumentError("--pi must be a JSON matrix of polynomial strings")
    data = PoissonManifoldData(args.dim, rows)
    pair = poisson_double(data)
    report = poisson_homology_check(data)
    square = dirac_square(pair)
    ok = report.passed and square.is_scalar and square.square_formula_ok
    body = {
        "command": "example",
        "family": "poisson",
        "parameters": {"dim": args.dim, "pi": rows},
        "pair": pair_to_json(pair),
        "suite": report.to_json(),
        "f_tilde": str(square.f_tilde),
    }
    _add_square_witnesses(body, square)
    body["pass"] = ok
    return body, 0 if ok else 1


def _cmd_example_exact(args) -> Tuple[dict, int]:
    A = algebroid_from_json(_load_doc(args.spec), "vector")
    lam = _parse_json(args.lam, "--lambda")
    L = _bivector_from_arg(lam, A.rank, A.coordinates)
    pair = exact_from_bivector(A, L)
    report = exact_identities(pair, L)
    body = {
        "command": "example",
        "family": "exact",
        "input": args.spec,
        "parameters": {"lambda": lam},
        "pair": pair_to_json(pair),
        "suite": report.to_json(),
        "f_tilde": str(f_tilde(pair)),
        "pass": report.passed,
    }
    return body, 0 if report.passed else 1


def _cmd_example_pn(args) -> Tuple[dict, int]:
    A = algebroid_from_json(_load_doc(args.spec), "vector")
    n_rows = _parse_json(args.n, "--n")
    if not isinstance(n_rows, list):
        raise DocumentError("--n must be a JSON matrix of polynomial strings")
    N = NijenhuisData(n_rows, A.coordinates)
    lam = _parse_json(args.lam, "--lambda")
    L = _bivector_from_arg(lam, A.rank, A.coordinates)
    pair = pn_hierarchy(A, N, L, args.k, args.l)
    report = pn_identities(A, N, L, args.k, args.l)
    body = {
        "command": "example",
        "family": "pn",
        "input": args.spec,
        "parameters": {"n": n_rows, "lambda": lam,
                       "k": args.k, "l": args.l},
        "pair": pair_to_json(pair),
        "suite": report.to_json(),
        "f_tilde": str(f_tilde(pair)),
        "pass": report.passed,
    }
    return body, 0 if report.passed else 1


def _render_text(body: dict) -> str:
    lines = []

    def walk(prefix: str, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else key, sub)
        elif isinstance(value, list):
            if not value:
                lines.append(f"{prefix}: []")
            for idx, sub in enumerate(value):
                walk(f"{prefix}[{idx}]", sub)
        else:
            lines.append(f"{prefix}: {value}")

    walk("", body)
    return "\n".join(lines) + "\n"


def _emit(body: dict, code: int, output: str, started: float) -> int:
    body["exit_status"] = code
    body["elapsed_ms"] = int(round((time.perf_counter() - started) * 1000))
    if output == "json":
        sys.stdout.write(json.dumps(body, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(body))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bialgebroid",
        description="Exact checks for dual pairs of Lie algebroid structures.")
    parser.add_argument("--output", choices=("json", "text"), default="json",
                        help="report format (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="axiom checks for both halves of a pair document")
    p.add_argument("spec", help="path to a pair JSON document")

    p = sub.add_parser("check", help="decide whether the operator square is a function")
    p.add_argument("spec", help="path to a pair JSON document")

    p = sub.add_parser("identities", help="run an identity suite on a pair document")
    p.add_argument("spec", help="path to a pair JSON document")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))

    p = sub.add_parser("modular", help="modular cocycles and the square scalar")
    p.add_argument("spec", help="path to a pair JSON document")

    example = sub.add_parser("example", help="build and check a documented family")
    families = example.add_subparsers(dest="family", required=True)

    p = families.add_parser("a-plus-b", help="rank-2 pair over a point")
    for name in ("a", "b", "c", "d"):
        p.add_argument(f"--{name}", required=True,
                       help=f"rational structure constant {name}")

    p = families.add_parser("poisson", help="tangent/cotangent double of a Poisson bivector")
    p.add_argument("--dim", type=int, required=True, help="base dimension m")
    p.add_argument("--pi", required=True,
                   help="JSON m x m skew matrix of polynomial strings")

    p = families.add_parser("exact", help="dual structure induced by a bivector")
    p.add_argument("spec", help="path to an algebroid JSON document")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="JSON object of bivector components, keys 'i,j' with i < j")

    p = families.add_parser("pn", help="Poisson-Nijenhuis hierarchy pair")
    p.add_argument("spec", help="path to an algebroid JSON document")
    p.add_argument("--n", required=True, help="JSON n x n matrix of polynomial strings")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="JSON object of bivector components, keys 'i,j' with i < j")
    p.add_argument("--k", type=int, default=0, help="dual-side hierarchy index")
    p.add_argument("--l", type=int, default=0, help="primal-side hierarchy index")
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "check": _cmd_check,
    "identities": _cmd_identities,
    "modular": _cmd_modular,
}

_EXAMPLE_HANDLERS = {
    "a-plus-b": _cmd_example_a_plus_b,
    "poisson": _cmd_example_poisson,
    "exact": _cmd_example_exact,
    "pn": _cmd_example_pn,
}


def main(argv: Optional[list] = None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _emit({"error": str(exc)}, 2, "json", started)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "example":
        handler = _EXAMPLE_HANDLERS[args.family]
        command_echo = {"command": "example", "family": args.family}
    else:
        handler = _HANDLERS[args.command]
        command_echo = {"command": args.command}
    try:
        body, code = handler(args)
    except _INPUT_ERRORS as exc:
        body = dict(command_echo)
        body["error"] = str(exc)
        return _emit(body, 2, args.output, started)
    except Exception as exc:  # pair.InternalError or any other fault of this package
        body = dict(command_echo)
        body["error"] = f"{type(exc).__name__}: {exc}"
        body["internal"] = True
        return _emit(body, 3, args.output, started)
    return _emit(body, code, args.output, started)


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
