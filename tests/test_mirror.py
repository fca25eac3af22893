"""The A*-side mirrors are the A-side code run on the flipped pair (A*, A).

The direct form-side formulas stay here as oracles for the delegations.
"""

import json
from fractions import Fraction

import pytest

from bialgebroid import (BialgebroidPair, Form, Multivector, Polynomial,
                         dirac_star_apply, f_tilde_star, form_probes,
                         interior_by_multivector, laplacian, modular_cocycles,
                         pairing, retype, theorem_c_suite)
from bialgebroid.pair import MIRROR_PREFIX

from test_cli import ROOT, run

THEOREM_C_IDS = [f"thm-c/{x}" for x in "abijklghcdef"]


def dirac_star_oracle(P, theta):
    """d - boundary_* + 1/2 (xi_0 ^ . + iota_{X_0}), written on forms directly."""
    mod = P.modular
    half = Fraction(1, 2)
    return P.d(theta) - P.boundary_star(theta) \
        + mod.xi0.wedge(theta).scaled(half) + interior_by_multivector(mod.x0, theta).scaled(half)


@pytest.fixture(scope="module")
def all_pairs(corpus, failing_pairs):
    return list(corpus) + [(P.label, P) for P in failing_pairs]


def test_retype_shares_terms():
    coords = ("x1", "x2")
    u = Multivector.monomial(2, coords, (1, 2), Polynomial.parse("x1", coords)) \
        + Multivector.basis(2, coords, 2)
    theta = retype(u)
    assert isinstance(theta, Form) and theta.terms is u.terms
    assert str(theta) == str(u).replace("e[", "eps[")
    back = retype(theta)
    assert isinstance(back, Multivector) and back == u


def test_flip_is_an_involution(all_pairs):
    for label, P in all_pairs:
        Q = P.flipped()
        assert isinstance(Q, BialgebroidPair)
        assert Q is P.flipped(), label
        assert Q.flipped() is P, label
        assert Q.A.section_kind == "vector" and Q.Astar.section_kind == "covector"
        assert Q.A.anchor == P.Astar.anchor and Q.A.brackets == P.Astar.brackets
        assert Q.Astar.anchor == P.A.anchor and Q.Astar.brackets == P.A.brackets
        assert Q.frame is P.frame


def test_swapped_modular_data_is_the_flipped_pairs_own(all_pairs):
    for label, P in all_pairs:
        recomputed = modular_cocycles(P.flipped(), verify=True)
        assert P.flipped().modular.x0 == recomputed.x0 == retype(P.modular.xi0), label
        assert P.flipped().modular.xi0 == recomputed.xi0 == retype(P.modular.x0), label


def test_mirror_operators_match_the_form_side_formulas(all_pairs):
    for label, P in all_pairs:
        mod = P.modular
        star = (pairing(mod.xi0, mod.x0) * Fraction(1, 2)
                - P.boundary_star(mod.xi0).scalar_part()) * Fraction(1, 2)
        assert f_tilde_star(P) == star, label
        for theta in form_probes(P, 2):
            assert dirac_star_apply(P, theta) == dirac_star_oracle(P, theta), (label, theta)
            lap = P.d(P.boundary_star(theta)) + P.boundary_star(P.d(theta))
            assert laplacian(P, "Astar", theta) == lap, (label, theta)


def test_every_theorem_c_item_fails_on_failing_pairs(failing_pairs):
    for P in failing_pairs:
        rep = theorem_c_suite(P)
        assert [r.id for r in rep.records] == THEOREM_C_IDS
        assert not any(r.passed for r in rep.records), P.label
        for r in rep.records:
            mirrored = r.id[-1] in "bdfjl"
            assert r.witness.startswith(MIRROR_PREFIX) == mirrored, r


def test_cli_reports_mirror_witnesses(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run(capsys, "identities", "tests/fixtures/broken-rank3.json",
                    "--suite", "theorem-c")
    assert code == 1
    records = json.loads(out)["suite"]["identities"]
    assert [r["id"] for r in records] == THEOREM_C_IDS
    for r in records:
        assert not r["pass"]
        assert r["witness"].startswith(MIRROR_PREFIX) == (r["id"][-1] in "bdfjl"), r
    assert records[1]["witness"].startswith("on (A*, A): u = e[1]; v = e[2]; ")
