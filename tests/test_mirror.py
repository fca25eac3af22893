"""The A*-side mirrors are the A-side code run on the flipped pair (A*, A),
and the one-algebroid formulas are written once for either side.

The direct form-side formulas stay here as oracles for the delegations.
"""

import json
from fractions import Fraction

import pytest

from bialgebroid import (BialgebroidPair, Form, Multivector, Polynomial,
                         coordinate_monomials, dirac_star_apply, divergence,
                         f_tilde_star, interior_by_multivector, laplacian,
                         modular_cocycles, multivector_probes, pairing, pn_desk_instance,
                         retype, theorem_c_suite)
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
        recomputed = modular_cocycles(P.flipped())
        assert P.flipped().modular.x0 == recomputed.x0 == retype(P.modular.xi0), label
        assert P.flipped().modular.xi0 == recomputed.xi0 == retype(P.modular.x0), label


def modular_oracle(P):
    """<xi_0, e_i> and <X_0, eps^j>, each side written out by hand."""
    n, coords = P.rank, P.coordinates
    top = P.frame.top_index

    def xi_component(u):
        lead = P.A.schouten(u, P.frame.vee).coefficient(top)
        return divergence(P.A.anchor_field(u), coords) + lead

    def x_component(theta):
        lead = P.Astar.schouten(theta, P.frame.omega).coefficient(top)
        return divergence(P.Astar.anchor_field(theta), coords) + lead

    xi0 = Form(n, coords, {(i,): xi_component(P.basis_e(i)) for i in range(1, n + 1)})
    x0 = Multivector(n, coords, {(j,): x_component(P.basis_eps(j)) for j in range(1, n + 1)})
    for f in coordinate_monomials(coords, 1)[1:]:
        for i in range(1, n + 1):
            probe = Multivector.monomial(n, coords, (i,), f)
            assert xi_component(probe) == pairing(xi0, probe), (P.label, str(probe))
            probe = Form.monomial(n, coords, (i,), f)
            assert x_component(probe) == pairing(probe, x0), (P.label, str(probe))
    return x0, xi0


def test_modular_cocycles_match_the_two_sided_formulas(corpus, failing_pairs, pn_failing_pairs):
    for P in [P for _label, P in corpus] + failing_pairs + pn_failing_pairs:
        for Q in (P, P.flipped()):
            x0, xi0 = modular_oracle(Q)
            got = modular_cocycles(Q)
            assert (got.x0, got.xi0) == (x0, xi0), Q.label


def test_dual_apply_is_the_transpose_action():
    """NijenhuisData.dual_apply against the transpose loop written out."""
    _A, N, _L = pn_desk_instance()
    coords = N.variables
    forms = [Form.monomial(3, coords, (j,), f)
             for j in range(1, 4) for f in coordinate_monomials(coords, 1)]
    forms.append(sum(forms[1:], forms[0]))
    for l in range(4):
        mat = N.power(l)
        for theta in forms:
            comps = [theta.coefficient((i + 1,)) for i in range(3)]
            want = Form(3, coords, {(j + 1,): sum((mat[i][j] * comps[i] for i in range(3)),
                                                  Polynomial.zero(coords))
                                    for j in range(3)})
            assert N.dual_apply(theta, l) == want, (l, str(theta))


def test_mirror_operators_match_the_form_side_formulas(all_pairs):
    for label, P in all_pairs:
        mod = P.modular
        star = (pairing(mod.xi0, mod.x0) * Fraction(1, 2)
                - P.boundary_star(mod.xi0).scalar_part()) * Fraction(1, 2)
        assert f_tilde_star(P) == star, label
        for theta in map(retype, multivector_probes(P, 2)):  # every x^gamma eps^I, |gamma| <= 2
            assert dirac_star_apply(P, theta) == dirac_star_oracle(P, theta), (label, theta)
            lap = P.d(P.boundary_star(theta)) + P.boundary_star(P.d(theta))
            assert laplacian(P, theta) == lap, (label, theta)


def test_every_theorem_c_item_fails_on_failing_pairs(failing_pairs, pn_failing_pairs):
    for P in failing_pairs + pn_failing_pairs:
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
