import json
import sys
import tracemalloc
from fractions import Fraction

import pytest

from bialgebroid import (AlgebroidStructure, BivectorData, ConstructionError, Form,
                         FrameData, Multivector, NijenhuisData, PoissonManifoldData, Polynomial,
                         PreconditionError, a_plus_b, dirac_square, divergence,
                         exact_from_bivector, exact_identities,
                         find_counterexample_pairs, pairing, pn_desk_instance,
                         pn_hierarchy, pn_identities, poisson_double,
                         poisson_homology_check, tangent_algebroid)

from bialgebroid import (InternalError, algebroid_from_json, interior_by_multivector,
                         laplacian, multivector_probes, pair_to_json, retype)
from bialgebroid import cli, constructions
from bialgebroid.constructions import _dstar_bracket_witness
from bialgebroid.pair import BialgebroidPair, _modular_class, degree1_form_probes
from bialgebroid.ring import identity_matrix

from conftest import (FIXTURES, const, heisenberg, heisenberg_exact_pair,
                      heisenberg_triangular_pair, point_algebra, poisson_data,
                      so3_exact_pair)

R3 = ("x1", "x2", "x3")


def bivector(alg, index, coeff=1):
    coords = alg.coordinates
    if not isinstance(coeff, Polynomial):
        coeff = Polynomial.const(coords, coeff)
    return BivectorData(Multivector.monomial(alg.rank, coords, index, coeff))


# -- the rank-2 family over a point ------------------------------------------------


def test_a_plus_b_modular_is_the_trace_form():
    # <xi0, e_i> = trace(ad_{e_i}) on a point base, mirrored for X0
    for a, b, c, d in [(1, 2, 3, 4), (-2, 1, 1, 3), (0, 0, 5, -5)]:
        P = a_plus_b(a, b, c, d)
        assert pairing(P.modular.xi0, P.basis_e(1)) == const(b)
        assert pairing(P.modular.xi0, P.basis_e(2)) == const(-a)
        assert pairing(P.basis_eps(1), P.modular.x0) == const(d)
        assert pairing(P.basis_eps(2), P.modular.x0) == const(-c)


def test_a_plus_b_accepts_rationals():
    P = a_plus_b(Fraction(1, 2), Fraction(-1, 3), 2, 5)
    rep = dirac_square(P)
    assert rep.is_scalar
    # f~ = -(bd + ac)/4
    assert rep.f_tilde == const(Fraction(-(Fraction(-5, 3) + 1), 4))


# -- pairs generated by a bivector --------------------------------------------------


def test_exact_heisenberg_frozen_structure():
    P = heisenberg_exact_pair()
    assert P.label == "exact"
    assert P.Astar.brackets == {(1, 3): (const(1), const(0), const(0)),
                                (2, 3): (const(0), const(1), const(0))}
    assert P.modular.x0 == Multivector.monomial(3, (), (3,), const(-2))
    assert P.modular.xi0.is_zero()
    assert P.f_tilde().is_zero()


def test_triangular_heisenberg_frozen_structure():
    P = heisenberg_triangular_pair()
    assert P.label == "triangular"
    assert P.modular.x0.is_zero()
    assert P.f_tilde().is_zero()


@pytest.mark.parametrize("builder, index", [
    (heisenberg_triangular_pair, (1, 3)),
    (heisenberg_exact_pair, (1, 2)),
    (so3_exact_pair, (1, 2)),
])
def test_exact_identities_pass(builder, index):
    P = builder()
    L = bivector(P.A, index)
    rep = exact_identities(P, L)
    bad = [(r.id, r.witness) for r in rep.records if not r.passed]
    assert bad == []
    ids = {r.id for r in rep.records}
    assert {"exact/descend", "exact/combat", "exact/square-zero"} <= ids
    # the extra differential identity only applies when [Lambda, Lambda] = 0
    assert ("exact/triangular-dstar" in ids) == L.is_poisson(P.A)


def _dstar_bracket_oracle(P, Lambda):
    """dstar u = [Lambda, u] on every x^gamma e_I with |gamma| <= 2."""
    for u in multivector_probes(P, 2):
        lhs, rhs = P.dstar(u), P.A.schouten(Lambda, u)
        if lhs != rhs:
            return f"u = {u}; dstar u = {lhs}; [Lambda, u] = {rhs}"
    return None


def _tangent_r3_exact_pair(text):
    """The pair of `example exact tests/fixtures/tangent-r3.json --lambda
    '{"1,2": text}'`."""
    A = algebroid_from_json(json.loads((FIXTURES / "tangent-r3.json").read_text()), "vector")
    L = BivectorData(Multivector.monomial(3, R3, (1, 2), Polynomial.parse(text, R3)))
    return exact_from_bivector(A, L), L


def test_triangular_dstar_on_generators_matches_the_full_family():
    """Oracle for the generator reduction of exact/triangular-dstar: the
    record, and the check against bivectors the pair was not built from,
    give the witness of the full probe family."""
    cases = [(P, bivector(P.A, index)) for P, index in (
        (heisenberg_triangular_pair(), (1, 3)), (heisenberg_exact_pair(), (1, 2)),
        (so3_exact_pair(), (1, 2)))]
    cases += [_tangent_r3_exact_pair(text) for text in ("1", "x3")]
    failures = 0
    for P, L in cases:
        rep = exact_identities(P, L)
        if L.is_poisson(P.A):
            assert rep.record("exact/triangular-dstar").witness == _dstar_bracket_oracle(P, L.Lambda)
        others = [L.Lambda.scaled(2), bivector(P.A, (2, 3)).Lambda]
        if P.coordinates:
            others.append(bivector(P.A, (1, 3), Polynomial.parse("x1*x2", R3)).Lambda)
        for Lambda in [L.Lambda] + others:
            want = _dstar_bracket_oracle(P, Lambda)
            assert _dstar_bracket_witness(P, Lambda) == want, (P.label, str(Lambda))
            failures += want is not None
    assert failures >= 8



def _descend_oracle(P, L):
    """exact/descend on every x^gamma eps^j with |gamma| <= 2."""
    for theta in degree1_form_probes(P, 2):
        lhs = P.boundary_star(theta).scalar_part()
        rhs = -P.boundary(L.sharp(theta)).scalar_part() + 2 * pairing(P.d(theta), L.Lambda)
        if lhs != rhs:
            return f"theta = {theta}; boundary_* theta = {lhs}; closed form = {rhs}"
    return None


def test_descend_on_degree_one_forms_matches_the_full_family(monkeypatch):
    """Oracle for the order-1 reduction of exact/descend: the record gives
    the witness of all x^gamma eps^j with |gamma| <= 2, as it is and with
    an order-1 fault in boundary_* that first shows on x1 eps^1."""
    cases = [_tangent_r3_exact_pair(text) for text in ("1", "x3", "x1*x2")]
    for P, L in cases:
        assert exact_identities(P, L).record("exact/descend").witness is None
        assert _descend_oracle(P, L) is None
    direct = BialgebroidPair.boundary_star

    def faulty(self, theta):
        return direct(self, theta) + self.scalar_form(
            theta.coefficient((1,)).diff(self.coordinates[0]))

    monkeypatch.setattr(BialgebroidPair, "boundary_star", faulty)
    for P, L in cases:
        witness = exact_identities(P, L).record("exact/descend").witness
        assert witness == _descend_oracle(P, L), str(L.Lambda)
        assert witness.startswith("theta = (x1)*eps[1]; "), witness

def test_exact_identities_requires_matching_pair():
    P = heisenberg_exact_pair()
    wrong = bivector(P.A, (1, 3))
    with pytest.raises(PreconditionError):
        exact_identities(P, wrong)


def test_so3_bivector_is_admissible_but_not_poisson():
    P = so3_exact_pair()
    L = bivector(P.A, (1, 2))
    square = P.A.schouten(L.Lambda, L.Lambda)
    assert square == Multivector.monomial(3, (), (1, 2, 3), const(2))
    assert not L.is_poisson(P.A)
    assert P.label == "exact"
    rep = dirac_square(P)
    assert rep.is_scalar and rep.square_formula_ok


def test_inadmissible_bivector_is_rejected():
    alg = point_algebra(3, {(1, 2): (0, 1, 1)})
    L = bivector(alg, (1, 2))
    with pytest.raises(ConstructionError) as err:
        exact_from_bivector(alg, L)
    assert "[[Lambda, Lambda], e[1]] = (-2)*e[1,2,3]" in str(err.value)


def test_bivector_shape_validation():
    with pytest.raises(ConstructionError):
        BivectorData(Multivector.monomial(3, (), (1,), const(1)))
    alg = heisenberg()
    with pytest.raises(ConstructionError):
        bivector(alg, (1, 2)).validate(tangent_algebroid(R3))


def test_heisenberg_bivector_family_is_triangular():
    # alpha e1^e3 + beta e2^e3 is Poisson for every alpha, beta
    alg = heisenberg()
    for alpha, beta in [(1, 0), (0, 1), (2, -3), (1, 1)]:
        L = BivectorData(Multivector.monomial(3, (), (1, 3), const(alpha))
                         + Multivector.monomial(3, (), (2, 3), const(beta)))
        assert L.is_poisson(alg)
        P = exact_from_bivector(alg, L)
        assert P.label == "triangular"


# -- deformation hierarchies ---------------------------------------------------------


def test_desk_instance_is_frozen():
    A, N, L = pn_desk_instance()
    x1 = Polynomial.variable(R3, "x1")
    one = Polynomial.const(R3, 1)
    zero = Polynomial.zero(R3)
    assert N.matrix == ((x1, zero, zero), (zero, x1, zero), (zero, zero, one))
    assert L.Lambda == Multivector.monomial(3, R3, (1, 2), one)
    assert A.coordinates == R3
    # what makes the triple a nontrivial PN desk instance
    constructions._check_pn_compatibility(A, N, L)
    assert N.matrix[0][0] != N.matrix[2][2]  # not a scalar multiple of the identity
    assert constructions._shifted_bivector(A, N, L, 1).Lambda != L.Lambda


def test_pn_identities_pass():
    A, N, L = pn_desk_instance()
    rep = pn_identities(A, N, L)
    bad = [(r.id, r.witness) for r in rep.records if not r.passed]
    assert bad == []
    assert {r.id for r in rep.records} == {
        "pn/scene", "pn/primaries-l1", "pn/primaries-l2", "pn/primaries-l3",
        "pn/legality", "pn/morphism", "pn/square-zero"}


def test_pn_identities_builds_one_pair(monkeypatch):
    """One compatibility check and one pair, the hierarchy pair; Lambda_0..3
    are built once each, besides the Lambda_1 of the check and the Lambda_k
    of pn_hierarchy.  A_1..A_3 are built once each: pn/scene reads xi_1 off
    the hierarchy pair's own A_1."""
    A, N, L = pn_desk_instance()
    calls = {"_check_pn_compatibility": 0, "exact_from_bivector": 0, "_shifted_bivector": 0,
             "BialgebroidPair": 0}
    for name in ("_check_pn_compatibility", "exact_from_bivector", "_shifted_bivector"):
        def counting(*args, _name=name, _direct=getattr(constructions, name)):
            calls[_name] += 1
            return _direct(*args)
        monkeypatch.setattr(constructions, name, counting)
    deformed = []
    direct_deformed = constructions._deformed_structure

    def counting_deformed(A, N, l):
        deformed.append(l)
        return direct_deformed(A, N, l)

    monkeypatch.setattr(constructions, "_deformed_structure", counting_deformed)
    direct_init = BialgebroidPair.__init__

    def counting_init(self, *args, **kwargs):
        calls["BialgebroidPair"] += 1
        direct_init(self, *args, **kwargs)

    monkeypatch.setattr(BialgebroidPair, "__init__", counting_init)
    assert pn_identities(A, N, L, 1, 1).passed
    assert calls == {"_check_pn_compatibility": 1, "exact_from_bivector": 0,
                     "_shifted_bivector": 6, "BialgebroidPair": 1}
    assert deformed == [1, 2, 3]


def test_example_pn_builds_its_pair_once(monkeypatch, capsys):
    """example pn prints the pair that pn_identities checks: one hierarchy
    call, one compatibility check, and A_l built for l = 1, 2, 3 only."""
    calls = {"pn_hierarchy": [], "_check_pn_compatibility": [], "_deformed_structure": []}
    for name in calls:
        def counting(*args, _name=name, _direct=getattr(constructions, name)):
            calls[_name].append(args[-1] if _name == "_deformed_structure" else None)
            return _direct(*args)
        monkeypatch.setattr(constructions, name, counting)
    monkeypatch.chdir(FIXTURES.parent.parent)  # the spec path is echoed in the report
    code = cli.main(["example", "pn", "tests/fixtures/tangent-r3.json",
                     "--n", '[["x1","0","0"],["0","x1","0"],["0","0","1"]]',
                     "--lambda", '{"1,2": "1"}', "--k", "1", "--l", "1"])
    assert code == 0 and '"pass": true' in capsys.readouterr().out
    assert {name: len(seen) for name, seen in calls.items()} == {
        "pn_hierarchy": 1, "_check_pn_compatibility": 1, "_deformed_structure": 3}
    assert calls["_deformed_structure"] == [1, 2, 3]


def test_example_poisson_builds_its_pair_once(monkeypatch, capsys):
    """example poisson prints the pair that poisson_homology_check checks:
    one poisson_double call and one validated pair, and the same report as
    the library's."""
    calls = {"poisson_double": 0, "__init__": 0}

    def counting(owner, name):
        direct = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return direct(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(constructions, "poisson_double")
    counting(BialgebroidPair, "__init__")
    rows = [["0", "x1"], ["-x1", "0"]]
    code = cli.main(["example", "poisson", "--dim", "2", "--pi", json.dumps(rows)])
    body = json.loads(capsys.readouterr().out)
    assert code == 0 and body["pass"] is True
    assert calls == {"poisson_double": 1, "__init__": 1}
    monkeypatch.undo()
    assert body["suite"] == poisson_homology_check(PoissonManifoldData(2, rows)).to_json()


def test_poisson_double_reads_repeated_differentials_off_the_tables(monkeypatch):
    """Building the dual structure of pi^12 = x1 over R^3 takes 9
    differentials over 5 distinct inputs (d eps^i once in a Lie derivative
    and once in a bracket's tail, d x1, d 0), but runs the derivation loop
    once per index tuple J, to fill d eps^J for J = (), (1,), (2,), (3,):
    each repeat is a table read, and no polynomial is differentiated, so
    no vector field is applied."""
    Pm = PoissonManifoldData(3, [["0", "x1", "0"], ["-x1", "0", "0"], ["0", "0", "0"]])
    calls, loops, fields = [], [], []
    direct, derive = AlgebroidStructure.differential, AlgebroidStructure._derive
    field = Polynomial.diff

    def differential(side, w):
        calls.append(str(w))
        return direct(side, w)

    def deriving(side, out, J, image, odd):
        loops.append(J)
        return derive(side, out, J, image, odd)

    def applying(*args):
        fields.append(args)
        return field(*args)

    monkeypatch.setattr(AlgebroidStructure, "differential", differential)
    monkeypatch.setattr(AlgebroidStructure, "_derive", deriving)
    monkeypatch.setattr(Polynomial, "diff", applying)
    constructions._dual_structure_from_bivector(tangent_algebroid(Pm.coordinates),
                                                BivectorData(Pm.pi_multivector()))
    assert len(calls) == 9 and len(set(calls)) == 5
    assert sorted(loops) == [(), (1,), (2,), (3,)]
    assert fields == []


def test_pn_identities_cocycles_are_those_of_the_exact_pairs():
    """xi_0 read off A is the xi_0 of the exact pair of Lambda, and X_k read
    off the hierarchy pair is the X_0 of the exact pair of Lambda_k."""
    A, N, L = pn_desk_instance()
    frame = FrameData(A.rank, A.coordinates)
    assert _modular_class(A, frame) == exact_from_bivector(A, L).modular.xi0
    for k in range(3):
        Lk = constructions._shifted_bivector(A, N, L, k)
        for l in range(3):
            P = pn_hierarchy(A, N, L, k, l)
            assert P.modular.x0 == exact_from_bivector(A, Lk).modular.x0, (k, l)


@pytest.mark.parametrize("l", [0, 1, 2])
@pytest.mark.parametrize("k", [0, 1])
def test_pn_hierarchy_squares_to_zero(k, l):
    A, N, L = pn_desk_instance()
    P = pn_hierarchy(A, N, L, k, l)
    assert P.label == f"pn-l{l}-k{k}"
    rep = dirac_square(P)
    assert rep.is_scalar and rep.square_formula_ok
    assert rep.f_tilde.is_zero()


def _uncached_power(N, l):
    """N^l by l products from the identity, on every call."""
    N._check_power(l)
    out = identity_matrix(N.rank, N.variables)
    for _ in range(l):
        out = constructions.matrix_product(out, N.matrix, N.variables)
    return out


def test_nijenhuis_powers_are_built_once_per_instance(monkeypatch):
    """pn_identities reads N^1..N^3 again and again; each is one product of
    the power below it by N, taken once for the instance, and the reports
    are the ones that powers taken afresh on every call give."""
    products = []
    direct = constructions.matrix_product

    def counting(X, Y, coords):
        if sys._getframe(1).f_code is NijenhuisData.power.__code__:
            products.append(X)
        return direct(X, Y, coords)

    A, N, L = pn_desk_instance()
    N = NijenhuisData(N.matrix, N.variables)  # no power built yet
    monkeypatch.setattr(constructions, "matrix_product", counting)
    pn_identities(A, N, L, 2, 2)
    assert len(products) == 3
    monkeypatch.setattr(constructions, "matrix_product", direct)

    def reports(N):
        return [(pn_identities(A, N, L, k, l).to_json(), pair_to_json(pn_hierarchy(A, N, L, k, l)))
                for k in range(3) for l in range(3)]

    cached = reports(pn_desk_instance()[1])
    monkeypatch.setattr(NijenhuisData, "power", _uncached_power)
    assert cached == reports(pn_desk_instance()[1])


def test_nijenhuis_power_refuses_a_negative_index():
    _A, N, _L = pn_desk_instance()
    with pytest.raises(ConstructionError):
        N.power(-1)


def test_pn_rejects_negative_indices():
    A, N, L = pn_desk_instance()
    with pytest.raises(ConstructionError):
        pn_hierarchy(A, N, L, -1, 0)


def test_pn_rejects_torsion():
    A = tangent_algebroid(R3)
    L = bivector(A, (1, 2))
    N = NijenhuisData([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "x1"]], R3)
    with pytest.raises(ConstructionError) as err:
        pn_hierarchy(A, N, L, 1, 1)
    assert "torsion" in str(err.value)


def test_pn_rejects_sharp_mismatch():
    A = tangent_algebroid(R3)
    L = bivector(A, (1, 2))
    N = NijenhuisData([["x1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], R3)
    with pytest.raises(ConstructionError) as err:
        pn_hierarchy(A, N, L, 1, 1)
    assert "Lambda# N* != N Lambda#" in str(err.value)


def test_nijenhuis_powers_and_traces():
    A, N, L = pn_desk_instance()
    x1 = Polynomial.variable(R3, "x1")
    assert N.trace_power(1) == x1 + x1 + Polynomial.const(R3, 1)
    assert N.trace_power(2) == x1 * x1 * 2 + Polynomial.const(R3, 1)
    u = Multivector.monomial(3, R3, (1,), Polynomial.const(R3, 1))
    assert N.apply(u, 2) == u.scaled(x1 * x1)


@pytest.mark.parametrize("corner, l, error", [
    ("1", 65, "N^65: the index exceeds 64"),
    ("x1^2", 33, "N^33 may exceed total degree 64"),
    ("x1+x2+x3", 21, "N^21 of 4 monomials may exceed 2000 terms"),
    ("2^100", 41, "N^41 may exceed 4096 coefficient bits"),
])
def test_nijenhuis_power_past_a_ring_bound_is_refused(corner, l, error):
    """N^l is refused by the bounds of a power in polynomial text, before
    any product, and the index just below each refusal is computed."""
    N = NijenhuisData([[corner, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], R3)
    with pytest.raises(ConstructionError) as err:
        N.power(l)
    assert str(err.value) == error
    assert N.power(l - 1)[0][0] == Polynomial.parse(corner, R3) ** (l - 1)


# -- tangent/cotangent doubles --------------------------------------------------------


def test_poisson_data_validation():
    with pytest.raises(ConstructionError):
        PoissonManifoldData(2, [["0", "1"], ["1", "0"]])  # not skew
    with pytest.raises(ConstructionError):
        PoissonManifoldData(2, [["0", "1"]])  # not square
    bad = [["0", "x1^2", "x2^2"], ["-x1^2", "0", "0"], ["-x2^2", "0", "0"]]
    with pytest.raises(ConstructionError) as err:
        PoissonManifoldData(3, bad)
    assert "-4*x1*x2^2" in str(err.value)



def test_poisson_data_checks_the_shape_before_naming_coordinates():
    """A matrix of the wrong shape is refused before the base_dim coordinate
    names are built, so a huge base_dim costs no memory."""
    tracemalloc.start()
    try:
        with pytest.raises(ConstructionError, match="m x m"):
            PoissonManifoldData(10**6, [])
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


SO3_DUAL = [["0", "x3", "-x2"], ["-x3", "0", "x1"], ["x2", "-x1", "0"]]
QUADRATIC_R3 = [["0", "x1*x2", "x1*x3"], ["-x1*x2", "0", "x2*x3"], ["-x1*x3", "-x2*x3", "0"]]
POISSON_STRUCTURES = [poisson_data("zero"), poisson_data("constant"), poisson_data("linear"),
                      PoissonManifoldData(3, SO3_DUAL), PoissonManifoldData(3, QUADRATIC_R3),
                      PoissonManifoldData(2, [["0", "x1^2+1"], ["-x1^2-1", "0"]])]


def assert_triangular_pair_of_pi(Pm, P):
    """P is the pair that exact_from_bivector builds from pi on TR^m, and its
    dual is the closed form pi#(eps^i) = sum_j pi^{ij} e_j,
    [eps^i, eps^j] = sum_k (d_k pi^{ij}) eps^k."""
    m, coords = Pm.base_dim, Pm.coordinates
    T = tangent_algebroid(coords)
    Q = exact_from_bivector(T, BivectorData(Pm.pi_multivector()))
    assert P.label == "poisson-double" and Q.label == "triangular"
    assert (P.A.anchor, P.A.brackets) == (T.anchor, T.brackets)
    assert (P.Astar.anchor, P.Astar.brackets) == (Q.Astar.anchor, Q.Astar.brackets)
    assert P.Astar.anchor == Pm.pi_components
    closed = {(i, j): tuple(Pm.pi_components[i - 1][j - 1].diff(x) for x in coords)
              for i in range(1, m + 1) for j in range(i + 1, m + 1)}
    assert P.Astar.brackets == {key: entry for key, entry in closed.items()
                                if any(not p.is_zero() for p in entry)}


@pytest.mark.parametrize("index", range(len(POISSON_STRUCTURES)))
def test_poisson_double_is_the_triangular_pair_of_pi(index):
    Pm = POISSON_STRUCTURES[index]
    assert_triangular_pair_of_pi(Pm, poisson_double(Pm))


def _poisson_homology_oracle(Pm):
    """poisson_homology_check with its operator identities run on every
    x^gamma e_I and x^gamma eps^I with |gamma| <= 2."""
    P = poisson_double(Pm)
    pi, x_omega = Pm.pi_multivector(), Pm.modular_field()
    probes_m = multivector_probes(P, 2)
    probes_f = [retype(u) for u in probes_m]

    def first(probes, lhs, rhs, text):
        for t in probes:
            left, right = lhs(t), rhs(t)
            if left != right:
                return text(t, left, right)
        return None

    def del_pi(theta):
        return interior_by_multivector(pi, P.d(theta)) - P.d(interior_by_multivector(pi, theta))

    ok = P.modular.x0 == x_omega.scaled(2)
    found = [("poisson/modular-factor",
              None if ok else f"X0 = {P.modular.x0}; 2 X_Omega = {x_omega.scaled(2)}")]
    found.append(("poisson/boundary-star", first(
        probes_f, P.boundary_star, lambda th: del_pi(th) + interior_by_multivector(x_omega, th),
        lambda th, l, r: f"theta = {th}; boundary_* = {l}; commutator form = {r}")))
    found.append(("poisson/laplacian-star-lie", first(
        probes_f, lambda th: constructions.laplacian(P, th),
        lambda th: P.A.lie_derivative(x_omega, th),
        lambda th, l, r: f"theta = {th}; Lap* = {l}; L_X = {r}")))
    found.append(("poisson/laplacian-lie", first(
        probes_m, lambda u: constructions.laplacian(P, u), lambda u: P.A.schouten(x_omega, u),
        lambda u, l, r: f"u = {u}; Lap = {l}; L_X = {r}")))
    found.append(("poisson/d-pi", first(
        probes_m, P.dstar, lambda u: P.A.schouten(pi, u),
        lambda u, l, r: f"u = {u}; dstar u = {l}; [pi, u] = {r}")))
    identities = [{"id": rid, "pass": wit is None, **({} if wit is None else {"witness": wit})}
                  for rid, wit in found]
    return {"suite": "poisson", "pass": all(r["pass"] for r in identities),
            "identities": identities}


def _laplacian_with_an_order_2_fault(P, target):
    """The Laplacian plus a term of order 2 that kills 1 and the generators:
    iota_{e1^e2} on forms, d^2/dx1 dx2 on the coefficients of multivectors."""
    out = laplacian(P, target)
    if isinstance(target, Form):
        return out + interior_by_multivector(P.basis_e(1).wedge(P.basis_e(2)), target)
    x1, x2 = P.coordinates[:2]
    return out + Multivector(target.rank, target.variables,
                             {ix: p.diff(x1).diff(x2) for ix, p in target.terms.items()})


@pytest.mark.parametrize("fault", [None, "modular-field", "laplacian"])
def test_poisson_identities_on_generator_products_match_the_full_family(monkeypatch, fault):
    """Oracle for the order reduction of poisson_homology_check: the report
    is the one the full probe families give, also when modular_field is
    deliberately doubled, which makes three identities fail on a generator,
    and when the Laplacian carries an order-2 fault, which makes two fail
    first on eps^1 ^ eps^2 and on x1 x2, products of two generators."""
    if fault == "modular-field":
        direct = PoissonManifoldData.modular_field
        monkeypatch.setattr(PoissonManifoldData, "modular_field",
                            lambda self: direct(self).scaled(2))
    if fault == "laplacian":
        monkeypatch.setattr(constructions, "laplacian", _laplacian_with_an_order_2_fault)
    failures = []
    for Pm in POISSON_STRUCTURES[:3] + [PoissonManifoldData(3, QUADRATIC_R3)]:
        got = poisson_homology_check(Pm).to_json()
        assert got == _poisson_homology_oracle(Pm), Pm.pi_components
        failures += [r["witness"].split("; ")[0] for r in got["identities"] if not r["pass"]]
    assert bool(failures) == (fault is not None)
    if fault == "laplacian":
        assert set(failures) == {"theta = eps[1,2]", "u = (x1*x2)"}


@pytest.mark.parametrize("kind", ["zero", "constant", "linear"])
def test_poisson_homology_check_passes(kind):
    rep = poisson_homology_check(poisson_data(kind))
    bad = [(r.id, r.witness) for r in rep.records if not r.passed]
    assert bad == []
    assert {r.id for r in rep.records} == {
        "poisson/modular-factor", "poisson/boundary-star",
        "poisson/laplacian-star-lie", "poisson/laplacian-lie", "poisson/d-pi"}


def test_poisson_r3_linear():
    Pm = PoissonManifoldData(3, [["0", "x3", "0"], ["-x3", "0", "0"], ["0", "0", "0"]])
    rep = poisson_homology_check(Pm)
    assert all(r.passed for r in rep.records)
    P = poisson_double(Pm)
    assert dirac_square(P).is_scalar


def test_poisson_modular_field_is_the_divergence_row():
    Pm = poisson_data("linear")
    field = Pm.modular_field()
    # X_Omega^j = sum_k d_k pi^{jk}
    coords = Pm.coordinates
    for j in range(Pm.base_dim):
        row = [Pm.pi_components[j][k] for k in range(Pm.base_dim)]
        expect = divergence(row, coords)
        assert pairing(Form.basis(Pm.base_dim, coords, j + 1), field) == expect


def test_poisson_double_modular_factor():
    P = poisson_double(poisson_data("linear"))
    field = poisson_data("linear").modular_field()
    assert P.modular.x0 == field.scaled(2)
    assert P.modular.xi0.is_zero()


# -- incompatible pairs ---------------------------------------------------------------


def test_counterexample_sweep_is_deterministic(counterexamples):
    again = find_counterexample_pairs(2)
    for P, Q in zip(counterexamples, again):
        assert P.Astar.brackets == Q.Astar.brackets
        assert P.label == Q.label
    assert counterexamples[0].label == "counterexample-1"
    assert counterexamples[1].label == "counterexample-2"
    minus = ("-1", "-1", "-1")
    assert [{key: tuple(map(str, entry)) for key, entry in P.Astar.brackets.items()}
            for P in counterexamples] == [{(1, 2): minus, (1, 3): minus, (2, 3): minus},
                                          {(1, 2): minus, (1, 3): minus}]


def test_counterexample_sweep_skips_only_invalid_structures(monkeypatch):
    """A candidate that fails the algebroid axioms is skipped; any other
    error is a fault and is not taken for a rejected candidate."""
    def faulty(*args, **kwargs):
        raise InternalError("fault in the pair constructor")

    monkeypatch.setattr(constructions, "BialgebroidPair", faulty)
    with pytest.raises(InternalError):
        find_counterexample_pairs(2)


def test_counterexamples_have_valid_sides(counterexamples):
    from bialgebroid import validate_algebroid
    for P in counterexamples:
        assert validate_algebroid(P.A).ok
        assert validate_algebroid(P.Astar).ok
