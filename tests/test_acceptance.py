"""Acceptance suite: the nine headline guarantees, one test and one line each.

Every comparison is exact rational arithmetic; there are no tolerances
anywhere. Runtime budgets are asserted where a criterion carries one.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from bialgebroid import (AlgebroidError, AlgebroidStructure, BialgebroidPair,
                         BivectorData, Form, FrameData, Multivector,
                         PoissonManifoldData, Polynomial, SectionE, a_plus_b,
                         bv_boundary, clifford_act, corollary_suite,
                         courant_axioms, dee, dirac_apply, dirac_square,
                         dirac_star_square, divergence, dorfman,
                         exact_from_bivector, exact_identities,
                         interior_by_form, inverse_omega_sharp,
                         inverse_v_sharp, is_lie_bialgebroid, metric,
                         omega_sharp, pairing, pn_desk_instance, pn_hierarchy,
                         pn_identities, poisson_double, poisson_homology_check,
                         rho_apply, theorem_c_suite, v_sharp)

from conftest import const, heisenberg, point_algebra, poisson_data, so3_exact_pair
from bialgebroid import tangent_algebroid

SEED = 20260826


def line(num, text):
    print(f"criterion {num}: PASS - {text}")


# -- 1: the rank-2 family over a point ------------------------------------------------


def test_criterion_1_rank2_family_scalar():
    started = time.perf_counter()
    grid = list(itertools.product((-2, -1, 1, 3), repeat=4))[::16]
    assert len(grid) == 16
    rng = random.Random(SEED)
    tuples = grid + [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                           for _ in range(4)) for _ in range(100)]
    for a, b, c, d in tuples:
        rep = dirac_square(a_plus_b(a, b, c, d))
        assert rep.is_scalar and rep.square_formula_ok, (a, b, c, d)
        assert rep.f_tilde == Polynomial.const((), Fraction(-(b * d + a * c), 4))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    line(1, f"{len(tuples)} parameter tuples, f~ = -(bd+ac)/4 exactly, {elapsed:.2f}s")


# -- 2: scalar square decides the compatibility, both directions -----------------------


def test_criterion_2_scalar_square_decides(corpus, failing_pairs):
    started = time.perf_counter()
    everything = list(corpus) + [(P.label, P) for P in failing_pairs]
    assert len(corpus) >= 6 and len(failing_pairs) >= 3
    decided = []
    for label, P in everything:
        sq = dirac_square(P)
        leib = is_lie_bialgebroid(P)
        assert sq.is_scalar == leib.passed, label
        if not sq.is_scalar:
            assert sq.witness, label
            assert leib.record("leibniz-dstar").witness, label
        decided.append(sq.is_scalar)
    assert decided.count(False) == len(failing_pairs)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"
    line(2, f"{len(everything)} pairs decided, both directions agree, {elapsed:.2f}s")


# -- 3: the twelve-identity catalogue ---------------------------------------------------


def test_criterion_3_identity_catalogue(corpus, failing_pairs):
    all_ids = {f"thm-c/{x}" for x in "abcdefghijkl"}
    for label, P in corpus:
        rep = theorem_c_suite(P)
        assert {r.id for r in rep.records} == all_ids
        bad = [(r.id, r.witness) for r in rep.records if not r.passed]
        assert bad == [], (label, bad)
    for P in failing_pairs:
        rep = theorem_c_suite(P)
        assert not rep.record("thm-c/a").passed, P.label
        assert not rep.record("thm-c/k").passed, P.label
    line(3, f"12 identities on {len(corpus)} pairs; (a) and (k) fail on "
            f"{len(failing_pairs)} counterexamples")


# -- 4: the square formula holds without any compatibility assumption -------------------


def test_criterion_4_square_formula_unconditional(corpus, failing_pairs):
    everything = list(corpus) + [(P.label, P) for P in failing_pairs]
    for label, P in everything:
        sq = dirac_square(P)
        assert sq.square_formula_ok, (label, sq.formula_witness)
        mirror = dirac_star_square(P)
        assert mirror.square_formula_ok, (label, mirror.formula_witness)
    line(4, f"square formula exact on all {len(everything)} pairs, both operators")


# -- 5: pairs generated by a bivector ---------------------------------------------------


def test_criterion_5_exact_pairs():
    r2 = ("x1", "x2")
    tangent2 = tangent_algebroid(r2)
    cases = [
        (heisenberg(), Multivector.monomial(3, (), (1, 3), const(1))),
        (heisenberg(), Multivector.monomial(3, (), (1, 2), const(1))),
        (point_algebra(3, {(1, 2): (0, 0, 1), (1, 3): (0, -1, 0), (2, 3): (1, 0, 0)}),
         Multivector.monomial(3, (), (1, 2), const(1))),
        (tangent2, Multivector.monomial(2, r2, (1, 2),
                                        Polynomial.variable(r2, "x1"))),
    ]
    for A, Lambda in cases:
        L = BivectorData(Lambda)
        P = exact_from_bivector(A, L)
        rep = exact_identities(P, L)
        bad = [(r.id, r.witness) for r in rep.records if not r.passed]
        assert bad == []
        assert rep.record("exact/combat").passed
        assert rep.record("exact/descend").passed
        assert P.f_tilde().is_zero()
    line(5, f"{len(cases)} bivector-induced pairs: combat, descend, f~ = 0")


# -- 6: the deformation hierarchy -------------------------------------------------------


def test_criterion_6_pn_hierarchy():
    A, N, L = pn_desk_instance()
    rep = pn_identities(A, N, L, k=1, l=1)
    assert rep.record("pn/scene").passed, rep.record("pn/scene").witness
    for l in (1, 2):
        assert rep.record(f"pn/primaries-l{l}").passed
    for k in (0, 1):
        for l in (1, 2):
            sq = dirac_square(pn_hierarchy(A, N, L, k, l))
            assert sq.is_scalar and sq.f_tilde.is_zero(), (k, l)
    line(6, "hierarchy cocycles closed for l in {1,2}; all four (l,k) pairs give f~ = 0")


# -- 7: the tangent/cotangent double of a Poisson bivector ------------------------------


def test_criterion_7_poisson_double():
    Pm = poisson_data("linear")
    rep = poisson_homology_check(Pm)
    bad = [(r.id, r.witness) for r in rep.records if not r.passed]
    assert bad == []
    assert rep.record("poisson/boundary-star").passed
    assert rep.record("poisson/laplacian-star-lie").passed
    assert rep.record("poisson/laplacian-lie").passed

    P = poisson_double(Pm)
    coords = Pm.coordinates
    m = Pm.base_dim
    oracle = {}
    for j in range(m):
        div = divergence([Pm.pi_components[j][k] for k in range(m)], coords)
        if not div.is_zero():
            oracle[(j + 1,)] = div * 2
    assert P.modular.x0 == Multivector(m, coords, oracle)
    assert P.modular.xi0.is_zero()

    cor = corollary_suite(P)
    rec = cor.record("cor-extremal/xs")
    assert rec.passed, rec.witness
    line(7, "boundary-star factorization, Laplacian Lie form, modular field doubled")


# -- 8: randomized structural suites ----------------------------------------------------


def rand_fraction(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def rand_poly(rng, coords, max_deg=3):
    out = Polynomial.zero(coords)
    for _ in range(rng.randint(1, 2)):
        if coords:
            expo = [0] * len(coords)
            for _ in range(rng.randint(0, max_deg)):
                expo[rng.randrange(len(coords))] += 1
            mono = Polynomial.const(coords, rand_fraction(rng))
            for name, e in zip(coords, expo):
                mono = mono * Polynomial.variable(coords, name) ** e
            out = out + mono
        else:
            out = out + Polynomial.const(coords, rand_fraction(rng))
    return out


def rand_index(rng, rank, size=None):
    if size is None:
        size = rng.randint(0, rank)
    return tuple(sorted(rng.sample(range(1, rank + 1), size)))


def rand_element(rng, cls, rank, coords, size=None, max_deg=3):
    return cls.monomial(rank, coords, rand_index(rng, rank, size),
                        rand_poly(rng, coords, max_deg))


def rand_degree1(rng, cls, rank, coords, max_deg=3):
    out = cls.zero(rank, coords)
    for _ in range(rng.randint(1, 2)):
        out = out + cls.monomial(rank, coords, (rng.randint(1, rank),),
                                 rand_poly(rng, coords, max_deg))
    return out


def structure_pool():
    r1, r2, r3 = ("x1",), ("x1", "x2"), ("x1", "x2", "x3")
    x1 = Polynomial.variable(r2, "x1")
    zero2 = Polynomial.zero(r2)
    one2 = Polynomial.const(r2, 1)
    cotangent = AlgebroidStructure(2, r2, [[zero2, x1], [-x1, zero2]],
                                   {(1, 2): (one2, zero2)}, "vector")
    return [
        point_algebra(2, {}),
        point_algebra(2, {(1, 2): (1, 2)}),
        heisenberg(),
        point_algebra(3, {(1, 2): (0, 0, 1), (1, 3): (0, -1, 0), (2, 3): (1, 0, 0)}),
        point_algebra(3, {(1, 2): (0, 1, 0), (1, 3): (0, 0, 1)}),
        point_algebra(4, {(1, 2): (0, 0, 1, 0)}),
        tangent_algebroid(r1),
        tangent_algebroid(r2),
        tangent_algebroid(r3),
        cotangent,
    ]


def pair_pools(rng):
    """(compatible bialgebroids, arbitrary valid dual pairs) for the suites."""
    compatible = []
    for _ in range(6):
        compatible.append(a_plus_b(rand_fraction(rng), rand_fraction(rng),
                                   rand_fraction(rng), rand_fraction(rng)))
    for alpha, beta in ((1, 0), (2, -3), (1, 1)):
        L = BivectorData(Multivector.monomial(3, (), (1, 3), const(alpha))
                         + Multivector.monomial(3, (), (2, 3), const(beta)))
        compatible.append(exact_from_bivector(heisenberg(), L))
    compatible.append(so3_exact_pair())
    r2 = ("x1", "x2")
    for p in ("x1", "x1*x2", "x2^3 - 1"):
        Pm = PoissonManifoldData(2, [["0", p], [f"-({p})", "0"]], r2)
        compatible.append(poisson_double(Pm))
    Pm3 = PoissonManifoldData(3, [["0", "x3", "0"], ["-x3", "0", "0"], ["0", "0", "0"]])
    compatible.append(poisson_double(Pm3))
    A, N, L = pn_desk_instance()
    compatible.append(pn_hierarchy(A, N, L, 1, 1))

    arbitrary = list(compatible)
    primal = heisenberg()
    tries = 0
    while sum(1 for _ in arbitrary) < len(compatible) + 6 and tries < 400:
        tries += 1
        table = {}
        for key in ((1, 2), (1, 3), (2, 3)):
            entry = tuple(rng.randint(-1, 1) for _ in range(3))
            if any(entry):
                table[key] = entry
        try:
            dual = point_algebra(3, table, kind="covector")
            arbitrary.append(BialgebroidPair(primal, dual))
        except AlgebroidError:
            continue
    return compatible, arbitrary


def test_criterion_8_randomized_structural_suites():
    started = time.perf_counter()
    rng = random.Random(SEED)
    structures = structure_pool()
    compatible, arbitrary = pair_pools(rng)
    counts = {}

    # d^2 = 0 on the dual complex
    n_cases = 0
    for _ in range(200):
        A = rng.choice(structures)
        theta = rand_element(rng, Form, A.rank, A.coordinates)
        assert A.differential(A.differential(theta)).is_zero()
        n_cases += 1
    counts["d-squared"] = n_cases

    # boundary^2 = 0
    n_cases = 0
    for _ in range(200):
        A = rng.choice(structures)
        frame = FrameData(A.rank, A.coordinates)
        u = rand_element(rng, Multivector, A.rank, A.coordinates)
        assert bv_boundary(A, frame, bv_boundary(A, frame, u)).is_zero()
        n_cases += 1
    counts["boundary-squared"] = n_cases

    # the boundary generates the bracket
    n_cases = 0
    for _ in range(200):
        A = rng.choice(structures)
        frame = FrameData(A.rank, A.coordinates)
        k = rng.randint(0, A.rank)
        u = rand_element(rng, Multivector, A.rank, A.coordinates, size=k)
        v = rand_element(rng, Multivector, A.rank, A.coordinates)
        sign = -1 if k % 2 else 1
        b = lambda w: bv_boundary(A, frame, w)
        rhs = (b(u.wedge(v)) - b(u).wedge(v) - u.wedge(b(v)).scaled(sign)).scaled(sign)
        assert A.schouten(u, v) == rhs
        n_cases += 1
    counts["generator-formula"] = n_cases

    # Lie derivative of the top elements against the divergence scalar
    n_cases = 0
    for _ in range(200):
        A = rng.choice(structures)
        frame = FrameData(A.rank, A.coordinates)
        u = rand_degree1(rng, Multivector, A.rank, A.coordinates)
        div = bv_boundary(A, frame, u).scalar_part()
        assert A.lie_derivative(u, frame.omega) == frame.omega.scaled(-div)
        assert A.schouten(u, frame.vee) == frame.vee.scaled(div)
        n_cases += 1
    counts["top-derivative"] = n_cases

    # boundary iota_theta + iota_theta boundary = iota_{d theta}
    n_cases = 0
    for _ in range(200):
        A = rng.choice(structures)
        frame = FrameData(A.rank, A.coordinates)
        theta = rand_degree1(rng, Form, A.rank, A.coordinates)
        u = rand_element(rng, Multivector, A.rank, A.coordinates)
        lhs = bv_boundary(A, frame, interior_by_form(theta, u)) \
            + interior_by_form(theta, bv_boundary(A, frame, u))
        assert lhs == interior_by_form(A.differential(theta), u)
        n_cases += 1
    counts["interior-commutator"] = n_cases

    # contraction round-trip signs
    n_cases = 0
    coords_pool = [(), ("x1",), ("x1", "x2"), ("x1", "x2", "x3")]
    for _ in range(200):
        n = rng.randint(1, 4)
        coords = rng.choice(coords_pool)
        frame = FrameData(n, coords)
        k = rng.randint(0, n)
        u = rand_element(rng, Multivector, n, coords, size=k)
        sign = -1 if (k * (n - 1)) % 2 else 1
        assert v_sharp(frame, omega_sharp(frame, u)) == u.scaled(sign)
        assert inverse_omega_sharp(frame, omega_sharp(frame, u)) == u
        theta = rand_element(rng, Form, n, coords, size=k)
        assert omega_sharp(frame, v_sharp(frame, theta)) == theta.scaled(sign)
        assert inverse_v_sharp(frame, v_sharp(frame, theta)) == theta
        n_cases += 1
    counts["sharp-signs"] = n_cases

    def rand_section(rng, P):
        vec = rand_degree1(rng, Multivector, P.rank, P.coordinates, max_deg=1)
        cov = rand_degree1(rng, Form, P.rank, P.coordinates, max_deg=1)
        return SectionE(vec, cov)

    # Clifford relation e . e . w = <e,e> w
    n_cases = 0
    for _ in range(200):
        P = rng.choice(arbitrary)
        e = rand_section(rng, P)
        w = rand_element(rng, Multivector, P.rank, P.coordinates, max_deg=2)
        assert clifford_act(e, clifford_act(e, w)) == w.scaled(metric(e, e))
        n_cases += 1
    counts["clifford"] = n_cases

    # double-structure axioms on compatible pairs
    n_cases = 0
    for _ in range(200):
        P = rng.choice(compatible)
        x, y, z = (rand_section(rng, P) for _ in range(3))
        f = rand_poly(rng, P.coordinates, max_deg=2)
        assert dorfman(P, x, dorfman(P, y, z)) == \
            dorfman(P, dorfman(P, x, y), z) + dorfman(P, y, dorfman(P, x, z))
        assert dorfman(P, x, y.scaled(f)) == \
            dorfman(P, x, y).scaled(f) + y.scaled(rho_apply(P, x, f))
        assert dorfman(P, x, y) + dorfman(P, y, x) == dee(P, metric(x, y)).scaled(2)
        assert dorfman(P, dee(P, f), x).is_zero()
        assert rho_apply(P, x, metric(y, z)) == \
            metric(dorfman(P, x, y), z) + metric(y, dorfman(P, x, z))
        n_cases += 1
    counts["courant"] = n_cases

    # derived bracket of the odd operator is the Dorfman bracket, any pair
    n_cases = 0
    for _ in range(200):
        P = rng.choice(arbitrary)
        e1, e2 = rand_section(rng, P), rand_section(rng, P)
        w = rand_element(rng, Multivector, P.rank, P.coordinates, max_deg=1)
        c2w = clifford_act(e2, w)
        c1w = clifford_act(e1, w)
        lhs = dirac_apply(P, clifford_act(e1, c2w)) \
            + clifford_act(e1, dirac_apply(P, c2w)) \
            - clifford_act(e2, dirac_apply(P, c1w)) \
            - clifford_act(e2, clifford_act(e1, dirac_apply(P, w)))
        assert lhs == clifford_act(dorfman(P, e1, e2), w)
        n_cases += 1
    counts["derived-bracket"] = n_cases

    # [D, f] is the Clifford action of D f, any pair
    n_cases = 0
    for _ in range(200):
        P = rng.choice(arbitrary)
        f = rand_poly(rng, P.coordinates, max_deg=3)
        w = rand_element(rng, Multivector, P.rank, P.coordinates, max_deg=2)
        lhs = dirac_apply(P, w.scaled(f)) - dirac_apply(P, w).scaled(f)
        assert lhs == clifford_act(dee(P, f), w)
        n_cases += 1
    counts["operator-function"] = n_cases

    # the two scalar-square decisions agree, compatible or not
    n_cases = 0
    for _ in range(200):
        P = rng.choice(arbitrary)
        assert dirac_square(P).is_scalar == dirac_star_square(P).is_scalar
        n_cases += 1
    counts["scalar-agreement"] = n_cases

    assert all(v >= 200 for v in counts.values()), counts
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"
    total = sum(counts.values())
    line(8, f"{total} randomized cases across {len(counts)} suites, {elapsed:.2f}s")


# -- 9: stable command-line reports ------------------------------------------------------


def test_criterion_9_cli_goldens(capsys, monkeypatch):
    import test_cli

    monkeypatch.chdir(test_cli.ROOT)
    codes = set()
    for name, want_code, argv in test_cli.GOLDEN_CASES:
        first_code, first = test_cli.run(capsys, *argv)
        second_code, second = test_cli.run(capsys, *argv)
        assert first_code == second_code == want_code
        assert first == second == (test_cli.GOLDEN / f"{name}.json").read_text()
        codes.add(first_code)
    code, _ = test_cli.run(capsys, "check", "tests/fixtures/broken-rank3.json")
    codes.add(code)
    code, _ = test_cli.run(capsys, "validate", "tests/fixtures/bad-key.json")
    codes.add(code)
    assert codes == {0, 1, 2}
    line(9, "golden reports byte-stable; exit codes 0, 1, 2 all exercised")
