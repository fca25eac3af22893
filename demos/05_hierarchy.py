"""
A deformation hierarchy from a Nijenhuis operator
=================================================

A torsion-free endomorphism N compatible with a Poisson bivector Lambda
generates a whole ladder of pairs: deform the primal bracket by N^l and
shift the bivector to N^k Lambda.  Every rung is a bialgebroid with
square scalar zero.
"""

from bialgebroid import (dirac_square, pn_desk_instance, pn_hierarchy,
                         pn_identities)

# The desk instance is a nontrivial compatible triple on R^3:
# N = diag(x1, x1, 1) with Lambda = e1 ^ e2 over the tangent structure.
A, N, L = pn_desk_instance()
print("N =", [[str(p) for p in row] for row in N.matrix])
print("Lambda =", L.Lambda)

# The hierarchy identities: the shifted modular cocycles are closed and
# reachable from trace polynomials of N, and the boundary of the shifted
# bivectors telescopes.
report = pn_identities(A, N, L, k=1, l=1)
for record in report.records:
    print(f"{record.id}: {'ok' if record.passed else 'FAILS'}")

# Walk a few rungs of the ladder and confirm the square scalar vanishes.
for l in (0, 1, 2):
    for k in (0, 1):
        P = pn_hierarchy(A, N, L, k, l)
        square = dirac_square(P)
        print(f"pair (l={l}, k={k}): is_scalar={square.is_scalar}, f~={square.f_tilde}")
