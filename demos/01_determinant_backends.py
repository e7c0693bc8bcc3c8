"""The determinant polynomial computed four independent ways.

The p x p circulant with bands 1, -x, -y at cyclic offsets 0, 1, q has
a determinant that every backend must agree on: Newton's identities
over closed-form power sums (the default route), fraction-free
elimination, the cycle-cover counting DP, and (at desk scale) the
Leibniz expansion over the matrix's nonzero entries.  A floating-point product over complex roots of
unity serves as an advisory sanity check on top.
"""

from tricirc import (
    CirculantSpec,
    det_bareiss,
    det_bruteforce,
    det_cycle_cover,
    det_float_check,
    det_newton,
    reduce_theta,
)

for p, q in ((5, 3), (8, 3), (9, 4)):
    spec = CirculantSpec(p, q)
    poly = det_newton(spec)
    print(f"p={p}, q={q}:")
    print(f"  det = {poly.render()}")
    agree = poly == det_bareiss(spec) == det_cycle_cover(spec) == det_bruteforce(spec)
    print(f"  Newton == elimination == counting DP == brute force: {agree}")
    rep = det_float_check(spec, poly)
    print(
        f"  float cross-check: passed={rep.passed}, "
        f"max deviation {rep.max_abs_deviation:.2e} over {rep.points} grid points"
    )
    print(f"  value at (1, 1): {poly.evaluate(1, 1)}")
    print()

# A spec whose x band sits at offset t != 1 reduces to a canonical one
# whenever one of the offsets is invertible mod p.
red = reduce_theta(CirculantSpec(5, 3, 2))
print(f"offset spec (p=5, q=3, t=2) reduces to q' = {red.spec.q} "
      f"(swapped={red.swapped})")
print(f"  det = {det_newton(red.spec).render()}")
