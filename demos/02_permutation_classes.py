"""The permutation classes behind each coefficient.

A monomial x^r y^s of the determinant counts the permutations whose
displacements hit 1 exactly r times and q exactly s times.  The class
is nonempty exactly when p divides r+sq (with r+s <= p), and all of its
members share one cycle type and one sign.
"""

from tricirc import (
    CirculantSpec,
    PermClassKey,
    cycle_notation,
    det_bruteforce,
    displacement_profile,
    enumerate_class,
    predict_structure,
    support,
)

p, q = 5, 3
print(f"p={p}, q={q}: det = {det_bruteforce(CirculantSpec(p, q)).render()}\n")

print("the class behind the 5*x^2*y term:")
key = PermClassKey(p, q, 2, 1)
rep = predict_structure(key)
print(f"  predicted: {rep.k} cycle(s) of {rep.cycles_each[0]} one-steps "
      f"+ {rep.cycles_each[1]} q-steps, sign {rep.sign:+d}")
for sigma in enumerate_class(key):
    print(f"  {sigma.one_line()}  = {cycle_notation(sigma.cycles())}  "
          f"sign {sigma.sign():+d}  profile {displacement_profile(sigma, p, q)}")

print("\nwhich monomials can appear at all (p=5, q=3)?")
present = [(r, s) for s in range(p + 1) for r in range(p + 1 - s) if support(p, q, r, s)]
print(f"  exactly those with 5 | r+3s: {present}")

print("\nempty class example: r=1, s=1 has r+sq = 4, not divisible by 5")
print(f"  members: {enumerate_class(PermClassKey(p, q, 1, 1))}")

# a positive coefficient appears exactly when gcd(r, s, (r+sq)/p) is even
key = PermClassKey(8, 3, 4, 4)
rep = predict_structure(key)
print(f"\n(p=8, q=3, r=4, s=4): ell=2, k={rep.k} even, so the x^4*y^4 "
      f"term is +{len(enumerate_class(key))}")
