"""The permanent side and the growth of the largest coefficient.

Dropping the signs turns the determinant into the permanent of the 0-1
band circulant; because all permutations behind one monomial share a
sign there is no cancellation, so the permanent equals the sum of the
absolute coefficient values.  Classical permanent bounds then squeeze
the largest coefficient M(p, q) between exponentials.
"""

from tricirc import (
    bounds_report,
    cycle_cover_counts,
    growth_table,
    growth_table_csv,
    permanent_ryser,
    phi_polynomial,
    primality_check,
    trial_division,
)

print("no cancellation (p=8, q=3):")
print(f"  signed   : {phi_polynomial(8, 3).render()}")
print(f"  unsigned : {cycle_cover_counts(8, 3).render()}")
print(f"  permanent by Ryser inclusion-exclusion: {permanent_ryser(8, 3)}")

print("\nexact bound checks (p=8, q=3):")
rep = bounds_report(8, 3)
print(f"  d11 = {rep.d11}, max coefficient M = {rep.max_coeff}, "
      f"monomials N = {rep.n_monomials}")
print(f"  3^p p!/p^p = {rep.lower_bound} <= d11: {rep.lower_ok}")
print(f"  d11 <= 6^(p/3) (checked as d11^3 <= 6^p): {rep.upper_ok}")
print(f"  d11/N <= M <= d11: {rep.sandwich_ok}")

print("\ngrowth of M(p, 3) with p (root column is M^(1/p)):")
print(growth_table_csv(growth_table(3, 20)), end="")

print("\nprimality via the binomial congruence (q = 2):")
line = ", ".join(
    f"{p}:{'prime' if primality_check(p) else 'composite'}"
    for p in range(3, 18)
)
print(f"  {line}")
agrees = all(primality_check(p) == trial_division(p) for p in range(3, 41))
print(f"  agrees with trial division on 3..40: {agrees}")
