"""Explicit class members from lattice paths.

The east/north path from (0,0) to (r/k, s/k) built by "go east when
weakly above the line s*x - r*y = 0" yields a displacement word (east
-> 1, north -> q) that closes into a valid cycle from any start point.
Walking it from the k start points 1 + (j-1)(q-1) gives k disjoint
cycles whose product is a member of the class.
"""

from tricirc import (
    PermClassKey,
    build_path,
    construct_witness,
    cycle_from_word,
    displacement_profile,
    path_bound_check,
    predict_structure,
)

print("the path to (7, 5) and its word:")
path = build_path(7, 5)
print(f"  steps: {path.step_word()}")
print(f"  stays within the band -r < s*x - r*y <= s: {path.within_band()}")
print(f"  all-pairs bound |a*s - b*r| <= r+s-1: {path_bound_check(path, 7, 5)}")

print("\ncycle words directly (p=10, q=3):")
sigma = cycle_from_word(4, (3, 1, 1, 3, 1, 1), 10, 3)
print(f"  (4; 3,1,1,3,1,1) -> {sigma.cycle_notation()}")
print(f"  (8; 1,3,1,1,3,1) -> same cycle: "
      f"{cycle_from_word(8, (1, 3, 1, 1, 3, 1), 10, 3) == sigma}")

print("\na three-cycle witness (p=17, q=5, r=6, s=9):")
key = PermClassKey(17, 5, 6, 9)
rep = predict_structure(key)
print(f"  ell = {key.ell}, k = {key.k}: expect {rep.k} cycles, "
      f"each {rep.cycles_each[0]} one-steps + {rep.cycles_each[1]} q-steps")
w = construct_witness(key)
print(f"  witness: {w.cycle_notation()}")
print(f"  profile: {displacement_profile(w, 17, 5)}  (r, s, fixed)")
print(f"  path word reused by every cycle: {build_path(2, 3).displacement_word(5)}")

print("\nedge cases:")
print(f"  (p=5, q=3, r=5, s=0) -> {construct_witness(PermClassKey(5, 3, 5, 0)).cycle_notation()}")
print(f"  (p=6, q=3, r=0, s=2) -> {construct_witness(PermClassKey(6, 3, 0, 2)).cycle_notation()}")
