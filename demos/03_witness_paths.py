"""Explicit class members from lattice paths.

The east/north path from (0,0) to (r/k, s/k) built by "go east when
weakly above the line s*x - r*y = 0" yields a displacement word (east
-> 1, north -> q) that closes into a valid cycle from any start point.
Walking it from the k start points 1 + j(q-1), j = 0, ..., k-1, gives k
disjoint cycles whose product is a member of the class.
"""

from tricirc import (
    PermClassKey,
    build_path,
    construct_witness,
    cycle_notation,
    displacement_profile,
    path_bound_check,
    predict_structure,
)


def word_of(path, q):
    """The path's displacement word: E (east) -> 1, N (north) -> q."""
    return tuple(1 if step == "E" else q for step in path)


print("the path to (7, 5):")
path = build_path(7, 5)
print(f"  steps: {path}")
print(f"  word at q = 3: {word_of(path, 3)}")
print(f"  all-pairs bound |a*s - b*r| <= r+s-1: {path_bound_check(path, 7, 5)}")

print("\na three-cycle witness (p=17, q=5, r=6, s=9):")
p, q = 17, 5
key = PermClassKey(p, q, 6, 9)
rep = predict_structure(key)
print(f"  ell = {key.ell}, k = {key.k}: expect {rep.k} cycles, "
      f"each {rep.cycles_each[0]} one-steps + {rep.cycles_each[1]} q-steps")
w = construct_witness(key)
print(f"  witness: {cycle_notation(w.cycles())}")
print(f"  profile: {displacement_profile(w, p, q)}  (r, s, fixed)")
word = word_of(build_path(2, 3), q)
print(f"  the word of the path to (r/k, s/k) = (2, 3): {word}")
for j in range(rep.k):
    start = 1 + j * (q - 1)
    walk = [start]
    for _ in word:
        walk.append(w.images[walk[-1] - 1])
    steps = tuple((b - a) % p for a, b in zip(walk, walk[1:]))
    print(f"  from {start}: steps {steps}, the word: {steps == word}, "
          f"closes: {walk[-1] == start}")

print("\nedge cases:")
for p, q, r, s in ((5, 3, 5, 0), (6, 3, 0, 2)):
    w = construct_witness(PermClassKey(p, q, r, s))
    print(f"  (p={p}, q={q}, r={r}, s={s}) -> {cycle_notation(w.cycles())}")
