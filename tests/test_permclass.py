"""Permutation classes: membership, structure, witnesses, lattice paths."""

import itertools
import math
import random

import pytest

from tricirc.circulant import CirculantSpec, cycle_cover_counts, det_bruteforce
from tricirc import permclass
from tricirc.errors import InternalInconsistency, TooLarge
from tricirc.permclass import (
    WITNESS_LIMIT,
    PermClassKey,
    Permutation,
    StructureReport,
    build_path,
    construct_witness,
    cycle_notation,
    displacement_profile,
    enumerate_by_profile,
    enumerate_class,
    path_bound_check,
    predict_structure,
)
from tricirc.permanent import permanent_ryser
from tricirc.phi import SEARCH_LIMIT, phi_polynomial


#: (key, step rule, text): a faulty ``_path_steps`` and the check of
#: ``construct_witness`` that it trips at the key (the CLI's witness rows
#: in tests/test_cli.py reuse them)
FAULTY_STEP_RULES = [
    # the word of (6, 9)/3 made all east: it ends at 6, not at 1
    (PermClassKey(17, 5, 6, 9), lambda r, s, e, n: [e] * (r + s),
     "word from 1 ends at 6, not back at the start"),
    # three east steps, then q: 1, 2, 3, 4, then 4 + 3 = 2 again
    (PermClassKey(5, 3, 5, 0), lambda r, s, e, n: [e] * 3 + [n] * 2,
     "point 2 revisited before the word ended"),
    # a word that closes only after visiting every point, so the
    # cycles from 5 and 9 cross the one from 1
    (PermClassKey(17, 5, 6, 9), lambda r, s, e, n: [e] * 17,
     "not disjoint at point 5"),
    # the step counts swapped: five q-steps close 1, 4, 2, 5, 3 into
    # one cycle, whose profile is (0, 5), not (5, 0)
    (PermClassKey(5, 3, 5, 0), lambda r, s, e, n: [n] * r + [e] * s,
     "has the wrong profile"),
]


def vertices(word: str) -> list[tuple[int, int]]:
    """The vertices of the path from (0, 0) that takes the E/N steps of word."""
    verts = [(0, 0)]
    for ch in word:
        x, y = verts[-1]
        verts.append((x + 1, y) if ch == "E" else (x, y + 1))
    return verts


def pairwise_path_bound(word: str, r: int, s: int) -> bool:
    """|a*s - b*r| <= r+s-1 over every vertex pair, one pair at a time.

    The lemma as stated; ``path_bound_check`` must agree with it.
    """
    verts = vertices(word)
    bound = r + s - 1
    n = len(verts)
    for i in range(n):
        xi, yi = verts[i]
        for j in range(i + 1, n):
            a = verts[j][0] - xi
            b = verts[j][1] - yi
            if abs(a * s - b * r) > bound:
                return False
    return True


def reference_cycles(sigma: Permutation):
    """Nontrivial cycles by the walk ``Permutation.cycles`` used to make.

    One point at a time through the images, with a seen list indexed
    from 0; ``Permutation.cycles`` must give the same list.
    """
    out = []
    seen = [False] * sigma.p
    for start in range(1, sigma.p + 1):
        if seen[start - 1]:
            continue
        cyc = []
        j = start
        while not seen[j - 1]:
            seen[j - 1] = True
            cyc.append(j)
            j = sigma.images[j - 1]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def inversion_parity_sign(images) -> int:
    """(-1)^(number of inversions), one pair at a time."""
    n = len(images)
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if images[i] > images[j]
    )
    return -1 if inversions % 2 else 1


def witness_reference(key: PermClassKey) -> Permutation:
    """The class member as ``construct_witness`` built it, one cycle at a time.

    Its own statement of the path rule (east when s*x <= r*y), its own
    walk of the word from each of the k start points 1 + (j-1)(q-1)
    with a set per cycle, a dict of images and a branch loop over the
    displacements; ``construct_witness`` must return the same member
    and raise the same refusals.
    """
    p, q, r, s = key.p, key.q, key.r, key.s
    if p > WITNESS_LIMIT:
        raise TooLarge(f"witness construction is limited to p <= {WITNESS_LIMIT}")
    if r + s > p or (r + s * q) % p:
        raise ValueError(f"{key} is an empty class: a(r, s) = 0")
    if r == 0 and s == 0:
        return Permutation.identity(p)
    k = key.k
    a, b = r // k, s // k
    if a == 0:
        word = [q] * b
    else:
        word, x, y = [], 0, 0
        for _ in range(a + b):
            if b * x <= a * y:
                word.append(1)
                x += 1
            else:
                word.append(q)
                y += 1
        assert (x, y) == (a, b)
    taken = {}
    for j in range(1, k + 1):
        start = (j - 1) * (q - 1) % p + 1
        points, seen, v = [start], {start}, start
        for i, step in enumerate(word):
            v = (v + step - 1) % p + 1
            if i == len(word) - 1:
                assert v == start, "the word does not close"
                break
            assert v not in seen, "the word revisits a point"
            seen.add(v)
            points.append(v)
        for a_, b_ in zip(points, points[1:] + points[:1]):
            assert a_ not in taken, "the cycles are not disjoint"
            taken[a_] = b_
    sigma = Permutation([taken.get(i, i) for i in range(1, p + 1)])
    counts = {0: 0, 1: 0, q: 0}
    for j, image in enumerate(sigma.images, 1):
        counts[(image - j) % p] += 1  # a KeyError leaves the class
    assert (counts[1], counts[q], counts[0]) == (r, s, p - r - s)
    return sigma


def fits_reference(rep, sigma: Permutation, p: int) -> bool:
    """Whether sigma has the structure of rep, by the loop ``fits`` replaced.

    Per cycle, the steps of 1 (mod p) are counted and every other step
    is taken to be a q-step; the sorted per-cycle profiles must be k
    copies of ``cycles_each``, and ``Permutation.sign`` must be the
    sign.  It does not look at the size of the other steps, so it
    agrees with ``fits`` only on permutations whose steps are 1 or q.
    """
    profiles = []
    for cyc in sigma.cycles():
        ones = sum(1 for a, b in zip(cyc, cyc[1:] + cyc[:1]) if (b - a) % p == 1)
        profiles.append((ones, len(cyc) - ones))
    return sorted(profiles) == [rep.cycles_each] * rep.k and sigma.sign() == rep.sign


# The kernels as they were before each was rewritten for speed, kept as
# references that the rewritten kernels must match.

def walk_word_reference(start: int, word, p: int) -> list[int]:
    """``_walk_word`` by a set of seen points, checked at every step."""
    points = [start]
    seen = {start}
    v = start
    for step in word[:-1]:
        v = (v + step - 1) % p + 1
        if v in seen:
            raise InternalInconsistency(f"point {v} revisited before the word ended")
        seen.add(v)
        points.append(v)
    v = (v + word[-1] - 1) % p + 1
    if v != start:
        raise InternalInconsistency(f"word from {start} ends at {v}, not back at the start")
    return points


def k_reference(key: PermClassKey):
    """``PermClassKey.k`` through ``ell``."""
    ell = key.ell
    return None if ell is None else math.gcd(key.r, key.s, ell)


def walk_from(start: int, word, p: int) -> list[int]:
    """``_walk_word``'s walk from 1, translated to start at ``start``, as
    ``construct_witness`` translates it for its other cycles."""
    return [(v + start - 2) % p + 1 for v in permclass._walk_word(word, p)]


def outcome(fn, *args):
    """fn's value, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])

    def test_sign_and_cycles(self):
        sigma = Permutation([2, 3, 1, 4, 5])  # a 3-cycle
        assert sigma.cycles() == [(1, 2, 3)]
        assert sigma.sign() == 1
        tau = Permutation([2, 1, 3])  # a transposition
        assert tau.sign() == -1

    @pytest.mark.parametrize("p", range(1, 7))
    def test_sign_matches_inversion_parity(self, p):
        for images in itertools.permutations(range(1, p + 1)):
            assert Permutation(images).sign() == inversion_parity_sign(images)

    def test_cycles_match_reference_walk(self):
        rng = random.Random(20261018)
        for _ in range(400):
            images = list(range(1, rng.randint(1, 40) + 1))
            rng.shuffle(images)
            sigma = Permutation(images)
            assert sigma.cycles() == reference_cycles(sigma)

    def test_renderings(self):
        sigma = Permutation([1, 2, 4, 5, 3])
        assert sigma.one_line() == "{1,2,4,5,3}"
        assert cycle_notation(sigma.cycles()) == "(3,4,5)"
        assert cycle_notation(Permutation.identity(3).cycles()) == "()"

    def test_a_proven_member_is_the_same_value(self):
        # the witness suite looks its member, built by _proven, up among
        # the members that the search built through the constructor
        sigma = Permutation([2, 3, 1, 4])
        proven = Permutation._proven((2, 3, 1, 4))
        assert sigma == proven and hash(sigma) == hash(proven)
        assert proven in [Permutation.identity(4), sigma]
        assert proven != Permutation([3, 1, 2, 4])
        with pytest.raises(AttributeError):
            proven.images = (1, 2, 3, 4)


class TestDisplacementProfile:
    def test_published_member(self):
        sigma = Permutation([1, 2, 4, 5, 3])
        assert displacement_profile(sigma, 5, 3) == (2, 1, 2)

    def test_identity(self):
        for p in (3, 5, 8):
            assert displacement_profile(Permutation.identity(p), p, 2) == (0, 0, p)

    def test_full_cycle(self):
        sigma = Permutation([2, 3, 4, 5, 1])
        assert displacement_profile(sigma, 5, 3) == (5, 0, 0)

    def test_outside_every_class(self):
        # 1 -> 3 has displacement 2, not in {0, 1, 3}
        sigma = Permutation([3, 2, 1, 4, 5])
        assert displacement_profile(sigma, 5, 3) is None

    # (1 2)(4 5) on six points: displacements 1, 5, 0, 1, 5, 0
    MIXED = Permutation([2, 1, 3, 5, 4, 6])

    @pytest.mark.parametrize("q, want", [
        # q = 1: a displacement of 1 counts in r, never in s
        (1, {(2, 3, 4, 5, 1): (5, 0, 0), (1, 2, 3, 4, 5): (0, 0, 5)}),
        # q = p, p + 1 and p + 3: no displacement mod p equals q, so s = 0
        # and any displacement outside {0, 1} leaves every class
        (5, {(2, 3, 4, 5, 1): (5, 0, 0), (1, 2, 4, 5, 3): None}),
        (6, {(2, 3, 4, 5, 1): (5, 0, 0), (4, 2, 3, 5, 1): None}),
        (8, {(2, 3, 4, 5, 1): (5, 0, 0), (1, 2, 4, 5, 3): None}),
    ])
    def test_q_outside_two_to_p_minus_one(self, q, want):
        for images, profile in want.items():
            assert displacement_profile(Permutation(images), 5, q) == profile

    def test_q_zero_counts_fixed_points(self):
        assert displacement_profile(Permutation.identity(4), 4, 0) == (0, 0, 4)
        assert displacement_profile(Permutation([2, 3, 4, 1]), 4, 0) == (4, 0, 0)
        assert displacement_profile(Permutation([2, 1, 3, 4]), 4, 0) is None

    def test_every_q_and_mixed_member(self):
        # q = 5 takes both displacements of 5; every other q leaves a
        # displacement outside {0, 1, q}
        for q in range(-7, 14):
            want = (2, 2, 2) if q == 5 else None
            assert displacement_profile(self.MIXED, 6, q) == want, q

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="acts on 5 points, not 6"):
            displacement_profile(Permutation.identity(5), 6, 2)


class TestKey:
    def test_derived_quantities(self):
        key = PermClassKey(17, 5, 6, 9)
        assert key.ell == 3 and key.k == 3
        assert not key.is_empty and key.term_sign == -1
        assert PermClassKey(8, 3, 4, 4).term_sign == 1  # k = 2

    def test_empty_markers(self):
        assert PermClassKey(5, 3, 1, 1).ell is None
        assert PermClassKey(5, 3, 1, 1).term_sign is None
        assert PermClassKey(5, 3, 1, 1).is_empty
        assert PermClassKey(5, 3, 4, 2).is_empty  # divisible but r+s > p

    def test_identity_class_conventions(self):
        key = PermClassKey(5, 3, 0, 0)
        assert key.ell == 0 and key.k == 0 and not key.is_empty

    def test_validation(self):
        with pytest.raises(ValueError):
            PermClassKey(5, 1, 0, 0)
        with pytest.raises(ValueError):
            PermClassKey(5, 3, -1, 0)
        # the pair is checked before the profile
        with pytest.raises(ValueError, match="need p >= 3"):
            PermClassKey(5, 1, -1, 0)

    def test_value_semantics(self):
        key = PermClassKey(8, 3, 2, 2)
        assert repr(key) == "PermClassKey(p=8, q=3, r=2, s=2)"
        assert key == PermClassKey(p=8, q=3, r=2, s=2)
        assert hash(key) == hash((8, 3, 2, 2))
        assert key != (8, 3, 2, 2) and key != PermClassKey(8, 3, 5, 1)
        with pytest.raises(AttributeError):
            key.r = 5
        assert key.r == 2

    @pytest.mark.parametrize("fn", [
        lambda p, q: PermClassKey(p, q, 0, 0),
        cycle_cover_counts,
        phi_polynomial,
        permanent_ryser,
    ])
    @pytest.mark.parametrize("p, q", [(5, 1), (5, 5), (2, 1)])
    def test_one_canonical_pair_rule(self, fn, p, q):
        with pytest.raises(ValueError, match=r"need p >= 3 and 2 <= q <= p-1"):
            fn(p, q)


class TestNonemptyProfiles:
    def test_matches_is_empty_in_order(self):
        # the listing must be exactly the square's nonempty keys, in the
        # order the witness suite walked them: s ascending, then r
        for p in range(3, 61):
            for q in range(2, p):
                want = [
                    (r, s)
                    for s in range(p + 1)
                    for r in range(p + 1 - s)
                    if not PermClassKey(p, q, r, s).is_empty
                ]
                assert PermClassKey.nonempty_profiles(p, q) == want, (p, q)

    @pytest.mark.parametrize("p, q", [(2, 1), (5, 1), (5, 5), (5, 7), (7, 0)])
    def test_non_canonical_pair_raises(self, p, q):
        with pytest.raises(ValueError):
            PermClassKey.nonempty_profiles(p, q)


class TestEnumerate:
    def test_published_class_5_3_2_1(self):
        members = enumerate_class(PermClassKey(5, 3, 2, 1))
        assert [m.images for m in members] == [
            (1, 2, 4, 5, 3),
            (1, 3, 4, 2, 5),
            (2, 3, 1, 4, 5),
            (2, 5, 3, 4, 1),
            (4, 2, 3, 5, 1),
        ]

    def test_nondivisible_class_is_empty(self):
        assert enumerate_class(PermClassKey(5, 3, 1, 1)) == []

    def test_identity_class(self):
        assert enumerate_class(PermClassKey(5, 3, 0, 0)) == [Permutation.identity(5)]

    def test_size_guard(self):
        assert enumerate_class(PermClassKey(SEARCH_LIMIT, 3, 0, 0)) == [
            Permutation.identity(SEARCH_LIMIT)
        ]
        with pytest.raises(TooLarge, match=f"^enumeration is limited to p <= {SEARCH_LIMIT}$"):
            enumerate_class(PermClassKey(SEARCH_LIMIT + 1, 3, 0, 0))

    def test_profile_sweep_consistency(self):
        # class sizes are the |coefficients| of the brute-force determinant
        for p, q in ((6, 4), (8, 3), (9, 6)):
            classes = enumerate_by_profile(p, q)
            poly = det_bruteforce(CirculantSpec(p, q))
            assert set(classes) == {(m.r, m.s) for m in poly.terms}
            for (r, s), members in classes.items():
                assert not PermClassKey(p, q, r, s).is_empty
                assert len(members) == abs(poly.coefficient(r, s))
                for sigma in members:
                    assert displacement_profile(sigma, p, q) == (r, s, p - r - s)


class TestPredictStructure:
    def test_three_cycle_class(self):
        rep = predict_structure(PermClassKey(5, 3, 2, 1))
        assert (rep.k, rep.cycles_each, rep.sign) == (1, (2, 1), 1)
        assert sum(rep.cycles_each) == 3

    def test_three_cycles_of_five(self):
        rep = predict_structure(PermClassKey(17, 5, 6, 9))
        assert (rep.k, rep.cycles_each) == (3, (2, 3))

    def test_even_gcd_gives_positive_sign(self):
        rep = predict_structure(PermClassKey(8, 3, 4, 4))
        assert (rep.k, rep.sign) == (2, 1)

    def test_empty_class_raises(self):
        # (5, 3, 1, 1) is not divisible; the other two are, but r + s > p
        for key in ((5, 3, 1, 1), (5, 3, 5, 5), (8, 3, 2, 10)):
            with pytest.raises(ValueError, match="is an empty class"):
                predict_structure(PermClassKey(*key))
        with pytest.raises(ValueError) as info:
            predict_structure(PermClassKey(5, 3, 1, 1))
        assert str(info.value) == (
            "PermClassKey(p=5, q=3, r=1, s=1) is an empty class: a(r, s) = 0"
        )

    def test_odd_p_sign_shortcut(self):
        # for odd p the sign is -1 exactly when r and s are both odd
        for p in (5, 7, 9):
            for q in range(2, p):
                for s in range(p + 1):
                    for r in range(p + 1 - s):
                        key = PermClassKey(p, q, r, s)
                        if key.is_empty or (r, s) == (0, 0):
                            continue
                        rep = predict_structure(key)
                        assert (rep.sign == -1) == (r % 2 == 1 and s % 2 == 1)


class TestFits:
    def test_agrees_with_the_per_cycle_loop_on_every_small_class(self):
        # every member of every class at p <= 9 fits its own structure
        # and not that of the next nonempty class in walk order
        checked = 0
        for p in range(3, 10):
            for q in range(2, p):
                classes = enumerate_by_profile(p, q)
                profiles = PermClassKey.nonempty_profiles(p, q)
                for i, (r, s) in enumerate(profiles):
                    rep = predict_structure(PermClassKey(p, q, r, s))
                    other = profiles[(i + 1) % len(profiles)]
                    for members, want in ((classes[(r, s)], True), (classes[other], False)):
                        for sigma in members:
                            got = rep.fits(sigma.cycles(), p, q)
                            assert got == fits_reference(rep, sigma, p) == want, (
                                p, q, r, s, sigma
                            )
                            checked += 1
        assert checked == 2 * sum(
            len(m) for p in range(3, 10) for q in range(2, p)
            for m in enumerate_by_profile(p, q).values()
        )

    def test_every_step_must_be_1_or_q(self):
        # (1,2,6) in p = 7 has one 1-step, like the members of (1, 2),
        # but its other steps are 4 and 2, not q = 3
        rep = predict_structure(PermClassKey(7, 3, 1, 2))
        assert (rep.k, rep.cycles_each, rep.sign) == (1, (1, 2), 1)
        sigma = Permutation([2, 6, 3, 4, 5, 1, 7])
        assert sigma.cycles() == [(1, 2, 6)]
        assert fits_reference(rep, sigma, 7)
        assert not rep.fits(sigma.cycles(), 7, 3)
        member = Permutation([2, 5, 3, 4, 1, 6, 7])
        assert member.cycles() == [(1, 2, 5)]
        assert rep.fits(member.cycles(), 7, 3)

    def test_each_part_of_the_structure_is_checked(self):
        p, q = 17, 5
        rep = predict_structure(PermClassKey(p, q, 6, 9))
        cycles = construct_witness(PermClassKey(p, q, 6, 9)).cycles()
        assert rep.fits(cycles, p, q)
        assert not rep.fits(cycles[:2], p, q)
        assert not StructureReport(3, (3, 2), rep.sign).fits(cycles, p, q)
        assert not StructureReport(3, (2, 3), -rep.sign).fits(cycles, p, q)
        # the identity fits the identity class's report alone
        assert predict_structure(PermClassKey(p, q, 0, 0)).fits([], p, q)
        assert not rep.fits([], p, q)


class TestCycleWord:
    # the walker that construct_witness runs on the path's word, from 1;
    # walk_from translates its walk to other starts
    def test_published_pair(self):
        assert permclass._walk_word((3, 1, 1, 3, 1, 1), 10) == [1, 4, 5, 6, 9, 10]
        assert walk_from(4, (3, 1, 1, 3, 1, 1), 10) == [4, 7, 8, 9, 2, 3]

    def test_same_cycle_other_start(self):
        a = walk_from(4, (3, 1, 1, 3, 1, 1), 10)
        b = walk_from(8, (1, 3, 1, 1, 3, 1), 10)
        assert b == a[2:] + a[:2]

    def test_all_ones_word(self):
        assert permclass._walk_word((1, 1, 1), 3) == [1, 2, 3]

    def test_early_revisit_raises(self):
        with pytest.raises(InternalInconsistency, match="point 1 revisited"):
            permclass._walk_word((1, 3, 3, 1), 4)

    def test_open_walk_raises(self):
        with pytest.raises(InternalInconsistency, match="^word from 1 ends at 3, not back"):
            permclass._walk_word((1, 1), 4)


def within_band(word: str) -> bool:
    """Whether -r < s*x - r*y <= s at every vertex, (r, s) the path's end."""
    r, s = word.count("E"), word.count("N")
    return all(-r < s * x - r * y <= s for x, y in vertices(word))


class TestBuildPath:
    def test_flat_path(self):
        assert build_path(3, 0) == "EEE"

    def test_diagonal_alternates_starting_east(self):
        assert build_path(2, 2) == "ENEN"

    def test_vertical_path(self):
        assert build_path(0, 3) == "NNN"

    def test_figure_case_7_5(self):
        word = build_path(7, 5)
        assert vertices(word)[-1] == (7, 5)
        assert within_band(word)

    def test_band_invariant_holds_generally(self):
        for r in range(1, 15):
            for s in range(0, 15):
                assert within_band(build_path(r, s)), (r, s)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_path(0, 0)

    def test_a_word_that_misses_the_end_raises(self, monkeypatch):
        monkeypatch.setattr(permclass, "_path_steps", lambda r, s, e, n: [e] * (r + s))
        with pytest.raises(InternalInconsistency, match=r"missed \(2, 1\)"):
            build_path(2, 1)


class TestPathBound:
    def test_constructed_paths_pass(self):
        assert path_bound_check(build_path(7, 5), 7, 5)
        assert path_bound_check(build_path(1, 1), 1, 1)

    def test_handmade_path_fails(self):
        # (0,0) -> (3,0) gives |3*3 - 0*3| = 9 > 5
        assert not path_bound_check("EEENNN", 3, 3)

    def test_one_vertex_path_passes(self):
        # the empty word: no pair to check, even though r+s-1 is -1
        assert path_bound_check("", 0, 0)
        assert pairwise_path_bound("", 0, 0)

    def test_matches_pairwise_on_constructed_paths(self):
        for r in range(0, 13):
            for s in range(0, 13):
                if r + s == 0:
                    continue
                word = build_path(r, s)
                assert path_bound_check(word, r, s), (r, s)
                assert pairwise_path_bound(word, r, s), (r, s)

    def test_matches_pairwise_on_random_words(self):
        rng = random.Random(4091)
        outcomes = set()
        for _ in range(400):
            word = "".join(rng.choice("EN") for _ in range(rng.randint(0, 14)))
            # the path's own end, or a profile it was not built for
            if rng.random() < 0.5:
                r, s = word.count("E"), word.count("N")
            else:
                r, s = rng.randint(0, 8), rng.randint(0, 8)
            want = pairwise_path_bound(word, r, s)
            assert path_bound_check(word, r, s) == want, (word, r, s)
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_path_validation(self):
        with pytest.raises(ValueError, match="'X' is not E or N"):
            path_bound_check("EX", 1, 1)


class TestWitness:
    def test_three_cycles_start_points(self):
        sigma = construct_witness(PermClassKey(17, 5, 6, 9))
        cycles = sigma.cycles()
        assert len(cycles) == 3
        for start in (1, 5, 9):
            walk = [start]
            for _ in range(5):
                walk.append(sigma.images[walk[-1] - 1])
            assert walk[-1] == start
            steps = tuple((b - a) % 17 for a, b in zip(walk, walk[1:]))
            assert steps == (1, 5, 5, 1, 5)

    def test_full_cycle_class(self):
        sigma = construct_witness(PermClassKey(5, 3, 5, 0))
        assert sigma.images == (2, 3, 4, 5, 1)

    def test_single_long_cycle_13_9(self):
        sigma = construct_witness(PermClassKey(13, 9, 7, 5))
        cycles = sigma.cycles()
        assert len(cycles) == 1 and len(cycles[0]) == 12 and 1 in cycles[0]

    def test_identity_class(self):
        assert construct_witness(PermClassKey(7, 3, 0, 0)) == Permutation.identity(7)

    def test_vertical_word_class(self):
        # r = 0: the all-north path drives a pure q-step cycle
        sigma = construct_witness(PermClassKey(6, 3, 0, 2))
        assert displacement_profile(sigma, 6, 3) == (0, 2, 4)

    def test_empty_class_raises(self):
        with pytest.raises(ValueError, match=r"r=1, s=1\) is an empty class"):
            construct_witness(PermClassKey(5, 3, 1, 1))

    def test_overfull_key_raises(self):
        # p divides r+sq, but r+s > p
        with pytest.raises(ValueError, match=r"r=4, s=2\) is an empty class"):
            construct_witness(PermClassKey(5, 3, 4, 2))

    def test_refuses_exactly_the_empty_keys_as_predict_structure_does(self):
        refused = 0
        for p in range(3, 13):
            for q in range(2, p):
                for r in range(p + 1):
                    for s in range(p + 1):
                        key = PermClassKey(p, q, r, s)
                        texts = []
                        for route in (construct_witness, predict_structure):
                            try:
                                route(key)
                            except ValueError as exc:
                                texts.append(str(exc))
                        if key.is_empty:
                            assert texts == [f"{key} is an empty class: a(r, s) = 0"] * 2
                            refused += 1
                        else:
                            assert texts == [], key
        assert refused > 0

    def test_membership_small_sweep(self):
        for p in range(3, 9):
            for q in range(2, p):
                classes = enumerate_by_profile(p, q)
                for (r, s), members in classes.items():
                    sigma = construct_witness(PermClassKey(p, q, r, s))
                    assert sigma in members

    def test_matches_reference_at_every_profile_to_40(self):
        for p in range(3, 41):
            for q in range(2, p):
                for r, s in PermClassKey.nonempty_profiles(p, q):
                    key = PermClassKey(p, q, r, s)
                    assert construct_witness(key) == witness_reference(key), key

    def test_matches_reference_at_seeded_profiles_to_5000(self):
        rng = random.Random(17_5000)
        sizes = set()
        for _ in range(60):
            p = rng.randint(41, 5000)
            q = rng.randint(2, p - 1)
            r, s = rng.choice(PermClassKey.nonempty_profiles(p, q))
            key = PermClassKey(p, q, r, s)
            assert construct_witness(key) == witness_reference(key), key
            sizes.add(key.k)
        assert len(sizes) > 1  # both one cycle and several

    @pytest.mark.parametrize("args, exc", [
        ((5, 3, 1, 1), ValueError),
        ((7, 2, 2, 2), ValueError),
        ((5, 3, 4, 2), ValueError),
        ((9, 4, 10, 2), ValueError),
        ((WITNESS_LIMIT + 1, 2, 0, 0), TooLarge),
        ((WITNESS_LIMIT + 1, 2, 1, 1), TooLarge),
    ])
    def test_refuses_as_the_reference_does(self, args, exc):
        key = PermClassKey(*args)
        with pytest.raises(exc) as want:
            witness_reference(key)
        with pytest.raises(exc) as got:
            construct_witness(key)
        # exact types: TooLarge is a ValueError too
        assert type(got.value) is type(want.value) is exc
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("key, rule, fault", FAULTY_STEP_RULES)
    def test_a_faulty_step_rule_raises(self, monkeypatch, key, rule, fault):
        monkeypatch.setattr(permclass, "_path_steps", rule)
        with pytest.raises(InternalInconsistency, match=fault):
            construct_witness(key)

    @pytest.mark.parametrize("key, walk, fault", [
        # a walk that comes back to 2 before it ends
        (PermClassKey(5, 3, 5, 0), [1, 2, 3, 2, 5], "not disjoint at point 2"),
        # a walk whose translate by q - 1 = 4 starts on its last point
        (PermClassKey(17, 5, 6, 9), [1, 2, 3, 4, 5], "not disjoint at point 5"),
    ])
    def test_a_faulty_walk_raises(self, monkeypatch, key, walk, fault):
        # the member is built without the Permutation constructor's sort,
        # so the owner list alone must stop a walk that is not a bijection
        monkeypatch.setattr(permclass, "_walk_word", lambda word, p: walk)
        with pytest.raises(InternalInconsistency, match=fault):
            construct_witness(key)


class TestCyclicOrder:
    def test_divisibility_gap(self):
        rng = random.Random(314159)
        for _ in range(500):
            p = rng.randint(3, 50)
            q = rng.randint(2, p - 1)
            b, s = rng.randint(-15, 15), rng.randint(-15, 15)
            a = -b * q + p * rng.randint(-3, 3)
            r = -s * q + p * rng.randint(-3, 3)
            v = s * a - r * b
            assert v == 0 or abs(v) >= p

    def test_per_cycle_gcd_is_one(self):
        # every individual cycle of every class member has coprime profile
        for p, q in ((6, 4), (8, 3), (9, 4)):
            for (r, s), members in enumerate_by_profile(p, q).items():
                for sigma in members:
                    for cyc in sigma.cycles():
                        ones = sum(
                            1
                            for a, b in zip(cyc, cyc[1:] + cyc[:1])
                            if (b - a) % p == 1
                        )
                        qs = len(cyc) - ones
                        ell_i = (ones + qs * q) // p
                        assert math.gcd(ones, qs, ell_i) == 1


class TestKernelReferences:
    """Each rewritten kernel against its reference: every class to p = 40
    and every enumerated member to p = 9."""

    def test_every_key_to_40(self):
        for p in range(3, 41):
            for q in range(2, p):
                for r in range(p + 1):
                    for s in range(p + 1 - r):
                        key = PermClassKey(p, q, r, s)
                        assert key.k == k_reference(key), key

    def test_every_class_to_40(self):
        for p in range(3, 41):
            for q in range(2, p):
                for r, s in PermClassKey.nonempty_profiles(p, q):
                    if r == 0 and s == 0:
                        continue
                    k = math.gcd(r, s, (r + s * q) // p)
                    word = permclass._path_steps(r // k, s // k, 1, q)
                    for j in range(k):
                        start = j * (q - 1) % p + 1
                        assert walk_from(start, word, p) == (
                            walk_word_reference(start, word, p)
                        ), (p, q, r, s, j)

    def test_broken_words_fail_as_the_reference_does(self):
        # cut short, doubled, and one step repeated: each walk raises, or
        # not, with the reference's text, which names the first repeat
        raised = set()
        for p in range(3, 21):
            for q in range(2, p):
                for r, s in PermClassKey.nonempty_profiles(p, q):
                    if r == 0 and s == 0:
                        continue
                    word = permclass._path_steps(r, s, 1, q)
                    for bad in (word[:-1] or word, word * 2, word[:1] * len(word)):
                        want = outcome(walk_word_reference, 1, bad, p)
                        assert outcome(permclass._walk_word, bad, p) == want
                        if isinstance(want, tuple):
                            raised.add(want[1].split()[-1])
        assert raised == {"ended", "start"}  # both faults were met

    def test_every_enumerated_member_to_9(self):
        for p in range(3, 10):
            for q in range(2, p):
                for (r, s), members in enumerate_by_profile(p, q).items():
                    key = PermClassKey(p, q, r, s)
                    assert key.k == k_reference(key)
                    for sigma in members:
                        for cyc in sigma.cycles():
                            word = [(b - a) % p for a, b in zip(cyc, cyc[1:] + cyc[:1])]
                            walk = walk_from(cyc[0], word, p)
                            assert walk == walk_word_reference(cyc[0], word, p)
                            assert walk == list(cyc)
