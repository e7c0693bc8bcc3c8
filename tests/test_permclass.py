"""Permutation classes: membership, structure, witnesses, lattice paths."""

import itertools
import math
import random

import pytest

from polytext import path_from_word
from tricirc.circulant import CirculantSpec, cycle_cover_counts, det_bruteforce
from tricirc.errors import EmptyClass, InvalidKey, NotACycle, TooLarge
from tricirc.permclass import (
    CycleWord,
    LatticePath,
    PermClassKey,
    Permutation,
    build_path,
    construct_witness,
    cycle_from_word,
    cyclic_order,
    displacement_profile,
    enumerate_by_profile,
    enumerate_class,
    path_bound_check,
    predict_structure,
    rotate,
)
from tricirc.permanent import permanent_ryser
from tricirc.phi import phi_polynomial


def pairwise_path_bound(path: LatticePath, r: int, s: int) -> bool:
    """|a*s - b*r| <= r+s-1 over every vertex pair, one pair at a time.

    The lemma as stated; ``path_bound_check`` must agree with it.
    """
    verts = path.vertices
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
        assert sigma.cycle_notation() == "(3,4,5)"
        assert Permutation.identity(3).cycle_notation() == "()"

    def test_from_cycles_roundtrip(self):
        sigma = Permutation.from_cycles(6, [(1, 4), (2, 5)])
        assert sigma.images == (4, 5, 3, 1, 2, 6)
        with pytest.raises(ValueError):
            Permutation.from_cycles(5, [(1, 2), (2, 3)])


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


class TestKey:
    def test_derived_quantities(self):
        key = PermClassKey(17, 5, 6, 9)
        assert key.divisible and key.ell == 3 and key.k == 3
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
        with pytest.raises(TooLarge):
            enumerate_class(PermClassKey(11, 3, 0, 0))

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
        assert rep.cycle_length == 3

    def test_three_cycles_of_five(self):
        rep = predict_structure(PermClassKey(17, 5, 6, 9))
        assert (rep.k, rep.cycles_each) == (3, (2, 3))

    def test_even_gcd_gives_positive_sign(self):
        rep = predict_structure(PermClassKey(8, 3, 4, 4))
        assert (rep.k, rep.sign) == (2, 1)

    def test_empty_class_raises(self):
        # (5, 3, 1, 1) is not divisible; the other two are, but r + s > p
        for key in ((5, 3, 1, 1), (5, 3, 5, 5), (8, 3, 2, 10)):
            with pytest.raises(EmptyClass):
                predict_structure(PermClassKey(*key))
        with pytest.raises(EmptyClass) as info:
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


class TestCycleWord:
    def test_published_pair(self):
        sigma = cycle_from_word(CycleWord(4, (3, 1, 1, 3, 1, 1)), 10, 3)
        assert sigma.cycles() == [(2, 3, 4, 7, 8, 9)]

    def test_same_cycle_other_start(self):
        a = cycle_from_word(CycleWord(4, (3, 1, 1, 3, 1, 1)), 10, 3)
        b = cycle_from_word(CycleWord(8, (1, 3, 1, 1, 3, 1)), 10, 3)
        assert a == b

    def test_all_ones_word(self):
        sigma = cycle_from_word(CycleWord(1, (1, 1, 1)), 3, 2)
        assert sigma.cycles() == [(1, 2, 3)]

    def test_early_revisit_raises(self):
        with pytest.raises(NotACycle):
            cycle_from_word(CycleWord(1, (1, 3, 3, 1)), 4, 3)

    def test_open_walk_raises(self):
        with pytest.raises(NotACycle):
            cycle_from_word(CycleWord(1, (1, 1)), 4, 3)

    def test_word_alphabet_checked(self):
        with pytest.raises(ValueError):
            cycle_from_word(CycleWord(1, (1, 2)), 5, 3)


class TestBuildPath:
    def test_flat_path(self):
        assert build_path(3, 0).step_word() == "EEE"

    def test_diagonal_alternates_starting_east(self):
        assert build_path(2, 2).step_word() == "ENEN"

    def test_vertical_path(self):
        assert build_path(0, 3).step_word() == "NNN"

    def test_figure_case_7_5(self):
        path = build_path(7, 5)
        assert path.end == (7, 5)
        assert path.step_word().count("E") == 7
        assert path.within_band()

    def test_band_invariant_holds_generally(self):
        for r in range(1, 15):
            for s in range(0, 15):
                assert build_path(r, s).within_band()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_path(0, 0)


class TestPathBound:
    def test_constructed_paths_pass(self):
        assert path_bound_check(build_path(7, 5), 7, 5)
        assert path_bound_check(build_path(1, 1), 1, 1)

    def test_handmade_path_fails(self):
        # (0,0) -> (3,0) gives |3*3 - 0*3| = 9 > 5
        bad = path_from_word("EEENNN")
        assert not path_bound_check(bad, 3, 3)

    def test_one_vertex_path_passes(self):
        # no pair to check, even though the bound r+s-1 is -1
        origin = LatticePath(((0, 0),))
        assert path_bound_check(origin, 0, 0)
        assert pairwise_path_bound(origin, 0, 0)

    def test_matches_pairwise_on_constructed_paths(self):
        for r in range(0, 13):
            for s in range(0, 13):
                if r + s == 0:
                    continue
                path = build_path(r, s)
                assert path_bound_check(path, r, s), (r, s)
                assert pairwise_path_bound(path, r, s), (r, s)

    def test_matches_pairwise_on_random_words(self):
        rng = random.Random(4091)
        outcomes = set()
        for _ in range(400):
            word = "".join(rng.choice("EN") for _ in range(rng.randint(0, 14)))
            path = path_from_word(word)
            # the path's own end, or a profile it was not built for
            r, s = path.end if rng.random() < 0.5 else (
                rng.randint(0, 8), rng.randint(0, 8)
            )
            want = pairwise_path_bound(path, r, s)
            assert path_bound_check(path, r, s) == want, (word, r, s)
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_path_validation(self):
        with pytest.raises(ValueError):
            LatticePath(((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            path_from_word("EX")


class TestWitness:
    def test_three_cycles_start_points(self):
        sigma = construct_witness(PermClassKey(17, 5, 6, 9))
        cycles = sigma.cycles()
        assert len(cycles) == 3
        word = build_path(2, 3).displacement_word(5)
        for start in (1, 5, 9):
            walk = [start]
            for _ in range(5):
                walk.append(sigma.images[walk[-1] - 1])
            assert walk[-1] == start
            steps = tuple((b - a) % 17 for a, b in zip(walk, walk[1:]))
            assert steps == word

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
        with pytest.raises(EmptyClass):
            construct_witness(PermClassKey(5, 3, 1, 1))

    def test_overfull_key_raises(self):
        with pytest.raises(InvalidKey):
            construct_witness(PermClassKey(5, 3, 4, 2))

    def test_membership_small_sweep(self):
        for p in range(3, 9):
            for q in range(2, p):
                classes = enumerate_by_profile(p, q)
                for (r, s), members in classes.items():
                    sigma = construct_witness(PermClassKey(p, q, r, s))
                    assert sigma in members


class TestCyclicOrder:
    def test_examples(self):
        assert cyclic_order([4, 7, 8, 9, 2, 3])
        assert cyclic_order([1, 2, 3])
        assert not cyclic_order([1, 3, 2])
        assert not cyclic_order([2, 2, 3])

    def test_rotation_preserves_order(self):
        rng = random.Random(271828)
        for _ in range(500):
            p = rng.randint(3, 40)
            m = rng.randint(3, min(p, 7))
            zs = rng.sample(range(1, p + 1), m)
            q = rng.randint(1, p - 1)
            ws = [rotate(z, q, p) for z in zs]
            assert cyclic_order(zs) == cyclic_order(ws)

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
