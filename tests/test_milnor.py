import functools
import itertools
import json
import random
import re
from pathlib import Path

import pytest

from chowcalc import milnor
from chowcalc.milnor import (
    MAX_RHO_HEIGHT,
    BiDegree,
    MilnorError,
    MilnorRing,
    Word,
    comult_check,
    flexible_cohomology,
    make_ring,
    q_apply,
    q_composite,
    q_homology_dimensions,
    restrict_symbol,
    trivial_ia,
    truncated_symbol_ia,
)
from chowcalc.script import parse_script, run_scenario


# References for the word arithmetic: the carry loop, the enumeration of all
# pairs of index subsets, and the bidegree summed generator by generator.

def ref_mul_words(R, w1, w2):
    """w1 * w2 as one word, or None when its rho power reaches the height."""
    k = w1.k + w2.k
    I = set(w1.I ^ w2.I)
    carries = sorted(w1.I & w2.I)
    rho_pow = 0
    while carries:
        c = carries.pop(0)
        target = c + 1
        rho_pow += 1
        if R.has_eta and target == R.n_sq:
            k += 1
        elif target >= R.n_sq and not R.has_eta:
            pass
        elif target in I:
            I.discard(target)
            carries = sorted(set(carries) | {target})
        else:
            I.add(target)
    s = w1.s + w2.s + rho_pow
    return Word(k, frozenset(I), s) if s < R.height else None


def ref_comult_pairs(indices, K):
    subsets = [
        frozenset(I) for r in range(len(indices) + 1)
        for I in itertools.combinations(indices, r)
    ]
    target = sum(2**i for i in K)
    return {
        (I, J) for I in subsets for J in subsets
        if sum(2**i for i in I) + sum(2**j for j in J) == target
    }


def ref_comult_rhs(K, x, y):
    R = x.ring
    rhs = R.zero()
    for I, J in ref_comult_pairs(list(R.q_indices), K):
        term = q_composite(I, x) * q_composite(J, y)
        for _ in range(len(I) + len(J) - len(K)):
            term = term * R.rho_elem()
        rhs = rhs + term
    return rhs


def ref_comult_check(K, x, y, q=q_composite):
    """comult_check as a loop over every 2^I in 0..2^K: Q_I(x) and Q_J(y)
    by q_composite (or a memo of it), products of elements, and rho^c as c
    products by rho."""
    R = x.ring
    K = frozenset(K)
    lhs = q_composite(K, x * y)
    sK = sum(2**i for i in K)
    rho = R.rho_elem()
    rhs = R.zero()
    for sI in range(sK + 1):
        sJ = sK - sI
        I = [i for i in range(sI.bit_length()) if sI >> i & 1]
        J = [j for j in range(sJ.bit_length()) if sJ >> j & 1]
        term = q(tuple(I), x) * q(tuple(J), y)
        for _ in range(len(I) + len(J) - len(K)):
            term = term * rho
        rhs = rhs + term
    return lhs == rhs


def nonempty_subsets(indices):
    indices = list(indices)
    return [K for r in range(1, len(indices) + 1) for K in itertools.combinations(indices, r)]


def ref_bidegree(R, w):
    a = b = 0
    for i in w.I:
        d = 2**i - 1
        a += -d
        b += -2 * d - 1
    d = 2**R.n_sq - 1
    a += w.k * (-d)
    b += w.k * (-2 * d - 1)
    return BiDegree(a + w.s, b + w.s)  # rho^s has weight s


# 1 in (0)[0] and eta in (-1)[-3] in make_ring(2, trivial_ia())
MIXED_MESSAGE = "words of mixed bidegree: ['(-1)[-3]', '(0)[0]']"


def symbol_rings(ms=(2, 3, 4), heights=(1, 3)):
    for m in ms:
        for h in heights:
            yield make_ring(m, truncated_symbol_ia(h))


class TestRingStructure:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_square_relations_with_rho(self, m):
        R = make_ring(m, truncated_symbol_ia(4))
        rho = R.rho_elem()
        for i in range(m - 1):
            lhs = R.r(i) * R.r(i)
            rhs = R.r(i + 1) * rho
            assert lhs == rhs

    def test_squares_vanish_without_rho(self):
        R = make_ring(3, trivial_ia())
        for i in range(2):
            assert (R.r(i) * R.r(i)).is_zero()

    def test_unit(self):
        R = make_ring(3, truncated_symbol_ia(3))
        x = R.r(0) * R.eta()
        assert R.one() * x == x

    def test_eta_is_free(self):
        R = make_ring(2, trivial_ia())
        eta = R.eta()
        powers = {R.one(), eta, eta * eta, eta * eta * eta}
        assert len(powers) == 4
        assert not (eta * eta * eta).is_zero()

    def test_mixed_bidegree_rejected(self):
        R = make_ring(2, trivial_ia())
        with pytest.raises(MilnorError, match=re.escape(MIXED_MESSAGE)):
            R.element([Word(0, frozenset(), 0), Word(1, frozenset(), 0)])

    @pytest.mark.parametrize("R", [
        *(make_ring(m, truncated_symbol_ia(h)) for m in (2, 3, 4) for h in (1, 2, 3, 4)),
        *(flexible_cohomology(n) for n in range(5)),
    ], ids=lambda R: f"{R.name}-h{R.height}")
    def test_one_word_per_bidegree(self, R):
        # a - b is the key, which fixes k and I, and then a fixes s: so a
        # product of two words is one word or zero, and an element is one
        words = R.basis_words(k_min=-2, k_max=2)
        assert len({R.word_bidegree(w) for w in words}) == len(words)

    def test_bidegree_additivity(self):
        for R in symbol_rings():
            words = R.basis_words(k_max=2)
            for w1 in words[:12]:
                for w2 in words[:12]:
                    prod = R.element([w1]) * R.element([w2])
                    if prod.is_zero():
                        continue
                    expected = R.word_bidegree(w1) + R.word_bidegree(w2)
                    assert prod.bidegree == expected


class TestFlexible:
    @pytest.mark.parametrize("n", range(7))
    def test_basis_count(self, n):
        F = flexible_cohomology(n)
        assert len(F.basis_words()) == 2 ** (n + 1)

    def test_bidegrees(self):
        F = flexible_cohomology(3)
        assert F.word_bidegree(Word(0, frozenset({1}), 0)) == BiDegree(-1, -3)
        assert F.word_bidegree(Word(0, frozenset(), 0)) == BiDegree(0, 0)

    def test_bidegree_is_a_value(self):
        # a BiDegree built afresh finds the key q_homology_dimensions stored;
        # bidegrees add, hash by (a, b) and print as (a)[b]
        dims = q_homology_dimensions(make_ring(2, trivial_ia()), 0, -6, 6)
        assert dims[BiDegree(-1, -3)] == 0 and BiDegree(-1, -4) in dims
        d = BiDegree(-1, -3) + BiDegree(1, 3)
        assert d == BiDegree(0, 0) and hash(d) == hash(BiDegree(0, 0)) and d != (0, 0)
        assert {d: 1}[BiDegree(0, 0)] == 1 and len({d, BiDegree(0, 0), BiDegree(0, 1)}) == 2
        assert str(BiDegree(-1, -3)) == "(-1)[-3]" and str(d) == "(0)[0]"
        assert repr(d) == "BiDegree(a=0, b=0)"

    def test_exterior_squares(self):
        F = flexible_cohomology(4)
        for i in range(5):
            assert (F.r(i) * F.r(i)).is_zero()

    def test_module_rule(self):
        F = flexible_cohomology(3)
        e = F.r_set([0, 1])
        assert q_apply(1, e) == F.r(0)
        assert q_apply(0, F.r(1)).is_zero()
        assert q_composite([0, 1], e) == F.one()


class TestDifferentials:
    def test_square_zero_and_commute(self):
        for R in symbol_rings():
            for w in R.basis_words(k_max=3):
                e = R.element([w])
                for i in R.q_indices:
                    assert q_apply(i, q_apply(i, e)).is_zero()
                    for j in R.q_indices:
                        assert q_apply(i, q_apply(j, e)) == q_apply(j, q_apply(i, e))

    def test_bidegree_shift(self):
        for R in symbol_rings(ms=(3, 4), heights=(3,)):
            for w in R.basis_words(k_max=2):
                e = R.element([w])
                for i in R.q_indices:
                    img = q_apply(i, e)
                    if img.is_zero():
                        continue
                    d = 2**i - 1
                    assert img.bidegree == e.bidegree + BiDegree(d, 2 * d + 1)

    def test_rigidity(self):
        # every nonzero exterior basis element is carried to 1 by its own
        # composite differential
        F = flexible_cohomology(5)
        for k in range(6):
            for I in itertools.combinations(range(6), k):
                assert q_composite(I, F.r_set(I)) == F.one()
        R = make_ring(4, truncated_symbol_ia(3))
        for k in range(3):
            for I in itertools.combinations(range(3), k):
                assert q_composite(I, R.r_set(I)) == R.one()

    def test_carry_example(self):
        R = make_ring(3, truncated_symbol_ia(4))
        assert q_apply(1, R.r(0) * R.r(0)) == R.rho_elem()

    def test_well_defined_on_relations(self):
        # both sides of each defining relation get equal images
        for m in (2, 3, 4):
            R = make_ring(m, truncated_symbol_ia(4))
            rho = R.rho_elem()
            for i in range(m - 1):
                lhs = R.r(i) * R.r(i)
                rhs = R.r(i + 1) * rho
                for q in R.q_indices:
                    assert q_apply(q, lhs) == q_apply(q, rhs)


class TestComultiplication:
    def test_derivation_case(self):
        R = make_ring(3, truncated_symbol_ia(3))
        assert comult_check([0], R.r(0), R.r(1))

    def test_carry_case(self):
        R = make_ring(3, truncated_symbol_ia(3))
        assert comult_check([1], R.r(0), R.r(0))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_exhaustive_generator_pairs(self, m):
        R = make_ring(m, truncated_symbol_ia(2))
        gens = [R.r(i) for i in range(m)] + [R.one(), R.rho_elem()]
        singles = [frozenset({i}) for i in R.q_indices]
        for K in singles:
            for x in gens:
                for y in gens:
                    assert comult_check(K, x, y)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_operations_shape_matches_reference(self, m):
        # every pair of basis words with k <= 1 at height 2, each single K
        R = make_ring(m, truncated_symbol_ia(2))
        words = R.basis_words(k_max=1)
        for K in [[i] for i in R.q_indices]:
            for w1 in words:
                for w2 in words:
                    x, y = R.element([w1]), R.element([w2])
                    assert comult_check(K, x, y)
                    assert ref_comult_rhs(K, x, y) == q_composite(K, x * y)

    @pytest.mark.parametrize(
        "R", [make_ring(3, truncated_symbol_ia(3)), flexible_cohomology(3)],
        ids=["m3h3", "flex3"],
    )
    def test_composite_K_on_words(self, R):
        # here a bidegree holds one word (a - b = 2^I + k 2^n_sq fixes I and k,
        # and each weight one coefficient), so every element has at most one
        # word; take x, y from the words and K with several indices
        words = R.basis_words(k_max=1 if R.has_eta else 0)
        assert len({R.word_bidegree(w) for w in words}) == len(words)
        rng = random.Random(11)
        elems = [R.element([w]) for w in words]
        self._check_composite_K(R, [(rng.choice(elems), rng.choice(elems)) for _ in range(40)])

    @staticmethod
    def _check_composite_K(R, xy_pairs):
        idxs = list(R.q_indices)
        Ks = [K for r in range(2, len(idxs) + 1) for K in itertools.combinations(idxs, r)]
        assert Ks
        for x, y in xy_pairs:
            for K in Ks:
                assert comult_check(K, x, y)
                assert ref_comult_rhs(K, x, y) == q_composite(K, x * y)

    @pytest.mark.parametrize("K", [[3], [0, 3], [-1], [0, -1]])
    def test_out_of_range_K_raises(self, K):
        R = make_ring(3, truncated_symbol_ia(2))
        with pytest.raises(MilnorError):
            comult_check(K, R.r(0), R.r(1))
        with pytest.raises(MilnorError):
            comult_check(K, R.zero(), R.r(1))


class TestMixedBidegree:
    def test_sum_rejects_two_bidegrees(self):
        R = make_ring(2, trivial_ia())
        with pytest.raises(MilnorError, match=re.escape(MIXED_MESSAGE)):
            R.one() + R.eta()

    def test_module_element_rejects_two_bidegrees(self):
        R = make_ring(2, trivial_ia())
        with pytest.raises(MilnorError, match=re.escape("words of mixed bidegree: ['(1)[3]', '(2)[6]']")):
            R.element([Word(-1, frozenset(), 0), Word(-2, frozenset(), 0)])

    def test_zero_and_single_words_construct(self):
        R = make_ring(3, truncated_symbol_ia(3))
        assert R.element([]).is_zero()
        assert R.element([Word(0, frozenset(), 0), Word(0, frozenset(), 0)]).is_zero()
        for w in R.basis_words(k_max=2, k_min=-2):
            e = R.element([w])
            assert e.word == w and e.bidegree == ref_bidegree(R, w)


class TestWordPath:
    """``element`` checks each word once and keeps a lone survivor as it is;
    ``comult_check`` reads 2^K in one pass over K."""

    def test_repeated_words_cancel(self):
        R = make_ring(3, truncated_symbol_ia(2))
        w, v = Word(1, [0], 1), Word(0, [1], 0)
        assert R.element([w, w]).is_zero()
        assert R.element([w, w, w]).word == w
        assert R.element([v, w, v]).word == w
        assert R.element([w, v, v, w]).is_zero()

    def test_sums_match_a_toggled_set(self):
        R = make_ring(3, truncated_symbol_ia(2))
        basis = R.basis_words(k_max=1, k_min=-1)
        rng = random.Random(7)
        for _ in range(300):
            ws = [rng.choice(basis[:4]) for _ in range(rng.randrange(6))]
            left: set = set()
            for w in ws:
                left ^= {w}
            if len(left) > 1:
                degs = sorted(str(R.word_bidegree(w)) for w in left)
                with pytest.raises(MilnorError, match=re.escape(f"words of mixed bidegree: {degs}")):
                    R.element(ws)
            else:
                assert R.element(ws).word == next(iter(left), None)

    def test_any_iterable_of_words(self):
        R = make_ring(3, truncated_symbol_ia(2))
        w = Word(0, [0], 1)
        assert R.element(iter([w])).word == w
        assert R.element(v for v in [w, w, w]).word == w

    def test_bad_word_is_refused_among_good_ones(self):
        R = make_ring(3, truncated_symbol_ia(2))
        w = Word(0, [0], 0)
        message = "index 5 out of range: symbol-ring(m=3) has square-free indices 0..1"
        with pytest.raises(MilnorError, match=re.escape(message)):
            R.element([w, Word(0, [5], 0), w])

    @pytest.mark.parametrize("K", [[-1, 99], [99, -1]])
    def test_out_of_range_K_names_the_largest_index(self, K):
        R = make_ring(3, truncated_symbol_ia(2))
        message = "Q-index 99 out of range for symbol-ring(m=3)"
        with pytest.raises(MilnorError, match=re.escape(message)):
            comult_check(K, R.r(0), R.r(1))
        with pytest.raises(MilnorError, match=re.escape(message)):
            comult_check(K, R.zero(), R.r(1))

    def test_repeated_K_index_counts_once(self):
        R = make_ring(3, truncated_symbol_ia(2))
        elems = [R.element([w]) for w in R.basis_words(k_max=2)]
        for x in elems:
            for y in elems:
                for i in R.q_indices:
                    assert comult_check([i, i], x, y) == comult_check([i], x, y)


class TestSharedCoefficientAlgebras:
    def test_algebras_are_their_heights(self):
        assert trivial_ia() == 1
        for h in (1, 2, 3, 4):
            assert truncated_symbol_ia(h) == h

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_rings_stay_distinct(self, h):
        R, S = make_ring(3, truncated_symbol_ia(h)), make_ring(3, truncated_symbol_ia(h))
        assert R is not S and R.height == S.height
        assert R.r(0) != S.r(0)
        with pytest.raises(MilnorError, match="elements of different rings"):
            R.r(0) * S.r(0)
        with pytest.raises(MilnorError, match="elements of different rings"):
            comult_check([0], R.r(0), S.r(0))

    def test_bad_height_still_raises(self):
        for h in (0, -2):
            with pytest.raises(MilnorError, match="height must be >= 1"):
                truncated_symbol_ia(h)

    def test_dsl_verdicts(self):
        src = (
            "(milnor R 3 (rho-height 2))"
            "(assert-equal (trivial) (mul r0 r0) (mul r1 rho))"
            "(assert-zero (trivial) (mul r1 rho rho))"
            "(assert-comult (trivial) {1} r0 r0)"
            "(assert-comult (trivial) {0 1} (mul r0 r1) r1)"
            "(milnor S 3 (rho-height 2))"
            "(assert-comult (trivial) {2} (mul r0 eta) eta)"
            "(milnor B 3 (rho-height 0))"
            "(assert-zero (trivial) (mul r0 r0))"
        )
        expected = [
            ("script#1", "pass", ""), ("script#2", "pass", ""),
            ("script#3", "pass", ""), ("script#4", "pass", ""),
            ("script#5", "pass", ""),
            ("script#form7", "error",
             "MilnorError: height must be >= 1 in (milnor B 3 (rho-height 0))"),
            # the failed context form leaves S current, where r0^2 = r1 * rho
            ("script#6", "fail", "element does not vanish"),
        ]
        for _ in range(2):
            rep = run_scenario(parse_script(src))
            assert [(r.id, r.verdict, r.detail) for r in rep.results] == expected


class TestRefusals:
    @pytest.mark.parametrize("h", [2.5, "2", True, False, None])
    def test_height_must_be_an_int(self, h):
        with pytest.raises(MilnorError, match=re.escape(f"height {h!r} is not an int")):
            truncated_symbol_ia(h)
        with pytest.raises(MilnorError, match="is not an int"):
            make_ring(3, h)

    def test_height_bounds(self):
        assert truncated_symbol_ia(1) == trivial_ia() == 1
        assert truncated_symbol_ia(MAX_RHO_HEIGHT) == MAX_RHO_HEIGHT
        with pytest.raises(MilnorError, match=f"height must be <= {MAX_RHO_HEIGHT}"):
            truncated_symbol_ia(MAX_RHO_HEIGHT + 1)
        for h in (0, MAX_RHO_HEIGHT + 1):
            with pytest.raises(MilnorError, match="height must be"):
                MilnorRing(2, True, h)

    @pytest.mark.parametrize("build, message", [
        (lambda: MilnorRing(0, True, 1), "need at least one square-free generator"),
        (lambda: MilnorRing(2, False, 2), "without a top polynomial generator rho must be 0"),
        (lambda: make_ring(1, 1), "m must be >= 2"),
        (lambda: flexible_cohomology(-1), "n must be >= 0"),
    ], ids=["no-square-free-generator", "rho-without-eta", "weight-1", "negative-n"])
    def test_ring_constructors_refuse(self, build, message):
        with pytest.raises(MilnorError, match=f"^{re.escape(message)}$"):
            build()

    def test_dsl_height_that_is_not_an_int(self):
        rep = run_scenario(parse_script("(milnor M 2 (rho-height x))"))
        assert [(r.verdict, r.detail) for r in rep.results] == [
            ("error", "MilnorError: height 'x' is not an int in (milnor M 2 (rho-height x))"),
        ]

    def test_coefficients_read_from_the_height(self):
        R = make_ring(2, 4)
        assert R.to_json(k_max=0)["coefficients"] == {
            "labels": ["1", "rho", "rho^2", "rho^3"], "weights": [0, 1, 2, 3], "rho": "rho",
        }
        assert make_ring(2, 1).to_json(k_max=0)["coefficients"] == {
            "labels": ["1"], "weights": [0], "rho": None,
        }
        assert [str(R.element([Word(1, [0], s)])) for s in range(4)] == [
            "eta*r0", "eta*r0*rho", "eta*r0*rho^2", "eta*r0*rho^3",
        ]
        assert str(R.one()) == "1" and str(R.rho_elem() ** 3) == "rho^3"
        assert (R.rho_elem() ** 4).is_zero() and make_ring(2, 1).rho_elem().is_zero()


class TestWordArithmeticMatchesReference:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_symbol_ring_products_and_bidegrees(self, m, h):
        R = make_ring(m, truncated_symbol_ia(h))
        words = R.basis_words(k_max=2)
        module_words = R.basis_words(k_max=-1, k_min=-2)
        for w in words + module_words:
            assert R.word_bidegree(w) == ref_bidegree(R, w)
        for w1 in words:
            for w2 in words + module_words:
                expected = ref_mul_words(R, w1, w2)
                assert R._mul_words(w1, w2) == expected
                assert R._mul_words(w2, w1) == expected

    @pytest.mark.parametrize("n", range(5))
    def test_flexible_products_and_bidegrees(self, n):
        F = flexible_cohomology(n)
        words = F.basis_words()
        for w1 in words:
            assert F.word_bidegree(w1) == ref_bidegree(F, w1)
            for w2 in words:
                assert F._mul_words(w1, w2) == ref_mul_words(F, w1, w2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_comult_terms_are_complements(self, n):
        indices = list(range(n))
        for r in range(n + 1):
            for K in itertools.combinations(indices, r):
                sK = sum(2**i for i in K)
                terms = [
                    (milnor._word(0, sI, 0).I, milnor._word(0, sK - sI, 0).I)
                    for sI in range(sK + 1)
                ]
                assert len(set(terms)) == len(terms)
                assert set(terms) == ref_comult_pairs(indices, K)

    @pytest.mark.parametrize(
        "R",
        [make_ring(3, truncated_symbol_ia(3)), make_ring(4, truncated_symbol_ia(2)),
         flexible_cohomology(3)],
        ids=["m3h3", "m4h2", "flex3"],
    )
    def test_comult_every_K_on_sampled_pairs(self, R):
        rng = random.Random(7)
        words = R.basis_words(k_max=2 if R.has_eta else 0)
        idxs = list(R.q_indices)
        Ks = [K for r in range(1, len(idxs) + 1) for K in itertools.combinations(idxs, r)]
        for _ in range(30):
            x = R.element([rng.choice(words)])
            y = R.element([rng.choice(words)])
            for K in Ks:
                assert comult_check(K, x, y)
                assert ref_comult_rhs(K, x, y) == q_composite(K, x * y)


class TestComultMatchesFullLoop:
    """comult_check against the loop over all of 0..2^K, on every pair of
    elements and every nonempty K."""

    @staticmethod
    def _check(R, elems):
        Ks = nonempty_subsets(R.q_indices)
        q = functools.cache(q_composite)
        for x in elems:
            for y in elems:
                for K in Ks:
                    assert comult_check(K, x, y) == ref_comult_check(K, x, y, q), (x, y, K)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_symbol_ring_words(self, m, h):
        R = make_ring(m, truncated_symbol_ia(h))
        self._check(R, [R.element([w]) for w in R.basis_words(k_max=1)])

    @pytest.mark.parametrize("n", range(4))
    def test_flexible_words(self, n):
        F = flexible_cohomology(n)
        self._check(F, [F.element([w]) for w in F.basis_words()])

    @pytest.mark.parametrize("m", [2, 3])
    def test_periodic_module_words(self, m):
        R = make_ring(m, truncated_symbol_ia(2))
        words = R.basis_words(k_max=1, k_min=-3)
        assert any(w.k < 0 for w in words)
        self._check(R, [R.element([w]) for w in words])

    @pytest.mark.parametrize(
        "R", [make_ring(3, truncated_symbol_ia(2)), make_ring(4, trivial_ia()),
              flexible_cohomology(3)],
        ids=["m3h2", "m4h1", "flex3"],
    )
    def test_key_composites_are_composites(self, R):
        # Q_I on the key, w ^ 2^I when w & 2^I == 2^I, is q_composite(I, .)
        # on every word, periodic words with odd and even eta powers included
        top = sum(2**i for i in R.q_indices)
        words = R.basis_words(k_max=3 if R.has_eta else 0, k_min=-3 if R.has_eta else 0)
        assert {w.k for w in words} >= ({-3, -2, -1} if R.has_eta else {0})
        for w in words:
            x = R.element([w])
            for sI in range(top + 1):
                I = [i for i in range(sI.bit_length()) if sI >> i & 1]
                assert R._q_word(sI, w) == q_composite(I, x).word

    def test_high_index_needs_no_long_loop(self):
        R = make_ring(64, trivial_ia())
        assert comult_check([62], R.r(0), R.r(1))
        assert comult_check([62, 63], R.r(62) * R.eta(), R.r(0))
        # a loop over 0..2^190 could not end: the walk follows the supports
        S = make_ring(200, trivial_ia())
        assert comult_check([190], S.r(0), S.r(1))
        assert comult_check([190], S.r(190) * S.r(3), S.r(3) * S.eta())
        assert comult_check([190, 199], S.r(190), S.eta())

    def test_comult_fails_without_rho_correction(self, monkeypatch):
        # a negative control: with the key product blind to its rho^c
        # argument, Q_1(r0 * r0) = rho while Q_0(r0) * Q_0(r0) gives 1
        R = make_ring(3, truncated_symbol_ia(3))
        assert comult_check([1], R.r(0), R.r(0))
        mul_keys = MilnorRing._mul_keys
        monkeypatch.setattr(
            MilnorRing, "_mul_keys", lambda ring, a, s1, b, s2, rhos=0: mul_keys(ring, a, s1, b, s2),
        )
        assert not comult_check([1], R.r(0), R.r(0))
        words = R.basis_words(k_max=1)
        assert not all(
            comult_check(K, R.element([w1]), R.element([w2]))
            for K in nonempty_subsets(R.q_indices) for w1 in words for w2 in words
        )


class TestWordApi:
    def test_any_iterable_of_indices(self):
        words = [
            Word(1, frozenset({0, 2}), 0), Word(1, [2, 0], 0), Word(1, range(0, 3, 2), 0),
            Word(1, (0, 2, 2, 0), 0), Word(1, iter([2, 0]), 0),
        ]
        assert all(w == words[0] and hash(w) == hash(words[0]) for w in words)
        assert len(set(words)) == 1
        assert words[0].mask == 0b101
        assert Word(1, [0], 0) != words[0] != Word(2, [0, 2], 0)
        assert words[0] != Word(1, [0, 2], 1)

    def test_index_set_reads_back(self):
        w = Word(0, [3, 0], 1)
        assert type(w.I) is frozenset and w.I == frozenset({0, 3})
        assert Word(0, [], 0).I == frozenset()

    def test_repr(self):
        assert repr(Word(2, frozenset({0, 3}), 1)) == "Word(k=2, I=frozenset({0, 3}), s=1)"
        assert repr(Word(-1, [], 0)) == "Word(k=-1, I=frozenset(), s=0)"

    @pytest.mark.parametrize("I", [[-1], [0, -3], ["a"], [1.0], [None]])
    def test_bad_index_is_refused(self, I):
        with pytest.raises(MilnorError, match="is not a non-negative int"):
            Word(0, I, 0)


class TestWordValidation:
    def test_index_past_the_square_free_ones(self):
        R = make_ring(3, truncated_symbol_ia(2))
        for i in (2, 5):  # r2 is eta, which a word carries as its power k
            with pytest.raises(MilnorError, match=f"index {i} out of range"):
                R.element([Word(0, frozenset({i}), 0)])
        with pytest.raises(MilnorError, match="index 3 out of range"):
            flexible_cohomology(2).element([Word(0, [0, 3], 0)])

    @pytest.mark.parametrize("s", [2, 7, -1, "1"])
    def test_coefficient_outside_the_algebra(self, s):
        R = make_ring(3, truncated_symbol_ia(2))
        with pytest.raises(MilnorError, match="coefficient .* out of range"):
            R.element([Word(0, [], s)])

    @pytest.mark.parametrize("k", [1, 2, -1])
    def test_eta_power_without_eta(self, k):
        F = flexible_cohomology(2)
        with pytest.raises(MilnorError, match="has no eta"):
            F.element([Word(k, [0], 0)])

    def test_periodic_module_words_stay_valid(self):
        R = make_ring(3, truncated_symbol_ia(2))
        w = Word(-2, [0, 1], 1)
        assert R.element([w]).word == w
        with pytest.raises(MilnorError, match="coefficient"):
            R.element([Word(-1, [], 2)])

    def test_projection_outside_the_target_algebra(self):
        S, T = make_ring(2, truncated_symbol_ia(2)), make_ring(3, truncated_symbol_ia(2))
        with pytest.raises(MilnorError, match="coefficient 5 out of range"):
            restrict_symbol(S, T, [frozenset({0}), frozenset({5})], S.rho_elem())


class TestRestriction:
    def proj(self, src, tgt):
        # coefficient projection: rho^k -> rho^k when present in the target
        table = []
        for k in range(src.height):
            if k < tgt.height:
                table.append(frozenset({k}))
            else:
                table.append(frozenset())
        return table

    @pytest.mark.parametrize("m", [2, 3])
    def test_generators_fixed(self, m):
        S = make_ring(m, trivial_ia())
        T = make_ring(m + 1, trivial_ia())
        proj = self.proj(S, T)
        for k in range(m - 1):
            for I in itertools.combinations(range(m - 1), k):
                assert restrict_symbol(S, T, proj, S.r_set(I)) == T.r_set(I)

    @pytest.mark.parametrize("m", [2, 3])
    def test_eta_becomes_square_free(self, m):
        S = make_ring(m, trivial_ia())
        T = make_ring(m + 1, trivial_ia())
        proj = self.proj(S, T)
        for k in range(m - 1):
            for I in itertools.combinations(range(m - 1), k):
                img = restrict_symbol(S, T, proj, S.eta() * S.r_set(I))
                assert img == T.r_set(sorted(I) + [m - 1])

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("height", [1, 3])
    def test_q_equivariance_exhaustive(self, m, height):
        S = make_ring(m, truncated_symbol_ia(height))
        T = make_ring(m + 1, truncated_symbol_ia(height))
        proj = self.proj(S, T)
        for w in S.basis_words(k_max=3):
            e = S.element([w])
            for i in S.q_indices:
                lhs = restrict_symbol(S, T, proj, q_apply(i, e))
                rhs = q_apply(i, restrict_symbol(S, T, proj, e))
                assert lhs == rhs

    def test_module_words_rejected(self):
        # words with a negative eta power have no image in the target ring
        S = make_ring(2, trivial_ia())
        T = make_ring(3, trivial_ia())
        proj = self.proj(S, T)
        for e in (S.element([Word(-1, [], 0)]), S.element([Word(-3, frozenset({0}), 0)])):
            with pytest.raises(MilnorError, match="periodic-module words"):
                restrict_symbol(S, T, proj, e)


class TestPeriodicModule:
    """The periodic part of the combined model: words with negative eta
    powers, which are ordinary ring words."""

    def test_eta_derivative(self):
        R = make_ring(3, trivial_ia())
        def eta_inverse(l):
            return R.element([Word(-l, [], 0)])
        assert q_apply(R.top_index, eta_inverse(1)) == eta_inverse(2)
        assert q_apply(R.top_index, eta_inverse(2)).is_zero()

    @pytest.mark.parametrize("m", [2, 3])
    def test_exactness_on_combined_model(self, m):
        R = make_ring(m, trivial_ia())
        for i in R.q_indices:
            dims = q_homology_dimensions(R, i, -6, 6)
            assert dims, "no interior bidegrees tested"
            assert all(v == 0 for v in dims.values())

    def test_perturbed_differential_is_not_exact(self, monkeypatch):
        # a negative control: with Q_0(eta * r0) = 0 in place of eta, eta * r0
        # is a cycle that bounds nothing, and eta a cycle with no preimage
        R = make_ring(2, trivial_ia())
        dims = q_homology_dimensions(R, 0, -6, 6)
        assert len(dims) == 22 and set(dims.values()) == {0}
        q_word, eta_r0 = MilnorRing._q_word, Word(1, [0], 0)
        monkeypatch.setattr(
            MilnorRing, "_q_word",
            lambda ring, bits, w: None if (bits, w) == (1, eta_r0) else q_word(ring, bits, w),
        )
        perturbed = q_homology_dimensions(R, 0, -6, 6)
        assert perturbed.keys() == dims.keys()
        assert {str(d): v for d, v in perturbed.items() if v} == {"(-1)[-3]": 1, "(-1)[-4]": 1}


class TestJsonDump:
    def test_dump_structure(self):
        R = make_ring(3, truncated_symbol_ia(2))
        doc = json.loads(json.dumps(R.to_json(k_max=1), sort_keys=True))
        assert doc["square_free_generators"] == 2
        assert doc["polynomial_top"] is True
        assert any(b["word"] == "r{0}" for b in doc["basis"])
        assert "0" in doc["q_action"]
        # the action table actually reflects the module rule
        assert doc["q_action"]["0"]["r{0}"] == ["1"]


def milnor_pin_lines():
    """to_json(k_max=2) of three rings, then, per symbol ring, the word
    products over all pairs of basis and periodic words with |k| <= 2."""
    lines = [
        json.dumps(R.to_json(k_max=2), sort_keys=True)
        for R in (make_ring(3, truncated_symbol_ia(3)), make_ring(4, truncated_symbol_ia(2)),
                  flexible_cohomology(3))
    ]
    def code(w):
        return [w.k, sorted(w.I), w.s]
    for R in (make_ring(3, truncated_symbol_ia(3)), make_ring(4, truncated_symbol_ia(2))):
        words = R.basis_words(k_max=2, k_min=-2)
        products = [
            [[] if (v := R._mul_words(w1, w2)) is None else [code(v)] for w2 in words]
            for w1 in words
        ]
        doc = {"ring": R.name, "words": [code(w) for w in words], "products": products}
        lines.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return lines


def test_milnor_outputs_are_pinned():
    # tests/data/milnor_seed0.json, as computed when comult_check still
    # tabulated Q_I(x) and products read the index masks alone
    pinned = Path(__file__).parent / "data" / "milnor_seed0.json"
    assert ("\n".join(milnor_pin_lines()) + "\n").encode() == pinned.read_bytes()
