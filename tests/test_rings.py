import itertools
import json
import random
import sys

import pytest

from chowcalc import rings as rings_module
from chowcalc.rings import (
    FIELD_BITS,
    MAX_EXPONENT,
    MONOMIAL_ONE,
    InvalidRule,
    Monomial,
    ReductionBudgetExceeded,
    RewriteCycle,
    RewriteRule,
    RingContext,
    RingError,
    confluence_check,
    evaluate,
    exponents,
    inverse_series,
    mono_mul,
    normal_form,
)
from chowcalc.varieties import enumerate_basis
from helpers import (
    monomials_of_codegree,
    random_class,
    random_tower,
    reference_div,
    reference_divides,
    reference_matching_rule,
    reference_minimal_monomials,
    reference_mkey,
    reference_mul,
    symmetric_expand,
    worklist_nf,
)


def mono_divides(k, m):
    """Divisibility of packed keys as rule matching and the minimality of
    leads test it: ((m | G) - k) & G == G, with G the guard bits of k's
    fields."""
    g = rings_module._guards(rings_module._fields(k))
    return (m | g) - k & g == g


def free_ring(names, dim, modulus=0):
    return RingContext(names, [1] * len(names), modulus=modulus, dimension=dim)


def pspace_ring(n):
    return RingContext(["h"], [1], dimension=n, rules=[(Monomial([(0, n + 1)]), {})])


def built_rings(monkeypatch, run) -> list:
    """Every ring that run() builds, in order."""
    built = []
    init = RingContext.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RingContext, "__init__", record)
    run()
    monkeypatch.undo()
    return built


def tower_rings(monkeypatch) -> list:
    """Every ring that ``random_tower`` builds on seeds 0-59, and each
    tower's ring mod 2."""
    return built_rings(monkeypatch, lambda: [
        random_tower(random.Random(seed)).with_coefficients(2) for seed in range(60)
    ])


def registry_rings(monkeypatch):
    """One ring per distinct (names, codegrees, modulus, dimension, rules)
    among the rings ``registry.run_all(seed=0)`` builds."""
    from chowcalc import registry

    rings = {}
    for R in built_rings(monkeypatch, lambda: registry.run_all(seed=0)):
        rings.setdefault((R.names, R.codegrees, R.modulus, R.dimension, R.rules), R)
    return list(rings.values())


def random_pairs(rng, ngens=6, top=3):
    """Sparse (index, exponent) pairs in random order, zeros included."""
    pairs = [(i, rng.randint(0, top)) for i in rng.sample(range(ngens), rng.randint(0, ngens))]
    rng.shuffle(pairs)
    return pairs


class TestMonomial:
    def test_repeated_indices_are_merged(self):
        m = Monomial([(0, 1), (1, 1), (0, 2)])
        assert m.exps == ((0, 3), (1, 1))
        assert m == Monomial([(1, 1), (0, 3)])
        assert hash(m) == hash(Monomial([(1, 1), (0, 3)]))
        assert Monomial([(0, 2), (1, 1), (0, -2)]) == Monomial([(1, 1)])
        with pytest.raises(ValueError):
            Monomial([(0, 1), (0, -2)])

    def test_repeated_indices_in_a_table(self):
        R = free_ring(["x"], 4)
        x_x2, x3 = Monomial([(0, 1), (0, 2)]), Monomial([(0, 3)])
        assert R.from_table({x_x2: 1}) == R.gen("x") ** 3
        table = {}
        for m in (x_x2, x3):
            table[m] = table.get(m, 0) + 1
        assert R.from_table(table).table == {x3: 2}

    def test_fast_paths_match_the_public_constructor(self):
        rng = random.Random(11)
        for _ in range(2000):
            a, b = Monomial(random_pairs(rng)), Monomial(random_pairs(rng))
            ab = mono_mul(a, b)
            expected = Monomial(list(a.exps) + list(b.exps))
            assert exponents(ab) == expected.exps and hash(ab) == hash(expected) and ab == expected
            for num, den in ((ab, a), (ab, b), (a, b)):
                have = dict(exponents(num))
                divides = all(have.get(i, 0) >= e for i, e in den.exps)
                assert mono_divides(den, num) == divides
                if divides:
                    q = num - den
                    expected = Monomial(list(exponents(num)) + [(i, -e) for i, e in den.exps])
                    assert exponents(q) == expected.exps and hash(q) == hash(expected) and q == expected

    def test_unit_and_non_divisors(self):
        m = Monomial([(0, 2), (3, 1)])
        assert mono_mul(m, MONOMIAL_ONE) == m and mono_mul(MONOMIAL_ONE, m) == m
        assert mono_divides(MONOMIAL_ONE, m) and mono_divides(m, m)
        assert m - MONOMIAL_ONE == m and m - m == MONOMIAL_ONE == 0
        for other in ([(0, 3)], [(1, 1)], [(4, 1)], [(0, 1), (2, 1)]):
            assert not mono_divides(Monomial(other), m)


def random_key_pairs(rng, ngens=5):
    """Sorted pairs with positive exponents, small or at the field limit;
    the unit monomial one time in eight."""
    if rng.random() < 0.125:
        return ()
    pairs = []
    for i in sorted(rng.sample(range(ngens), rng.randint(1, ngens))):
        pairs.append((i, rng.choice([1, 2, 3, MAX_EXPONENT // 2, MAX_EXPONENT - 1, MAX_EXPONENT])))
    return tuple(pairs)


class TestKeyReference:
    """Packed keys against the sorted-pair reference in ``helpers``."""

    def test_product_quotient_and_divisibility(self):
        rng = random.Random(26)
        for _ in range(3000):
            a, b = random_key_pairs(rng), random_key_pairs(rng)
            ka, kb = Monomial(a), Monomial(b)
            assert ka.exps == a and exponents(int(ka)) == a
            ab = reference_mul(a, b)
            if max((e for _, e in ab), default=0) > MAX_EXPONENT:
                with pytest.raises(RingError):
                    mono_mul(ka, kb)
            else:
                assert exponents(mono_mul(ka, kb)) == ab
            for num, den in ((a, b), (b, a), (ab, a), (ab, b), (a, a)):
                if max((e for _, e in num), default=0) > MAX_EXPONENT:
                    continue
                kn, kd = Monomial(num), Monomial(den)
                assert mono_divides(kd, kn) == reference_divides(den, num)
                if reference_divides(den, num):
                    assert exponents(kn - kd) == reference_div(num, den)

    def test_key_order_is_the_reverse_index_order(self):
        R = free_ring([f"x{i}" for i in range(5)], 4)
        rng = random.Random(27)
        ms = [Monomial(random_key_pairs(rng)) for _ in range(400)] + [MONOMIAL_ONE]
        assert sorted(ms) == sorted(ms, key=lambda m: reference_mkey(R, m))

    def test_codegree_string_and_json(self):
        R = RingContext([f"x{i}" for i in range(5)], [1, 2, 1, 3, 2])
        rng = random.Random(28)
        for _ in range(500):
            pairs = random_key_pairs(rng)
            m = Monomial(pairs)
            assert R.monomial_codegree(m) == sum(R.codegrees[i] * e for i, e in pairs)
            text = "*".join(R.names[i] if e == 1 else f"{R.names[i]}^{e}" for i, e in pairs) or "1"
            assert R.monomial_str(m) == text
            assert R.monomial_from_str(json.loads(json.dumps(text))) == m

    def test_codegree_sums_fields_as_the_walk(self):
        # keys within _summable take the field sums, every other key the
        # walk: exponents at 2^t - 1 are summed, at 2^t and MAX_EXPONENT walked
        rng = random.Random(38)
        summed = walked = 0
        for n in range(1, 21):
            R = RingContext([f"x{i}" for i in range(n)], [rng.randint(1, 4) for _ in range(n)])
            t = FIELD_BITS - n.bit_length()
            edges = [(1 << t) - 1, min(1 << t, MAX_EXPONENT), MAX_EXPONENT]
            keys = [Monomial([(i, e) for i in range(n)]) for e in edges]
            for _ in range(60):
                keys.append(Monomial([
                    (i, rng.choice(edges) if rng.random() < 0.3 else rng.randint(1, 5))
                    for i in rng.sample(range(n), rng.randint(0, n))
                ]))
            for m in keys:
                assert R.monomial_codegree(m) == sum(R.codegrees[i] * e for i, e in exponents(m)), (n, m)
                if m & R._summable == m:
                    summed += 1
                else:
                    walked += 1
            for m in (Monomial([(n, 1)]), Monomial([(0, 1), (n + 3, 2)])):
                with pytest.raises(RingError, match="past the ring"):
                    R.monomial_codegree(m)
        assert summed > 200 and walked > 200
        assert RingContext([], []).monomial_codegree(0) == 0

    def test_limits_raise_ring_errors(self):
        assert Monomial([(3, MAX_EXPONENT)]).exps == ((3, MAX_EXPONENT),)
        with pytest.raises(RingError):
            Monomial([(3, MAX_EXPONENT + 1)])
        with pytest.raises(RingError):
            Monomial([(3, MAX_EXPONENT), (3, 1)])
        with pytest.raises(RingError):
            RingContext(["x"], [1], dimension=MAX_EXPONENT // 2 + 1)
        R = RingContext(["x", "y"], [1, 1], dimension=MAX_EXPONENT // 2)
        top = R.from_table({Monomial([(1, MAX_EXPONENT // 2)]): 1})
        assert str(top * top) == "0" and str(R.gen("x") * top) == "0"
        # without a dimension, a product past the field raises instead of
        # carrying into the next generator's field
        F = RingContext(["x", "y"], [1, 1])
        big = F.from_table({Monomial([(0, MAX_EXPONENT // 2 + 1)]): 1})
        with pytest.raises(RingError):
            big * big
        assert not any(m & F._guard for m in F._normal_forms)
        # and so does a rewrite that moves exponents into a full field
        G = RingContext(["x", "y"], [1, 1], rules=[(Monomial([(0, 1)]), {Monomial([(1, 1)]): 1})])
        with pytest.raises(RingError):
            G.from_table({Monomial([(0, 2), (1, MAX_EXPONENT - 1)]): 1})


class TestNormalForm:
    def test_defining_relation_kills_top_power(self):
        R = pspace_ring(3)
        h = R.gen("h")
        assert (h**4).is_zero()
        assert not (h**3).is_zero()

    def test_expansion_identity_over_z(self):
        # frozen from the expansion bookkeeping of the codim-2 replay:
        # the three-term combination collapses to xy(x+y)(19(x+y)^2 - 2xy)
        R = free_ring(["x", "y"], 5)
        x, y = R.gen("x"), R.gen("y")
        lhs = (x + y) ** 2 * (2 * (x + y)) ** 3 - (x + y) * x * (2 * x + y) ** 3 - (x + y) * y * (2 * y + x) ** 3
        rhs = x * y * (x + y) * (19 * (x + y) ** 2 - 2 * x * y)
        assert lhs == rhs

    def test_cube_identity_mod_two(self):
        R = free_ring(["x1", "y1", "x2", "y2"], 5, modulus=2)
        total = R.zero()
        for xn, yn in [("x1", "y1"), ("x2", "y2")]:
            a, b = R.gen(xn), R.gen(yn)
            total = total + a * b * (a + b) ** 3 + (a + b) * a * b**3 + (a + b) * b * a**3
        assert total.is_zero()

    def test_idempotent(self):
        rng = random.Random(7)
        R = pspace_ring(4)
        for _ in range(50):
            c = random_class(R, rng)
            assert normal_form(c) == c

    def test_dimension_truncation(self):
        R = free_ring(["x", "y"], 5)
        x, y = R.gen("x"), R.gen("y")
        assert ((x**3) * (y**3)).is_zero()
        assert not ((x**2) * (y**3)).is_zero()

    def test_step_budget_counts_kills(self):
        # x -> y and y*z -> 0: x*z is rewritten to y*z, which is killed
        # without a stack frame, and that second step still counts
        x, y, z = (Monomial([(i, 1)]) for i in range(3))

        def ring(budget):
            return RingContext(["x", "y", "z"], [1, 1, 1], dimension=3,
                               rules=[(x, {y: 1}), (y + z, {})], step_budget=budget)

        with pytest.raises(ReductionBudgetExceeded):
            ring(1).from_table({x + z: 1})
        R = ring(2)
        assert R.from_table({x + z: 1}).is_zero()
        assert R._normal_forms[x + z] == R._normal_forms[y + z] == ()
        assert R.gen("y").table == {y: 1} and R._normal_forms[y] == ((y, 1),)
        # a monomial killed at once takes one step
        with pytest.raises(ReductionBudgetExceeded):
            RingContext(["x"], [1], rules=[(x, {})], step_budget=0).gen("x")
        assert RingContext(["x"], [1], rules=[(x, {})], step_budget=1).gen("x").is_zero()

    def test_step_budget_guard(self):
        with pytest.raises(ReductionBudgetExceeded):
            RingContext(
                ["x", "y"], [1, 1], dimension=3,
                rules=[
                    (Monomial([(0, 1)]), {Monomial([(1, 1)]): 1}),
                    (Monomial([(1, 1)]), {Monomial([(0, 1)]): 1}),
                ],
                step_budget=500,
            )


class TestMultiplication:
    def test_unit(self):
        R = pspace_ring(2)
        c = R.gen("h") + 2 * R.one()
        assert R.one() * c == c

    def test_char_two_square(self):
        R = free_ring(["x", "y"], 4, modulus=2)
        x, y = R.gen("x"), R.gen("y")
        assert (x + y) * (x + y) == x * x + y * y

    @pytest.mark.parametrize("modulus", [0, 2, 5])
    def test_commutative_associative_randomized(self, modulus):
        R = free_ring(["x", "y", "z"], 4, modulus=modulus)
        rng = random.Random(modulus + 1)
        for _ in range(350):
            a = random_class(R, rng, terms=2)
            b = random_class(R, rng, terms=2)
            c = random_class(R, rng, terms=2)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_parts_partition(self):
        R = free_ring(["x", "y"], 5)
        rng = random.Random(3)
        for _ in range(40):
            c = random_class(R, rng, terms=4)
            total = R.zero()
            for d in range(6):
                total = total + c.homogeneous_part(d)
            assert total == c

    def test_total_chern_parts(self):
        R = free_ring(["x", "y"], 4)
        x, y = R.gen("x"), R.gen("y")
        ct = (R.one() + x) * (R.one() + y)
        assert ct.homogeneous_part(1) == x + y
        assert ct.homogeneous_part(2) == x * y
        assert ct.homogeneous_part(5).is_zero()


def whole_table(a, b):
    """Reference product: ``_nf`` of the whole raw product table, its
    monomials multiplied by the sorted-pair reference."""
    raw = {}
    for m1, c1 in a.table.items():
        for m2, c2 in b.table.items():
            t = Monomial(reference_mul(exponents(m1), exponents(m2)))
            raw[t] = raw.get(t, 0) + c1 * c2
    return a.ring._nf(raw)


class TestEvaluate:
    @pytest.mark.parametrize("modulus", [0, 3])
    def test_exponents_one_to_three_are_the_term_by_term_products(self, modulus):
        # a^i b^j c^k with exponents 0-3 sent to a ring with a rule: the
        # image of each monomial, and of their sum, multiplies the images
        # in one factor at a time
        S = free_ring(["a", "b", "c"], 12, modulus=modulus)
        v2, u2 = Monomial([(1, 2)]), Monomial([(0, 2)])
        T = RingContext(["u", "v", "w"], [1, 1, 2], modulus, 6, rules=[(v2, {u2: 1})])
        u, v, w = T.gen("u"), T.gen("v"), T.gen("w")
        images = {"a": u - 2 * v, "b": 3 * v + u, "c": w + u * v}
        total, want_total = S.zero(), T.zero()
        for exps in itertools.product(range(4), repeat=3):
            m = Monomial((i, e) for i, e in enumerate(exps) if e)
            want = T.scalar(2)
            for name, e in zip("abc", exps):
                for _ in range(e):
                    want = want * images[name]
            c = S.from_table({m: 2})
            assert evaluate(c, images, T) == want, exps
            total, want_total = total + c, want_total + want
        assert evaluate(total, images, T) == want_total
        assert not want_total.is_zero()


class TestProductMemo:
    @staticmethod
    def assert_random_products(R, seed, count=40, max_codegree=None):
        rng = random.Random(seed)
        for _ in range(count):
            a = random_class(R, rng, max_codegree=max_codegree)
            b = random_class(R, rng, max_codegree=max_codegree)
            assert (a * b).table == whole_table(a, b)

    def test_registry_rings(self, monkeypatch):
        rings = registry_rings(monkeypatch)
        assert len(rings) > 30
        for k, R in enumerate(rings):
            gens = [R.gen(n) for n in R.names]
            for a in gens:
                for b in gens:
                    assert (a * b).table == whole_table(a, b)
            self.assert_random_products(R, seed=k, count=10)

    def test_non_confluent_rings_above_codegree_two(self, monkeypatch):
        # In A20-L2's B2, B3 and B5 the normal form of a^2*r and a*r^2
        # depends on the rule applied; the memo reproduces the fixed strategy.
        rings = [
            R for R in registry_rings(monkeypatch) if R.names == ("a", "r", "q") and R.rules
        ]
        assert sorted(R.modulus for R in rings) == [2, 3, 5]
        for R in rings:
            assert not confluence_check(R).passed
            a, r, q = (R.gen(n) for n in R.names)
            low = [a, r, q, a + r, a * a, r * r, a + r * r, q + r * r]
            for u in low:
                for v in low:
                    if max(u.codegrees(), default=0) + max(v.codegrees(), default=0) >= 3:
                        assert (u * v).table == whole_table(u, v)
            assert (a * a) * r != a * (a * r)
            self.assert_random_products(R, seed=R.modulus, count=200)

    @pytest.mark.parametrize("modulus", [2, 3])
    def test_truncated_ring_mod_p(self, modulus):
        x2, y2 = Monomial([(0, 2)]), Monomial([(1, 2)])
        R = RingContext(
            ["x", "y", "z"], [1, 1, 2], modulus=modulus, dimension=4,
            rules=[(x2, {y2: 1, Monomial([(2, 1)]): -1})],
        )
        self.assert_random_products(R, seed=modulus, count=200)

    def test_rule_free_ring_without_dimension(self):
        R = RingContext(["x", "y"], [1, 2])
        assert R.dimension is None
        self.assert_random_products(R, seed=5, count=100, max_codegree=6)
        x = R.gen("x")
        assert str(x**10) == "x^10"

    def test_memo_is_keyed_by_equal_monomials(self):
        # equal monomials built apart share one entry of the memo
        R = free_ring(["x", "y", "z"], 4, modulus=3)
        rng = random.Random(4)
        for _ in range(100):
            random_class(R, rng) * random_class(R, rng)
        # keyed by the product monomial: a Monomial built from its pairs
        # finds the entry of a sum of keys
        stored = len(R._normal_forms)
        assert stored == len({exponents(m) for m in R._normal_forms})
        for m in list(R._normal_forms):
            R._product(Monomial(exponents(m)))
        assert len(R._normal_forms) == stored
        # two factorizations of one product share its entry
        R = free_ring(["x", "y", "z"], 4)
        x, y, z = (R.gen(n) for n in "xyz")
        stored = len(R._normal_forms)
        assert (x * y) * z == x * (y * z) and len(R._normal_forms) == stored + 3

    def test_memo_tables_are_not_shared(self):
        R = pspace_ring(3)
        h = R.gen("h")
        h2 = h * h
        h2.table.clear()
        R.gen("h").table.clear()
        assert str(h * h) == "h^2"
        assert str(R.gen("h")) == "h"

    def test_cycling_rules_raise_every_time(self):
        # x*z -> y*z and y^2 -> x*y are each irreducible under the other,
        # so the ring builds, but x*y*z rewrites to y^2*z and back forever
        xz, y2 = Monomial([(0, 1), (2, 1)]), Monomial([(1, 2)])
        R = RingContext(
            ["x", "y", "z"], [1, 1, 1], dimension=3,
            rules=[(xz, {Monomial([(1, 1), (2, 1)]): 1}), (y2, {Monomial([(0, 1), (1, 1)]): 1})],
            step_budget=1000,
        )
        xy, z = R.gen("x") * R.gen("y"), R.gen("z")
        for _ in range(2):
            with pytest.raises(ReductionBudgetExceeded):
                xy * z
        assert Monomial([(0, 1), (1, 1), (2, 1)]) not in R._normal_forms


def random_table(R, rng, terms=4):
    """Random monomials up to one codegree above the dimension, with
    coefficients that may vanish mod p."""
    top = (R.dimension if R.dimension is not None else 4) + 1
    table = {}
    for _ in range(terms):
        exps, budget = {}, rng.randint(0, top)
        while True:
            fits = [i for i, d in enumerate(R.codegrees) if d <= budget]
            if not fits:
                break
            i = rng.choice(fits)
            exps[i] = exps.get(i, 0) + 1
            budget -= R.codegrees[i]
        table[Monomial(exps.items())] = rng.randint(-6, 6)
    return table


class TestMonomialMemo:
    @staticmethod
    def assert_matches_worklist(R, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            table = random_table(R, rng)
            for truncate in (True, False):
                expected = worklist_nf(R, table, truncate)
                # untruncated, as _implied reduces: a fresh memo, no dimension
                nf = R._nf if truncate else lambda t: R._reduce(t, {}, None)
                assert nf(table) == expected
                # again from an empty memo, so every chain is walked afresh
                R._normal_forms.clear()
                assert nf(table) == expected

    def test_registry_rings(self, monkeypatch):
        rings = registry_rings(monkeypatch)
        assert sum(R.names == ("a", "r", "q") and bool(R.rules) for R in rings) == 3
        for k, R in enumerate(rings):
            self.assert_matches_worklist(R, seed=k, count=30)

    @pytest.mark.parametrize("modulus", [2, 3])
    def test_truncated_ring_mod_p(self, modulus):
        x2, y2 = Monomial([(0, 2)]), Monomial([(1, 2)])
        R = RingContext(
            ["x", "y", "z"], [1, 1, 2], modulus=modulus, dimension=4,
            rules=[(x2, {y2: 1, Monomial([(2, 1)]): -1})],
        )
        self.assert_matches_worklist(R, seed=modulus, count=200)

    def test_chain_longer_than_the_recursion_limit(self):
        x, y2 = Monomial([(0, 1)]), Monomial([(1, 2)])
        R = RingContext(["x", "y"], [1, 1], rules=[(y2, {Monomial([(0, 1), (1, 1)]): 1})])
        n = 3000
        assert n > sys.getrecursionlimit()
        c = R.from_table({Monomial([(1, n)]): 1})
        assert c.table == {Monomial([(0, n - 1), (1, 1)]): 1}

    def test_cycle_names_its_monomial(self):
        xz, y2 = Monomial([(0, 1), (2, 1)]), Monomial([(1, 2)])
        R = RingContext(
            ["x", "y", "z"], [1, 1, 1], dimension=3,
            rules=[(xz, {Monomial([(1, 1), (2, 1)]): 1}), (y2, {Monomial([(0, 1), (1, 1)]): 1})],
        )
        with pytest.raises(RewriteCycle) as err:
            R.from_table({Monomial([(0, 1), (1, 1), (2, 1)]): 1})
        assert err.value.monomial in ("x*y*z", "y^2*z")
        # the same monomial above the dimension truncates before any rewriting
        assert R.from_table({Monomial([(0, 2), (1, 1), (2, 1)]): 1}).is_zero()

    @pytest.mark.parametrize("repl", [[(0, 1), (1, 1)], [(0, 2)]], ids=["x+y", "2x"])
    def test_replacement_holding_its_lead_is_a_cycle(self, repl):
        # x -> x + y and x -> 2x over Z: reducing the replacement rewrites x forever
        gens = [Monomial([(0, 1)]), Monomial([(1, 1)])]
        with pytest.raises(RewriteCycle):
            RingContext(["x", "y"], [1, 1], rules=[(gens[0], {gens[i]: c for i, c in repl})])

    def test_replacements_reduced_in_one_pass(self):
        # x0 -> x1 -> x2 -> x3, declared in both orders: every stored
        # replacement is x3, irreducible under every lead
        x = [Monomial([(i, 1)]) for i in range(4)]
        chain = [(x[i], {x[i + 1]: 1}) for i in range(3)]
        for rules in (chain, chain[::-1]):
            R = RingContext(["x0", "x1", "x2", "x3"], [1] * 4, rules=rules)
            assert [r.replacement for r in R.rules] == [((x[3], 1),)] * 3


class TestSymmetricExpand:
    """The Newton reference (``helpers.symmetric_expand``) that
    ``d_class_from_total`` is tested against."""

    def test_power_one_is_total_chern(self):
        se = symmetric_expand(1, 3, 3)
        ctx = se.ring
        expected = ctx.one() + ctx.gen("c1") + ctx.gen("c2") + ctx.gen("c3")
        assert se == expected

    def test_rank_one_square(self):
        se = symmetric_expand(2, 1, 2)
        ctx = se.ring
        assert se == ctx.one() + ctx.gen("c1") ** 2

    def test_mod_three_rank_two(self):
        # x1^2 + x2^2 = c1^2 - 2 c2, and -2 = 1 mod 3
        se = symmetric_expand(2, 2, 2)
        ctx = se.ring
        assert ctx.modulus == 0
        assert se == ctx.one() + ctx.gen("c1") ** 2 - 2 * ctx.gen("c2")
        mod3 = {ctx.monomial_str(m): c % 3 for m, c in se.table.items() if c % 3}
        assert mod3 == {"1": 1, "c1^2": 1, "c2": 1}

    @pytest.mark.parametrize("k,r,bound", [
        (1, 2, 4), (2, 2, 4), (2, 3, 6), (3, 2, 6), (4, 2, 4),
        # rank below the bound
        (1, 3, 8), (2, 4, 8), (3, 3, 7), (4, 3, 8), (5, 2, 8), (5, 1, 5),
        # rank above the bound
        (1, 7, 3), (2, 8, 5), (3, 6, 4), (5, 7, 6), (1, 9, 1),
        # bound 0
        (1, 1, 0), (2, 5, 0), (5, 3, 0),
    ])
    def test_substitution_oracle(self, k, r, bound):
        # independent oracle: substitute formal roots x_i for the c_i and
        # compare against the direct product expansion of prod (1 + x_i^k)
        roots_ring = free_ring([f"x{i}" for i in range(r)], bound)
        xs = [roots_ring.gen(f"x{i}") for i in range(r)]
        direct = roots_ring.one()
        for x in xs:
            direct = direct * (roots_ring.one() + x**k)
        se = symmetric_expand(k, r, bound)
        images = {}
        for j in range(1, r + 1):
            ej = roots_ring.zero()
            import itertools

            for comb in itertools.combinations(xs, j):
                term = roots_ring.one()
                for x in comb:
                    term = term * x
                ej = ej + term
            images[f"c{j}"] = ej
        assert evaluate(se, images, roots_ring) == direct

    def test_stability_in_rank(self):
        a = symmetric_expand(2, 3, 3)
        b = symmetric_expand(2, 5, 3)
        # compare through generator names, ranks differ
        names_a = {a.ring.monomial_str(m): c for m, c in a.table.items()}
        names_b = {b.ring.monomial_str(m): c for m, c in b.table.items()}
        assert names_a == names_b


class TestInverseSeries:
    def test_geometric(self):
        R = free_ring(["t"], 4)
        t = R.gen("t")
        inv = inverse_series(R.one() + t)
        assert inv == R.one() - t + t**2 - t**3 + t**4

    def test_dimensionless_ring_raises(self):
        R = RingContext(["t"], [1])
        with pytest.raises(ValueError, match="truncation bound"):
            inverse_series(R.one() + R.gen("t"))

    def test_random_units(self):
        R = free_ring(["x", "y"], 4)
        rng = random.Random(11)
        for _ in range(25):
            tail = random_class(R, rng, terms=2)
            tail = tail - tail.homogeneous_part(0)
            series = R.one() + tail
            assert series * inverse_series(series) == R.one()


class TestConfluenceSmoke:
    def test_single_rule_system_passes(self):
        assert confluence_check(pspace_ring(4)).passed

    def test_blown_up_plane_passes(self):
        from chowcalc.varieties import BundleRoots, CenterData, blow_up, projective_space

        P2 = projective_space(2)
        center = CenterData(
            fundamental=P2.gen("h") ** 2,
            roots=BundleRoots.plus([P2.zero(), P2.zero()], ring=P2.ring),
            restriction={"h": P2.zero()},
        )
        Bl = blow_up(P2, center)
        assert confluence_check(Bl.ring).passed

    def test_inconsistent_rules_reported(self):
        D = RingContext(
            ["x", "y", "z"], [1, 1, 1], dimension=3,
            rules=[
                (Monomial([(0, 1)]), {Monomial([(1, 1)]): 1}),
                (Monomial([(0, 1)]), {Monomial([(2, 1)]): 1}),
            ],
        )
        rep = confluence_check(D)
        assert not rep.passed
        assert rep.divergences[0]["expected"] != rep.divergences[0]["got"]

    def test_coprime_and_truncated_pairs_skipped(self):
        x2, y2, z2 = (Monomial([(i, 2)]) for i in range(3))
        coprime = RingContext(
            ["x", "y", "z"], [1, 1, 1], dimension=4,
            rules=[(x2, {}), (y2, {}), (z2, {Monomial([(0, 1), (1, 1)]): 1})],
        )
        rep = confluence_check(coprime)
        assert (rep.pairs, rep.passed) == (0, True)
        # x^2 and x*y share x, but their lcm x^2*y lies above the dimension
        above = RingContext(
            ["x", "y"], [1, 1], dimension=2,
            rules=[(x2, {}), (Monomial([(0, 1), (1, 1)]), {y2: 1})],
        )
        rep = confluence_check(above)
        assert (rep.pairs, rep.passed) == (0, True)

    def test_registry_rings(self, monkeypatch):
        # A20-L2 declares a*r -> 0, a^2 -> -(p-1)q and r^2 -> q in B2, B3
        # and B5: a^2*r and a*r^2 reduce to 0 by the first rule, and to r*q
        # and a*q by the others.  Every other registry ring is confluent.
        rings = registry_rings(monkeypatch)
        divergent = []
        for R in rings:
            rep = confluence_check(R)
            if not rep.passed:
                divergent.append((R.names, R.modulus, rep.divergences))
        assert divergent == [
            (("a", "r", "q"), p, [
                {"input": "a^2*r", "expected": "0", "got": "r*q"},
                {"input": "a*r^2", "expected": "0", "got": "a*q"},
            ])
            for p in (2, 3, 5)
        ]
        assert len(rings) > len(divergent)

    def test_step_budget_reported(self):
        # the pair x*y, y^2 joins at x^3, but x^2*y needs a second step
        x2, xy, y2 = Monomial([(0, 2)]), Monomial([(0, 1), (1, 1)]), Monomial([(1, 2)])
        R = RingContext(["x", "y"], [1, 1], dimension=3, rules=[(xy, {x2: 1}), (y2, {x2: 1})])
        assert confluence_check(R).passed
        R.step_budget = 0
        rep = confluence_check(R)
        assert not rep.passed
        assert rep.divergences[0]["input"] == "x*y^2"
        assert "exceeded 0 steps" in rep.divergences[0]["got"]


def stored_leads(ms, ngens):
    """The leads that a ring in ngens generators of codegree 1, with no
    dimension, stores when it declares m -> 0 for each m of ms but the unit
    monomial, which no rule may have as its lead."""
    names = [f"x{i}" for i in range(ngens)]
    return [r.lead for r in RingContext(names, [1] * ngens, rules=[(m, {}) for m in ms if m]).rules]


class TestMinimalLeads:
    def test_stored_leads_match_all_pairs(self):
        # reference: compare every monomial with every other one; a ring
        # keeps every copy of a repeated minimal lead
        def quadratic(ms):
            ms = set(ms)
            return {m for m in ms
                    if not any(k != m and reference_divides(exponents(k), exponents(m)) for k in ms)}

        rng = random.Random(29)
        for _ in range(400):
            ms = [Monomial(random_pairs(rng, ngens=5)) for _ in range(rng.randint(0, 12))]
            ms += rng.sample(ms, min(len(ms), 3))  # duplicates
            leads = [m for m in ms if m]
            minimal = quadratic(leads)
            assert stored_leads(ms, 5) == [m for m in leads if m in minimal], ms
        assert stored_leads([], 5) == []

    @staticmethod
    def redundant_ring():
        x2, x3 = Monomial([(0, 2)]), Monomial([(0, 3)])
        x2y = Monomial([(0, 2), (1, 1)])
        return RingContext(
            ["x", "y"], [1, 1], dimension=3,
            rules=[(x3, {}), (x2, {}), (x2y, {})],
        )

    def test_only_minimal_rule_stored(self):
        from chowcalc.varieties import enumerate_basis

        R = self.redundant_ring()
        assert [r.lead for r in R.rules] == [Monomial([(0, 2)])]
        assert enumerate_basis(R) == [
            (Monomial(),),
            (Monomial([(0, 1)]), Monomial([(1, 1)])),
            (Monomial([(0, 1), (1, 1)]), Monomial([(1, 2)])),
            (Monomial([(0, 1), (1, 2)]), Monomial([(1, 3)])),
        ]
        x, y = R.gen("x"), R.gen("y")
        assert str((x + y) ** 3) == "3*x*y^2 + y^3"
        single = RingContext(
            ["x", "y"], [1, 1], dimension=3, rules=[(Monomial([(0, 2)]), {})]
        )
        rng = random.Random(3)
        for _ in range(50):
            table = {}
            for _ in range(4):
                m = Monomial([(0, rng.randint(0, 3)), (1, rng.randint(0, 3))])
                table[m] = rng.randint(-4, 4)
            assert R._nf(table) == single._nf(table)

    def test_unimplied_multiple_kept(self):
        # x*z -> z^2 has a lead divisible by x, but x -> y sends x*z to y*z,
        # not z^2: the rule is not a consequence, so it stays and the
        # conflict stays visible.
        x, z, y = Monomial([(0, 1)]), Monomial([(2, 1)]), Monomial([(1, 1)])
        R = RingContext(
            ["x", "y", "z"], [1, 1, 1], dimension=3,
            rules=[(x, {y: 1}), (mono_mul(x, z), {mono_mul(z, z): 1})],
        )
        assert [r.lead for r in R.rules] == [x, mono_mul(x, z)]
        assert not confluence_check(R).passed

    def test_catalog_with_redundant_rules_loads(self):
        import json

        from chowcalc.varieties import (
            BundleRoots,
            CenterData,
            blow_up,
            enumerate_basis,
            presentation_from_json,
            projective_space,
        )

        P3 = projective_space(3)
        h = P3.gen("h")
        line = CenterData(
            fundamental=h * h, roots=BundleRoots.plus([h, h]), restriction={}, name="L"
        )
        Bl = blow_up(P3, line)
        leads = {Bl.ring.monomial_str(r.lead) for r in Bl.ring.rules}
        assert "h^2*e" in leads and "h^3*e" not in leads
        # A catalog written before rules were stored with minimal leads also
        # lists the dimension-kill rule for e*h^3.
        doc = Bl.to_json()
        doc["rules"].append({"lead": "h^3*e", "replacement": {}})
        back = presentation_from_json(json.loads(json.dumps(doc)))
        assert back.ring.rules == Bl.ring.rules
        assert enumerate_basis(back.ring) == [tuple(back.basis_of(d)) for d in range(4)]
        assert back.basis == Bl.basis
        e = back.gen("e")
        assert back.degree(e**3) == Bl.degree(Bl.gen("e") ** 3)


class TestSupport:
    """Leads are tested by one mask test on packed keys; the answers are
    those of the linear scans kept in ``helpers``."""

    @staticmethod
    def mask(m):
        return sum(1 << i for i, _ in exponents(m))

    def test_matching_rule_is_the_scan(self, monkeypatch):
        rings = registry_rings(monkeypatch) + tower_rings(monkeypatch)
        assert len(rings) > 150
        assert any(R.modulus == 2 for R in rings[-60:])
        for R in rings:
            basis = [m for ms in enumerate_basis(R) for m in ms]
            probes = basis + [r.lead for r in R.rules] + monomials_of_codegree(R, R.dimension + 1)
            for m in probes:
                assert R._matching_rule(m) is reference_matching_rule(R, m), (R.names, m)
            assert [t for t, _, _ in R._leads] == [self.mask(r.lead) for r in R.rules]

    def test_compact_support_is_the_generator_mask(self):
        rng = random.Random(40)
        for n in range(1, 41):
            R = free_ring([f"x{i}" for i in range(n)], 4)
            keys = [Monomial([(i, 1) for i in range(n)]), Monomial([(n - 1, MAX_EXPONENT)])]
            for _ in range(40):
                keys.append(Monomial([
                    (i, rng.choice([1, 2, MAX_EXPONENT])) for i in rng.sample(range(n), rng.randint(0, n))
                ]))
            for m in keys:
                assert rings_module._compact((m + R._low) & R._guard) == self.mask(m), (n, m)

    def test_wide_rings_match_by_the_scan(self):
        # past 16 generators a support folds in blocks of 16 fields
        rng = random.Random(42)
        for n in (17, 32, 33, 40):
            leads = {Monomial([(i, rng.randint(1, 2)) for i in rng.sample(range(n), rng.randint(1, 3))])
                     for _ in range(30)}
            R = RingContext([f"x{i}" for i in range(n)], [1] * n, rules=[(m, {}) for m in sorted(leads)])
            assert [t for t, _, _ in R._leads] == [self.mask(r.lead) for r in R.rules]
            matched = 0
            for _ in range(300):
                m = Monomial([(i, rng.randint(0, 2)) for i in rng.sample(range(n), n // 4)])
                rule = R._matching_rule(m)
                assert rule is reference_matching_rule(R, m), (n, m)
                matched += rule is not None
            assert 30 < matched < 270

    def test_stored_leads_are_the_scan(self):
        rng = random.Random(41)
        for _ in range(400):
            # few generators, so that many monomials share a support
            ms = [Monomial(random_pairs(rng, ngens=3)) for _ in range(rng.randint(0, 12))]
            ms += rng.sample(ms, min(len(ms), 3))  # repeats
            leads = [m for m in ms if m]
            minimal = reference_minimal_monomials(leads)
            assert stored_leads(ms, 3) == [m for m in leads if m in minimal], ms
        x2y, xy2, x2y2, xy3 = (Monomial([(0, a), (1, b)]) for a, b in [(2, 1), (1, 2), (2, 2), (1, 3)])
        assert stored_leads([x2y2, xy3, x2y, xy2], 2) == [x2y, xy2]

    def test_support_is_kept_by_every_constructor(self, monkeypatch):
        from chowcalc import registry

        # every key a constructor or memo holds is one the public
        # constructor builds from its pairs, in the ring's fields: registry
        # rings fill their memos through sums and differences of keys;
        # product towers shift their factors' keys
        rings = built_rings(monkeypatch, lambda: registry.run_all(seed=0)) + tower_rings(monkeypatch)
        seen = 0
        for R in rings:
            basis = [m for ms in enumerate_basis(R) for m in ms]
            for i in range(len(R.names)):
                for b in basis:
                    R._product(Monomial([(i, 1)]) + b)
            monomials = list(R._normal_forms)
            for nf in R._normal_forms.values():
                monomials += [m for m, _ in nf]
            monomials += [r.lead for r in R.rules] + basis
            for m in monomials:
                pairs = exponents(m)
                assert Monomial(pairs) == m and rings_module._compact((m + R._low) & R._guard) == self.mask(m), m
                assert all(i < len(R.names) for i, _ in pairs), (R.names, m)
            seen += len(monomials)
        assert seen > 10_000
        rng = random.Random(43)
        R = free_ring([f"x{i}" for i in range(6)], 4)
        for _ in range(200):
            a, b = Monomial(random_pairs(rng)), Monomial(random_pairs(rng))
            ab = mono_mul(a, b)
            for m in (a, b, ab, ab - a, ab - b, ab - ab):
                m = Monomial(exponents(m))
                assert rings_module._compact((m + R._low) & R._guard) == self.mask(m), m


def reused(R, base) -> list[bool]:
    """For each rule that R stores equal to the base's rule at its index,
    whether R holds the base's rule object itself."""
    return [r is base.rules[r.index] for r in R.rules
            if r.index < len(base.rules) and r == base.rules[r.index]]


class TestBase:
    """A ring built on a base ring declares the base's stored rules ahead
    of its own rules, and stores what that flat declaration stores.  A
    base with ``_all_minimal`` and a dimension at most the ring's is
    trusted, and its rules that stay as they are are reused."""

    def test_every_ring_built_on_a_base_is_the_flat_build(self, monkeypatch):
        # every ring that the registry and the towers of seeds 0-199 build
        # on a base, and those that the copies of their presentations mod 2
        # and mod 3 build (the list of presentations grows while it is walked)
        from chowcalc import registry
        from chowcalc.varieties import ChowPresentation

        built, presentations = [], []
        init, present = RingContext.__init__, ChowPresentation.__init__

        def record(self, names, codegrees, modulus=0, dimension=None, rules=(),
                   step_budget=10**6, base=None):
            rules = list(rules)
            init(self, names, codegrees, modulus, dimension, rules, step_budget, base)
            if base is not None:
                built.append((self, base, rules))

        def record_presentation(self, *args, **kwargs):
            present(self, *args, **kwargs)
            presentations.append(self)

        monkeypatch.setattr(RingContext, "__init__", record)
        monkeypatch.setattr(ChowPresentation, "__init__", record_presentation)
        registry.run_all(seed=0)
        for seed in range(200):
            random_tower(random.Random(seed))
        for X in presentations:
            X.base
            if not X.ring.modulus:
                for p in (2, 3):
                    X.with_coefficients(p)
        monkeypatch.undo()
        assert len(built) > 1000 and {R.modulus for R, _, _ in built} >= {0, 2, 3}
        for R, base, rules in built:
            flat = RingContext(
                R.names, R.codegrees, R.modulus, R.dimension,
                [(r.lead, dict(r.replacement)) for r in base.rules] + rules, R.step_budget,
            )
            assert R.rules == flat.rules and R._all_minimal is flat._all_minimal, R.names

    def test_a_copy_mod_p_is_the_flat_build(self, monkeypatch):
        # every ring the registry and the towers of seeds 0-59 build, copied
        # with no rules of its own mod 2, 3, 5 and its own modulus, stores
        # what declaring its rules mod p stores; a copy under the same
        # modulus reuses every rule of a base with _all_minimal that keeps
        # its index
        from chowcalc import registry

        rings = []
        init = RingContext.__init__

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            rings.append(self)

        monkeypatch.setattr(RingContext, "__init__", record)
        registry.run_all(seed=0)
        for seed in range(60):
            random_tower(random.Random(seed))
        monkeypatch.undo()
        assert len(rings) > 200
        copies = [(R, p, RingContext(R.names, R.codegrees, p, R.dimension, step_budget=R.step_budget, base=R))
                  for R in rings for p in {2, 3, 5, R.modulus}]
        shared = 0
        for R, p, copy in copies:
            flat = RingContext(
                R.names, R.codegrees, p, R.dimension,
                [(r.lead, {m: c % p if p else c for m, c in r.replacement}) for r in R.rules], R.step_budget,
            )
            assert copy.rules == flat.rules and copy._all_minimal is flat._all_minimal, (R.names, p)
            if p == R.modulus:
                assert all(same is R._all_minimal for same in reused(copy, R)), R.names
                shared += sum(reused(copy, R))
        assert shared > 500

    def test_a_copy_of_a_rule_kept_only_as_not_implied_is_built_in_full(self):
        # a^2 -> 2b, a^3 -> 0 (codegrees 1 and 2): over Z and mod 3, a^3 is
        # 2ab under a^2 -> 2b, so the non-minimal a^3 -> 0 is kept; mod 2
        # both sides are 0, so the copy drops it as the flat build does
        a2, a3, b = Monomial([(0, 2)]), Monomial([(0, 3)]), Monomial([(1, 1)])
        declared = [(a2, {b: 2}), (a3, {})]
        R = RingContext(["a", "b"], [1, 2], dimension=4, rules=declared)

        def stored(S):
            return [(r.lead, dict(r.replacement), r.index) for r in S.rules]

        assert stored(R) == [(a2, {b: 2}, 0), (a3, {}, 1)]
        for p, want in ((2, [(a2, {}, 0)]), (3, [(a2, {b: 2}, 0), (a3, {}, 1)])):
            copy = RingContext(["a", "b"], [1, 2], p, 4, base=R)
            assert stored(copy) == want
            assert stored(RingContext(["a", "b"], [1, 2], p, 4, rules=declared)) == want
            # a copy of the copy stores the same
            assert stored(RingContext(["a", "b"], [1, 2], p, 4, base=copy)) == want

    def test_a_copy_in_another_dimension_is_built_in_full(self):
        # x^2 -> y (codegrees 1 and 2) in dimension 2 keeps its replacement;
        # a copy in dimension 1 or 0 truncates it, as the flat build does
        x2, y = Monomial([(0, 2)]), Monomial([(1, 1)])
        R = RingContext(["x", "y"], [1, 2], dimension=2, rules=[(x2, {y: 1})])
        for dim, want in ((0, {}), (1, {}), (2, {y: 1}), (3, {y: 1}), (None, {y: 1})):
            copy = RingContext(["x", "y"], [1, 2], 3, dim, base=R)
            flat = RingContext(["x", "y"], [1, 2], 3, dim, rules=[(x2, {y: 1})])
            assert [dict(r.replacement) for r in copy.rules] == [want]
            assert copy.rules == flat.rules
        # x^2 -> y on a base of dimension 0 to 3 or none, under a ring in x,
        # y, z (codegrees 1, 2, 1) of dimension 0 to 3 or none that declares
        # z^2 -> x^2 (which the base rule rewrites), x*z -> 0 and x^2*z ->
        # y*z, a multiple of x*z that x^2 -> y implies and x^2 -> 0, its
        # truncation below dimension 2 in either ring, does not; a base of
        # dimension at most the ring's, none counting as unbounded, is
        # trusted, and its rule is reused
        z2, xz = Monomial([(2, 2)]), Monomial([(0, 1), (2, 1)])
        x2z, yz = Monomial([(0, 2), (2, 1)]), Monomial([(1, 1), (2, 1)])
        declared = [(z2, {x2: 1}), (xz, {}), (x2z, {yz: 1})]
        dims = (0, 1, 2, 3, None)
        for base_dim, dim in itertools.product(dims, dims):
            base = RingContext(["x", "y"], [1, 2], dimension=base_dim, rules=[(x2, {y: 1})])
            R = RingContext(["x", "y", "z"], [1, 2, 1], 0, dim, declared, base=base)
            flat = RingContext(["x", "y", "z"], [1, 2, 1], 0, dim,
                               [(r.lead, dict(r.replacement)) for r in base.rules] + declared)
            assert R.rules == flat.rules and R._all_minimal is flat._all_minimal, (base_dim, dim)
            trusted = dim is None or base_dim is not None and base_dim <= dim
            assert reused(R, base) == [True] if trusted else not any(reused(R, base)), (base_dim, dim)
            implied = all(d is None or d >= 2 for d in (base_dim, dim))
            assert (len(R.rules), R._all_minimal) == ((3, True) if implied else (4, False)), (base_dim, dim)

    def test_products_and_bundles_reuse_their_base_rules(self):
        # both rings are built on X's ring, of lower dimension
        from chowcalc.varieties import BundleRoots, product, projective_bundle, projective_space

        for X in (projective_space(2), projective_space(2, modulus=3),
                  product(projective_space(1), projective_space(2))):
            h = X.gen(X.ring.names[0])
            line = projective_space(1, modulus=X.ring.modulus)
            for Y in (product(X, line), projective_bundle(X, BundleRoots.plus([h, 0 * h]))):
                assert Y.dim > X.dim and X.ring._all_minimal
                assert reused(Y.ring, X.ring) == [True] * len(X.ring.rules), Y.ring.names

    def test_a_rule_kept_over_z_may_be_dropped_mod_p(self):
        # x^3 -> 2*x*y^2 is not implied by x^2 -> 0 over Z or mod 3, so it
        # is kept; mod 2 its replacement vanishes and it is implied
        from chowcalc.varieties import generic_context

        x2, x3, xy2 = Monomial([(0, 2)]), Monomial([(0, 3)]), Monomial([(0, 1), (1, 2)])
        gens, rules = [("x", 1), ("y", 1)], [(x2, {}), (x3, {xy2: 2})]
        X = generic_context(gens, 4, rules=rules)

        def stored(Y):
            return [(r.lead, dict(r.replacement), r.index) for r in Y.ring.rules]

        assert stored(X) == [(x2, {}, 0), (x3, {xy2: 2}, 1)]
        for p, want in ((3, stored(X)), (2, [(x2, {}, 0)])):
            assert stored(X.with_coefficients(p)) == want
            assert stored(generic_context(gens, 4, rules=rules, modulus=p)) == want

    X2, X2Y, XY = Monomial([(0, 2)]), Monomial([(0, 2), (1, 1)]), Monomial([(0, 1), (1, 1)])
    Y2, Z2, Z3 = Monomial([(1, 2)]), Monomial([(2, 2)]), Monomial([(2, 3)])

    def built_on(self, base, declared, trusted=True):
        """The ring in x, y, z (codegree 1), in base's dimension and
        modulus, that declares declared on base, checked against the flat
        declaration of base's rules and declared: the same rules and
        ``_all_minimal``, and each base rule it keeps as it was reused
        exactly when the base is trusted."""
        R = RingContext(["x", "y", "z"], [1] * 3, base.modulus, base.dimension, declared, base=base)
        assert all(same is trusted for same in reused(R, base))
        flat = RingContext(["x", "y", "z"], [1] * 3, base.modulus, base.dimension,
                           [(r.lead, dict(r.replacement)) for r in base.rules] + declared)
        assert R.rules == flat.rules and R._all_minimal is flat._all_minimal
        return [(r.lead, dict(r.replacement), r.index) for r in R.rules], R._all_minimal

    def test_a_declared_lead_below_an_implied_base_lead_drops_its_rule(self):
        # x^2 -> 0 implies x^2*y -> 0
        base = RingContext(["x", "y", "z"], [1] * 3, dimension=3, rules=[(self.X2Y, {})])
        assert self.built_on(base, [(self.X2, {})]) == ([(self.X2, {}, 1)], True)

    def test_a_declared_lead_below_a_base_lead_not_implied_keeps_its_rule(self):
        # under x^2 -> 0, x^2*y is 0 but z^3 is irreducible
        base = RingContext(["x", "y", "z"], [1] * 3, dimension=3, rules=[(self.X2Y, {self.Z3: 1})])
        assert self.built_on(base, [(self.X2, {})]) == (
            [(self.X2Y, {self.Z3: 1}, 0), (self.X2, {}, 1)], False)

    def test_a_declared_lead_dividing_a_base_replacement_reduces_it_again(self):
        base = RingContext(["x", "y", "z"], [1] * 3, dimension=3, rules=[(self.XY, {self.Z2: 2})])
        assert self.built_on(base, [(self.Z2, {self.Y2: 3})]) == (
            [(self.XY, {self.Y2: 6}, 0), (self.Z2, {self.Y2: 3}, 1)], True)

    def test_a_declared_lead_equal_to_a_base_lead_keeps_both(self):
        base = RingContext(["x", "y", "z"], [1] * 3, dimension=3, rules=[(self.X2, {self.Y2: 1})])
        assert self.built_on(base, [(self.X2, {self.Z2: 1})]) == (
            [(self.X2, {self.Y2: 1}, 0), (self.X2, {self.Z2: 1}, 1)], True)

    def test_a_base_with_a_rule_kept_only_as_not_implied_is_built_in_full(self):
        base = RingContext(["x", "y", "z"], [1] * 3, dimension=3, rules=[(self.X2Y, {self.Z3: 1}), (self.X2, {})])
        assert not base._all_minimal
        # under z^2 -> 0, z^3 is 0 too, so x^2*y -> z^3 is now implied
        assert self.built_on(base, [(self.Z2, {})], trusted=False) == (
            [(self.X2, {}, 1), (self.Z2, {}, 2)], True)

    def test_a_mod_p_base_with_declared_rules_is_the_flat_build(self):
        # mod 3, 2 * 2 = 1, so x*y -> 2z^2 becomes x*y -> y^2 under z^2 -> 2y^2;
        # x^2*z -> 0 is dropped below x^2 -> 0
        x2z = Monomial([(0, 2), (2, 1)])
        base = RingContext(["x", "y", "z"], [1] * 3, 3, 3, [(self.XY, {self.Z2: 2}), (x2z, {})])
        assert self.built_on(base, [(self.Z2, {self.Y2: 2}), (self.X2, {})]) == (
            [(self.XY, {self.Y2: 1}, 0), (self.Z2, {self.Y2: 2}, 2), (self.X2, {}, 3)], True)

    def test_declared_rules_on_a_base_mod_another_modulus_are_the_flat_build(self):
        # over Z, x*y -> 2z^2 keeps its coefficient; mod 2 it becomes x*y -> 0
        base = RingContext(["x", "y", "z"], [1] * 3, dimension=3, rules=[(self.XY, {self.Z2: 2})])
        for p in (2, 3):
            R = RingContext(["x", "y", "z"], [1] * 3, p, 3, [(self.Z2, {self.Y2: 1})], base=base)
            flat = RingContext(["x", "y", "z"], [1] * 3, p, 3, [(self.XY, {self.Z2: 2}), (self.Z2, {self.Y2: 1})])
            assert R.rules == flat.rules and R._all_minimal is flat._all_minimal
        assert dict(R.rules[0].replacement) == {self.Y2: 2}

    def test_base_codegrees_must_be_a_prefix(self):
        base = RingContext(["x", "y"], [1, 2], rules=[(Monomial([(0, 2)]), {Monomial([(1, 1)]): 1})])
        for names, codegrees in ((["x", "y", "z"], [1, 1, 2]), (["x"], [1]), (["y", "x"], [2, 1])):
            with pytest.raises(ValueError, match="prefix"):
                RingContext(names, codegrees, base=base)
        # only codegrees are compared: the names may differ
        R = RingContext(["a", "b", "c"], [1, 2, 1], base=base)
        assert R.rules == base.rules and R.gen("a") ** 2 == R.gen("b")

    def test_stored_rules_are_values(self):
        # a ring built on a base stores rules equal to, and hashed as, the
        # rules of the flat build: a rule compares by lead, replacement and
        # index, never by identity
        x2, xy, y2 = Monomial([(0, 2)]), Monomial([(0, 1), (1, 1)]), Monomial([(1, 2)])
        base = RingContext(["x", "y"], [1, 1], dimension=3, rules=[(x2, {})])
        R = RingContext(["x", "y", "z"], [1, 1, 1], dimension=3, rules=[(xy, {y2: 2})], base=base)
        flat = RingContext(["x", "y", "z"], [1, 1, 1], dimension=3, rules=[(x2, {}), (xy, {y2: 2})])
        assert R.rules == flat.rules and hash(R.rules) == hash(flat.rules)
        assert len({*R.rules, *flat.rules}) == 2
        assert flat.rules == (RewriteRule(x2, ()), RewriteRule(xy, ((y2, 2),), 1))
        assert RewriteRule(x2, ()) != RewriteRule(x2, (), 1) and RewriteRule(x2, ()) != (x2, (), 0)
        assert repr(flat.rules[0]) == f"RewriteRule(lead={x2!r}, replacement=(), index=0)"


class TestRefusals:
    @pytest.mark.parametrize("names, codegrees, kwargs, message", [
        (["x", "x"], [1, 1], {}, "duplicate generator names"),
        (["x", "y"], [1], {}, "names/codegrees length mismatch"),
        (["x", "y"], [1, 0], {}, "generator codegrees must be positive"),
        (["x"], [-2], {}, "generator codegrees must be positive"),
        (["x"], [1], {"modulus": 4}, "modulus 4 is not prime"),
        (["x"], [1], {"modulus": 1}, "modulus 1 is not prime"),
        (["x"], [1], {"modulus": 2.0}, "modulus 2.0 is not an integer"),
        (["x"], [1], {"modulus": True}, "modulus True is not an integer"),
        (["x"], [1], {"dimension": -1}, "dimension -1 is negative"),
    ], ids=["duplicate-names", "length-mismatch", "zero-codegree", "negative-codegree",
            "modulus-4", "modulus-1", "modulus-float", "modulus-bool", "negative-dimension"])
    def test_constructor_refuses(self, names, codegrees, kwargs, message):
        with pytest.raises(ValueError) as info:
            RingContext(names, codegrees, **kwargs)
        assert str(info.value) == message

    def test_unit_lead_is_refused(self):
        with pytest.raises(InvalidRule, match="^unit monomial cannot be a rule lead$"):
            RingContext(["x"], [1], rules=[(MONOMIAL_ONE, {})])

    def test_inhomogeneous_replacement_is_refused(self):
        x2, y = Monomial([(0, 2)]), Monomial([(1, 1)])
        with pytest.raises(InvalidRule) as info:
            RingContext(["x", "y"], [1, 1], rules=[(x2, {y: 1})])
        assert str(info.value) == "inhomogeneous rule: lead codegree 2, replacement has codegree 1"
