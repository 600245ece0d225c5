import itertools
import random

import pytest

from chowcalc.characteristic import (
    NotSteenrodClosed,
    _steenrod_images,
    _verify_closure,
    chern_class,
    chern_total,
    d_class,
    d_class_from_roots,
    d_class_from_total,
    embedded_power,
    homological_power,
    reduced_power,
    segre_total,
    steenrod_embedded,
    steenrod_total,
)
from chowcalc.rings import (
    GradedClass,
    Monomial,
    RingError,
    evaluate,
    inverse_series,
)
from chowcalc.varieties import (
    BundleRoots,
    CenterData,
    TangentUnavailable,
    blow_up,
    generic_context,
    product,
    projective_bundle,
    projective_space,
)
from helpers import basis_classes, bl_point_plane, kept_under, random_class, random_tower, symmetric_expand


def rand_roots(ring, rng, count):
    gens = [ring.gen(n) for n in ring.names if ring.codegrees[ring.gen_index(n)] == 1]
    entries = []
    for _ in range(count):
        cls = ring.zero()
        for g in gens:
            cls = cls + rng.randint(-1, 2) * g
        entries.append(cls)
    return BundleRoots(ring, tuple(entries))


class TestChernSegre:
    def test_symmetric_fiber_roots(self):
        G = generic_context([("r", 1)], 4)
        r = G.gen("r")
        roots = BundleRoots(G.ring, (-r, G.zero(), r))
        assert chern_class(roots, 2) == -(r * r)

    def test_opposite_roots(self):
        # c(L + L^-1) = (1 + x)(1 - x) = 1 - x^2, and its inverse truncated
        # at dimension 3 is 1 + x^2
        G = generic_context([("x", 1)], 3)
        x = G.gen("x")
        roots = BundleRoots.plus([x, -x])
        assert chern_total(roots) == G.one() - x * x
        assert segre_total(roots) == G.one() + x * x

    def test_repeated_root(self):
        P3 = projective_space(3)
        h = P3.gen("h")
        roots = BundleRoots.plus([h, h])
        assert chern_total(roots) == P3.one() + 2 * h + h * h

    def test_whitney(self):
        G = generic_context([("x", 1), ("y", 1)], 4)
        rng = random.Random(2)
        for _ in range(30):
            a = rand_roots(G.ring, rng, 2)
            b = rand_roots(G.ring, rng, 2)
            assert chern_total(BundleRoots(a.ring, a.entries + b.entries)) == chern_total(a) * chern_total(b)

    def test_segre_geometric_series(self):
        G = generic_context([("x", 1)], 4)
        x = G.gen("x")
        s = segre_total(BundleRoots.plus([x]))
        assert s == G.one() - x + x**2 - x**3 + x**4

    def test_segre_inverts_chern(self):
        G = generic_context([("x", 1), ("y", 1)], 5)
        rng = random.Random(4)
        for _ in range(30):
            roots = rand_roots(G.ring, rng, 3)
            assert chern_total(roots) * segre_total(roots) == G.one()

    def test_zero_roots(self):
        G = generic_context([("x", 1)], 3)
        roots = BundleRoots.plus([G.zero()] * 3, ring=G.ring)
        assert segre_total(roots) == G.one()


class TestSteenrodTotal:
    def test_p0_is_identity(self):
        P4 = projective_space(4).with_coefficients(2)
        rng = random.Random(6)
        for _ in range(20):
            c = random_class(P4.ring, rng)
            for d in c.codegrees():
                assert reduced_power(P4, c.homogeneous_part(d), 0) == c.homogeneous_part(d)

    def test_total_on_hyperplane(self):
        P4 = projective_space(4).with_coefficients(2)
        h = P4.gen("h")
        assert steenrod_total(P4, h) == h + h * h

    @pytest.mark.parametrize("p", [2, 3])
    def test_cartan_randomized(self, p):
        X = generic_context([("x", 1), ("y", 1)], 5, modulus=p)
        rng = random.Random(p)
        for _ in range(300):
            a = random_class(X.ring, rng, terms=2)
            b = random_class(X.ring, rng, terms=2)
            assert steenrod_total(X, a * b) == steenrod_total(X, a) * steenrod_total(X, b)

    def test_vanishing_above_dimension(self):
        P3 = projective_space(3).with_coefficients(2)
        h = P3.gen("h")
        assert reduced_power(P3, h * h, 2).is_zero()  # lands in codegree 4 > 3

    def test_requires_finite_coefficients(self):
        P2 = projective_space(2)
        with pytest.raises(RingError, match="F_p"):
            steenrod_total(P2, P2.gen("h"))
        with pytest.raises(RingError, match="F_p"):
            homological_power(P2, P2.gen("h"), 1)
        # raised before either cache is read
        assert kept_under(P2, "steenrod") == {} == kept_under(P2, "d-minus-tangent")

    def test_closure_check_rejects_bad_rules(self):
        # x^2 -> yz is not stable under x -> x + x^2: the obstruction
        # y z^2 + y^2 z survives reduction
        bad = generic_context(
            [("x", 1), ("y", 1), ("z", 1)], 4, modulus=2,
            rules=[(Monomial([(0, 2)]), {Monomial([(1, 1), (2, 1)]): 1})],
        )
        # a failed check is not kept: every call checks and raises again
        for _ in range(2):
            with pytest.raises(NotSteenrodClosed):
                steenrod_total(bad, bad.gen("x"))
        assert kept_under(bad, "steenrod") == {}

    def test_top_codegree_generator_maps_to_itself(self):
        # no room above the top codegree for pt + pt^2
        X = generic_context([("x", 1), ("pt", 2)], 2, modulus=2)
        x, pt = X.gen("x"), X.gen("pt")
        assert _steenrod_images(X) == {"x": x + x * x, "pt": pt}
        assert steenrod_total(X, x + pt) == x + x * x + pt

    def test_intermediate_codegree_generator_is_refused(self):
        X = generic_context([("x", 1), ("y", 2)], 3, modulus=2)
        for _ in range(2):
            with pytest.raises(NotSteenrodClosed, match="generator 'y' has codegree 2"):
                steenrod_total(X, X.gen("x"))
        assert kept_under(X, "steenrod") == {}

    @pytest.mark.parametrize("p", [2, 3])
    def test_inhomogeneous_class_is_the_sum_over_its_parts(self, p):
        X = generic_context([("x", 1), ("y", 1)], 5, modulus=p)
        x, y = X.gen("x"), X.gen("y")
        # P^1 raises codegree by p - 1: P^1(x) = x^p, P^1(xy) = x^p y + x y^p
        assert reduced_power(X, x + x * y, 1) == x**p + x**p * y + x * y**p
        assert reduced_power(X, X.one() + x + x * y, 0) == X.one() + x + x * y
        rng = random.Random(p)
        classes = [random_class(X.ring, rng, terms=4) for _ in range(20)]
        assert any(c.codegree is None and c.codegrees() for c in classes)
        for c in classes:
            for i in range(3):
                parts = [reduced_power(X, c.homogeneous_part(d), i) for d in sorted(c.codegrees())]
                assert reduced_power(X, c, i) == sum(parts, X.zero())

    def test_blowup_rules_are_closed(self):
        P2 = projective_space(2)
        center = CenterData(
            fundamental=P2.gen("h") ** 2,
            roots=BundleRoots.plus([P2.zero(), P2.zero()], ring=P2.ring),
            restriction={"h": P2.zero()},
        )
        Bl = blow_up(P2, center).with_coefficients(2)
        # run the closure check directly: constructor builds are exempt
        _verify_closure(Bl, _steenrod_images(Bl))
        h = Bl.gen("h")
        assert steenrod_total(Bl, h) == h + h * h


def declared_copy(X, p):
    """X's ring declared afresh, with its rules, as a generic context mod p:
    not cellular, so the total operation checks every rule first."""
    ring = X.ring
    return generic_context(
        list(zip(ring.names, ring.codegrees)), X.dim, modulus=p,
        rules=[(r.lead, dict(r.replacement)) for r in ring.rules],
    )


def memo_presentations():
    """Builders of random towers mod 2, 3 and 5, rule-free generic rings,
    and a point blow-up of P^2 declared with its rules."""
    out = []
    for seed in range(0, 40, 4):
        for p in (2, 3, 5):
            out.append(pytest.param(
                lambda s=seed, p=p: random_tower(random.Random(s)).with_coefficients(p),
                id=f"tower-{seed}-mod{p}"))
    for p in (2, 3, 5):
        out.append(pytest.param(
            lambda p=p: generic_context([("x", 1), ("y", 1), ("z", 1)], 5, modulus=p),
            id=f"generic-mod{p}"))
        out.append(pytest.param(
            lambda p=p: declared_copy(bl_point_plane()[1], p), id=f"blowup-mod{p}"))
    return out


class TestSteenrodMemo:
    """The total operation memoised on monomials equals the ring map applied
    by ``evaluate`` to the generator images, term by term."""

    @pytest.mark.parametrize("build", memo_presentations())
    def test_equals_evaluate(self, build):
        X = build()
        rng = random.Random(X.dim * 10 + X.ring.modulus)
        for k in range(12):
            # mixed codegrees, then a single codegree
            c = random_class(X.ring, rng, terms=4)
            if k % 2:
                c = c.homogeneous_part(rng.choice(sorted(c.codegrees() or {0})))
            reference = evaluate(c, _steenrod_images(X), X.ring)
            total = steenrod_total(X, c)
            assert total.table == reference.table
            assert str(total) == str(reference)

    def test_memoised_monomials_need_no_products(self, monkeypatch):
        X = declared_copy(bl_point_plane()[1], 3)
        rng = random.Random(5)
        classes = [random_class(X.ring, rng, terms=4) for _ in range(10)]
        first = [steenrod_total(X, c) for c in classes]
        calls = []
        mul = GradedClass.__mul__
        monkeypatch.setattr(GradedClass, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        assert [steenrod_total(X, c) for c in classes] == first
        assert calls == []

    def test_class_of_another_ring_after_fill(self):
        X = generic_context([("x", 1), ("y", 1)], 4, modulus=2)
        Y = generic_context([("x", 1), ("y", 1)], 4, modulus=2)
        x = X.gen("x")
        assert steenrod_total(X, x) == x + x * x
        assert kept_under(X, "steenrod")[()]
        with pytest.raises(RingError, match="does not live"):
            steenrod_total(X, Y.gen("x"))


class TestSteenrodEmbedded:
    def test_codim2_parts_mod2(self):
        X = generic_context([("x", 1), ("y", 1)], 5, modulus=2)
        x, y = X.gen("x"), X.gen("y")
        S = x * y
        N = BundleRoots.plus([x, y])
        assert embedded_power(X, S, N, 1) == (x + y) * S
        assert embedded_power(X, S, N, 2) == (x * y) * S

    def test_codim2_part_mod3(self):
        X = generic_context([("x", 1), ("y", 1)], 6, modulus=3)
        x, y = X.gen("x"), X.gen("y")
        S = x * y
        N = BundleRoots.plus([x, y])
        assert embedded_power(X, S, N, 1) == ((x + y) ** 2 + x * y) * S

    def test_requires_finite_coefficients(self):
        X = generic_context([("x", 1)], 3)
        with pytest.raises(Exception):
            steenrod_embedded(X, X.gen("x"), BundleRoots.plus([X.gen("x")]))

    @pytest.mark.parametrize("p", [2, 3])
    def test_complete_intersection_consistency(self, p):
        # for a product of codegree-1 classes with matching normal roots the
        # embedded operation agrees with the ring endomorphism, exhaustively
        # over small complete intersections up to dimension 5
        X = generic_context([("x", 1), ("y", 1), ("z", 1)], 5, modulus=p)
        gens = [X.gen("x"), X.gen("y"), X.gen("z")]
        for k in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(gens, k):
                S = X.one()
                for g in combo:
                    S = S * g
                if S.is_zero():
                    continue
                roots = BundleRoots.plus(list(combo), ring=X.ring)
                assert steenrod_embedded(X, S, roots) == steenrod_total(X, S)


class TestDClass:
    def test_p2_is_total_chern(self):
        X = generic_context([("x", 1), ("y", 1)], 4, modulus=2)
        roots = BundleRoots.plus([X.gen("x"), X.gen("y")])
        assert d_class_from_roots(roots, 2) == chern_total(roots)
        assert d_class_from_total(chern_total(roots), 2) == chern_total(roots)

    def test_p3_rank2_leading_term(self):
        X = generic_context([("x", 1), ("y", 1)], 6, modulus=3)
        roots = BundleRoots.plus([X.gen("x"), X.gen("y")])
        d = d_class(roots, 3)
        c1 = X.gen("x") + X.gen("y")
        c2 = X.gen("x") * X.gen("y")
        assert d.homogeneous_part(2) == c1 * c1 + c2  # == c1^2 - 2 c2 mod 3

    def test_p2_returns_the_total(self):
        X = generic_context([("x", 1), ("y", 1)], 3)
        x, y = X.gen("x"), X.gen("y")
        c = X.one() + 3 * x - y + x * y + 2 * y**3
        assert d_class_from_total(c, 2) == c
        with pytest.raises(ValueError, match="constant term 1"):
            d_class_from_total(c + X.one(), 2)

    def test_rank_zero(self):
        X = generic_context([("x", 1)], 3)
        roots = BundleRoots(X.ring, ())
        assert d_class(roots, 5) == X.one()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_dispatch_on_a_total_class(self, p):
        X = generic_context([("x", 1), ("y", 1)], 6, modulus=p)
        roots = BundleRoots.plus([X.gen("x"), X.gen("y")])
        total = chern_total(roots)
        assert d_class(total, p) == d_class_from_total(total, p) == d_class(roots, p)

    @pytest.mark.parametrize("p", [4, 1, 0, -3])
    def test_non_prime_modulus_is_refused(self, p):
        X = generic_context([("x", 1), ("y", 1)], 4)
        roots = BundleRoots.plus([X.gen("x"), X.gen("y")])
        with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
            d_class(roots, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_dual_route_agreement(self, p):
        X = generic_context([("x", 1), ("y", 1), ("z", 1)], 6, modulus=p)
        rng = random.Random(p + 10)
        for _ in range(15):
            roots = rand_roots(X.ring, rng, 3)
            total = chern_total(roots)
            assert d_class_from_roots(roots, p) == d_class_from_total(total, p)


def newton_d_class(total, p):
    """d(T) by the Newton reference: the universal expansion of
    prod (1 + x^(p-1)) in c_1..c_r, evaluated at the parts of T."""
    ring = total.ring
    rank = max(ring.dimension, 1)
    universal = symmetric_expand(p - 1, rank, ring.dimension)
    return evaluate(universal, {f"c{i}": total.homogeneous_part(i) for i in range(1, rank + 1)}, ring)


def untwisted_d_class(total, p):
    """T * prod_{a=2}^{p-1} c_a(T) with c_a(T) = sum_j a^j c_j(T): the
    product of d_class_from_total before its sign twist."""
    out = total
    for a in range(2, p):
        c_a = total.ring.zero()
        for j in total.codegrees():
            c_a = c_a + total.homogeneous_part(j).scale(a**j)
        out = out * c_a
    return out


class TestDClassFromTotal:
    """d_class_from_total against the Newton reference, on totals that are
    not built from roots and on the tangents of random towers."""

    @staticmethod
    def totals(p, towers):
        rng = random.Random(100 + p)
        for gens in ([("x", 1), ("y", 1)], [("x", 1), ("u", 2)]):
            for dim in range(1, 9):
                G = generic_context(gens, dim, modulus=p)
                for _ in range(2):
                    c = random_class(G.ring, rng, terms=4)
                    yield G.one() + c - c.homogeneous_part(0)
        for X in towers:
            yield X.with_coefficients(p).tangent_class()

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_newton_reference(self, p, towers_with_tangent):
        untwisted_differs = False
        for T in self.totals(p, towers_with_tangent):
            ref = newton_d_class(T, p)
            assert d_class_from_total(T, p) == ref
            P = untwisted_d_class(T, p)
            assert all(d % (p - 1) == 0 for d in P.codegrees())
            untwisted_differs |= P != ref
        # negative control: the sign twist is needed
        assert untwisted_differs

    def test_coefficients_must_be_mod_p(self):
        for modulus in (0, 5):
            G = generic_context([("x", 1)], 3, modulus=modulus)
            with pytest.raises(RingError, match="F_3"):
                d_class_from_total(G.one() + G.gen("x"), 3)
        G = generic_context([("x", 1)], 3)
        T = G.one() + G.gen("x")
        assert d_class_from_total(T, 2) is T


class TestHomological:
    def test_p0_identity(self):
        P3 = projective_space(3).with_coefficients(2)
        rng = random.Random(8)
        for _ in range(20):
            c = random_class(P3.ring, rng)
            for d in c.codegrees():
                part = c.homogeneous_part(d)
                assert homological_power(P3, part, 0) == part

    def test_curve_class_in_threefold(self):
        # S a line in P^3 embedded by two hyperplanes: the degree-1
        # homological operation is multiplication by c_1(-T_S)
        P3 = projective_space(3).with_coefficients(2)
        h = P3.gen("h")
        S = h * h
        c1_normal = 2 * h          # from the two hyperplane roots
        c1_ambient = P3.tangent_class().homogeneous_part(1)
        expected = (c1_normal - c1_ambient) * S
        assert homological_power(P3, S, 1) == expected
        assert P3.degree(homological_power(P3, S, 1)) == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reconstruction_on_projective_space(self, n):
        X = projective_space(n).with_coefficients(2)
        dT = d_class_from_total(X.tangent_class(), 2)
        rng = random.Random(n)
        for _ in range(15):
            c = random_class(X.ring, rng)
            for d in sorted(c.codegrees()):
                part = c.homogeneous_part(d)
                for i in range(0, n - d + 1):
                    lhs = X.zero()
                    for l in range(0, i + 1):
                        dl = dT.homogeneous_part(l)
                        if not dl.is_zero():
                            lhs = lhs + dl * homological_power(X, part, i - l)
                    assert lhs == reduced_power(X, part, i)

    def test_reconstruction_on_bundle_towers(self):
        P1 = projective_space(1)
        Q = product(P1, P1)
        towers = [
            projective_bundle(P1, BundleRoots.plus([P1.zero(), P1.gen("h")])),
            projective_bundle(Q, BundleRoots.plus([Q.zero(), Q.gen("h_1")], ring=Q.ring)),
        ]
        for tower in towers:
            X = tower.with_coefficients(2)
            dT = d_class_from_total(X.tangent_class(), 2)
            rng = random.Random(13)
            for _ in range(10):
                c = random_class(X.ring, rng, terms=2)
                for d in sorted(c.codegrees()):
                    part = c.homogeneous_part(d)
                    for i in range(0, X.dim - d + 1):
                        lhs = X.zero()
                        for l in range(0, i + 1):
                            dl = dT.homogeneous_part(l)
                            if not dl.is_zero():
                                lhs = lhs + dl * homological_power(X, part, i - l)
                        assert lhs == reduced_power(X, part, i)

    def test_degree_of_positive_operations_vanishes(self):
        # classes of complementary codegree push to the point, where every
        # positive-degree operation is zero
        for p, X0 in [(2, projective_space(4)), (3, projective_space(5))]:
            X = X0.with_coefficients(p)
            rng = random.Random(p)
            for i in (1, 2):
                d = X.dim - i * (p - 1)
                if d < 0:
                    continue
                for _ in range(10):
                    c = random_class(X.ring, rng).homogeneous_part(d)
                    assert X.degree(homological_power(X, c, i)) == 0

    def test_tangent_required(self):
        X = generic_context([("x", 1)], 3, modulus=2)
        for _ in range(2):
            with pytest.raises(TangentUnavailable):
                homological_power(X, X.gen("x"), 1)
        assert kept_under(X, "d-minus-tangent") == {}

    def test_d_minus_tangent_computed_once(self, monkeypatch):
        import chowcalc.characteristic as ch

        calls = []
        d_from_total = ch.d_class_from_total

        def counted(total, p):
            calls.append(p)
            return d_from_total(total, p)

        monkeypatch.setattr(ch, "d_class_from_total", counted)
        X = projective_space(4).with_coefficients(3)
        h = X.gen("h")
        first = homological_power(X, h, 1)
        assert homological_power(X, h, 1) == first
        assert calls == [3]
        assert kept_under(X, "d-minus-tangent")[()] == inverse_series(d_from_total(X.tangent_class(), 3))


def homological_from(X, T, z, i):
    """P_i(z) by the formula of ``homological_power`` with T in place of the
    tangent of X."""
    p = X.ring.modulus
    d_minus = inverse_series(d_class_from_total(T, p))
    out = X.zero()
    for m in range(i + 1):
        out = out + d_minus.homogeneous_part(m * (p - 1)) * reduced_power(X, z, i - m)
    return out


def srr_failures(X, homological):
    """Basis classes z of codegree n - i(p-1), i >= 1, whose P_i(z) has
    degree nonzero mod p.  Steenrod-Riemann-Roch: homological operations
    commute with pushforward to a point, where every P_i with i >= 1 is 0."""
    p, n = X.ring.modulus, X.dim
    out = []
    for i in range(1, n // (p - 1) + 1):
        for z in basis_classes(X, n - i * (p - 1)):
            if X.degree(homological(z, i)) % p:
                out.append((i, str(z)))
    return out


@pytest.fixture(scope="module")
def towers_with_tangent():
    towers = [random_tower(random.Random(seed)) for seed in range(60)]
    return [X for X in towers if X.has_tangent]


class TestTangentOracles:
    """Tangents checked against facts not taken from the engine: SRR and the
    Euler characteristic of a cellular variety, over random towers."""

    def test_tower_sample(self, towers_with_tangent):
        assert len(towers_with_tangent) == 37
        checks = 0
        for X in towers_with_tangent:
            for p in (2, 3, 5):
                checks += sum(len(X.basis_of(X.dim - i * (p - 1)))
                              for i in range(1, X.dim // (p - 1) + 1))
        assert checks == 544

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_steenrod_riemann_roch(self, p, towers_with_tangent):
        for X0 in towers_with_tangent:
            X = X0.with_coefficients(p)
            assert srr_failures(X, lambda z, i: homological_power(X, z, i)) == [], X.name

    def test_euler_characteristic(self, towers_with_tangent):
        for X in towers_with_tangent:
            top = X.tangent_class().homogeneous_part(X.dim)
            assert X.degree(top) == sum(len(X.basis_of(d)) for d in range(X.dim + 1)), X.name

    def test_wrong_tangent_fails_srr(self, towers_with_tangent):
        # T * (1 + last generator) is not the tangent: SRR flags each tower
        for X0 in towers_with_tangent:
            flagged = []
            for p in (2, 3, 5):
                X = X0.with_coefficients(p)
                wrong = X.tangent_class() * (X.one() + X.gen(X.ring.names[-1]))
                flagged += srr_failures(X, lambda z, i: homological_from(X, wrong, z, i))
            assert flagged, X0.name
