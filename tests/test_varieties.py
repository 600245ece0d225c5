import gc
import itertools
import json
import random
import weakref
from pathlib import Path

import pytest

from chowcalc.numeric import gamma_quotient, kernel_is_ideal, pairing_report
from chowcalc.rings import Monomial, RingContext, RingError, exponents
from chowcalc.varieties import (
    BundleRoots,
    CenterData,
    ChowPresentation,
    ContextMismatch,
    CoverageError,
    _truncated_leads,
    blow_up,
    chern_class,
    enumerate_basis,
    generic_context,
    presentation_from_json,
    product,
    projective_bundle,
    projective_space,
)
from helpers import (
    basis_classes,
    counting,
    kept_under,
    random_class,
    random_tower,
    reference_blow_up_basis,
    reference_divides,
    reference_irreducible_monomials,
    reference_kill_leads,
    reference_truncated_leads,
    restriction_fixed,
)


def bl_point_plane():
    P2 = projective_space(2)
    center = CenterData(
        fundamental=P2.gen("h") ** 2,
        roots=BundleRoots.plus([P2.zero(), P2.zero()], ring=P2.ring),
        restriction={"h": P2.zero()},
        name="pt",
    )
    return P2, blow_up(P2, center)


class TestProjectiveSpace:
    def test_point(self):
        P0 = projective_space(0)
        assert [len(P0.basis_of(d)) for d in range(1)] == [1]
        assert P0.degree(P0.one()) == 1

    def test_plane(self):
        P2 = projective_space(2)
        h = P2.gen("h")
        assert [len(P2.basis_of(d)) for d in range(3)] == [1, 1, 1]
        assert P2.degree(h * h) == 1
        assert (h**3).is_zero()

    def test_tangent_part(self):
        P2 = projective_space(2)
        assert P2.tangent_class().homogeneous_part(1) == 3 * P2.gen("h")


class TestRootsAndCenters:
    def test_roots_refuse_a_foreign_root(self):
        P2, P3 = projective_space(2), projective_space(3)
        with pytest.raises(ContextMismatch, match="^root lives in a different ring$"):
            BundleRoots(P2.ring, (P2.gen("h"), P3.gen("h")))

    def test_roots_refuse_a_root_of_another_codegree(self):
        P2 = projective_space(2)
        h = P2.gen("h")
        with pytest.raises(ValueError, match="bundle roots must be homogeneous of codegree 1"):
            BundleRoots(P2.ring, (h * h,))
        roots = BundleRoots(P2.ring, (h, P2.zero()))
        assert roots.rank == 2 and roots.entries == (h, P2.zero())

    def test_center_built_by_keyword(self):
        # as the benchmark's towers build a point center
        P2, Bl = bl_point_plane()
        h = P2.gen("h")
        center = Bl.center
        assert (center.fundamental, center.restriction, center.name, center.codim) == (
            h**2, {"h": P2.zero()}, "pt", 2)
        assert [len(Bl.basis_of(d)) for d in range(3)] == [1, 2, 1]
        # the defaults: a fresh restriction for each center, and the name Z
        a, b = CenterData(h, BundleRoots.plus([h])), CenterData(h, BundleRoots.plus([h]))
        a.restriction["h"] = h
        assert b.restriction == {} and b.name == "Z" and b.codim == 1


class TestProduct:
    def test_two_lines(self):
        P1 = projective_space(1)
        Q = product(P1, P1)
        assert sorted(Q.ring.names) == ["h_1", "h_2"]
        h1, h2 = Q.gen("h_1"), Q.gen("h_2")
        assert Q.degree(h1 * h2) == 1
        assert Q.degree(h1 * h1) == 0
        assert [len(Q.basis_of(d)) for d in range(3)] == [1, 2, 1]

    def test_point_is_unit(self):
        P2 = projective_space(2)
        Q = product(P2, projective_space(0))
        assert [len(Q.basis_of(d)) for d in range(3)] == [1, 1, 1]
        assert Q.degree(Q.gen("h_1") ** 2) == 1

    def test_mixed_top_degree(self):
        # both factors name their generator h: the product's ring, built on
        # P2's ring, names them h_1 and h_2 and keeps P2's rule h_1^3 -> 0
        P2 = projective_space(2)
        W = product(P2, projective_space(3))
        assert W.ring.names == ("h_1", "h_2") and W.ring.rules[0] == P2.ring.rules[0]
        h1, h2 = W.gen("h_1"), W.gen("h_2")
        assert (h1**3).is_zero() and (h2**4).is_zero()
        assert W.degree(h1**2 * h2**3) == 1

    def test_factor_truncation_survives(self):
        # x*y vanishes on the curve base by truncation alone; the product
        # has room above dim 1 and must kill it by rule
        X = generic_context([("x", 1), ("y", 1)], 1)
        Q = product(X, projective_space(1))
        x, y = Q.gen("x"), Q.gen("y")
        assert (x * y).is_zero()
        assert (x * x).is_zero() and (y * y).is_zero()
        assert Q.coordinates(x * y, 2) == [0, 0]
        assert Q.coordinates(x * Q.gen("h"), 2) == [1, 0]


class TestProjectiveBundle:
    def test_trivial_bundle_over_point(self):
        pt = projective_space(0)
        B = projective_bundle(pt, BundleRoots.plus([pt.zero()] * 3, ring=pt.ring))
        xi = B.gen("xi")
        assert B.dim == 2
        assert (xi**3).is_zero()
        assert B.degree(xi**2) == 1

    def test_twisted_bundle_over_line(self):
        # frozen oracle: pushing xi^2 down gives the first Segre class -h,
        # so the top self-intersection has degree -1
        P1 = projective_space(1)
        h = P1.gen("h")
        B = projective_bundle(P1, BundleRoots.plus([P1.zero(), h]))
        xi = B.gen("xi")
        assert xi * xi == -(xi * B.gen("h"))
        assert B.degree(xi**2) == -1

    def test_bundle_with_a_negative_root(self):
        # P(O + O(-1)) over P^1: c(E) = 1 - h, so xi^2 = h*xi, and pushing
        # xi^2 down gives the first Segre class h
        P1 = projective_space(1)
        h = P1.gen("h")
        B = projective_bundle(P1, BundleRoots.plus([P1.zero(), -h]))
        xi = B.gen("xi")
        assert xi * xi == xi * B.gen("h")
        assert B.pushforward(xi**2) == h
        assert B.degree(xi**2) == 1

    def test_pushforward_segre(self):
        P2 = projective_space(2)
        h = P2.gen("h")
        B = projective_bundle(P2, BundleRoots.plus([P2.zero(), h, 2 * h]))
        xi = B.gen("xi")
        # s_0 = 1; s_1 = -c_1 = -3h; s_2 = c_1^2 - c_2 = 9h^2 - 2h^2
        assert B.pushforward(xi**2) == P2.one()
        assert B.pushforward(xi**3) == -3 * h
        assert B.pushforward(xi**4) == 7 * h * h
        assert B.pushforward(xi).is_zero()

    def test_grothendieck_relation_reduces_to_zero(self):
        P2 = projective_space(2)
        h = P2.gen("h")
        roots = [P2.zero(), h, 2 * h]
        B = projective_bundle(P2, BundleRoots.plus(roots))
        xi = B.gen("xi")
        total = B.zero()
        for k, c in enumerate([B.one(), 3 * B.gen("h"), 2 * B.gen("h") ** 2]):
            # c_j of the roots, pulled back
            pass
        rel = xi**3 + 3 * B.gen("h") * xi**2 + 2 * (B.gen("h") ** 2) * xi
        assert rel.is_zero()

    def test_basis_recursion(self):
        P2 = projective_space(2)
        B = projective_bundle(P2, BundleRoots.plus([P2.zero(), P2.gen("h")]))
        assert sum(len(B.basis_of(d)) for d in range(B.dim + 1)) == 2 * 3

    def test_base_truncation_survives(self):
        X = generic_context([("x", 1), ("y", 1)], 1)
        B = projective_bundle(X, BundleRoots.plus([X.zero(), X.zero()]))
        x, y, xi = B.gen("x"), B.gen("y"), B.gen("xi")
        assert (x * y).is_zero()
        assert B.coordinates(x * y, 2) == [0, 0]
        assert B.coordinates(x * xi, 2) == [1, 0]

    def test_no_truncation_rules_when_rules_kill_the_top(self):
        P2 = projective_space(2)
        B = projective_bundle(P2, BundleRoots.plus([P2.zero(), P2.gen("h")]))
        assert len(B.ring.rules) == len(P2.ring.rules) + 1


def subset_elementary_symmetric(classes, j):
    """Reference: e_j as the sum over j-subsets of the products."""
    acc = classes[0].ring.zero()
    for comb in itertools.combinations(classes, j):
        term = classes[0].ring.one()
        for c in comb:
            term = term * c
        acc = acc + term
    return acc


class TestElementarySymmetric:
    @pytest.mark.parametrize("build", [
        lambda: projective_space(4),
        lambda: projective_space(3, modulus=3),
        lambda: product(projective_space(2), projective_space(2)),
        lambda: bl_point_plane()[1],
    ], ids=["P4", "P3-mod3", "P2xP2", "bl-point-plane"])
    def test_recurrence_matches_subset_sums(self, build):
        X = build()
        gens = [X.gen(g) for g, d in zip(X.ring.names, X.ring.codegrees) if d == 1]
        rng = random.Random(5)
        for _ in range(40):
            roots = []
            for _ in range(rng.randint(1, 6)):
                c = X.zero()
                for g in gens:
                    c = c + rng.randint(-3, 3) * g
                roots.append(c)
            top = rng.randint(0, len(roots) + 1)
            plus = BundleRoots.plus(roots)
            assert [chern_class(plus, j) for j in range(top + 1)] == [
                subset_elementary_symmetric(roots, j) for j in range(top + 1)
            ]


def assert_basis_irreducible(X):
    for d in range(X.dim + 1):
        for m in X.basis_of(d):
            assert X.ring._matching_rule(m) is None, (X.name, m)


def recorded_blow_ups(monkeypatch) -> list:
    """(X, center, declared rules, blow-up) for every blow-up that the
    registry makes, each one made with rules preceded by the blow-up of X
    along center without them; then for every blow-up that ``random_tower``
    makes on seeds 0-59."""
    import helpers
    from chowcalc import registry, script

    built = []

    def record(X, center, exceptional_gen="e", name=None, rules=()):
        rules = list(rules)
        if rules:
            built.append((X, center, [], blow_up(X, center, exceptional_gen, name)))
        built.append((X, center, rules, blow_up(X, center, exceptional_gen, name, rules)))
        return built[-1][-1]

    monkeypatch.setattr(script, "blow_up", record)
    registry.run_all(seed=0)
    registry_count = len(built)
    assert any(rules for _, _, rules, _ in built)
    monkeypatch.setattr(helpers, "blow_up", record)
    for seed in range(60):
        random_tower(random.Random(seed))
    assert len(built) > registry_count
    return built


def stored(X: ChowPresentation) -> tuple:
    """What a presentation stores: its ring's rules with their indices, in
    order, whether all of them are minimal, its basis, degree table, roles
    and provenance."""
    rules = [(r.lead, r.replacement, r.index) for r in X.ring.rules]
    return (X.ring.names, rules, X.ring._all_minimal, X.basis, X.degree_table, X.roles, X.provenance)


def built_by(monkeypatch, run) -> list:
    """Every presentation constructed while run() runs, in order."""
    built = []
    init = ChowPresentation.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ChowPresentation, "__init__", record)
    run()
    return built


def build_towers():
    for seed in range(60):
        random_tower(random.Random(seed))


def built_with_copies(monkeypatch) -> list:
    """Every presentation the registry and the towers build, the
    presentations below each and the copies of each mod 2 and mod 3 (the
    list grows while it is walked)."""
    from chowcalc import registry

    def run():
        registry.run_all(seed=0)
        build_towers()

    built = built_by(monkeypatch, run)
    for X in built:
        X.base
        if not X.ring.modulus:
            for p in (2, 3):
                X.with_coefficients(p)
    assert {0, 2, 3} <= {X.ring.modulus for X in built}
    return built


def test_every_basis_is_the_irreducible_monomials_in_order(monkeypatch):
    # the invariant that blow_up, projective_bundle and _truncated_leads
    # read their kill leads and bases by, and that lets a basis start its
    # ring's memo
    built = built_with_copies(monkeypatch)
    for X in built:
        want = [tuple(reference_irreducible_monomials(X.ring, d)) for d in range(X.dim + 1)]
        assert [tuple(b) for b in X.basis] == enumerate_basis(X.ring) == want, X.name


def seeded_as_normal_forms(X: ChowPresentation) -> bool:
    """Whether, once X's basis is read, its ring's memo holds ((m, 1),) for
    each basis monomial m, and that is m's normal form on a fresh memo."""
    ring = X.ring
    return all(ring._normal_forms.get(m) == ((m, 1),) == tuple(ring._reduce({m: 1}, {}, X.dim).items())
               for b in X.basis for m in b)


def test_listed_basis_monomials_start_in_the_memo_as_their_normal_forms(monkeypatch):
    for X in built_with_copies(monkeypatch):
        assert seeded_as_normal_forms(X), X.name
    # a listed basis that holds x^2 under x^2 -> y^2 starts a wrong entry
    x2, y2 = Monomial([(0, 2)]), Monomial([(1, 2)])
    ring = RingContext(["x", "y"], [1, 1], dimension=2, rules=[(x2, {y2: 1})])
    basis = enumerate_basis(ring)
    assert x2 not in basis[2]
    X = ChowPresentation("generic", ring, {}, [*basis[:2], (x2, *basis[2])], None, None)
    assert ring._normal_forms[x2] == ((x2, 1),) and not seeded_as_normal_forms(X)


def test_free_basis_bound_is_the_count_of_the_listing(monkeypatch):
    # rule-free rings on up to five generators of codegree 1-4 under a small
    # bound: the codegree that the count refuses at is the first whose
    # listed monomials, counted from codegree 0, exceed the bound
    from chowcalc import varieties

    monkeypatch.setattr(varieties, "MAX_BASIS", 60)
    rng = random.Random(5)
    refused = 0
    for _ in range(200):
        dim = rng.randint(0, 14)
        codegrees = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        ring = RingContext([f"x{i}" for i in range(len(codegrees))], codegrees, dimension=dim)
        listed = itertools.accumulate(len(reference_irreducible_monomials(ring, d)) for d in range(dim + 1))
        want = next((d for d, total in enumerate(listed) if total > 60), None)
        if want is None:
            assert sum(map(len, enumerate_basis(ring))) <= 60
        else:
            refused += 1
            with pytest.raises(RingError, match=rf"^basis exceeds 60 monomials by codegree {want}$"):
                enumerate_basis(ring)
    assert 30 < refused < 170


def test_enumerate_basis_is_the_recursive_enumeration():
    # random rule sets on up to four generators of codegree 1-3, in
    # dimensions 0-7; a lead reduces to monomials below it in key order,
    # so no rule set cycles
    rng = random.Random(7)
    above_dim = 0
    for _ in range(240):
        dim = rng.randint(0, 7)
        gens = [(f"x{i}", rng.randint(1, 3)) for i in range(rng.randint(1, 4))]
        above_dim += any(cd > dim for _, cd in gens)
        free = generic_context(gens, dim + 2)
        rules = []
        for _ in range(rng.randint(0, 4)):
            d = rng.randint(1, dim + 2)
            monos = free.basis_of(d)  # every monomial of codegree d, in order
            if not monos:
                continue
            k = rng.randrange(len(monos))
            lower = monos[:k]
            repl = {m: rng.randint(-2, 2) for m in rng.sample(lower, min(len(lower), 2))}
            rules.append((monos[k], repl))
        X = generic_context(gens, dim, rules=rules)
        want = [tuple(reference_irreducible_monomials(X.ring, d)) for d in range(dim + 1)]
        assert enumerate_basis(X.ring) == want == [tuple(b) for b in X.basis], (gens, dim, rules)
    assert above_dim >= 20


@pytest.mark.parametrize("codegrees", [(1, 1, 1), (1, 2), (2, 3)])
def test_rule_free_basis_is_the_listing_by_codegree(monkeypatch, codegrees):
    # every monomial of a ring with no rules is irreducible: the basis is
    # each multiset of generators listed by its codegree, in key order, and
    # no monomial is matched against the (absent) rules
    dim = 7
    want = [[] for _ in range(dim + 1)]
    for k in range(dim + 1):
        for combo in itertools.combinations_with_replacement(range(len(codegrees)), k):
            d = sum(codegrees[i] for i in combo)
            if d <= dim:
                want[d].append(Monomial((i, combo.count(i)) for i in sorted(set(combo))))
    ring = RingContext([f"x{i}" for i in range(len(codegrees))], codegrees, dimension=dim)
    matched = counting(monkeypatch, RingContext, "_matching_rule")
    assert enumerate_basis(ring) == [tuple(sorted(b)) for b in want]
    assert matched == []


class TestBlowUp:
    def test_plane_at_point(self):
        P2, Bl = bl_point_plane()
        h, e = Bl.gen("h"), Bl.gen("e")
        assert [len(Bl.basis_of(d)) for d in range(3)] == [1, 2, 1]
        assert (h * e).is_zero()
        assert e * e == -(h * h)
        assert Bl.degree(e * e) == -1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_point_blowup_top_degree(self, n):
        # oracle: iterate the self-intersection rule; degree is (-1)^(n-1)
        Pn = projective_space(n)
        center = CenterData(
            fundamental=Pn.gen("h") ** n,
            roots=BundleRoots.plus([Pn.zero()] * n, ring=Pn.ring),
            restriction={"h": Pn.zero()},
        )
        Bl = blow_up(Pn, center)
        assert Bl.degree(Bl.gen("e") ** n) == (-1) ** (n - 1)

    def test_restriction_of_an_unknown_generator_is_refused(self):
        # an entry for "hh" on P3 (generator h) is a slip, not a no-op
        P3 = projective_space(3)
        h = P3.gen("h")
        for restriction in ({"hh": P3.zero()}, {"h": P3.zero(), "e": P3.zero()}):
            center = CenterData(
                fundamental=h * h, roots=BundleRoots.plus([h, h]), restriction=restriction
            )
            unknown = next(g for g in restriction if g != "h")
            with pytest.raises(CoverageError, match=f"restriction names '{unknown}'"):
                blow_up(P3, center)

    def test_extra_rules_are_monomial_pairs(self):
        P3 = projective_space(3)
        h = P3.gen("h")
        center = CenterData.complete_intersection([h, h], name="line")
        h3 = Monomial([(0, 3)])
        assert not blow_up(P3, center).ring.from_table({h3: 1}).is_zero()
        Bl = blow_up(P3, center).with_rules([(h3, {})])
        assert Bl.ring.from_table({h3: 1}).is_zero()
        # the basis keeps no monomial the declared rule reduces
        assert Bl.basis_of(3) == ()
        assert_basis_irreducible(Bl)

    def test_basis_monomials_are_irreducible(self, monkeypatch):
        for _, _, _, Bl in recorded_blow_ups(monkeypatch):
            assert_basis_irreducible(Bl)

    def test_basis_is_the_rule_scan(self, monkeypatch):
        # a declared lead removes what it divides from the blow-up's basis
        P3 = projective_space(3)
        line = CenterData.complete_intersection([P3.gen("h")] * 2, name="line")
        h3, eh = Monomial([(0, 3)]), Monomial([(0, 1), (1, 1)])
        cases = [(P3, line, extra, blow_up(P3, line).with_rules(extra)) for extra in (
            [(h3, {})],
            [(eh, {})],  # e*h leaves the center basis
        )]
        assert Monomial([(0, 1), (1, 1)]) not in cases[1][3].basis_of(2)
        for X, center, extra, Bl in cases + recorded_blow_ups(monkeypatch):
            assert Bl.basis == reference_blow_up_basis(X, center, Bl, extra), Bl.name

    def test_with_rules_basis_is_enumerate_basis(self, monkeypatch):
        P3 = projective_space(3)
        line = CenterData.complete_intersection([P3.gen("h")] * 2, name="line")
        Bl = blow_up(P3, line)
        leads = [Monomial([(0, 3)]), Monomial([(0, 1), (1, 1)])]
        copies = [Bl.with_rules([(lead, {})]) for lead in leads]
        for lead, copy in zip(leads, copies):
            assert copy.ring.names == Bl.ring.names and copy.ring.rules[-1].lead == lead
            assert (copy.base, copy.center, copy.roles, copy.degree_table, copy.name) == (
                Bl.base, Bl.center, Bl.roles, Bl.degree_table, Bl.name)
        # the two registry blow-ups that declare rules, both named Xt
        declared = [Bl for _, _, rules, Bl in recorded_blow_ups(monkeypatch) if rules]
        assert [X.name for X in declared] == ["Xt", "Xt"]
        for X in copies + declared:
            assert [tuple(b) for b in X.basis] == enumerate_basis(X.ring), X.name

    def test_with_rules_copy_lists_its_basis_without_its_parent(self):
        # the copy holds its parent's basis, not its parent, and lists its
        # own basis on the first read
        def bundle():
            P2 = projective_space(2)
            return projective_bundle(P2, BundleRoots.plus([P2.zero(), P2.gen("h")]))

        def blown_up_line():
            P3 = projective_space(3)
            return blow_up(P3, CenterData.complete_intersection([P3.gen("h")] * 2, name="line"))

        hx = Monomial([(0, 1), (1, 1)])
        for build in (bundle, blown_up_line):
            X = build()
            assert hx in X.basis_of(2)
            copy = X.with_rules([(hx, {})])
            assert "basis" not in vars(copy)
            ref = weakref.ref(X)
            del X
            gc.collect()
            assert ref() is None, build.__name__
            assert [tuple(b) for b in copy.basis] == enumerate_basis(copy.ring)
            assert hx not in copy.basis_of(2)

    def test_kill_rules_are_the_minimal_fixed_monomials(self, monkeypatch):
        # declared in order: X's rules, one e*g -> e*res(g) per generator
        # that the restriction moves, the kill rules, the fold e^r, then the
        # declared rules; its ring may drop a kill rule that a declared rule
        # implies
        for X, center, extra, Bl in recorded_blow_ups(monkeypatch):
            e_idx = len(X.ring.names)
            start = len(X.ring.rules) + len(X.ring.names) - len(restriction_fixed(X, center))
            want = [
                (Monomial(exponents(m) + ((e_idx, 1),)), (), start + j)
                for j, m in enumerate(reference_kill_leads(X, center))
            ]
            end = start + len(want)
            got = [(r.lead, r.replacement, r.index) for r in Bl.ring.rules if start <= r.index < end]
            want = [
                w for w in want
                if w in got or not any(reference_divides(exponents(lead), w[0].exps) for lead, _ in extra)
            ]
            fold = [r.lead for r in Bl.ring.rules if r.index == end]
            assert got == want and fold == [Monomial([(e_idx, center.codim)])], Bl.name

    def test_declared_rules_store_what_with_rules_stores(self, monkeypatch):
        # blow_up(rules=) against with_rules on the blow-up without them: on
        # each registry blow-up that declares rules, and on each random tower
        # blow-up with one extra zero rule, a basis monomial of codegree >= 1
        # or e times a generator (a restriction lead, when that one moves)
        rng = random.Random(0)
        declared = []
        for X, center, rules, Bl in recorded_blow_ups(monkeypatch):
            e = Bl.provenance["exceptional_generator"]
            if rules:
                extras = [rules]
            else:
                monomials = [m for b in Bl.basis[1:] for m in b]
                extras = [[(rng.choice(monomials), {})]] if monomials else []
                g = rng.randrange(len(X.ring.names))
                extras.append([(Monomial([(g, 1), (len(X.ring.names), 1)]), {})])
            for extra in extras:
                want = blow_up(X, center, e, Bl.name).with_rules(extra)
                got = blow_up(X, center, e, Bl.name, rules=extra)
                assert stored(got) == stored(want), (Bl.name, extra)
                declared.append(bool(rules))
        assert declared.count(True) == 2 and declared.count(False) > 50

    def test_truncated_leads_are_the_minimal_irreducible_monomials(self, monkeypatch):
        for X, _, _, Bl in recorded_blow_ups(monkeypatch):
            for Y in (X, Bl):
                assert _truncated_leads(Y) == reference_truncated_leads(Y), Y.name

    def test_pullback_of_center_class_decomposes(self):
        # codim-2 center: [Z] = c_1(N) e - e^2 is the fold rule rearranged
        P3 = projective_space(3)
        h = P3.gen("h")
        center = CenterData.complete_intersection([h, h], name="line")
        Bl = blow_up(P3, center)
        e, hb = Bl.gen("e"), Bl.gen("h")
        assert Bl.pullback(h * h) == 2 * hb * e - e * e

    def test_pushforward_kills_exceptional(self):
        P2, Bl = bl_point_plane()
        assert Bl.pushforward(Bl.gen("e")).is_zero()
        h = P2.gen("h")
        assert Bl.pushforward(Bl.pullback(h * h)) == h * h

    def test_roundtrip_and_projection_formula(self):
        P3 = projective_space(3)
        h = P3.gen("h")
        Bl = blow_up(P3, CenterData.complete_intersection([h, h]))
        rng = random.Random(5)
        for _ in range(60):
            x = random_class(P3.ring, rng)
            assert Bl.pushforward(Bl.pullback(x)) == x
        for _ in range(60):
            x = random_class(P3.ring, rng, terms=2)
            c = random_class(Bl.ring, rng, terms=2)
            lhs = P3.degree(P3.ring.from_table(Bl.pushforward(Bl.pullback(x) * c).table))
            rhs = P3.degree(x * Bl.pushforward(c))
            assert lhs == rhs

    def test_bundle_fiber_integration(self):
        # pushing forward against the top fiber power recovers the base class
        P2 = projective_space(2)
        B = projective_bundle(P2, BundleRoots.plus([P2.zero(), P2.gen("h")]))
        xi = B.gen("xi")
        rng = random.Random(9)
        for _ in range(60):
            x = random_class(P2.ring, rng)
            assert B.pushforward(xi * B.pullback(x)) == x
            assert B.pushforward(B.pullback(x)).is_zero()

    def test_basis_recursion(self):
        # blow-up basis = ambient + (codim - 1) copies of the center
        P4 = projective_space(4)
        h = P4.gen("h")
        Bl = blow_up(P4, CenterData.complete_intersection([h, h]))  # surface center
        base_total = 5
        center_total = 3  # classes of the surface: 1, h, h^2
        got = sum(len(Bl.basis_of(d)) for d in range(Bl.dim + 1))
        assert got == base_total + (2 - 1) * center_total

    def test_curve_blowup_pairing_is_unimodular(self):
        from chowcalc.numeric import integer_determinant, pairing_report

        P3 = projective_space(3)
        h = P3.gen("h")
        Bl = blow_up(P3, CenterData.complete_intersection([h, h]))
        rep = pairing_report(Bl, 2)
        for entry in rep.codegrees.values():
            assert integer_determinant(entry.matrix) in (1, -1)

    def test_codim_mismatch_rejected(self):
        P3 = projective_space(3)
        h = P3.gen("h")
        with pytest.raises(CoverageError):
            blow_up(P3, CenterData(fundamental=h * h, roots=BundleRoots.plus([h, h, h])))

    def test_restriction_to_itself_builds_and_a_swap_is_refused(self):
        # a point of a surface with x, y of codegree 1: x -> x names a
        # generator that stays put, which builds the blow-up that leaving x
        # out builds; x <-> y is not idempotent
        X = generic_context([("x", 1), ("y", 1)], 2)
        x, y = X.gen("x"), X.gen("y")

        def center(restriction):
            return CenterData(fundamental=x * y, roots=BundleRoots.plus([x, y]), restriction=restriction)

        Bl = blow_up(X, center({"x": x, "y": X.zero()}))
        assert Bl.ring.rules == blow_up(X, center({"y": X.zero()})).ring.rules
        assert Bl.basis == blow_up(X, center({"y": X.zero()})).basis
        with pytest.raises(CoverageError, match="not idempotent on generator 'x'"):
            blow_up(X, center({"x": y, "y": x}))

    def test_non_idempotent_restriction_rejected(self):
        P2 = projective_space(2)
        h = P2.gen("h")
        with pytest.raises(CoverageError):
            blow_up(
                P2,
                CenterData(
                    fundamental=h * h,
                    roots=BundleRoots.plus([P2.zero(), P2.zero()], ring=P2.ring),
                    restriction={"h": h + P2.one() * 0 + h},  # h -> 2h, not idempotent-fixed
                ),
            )


def projection_formula_failures(F) -> int:
    """The pairs (u, w), u a basis class of F and w one of its base Y, of
    complementary codegree, with deg_F(u * f^*w) != deg_Y(f_*u * w) for
    the constructor edge f: F -> Y."""
    Y = F.base
    failures = 0
    for d in range(F.dim + 1):
        for u in basis_classes(F, d):
            pushed = F.pushforward(u)
            for w in basis_classes(Y, F.dim - d):
                failures += F.degree(u * F.pullback(w)) != Y.degree(pushed * w)
    return failures


class TestProjectionFormula:
    """deg_X(u * f^*w) = deg_Y(f_*u * w) on every bundle and blow-up edge
    f: X -> Y that the towers build."""

    def edges(self, monkeypatch) -> list:
        built = built_by(monkeypatch, build_towers)
        return [F for F in built if F.kind in ("bundle", "blowup")]

    def test_every_tower_edge(self, monkeypatch):
        edges = self.edges(monkeypatch)
        assert {F.kind for F in edges} == {"bundle", "blowup"}
        for F in edges:
            assert projection_formula_failures(F) == 0, F.name

    def test_shifted_segre_index_fails(self, monkeypatch):
        # pushing xi^(r-1+k) to s_(k-1) in place of s_k breaks every bundle
        bundles = [F for F in self.edges(monkeypatch) if F.kind == "bundle"]
        assert bundles
        for F in bundles:
            F._segre = [F.base.zero()] + F._filled("_segre")
            assert projection_formula_failures(F) > 0, F.name


class TestGenericContext:
    def test_dimension_truncation(self):
        X = generic_context([("x", 1), ("y", 1)], 5)
        x, y = X.gen("x"), X.gen("y")
        assert ((x**3) * (y**3)).is_zero()

    def test_declared_rule(self):
        X2 = generic_context(
            [("r", 1), ("x", 1), ("y", 1)], 5,
            rules=[(Monomial([(0, 1), (1, 1)]), {})],
        )
        rr, xx, yy = X2.gen("r"), X2.gen("x"), X2.gen("y")
        assert (rr * xx * xx * yy).is_zero()

    def test_point_class_rule(self):
        X2 = generic_context(
            [("r", 1), ("pt", 3)], 3,
            rules=[(Monomial([(0, 3)]), {Monomial([(1, 1)]): -1})],
        )
        assert X2.gen("r") ** 3 == -X2.gen("pt")

    def test_partial_degree(self):
        X = generic_context(
            [("x", 1), ("pt", 2)], 2,
            degrees={Monomial([(1, 1)]): 1},
        )
        assert X.degree(3 * X.gen("pt")) == 3
        with pytest.raises(CoverageError):
            X.degree(X.gen("x") ** 2)

    def test_degree_reads_the_top_part_only(self):
        # parts below the top push to zero, declared or not; a declared
        # value off the top codegree is never read; mod p the sum is reduced
        for modulus in (0, 3):
            X = generic_context(
                [("x", 1), ("pt", 2)], 2, modulus=modulus,
                degrees={Monomial([(1, 1)]): 2, Monomial([(0, 1)]): 7},
            )
            x, pt = X.gen("x"), X.gen("pt")
            assert X.degree(X.one() + 5 * x + 4 * pt) == 8 % (modulus or 9)
            with pytest.raises(CoverageError, match="degree of monomial x\\^2 is not declared"):
                X.degree(x + pt + x**2)

    def test_coordinates_against_a_partial_basis(self):
        # a basis that leaves y untracked; the index built by the first call
        # serves the later ones, with the same coordinates and errors
        X = generic_context([("x", 1), ("y", 1)], 2)
        x, y = X.gen("x"), X.gen("y")
        partial = [X.basis_of(0), [m for m in X.basis_of(1) if X.ring.monomial_str(m) == "x"],
                   X.basis_of(2)]
        Y = ChowPresentation("generic", X.ring, X.roles, partial, None, None)
        for _ in range(2):
            assert Y.coordinates(3 * x + x * y, 1) == [3]
            assert Y.coordinates(x * y, 2) == X.coordinates(x * y, 2)
            with pytest.raises(CoverageError, match="monomial y is not a tracked basis monomial"):
                Y.coordinates(x + y, 1)


class TestSerialization:
    def test_roundtrip(self):
        P2, Bl = bl_point_plane()
        doc = Bl.to_json()
        text = json.dumps(doc)
        back = presentation_from_json(json.loads(text))
        assert back.dim == Bl.dim
        assert back.ring.names == Bl.ring.names
        e, h = back.gen("e"), back.gen("h")
        assert e * e == -(h * h)
        assert back.degree(e * e) == -1
        assert [len(back.basis_of(d)) for d in range(3)] == [1, 2, 1]

    def test_bundle_roundtrip_degrees(self):
        P1 = projective_space(1)
        B = projective_bundle(P1, BundleRoots.plus([P1.zero(), P1.gen("h")]))
        back = presentation_from_json(json.loads(json.dumps(B.to_json())))
        xi = back.gen("xi")
        assert back.degree(xi * xi) == -1


def tower_pin_line(seed):
    """One JSON line for random_tower(seed): every presentation of its
    chain (the tower, then base after base) mod 0, 2 and 3 as ``to_json``
    gives it, with the pushforward of xi^k, k = 0..dim, at each bundle."""
    X = random_tower(random.Random(seed))
    doc = {"seed": seed}
    for p in (0, 2, 3):
        chain = []
        Y = X.with_coefficients(p)
        while Y is not None:
            entry = {"presentation": Y.to_json()}
            if Y.kind == "bundle":
                xi = Y.gen(Y.provenance["fiber_generator"])
                entry["pushforwards"] = [
                    {Y.base.ring.monomial_str(m): c for m, c in Y.pushforward(xi**k).table.items()}
                    for k in range(Y.dim + 1)
                ]
            chain.append(entry)
            Y = Y.base
        doc[f"mod {p}"] = chain
    return json.dumps(doc, sort_keys=True)


def test_towers_are_pinned():
    # tests/data/towers_seed0.json holds one line per seed 0-29 (the towers
    # behind pairings_seed0.json), as computed when every tangent, Segre
    # class and mod-p base was still built with its presentation
    lines = [tower_pin_line(seed) for seed in range(30)]
    pinned = Path(__file__).parent / "data" / "towers_seed0.json"
    assert ("\n".join(lines) + "\n").encode() == pinned.read_bytes()


def lazy_towers():
    """Three-move towers: bundle, product, bundle over P^1, and bundle,
    bundle, blow-up at a point over P^2."""
    P1 = projective_space(1)
    B = projective_bundle(P1, BundleRoots.plus([P1.zero(), P1.gen("h")]))
    Q = product(B, projective_space(1))
    yield projective_bundle(Q, BundleRoots.plus([Q.gen("xi"), Q.gen("h_2")]))
    P2 = projective_space(2)
    B1 = projective_bundle(P2, BundleRoots.plus([P2.zero(), P2.gen("h")]))
    B2 = projective_bundle(B1, BundleRoots.plus([B1.gen("h"), B1.gen("xi")]))
    tops = [m for m in B2.basis_of(B2.dim) if B2.degree_table.get(m) == 1]
    yield blow_up(B2, CenterData(
        fundamental=B2.ring.from_table({tops[0]: 1}),
        roots=BundleRoots.plus([B2.zero()] * B2.dim, ring=B2.ring),
        restriction={g: B2.zero() for g in B2.ring.names},
        name="pt",
    ), exceptional_gen="e")


def chain(X, read=False):
    """X and the presentations below it, through the base slots as they
    stand or, with ``read``, through the ``base`` property."""
    out = []
    while X is not None:
        out.append(X)
        X = X.base if read else X._base
    return out


class TestFilledOnFirstRead:
    @pytest.mark.parametrize("index", [0, 1])
    def test_pairing_and_quotient_fill_nothing_below_the_top(self, index):
        X = list(lazy_towers())[index]
        for p in (2, 3):
            pairing_report(X, p)
            assert gamma_quotient(X, p, [X.gen(X.ring.names[0])]).dimensions[0] == 1
            assert kernel_is_ideal(X, p)
        levels = chain(X)
        assert len(levels) >= 2
        for Y in levels:
            assert Y._tangent is None or callable(Y._tangent)
            assert Y._segre is None or callable(Y._segre)
            assert (Y._segre is not None) == (Y.kind == "bundle")
        for Y in levels[1:]:
            assert kept_under(Y, "mod") == {}
        assert sorted(kept_under(X, "mod")) == [(2,), (3,)]
        for Xp in kept_under(X, "mod").values():
            assert callable(Xp._base) and callable(Xp._tangent) == (X._tangent is not None)

    def test_second_read_is_the_first_value(self):
        for X in lazy_towers():
            Xp = X.with_coefficients(2)
            for Y in chain(X) + [Xp]:
                assert Y.base is Y.base and Y.tangent is Y.tangent
            assert Xp.base is X.base.with_coefficients(2)
            for Y in chain(X) + chain(Xp, read=True):
                if Y.kind == "bundle":
                    xi = Y.gen(Y.provenance["fiber_generator"])
                    Y.pushforward(xi)
                    segre = Y._segre
                    assert isinstance(segre, list)
                    Y.pushforward(xi**2)
                    assert Y._segre is segre

    def test_tangent_of_a_tower_is_computed_when_read(self):
        # the Euler characteristic of a cellular tower is its number of
        # cells; built with the tower, no tangent was computed at any level
        X = next(lazy_towers())
        assert [Y._tangent is None or callable(Y._tangent) for Y in chain(X)] == [True, True]
        assert X.degree(X.tangent) == sum(len(b) for b in X.basis) == 16
        Xp = X.with_coefficients(3)
        assert Xp.tangent == Xp.ring.from_table(X.tangent.table)
        assert Xp.degree(Xp.tangent) == 16 % 3

    def test_kept_makes_once_and_keeps_nothing_on_raise(self):
        X = projective_space(1)
        calls = []

        def make(value):
            calls.append(value)
            if value == "raise":
                raise ValueError("not kept")
            return value

        for _ in range(2):
            with pytest.raises(ValueError, match="not kept"):
                X.kept(("test", "raise"), make, "raise")
        assert kept_under(X, "test") == {}
        # a kept None, 0 or empty value is a hit, not a miss
        for i, value in enumerate([None, 0, {}]):
            assert X.kept(("test", i), make, value) == value
            assert X.kept(("test", i), make, "other") == value
        assert calls == ["raise", "raise", None, 0, {}]
        assert kept_under(X, "test") == {(0,): None, (1,): 0, (2,): {}}

    def test_raising_tangent_stores_nothing(self):
        calls = []

        def tangent():
            calls.append(1)
            raise ValueError("no tangent yet")

        P1 = projective_space(1)
        X = ChowPresentation("generic", P1.ring, P1.roles, P1.basis, P1.degree_table, tangent)
        for n in (1, 2):
            with pytest.raises(ValueError, match="no tangent yet"):
                X.tangent
            assert X._tangent is tangent and len(calls) == n


class TestCoefficientChange:
    @pytest.mark.parametrize("modulus, other", [(2, 3), (2, 0), (3, 2), (3, 0)])
    def test_no_copy_across_moduli(self, modulus, other):
        X = projective_space(2, modulus=modulus)
        assert X.with_coefficients(modulus) is X
        with pytest.raises(CoverageError, match=f"mod {modulus}"):
            X.with_coefficients(other)
        with pytest.raises(CoverageError):
            gamma_quotient(X, other, [X.gen("h")])
        assert kept_under(X, "mod") == {}

