"""Acceptance suite: one test per exit criterion, each printing a pass line
with its measured wall time and asserting the stated bound."""

import itertools
import random
import time

from helpers import bl_point_plane, random_class, random_expression, random_tower

from chowcalc import registry
from chowcalc.characteristic import (
    d_class_from_total,
    embedded_power,
    homological_power,
    reduced_power,
    steenrod_total,
)
from chowcalc.milnor import (
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
from chowcalc.numeric import (
    ab1_check,
    gamma_quotient,
    integer_determinant,
    pairing_report,
)
from chowcalc.rings import Monomial, confluence_check
from chowcalc.script import Script, parse_script, print_script
from chowcalc.varieties import (
    BundleRoots,
    generic_context,
    product,
    projective_bundle,
    projective_space,
)


class Stopwatch:
    def __init__(self, number, description, bound):
        self.number = number
        self.description = description
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} criterion {self.number}: {self.description} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.bound, (
                f"criterion {self.number} exceeded {self.bound}s ({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_expansion_matrix():
    with Stopwatch(1, "expansion substitution matrix [[20,-2],[5,1]]", 1.0):
        rep = registry.run("A23-L1-SL2")
        assert rep.ok
        assert rep.values["matrix"] == "((20 -2) (5 1))"


def test_criterion_02_point_blowup_deltas():
    with Stopwatch(2, "point blow-up shifts (c1c2, c1^3) by (-2, -8)", 1.0):
        rep = registry.run("A23-L1-SL1")
        assert rep.ok
        # the scenario asserts both exact class identities and both degrees
        assert rep.counts["passed"] == 5


def test_criterion_03_pairwise_intersection_factors():
    with Stopwatch(3, "three-component blow-up factors 2 / (1,0) / +4c1c2 / -3 / -2", 5.0):
        rep = registry.run("A23-L2-SL1")
        assert rep.ok
        assert rep.counts["passed"] == 7


def test_criterion_04_mod2_component_identities():
    with Stopwatch(4, "mod-2 component replacement kills c1^3 and c1^2", 1.0):
        rep = registry.run("A23-L1")
        assert rep.ok


def test_criterion_05_fiber_chern_fragments():
    with Stopwatch(5, "fiber roots (-r,0,r) give c2=-r^2; -p = 0 mod p in {2,3,5}", 1.0):
        rep = registry.run("A20-L2")
        assert rep.ok


def test_criterion_06_steenrod_suite():
    with Stopwatch(6, "reduced power suite: identity, Cartan, embedded, reconstruction", 10.0):
        # P^0 = id and Cartan multiplicativity, 1000 random pairs per context
        contexts = [
            generic_context([("x", 1), ("y", 1)], 5, modulus=2, name="C2"),
            generic_context([("x", 1), ("y", 1)], 5, modulus=3, name="C3"),
        ]
        for X in contexts:
            rng = random.Random(X.ring.modulus)
            for _ in range(1000):
                a = random_class(X.ring, rng, terms=2, max_codegree=3)
                b = random_class(X.ring, rng, terms=2, max_codegree=3)
                assert steenrod_total(X, a * b) == steenrod_total(X, a) * steenrod_total(X, b)
            for _ in range(50):
                c = random_class(X.ring, rng)
                for d in c.codegrees():
                    part = c.homogeneous_part(d)
                    assert reduced_power(X, part, 0) == part

        # embedded operations match normal Chern classes
        X2 = contexts[0]
        x, y = X2.gen("x"), X2.gen("y")
        S, N = x * y, BundleRoots.plus([x, y])
        assert embedded_power(X2, S, N, 1) == (x + y) * S
        assert embedded_power(X2, S, N, 2) == (x * y) * S
        X3 = generic_context([("x", 1), ("y", 1)], 6, modulus=3)
        x3, y3 = X3.gen("x"), X3.gen("y")
        S3 = x3 * y3
        assert embedded_power(X3, S3, BundleRoots.plus([x3, y3]), 1) == ((x3 + y3) ** 2 + x3 * y3) * S3

        # reconstruction on projective spaces and two bundle towers
        P1 = projective_space(1)
        Q = product(P1, P1)
        towers = [projective_space(n) for n in range(1, 6)] + [
            projective_bundle(P1, BundleRoots.plus([P1.zero(), P1.gen("h")])),
            projective_bundle(Q, BundleRoots.plus([Q.zero(), Q.gen("h_1")], ring=Q.ring)),
        ]
        for tower in towers:
            X = tower.with_coefficients(2)
            dT = d_class_from_total(X.tangent_class(), 2)
            rng = random.Random(X.dim)
            for _ in range(8):
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


def test_criterion_07_kernel_stability():
    with Stopwatch(7, "power operations preserve the numerical kernel", 10.0):
        # engineered degenerate-pairing contexts with nonzero kernels
        engineered = [
            generic_context(
                [("x", 1)], 3, degrees={Monomial([(0, 3)]): 2},
                tangent_table={Monomial([]): 1}, name="deg-a",
            ),
            generic_context(
                [("x", 1), ("y", 1)], 2,
                degrees={Monomial([(0, 2)]): 2, Monomial([(0, 1), (1, 1)]): 1,
                         Monomial([(1, 2)]): 0},
                tangent_table={Monomial([]): 1}, name="deg-b",
            ),
        ]
        saw_nonvacuous = False
        for X in engineered:
            rep = ab1_check(X, 2)
            assert rep.passed
            saw_nonvacuous = saw_nonvacuous or bool(rep.checks)
        assert saw_nonvacuous

        # cellular product/bundle towers: pass (vacuously, zero kernel)
        P1 = projective_space(1)
        P2 = projective_space(2)
        Q = product(P1, P2)
        towers = [
            P2,
            Q,
            projective_bundle(P1, BundleRoots.plus([P1.zero(), P1.gen("h")])),
            projective_bundle(Q, BundleRoots.plus([Q.zero(), Q.gen("h_2")], ring=Q.ring)),
        ]
        for X in towers:
            rep = ab1_check(X, 2)
            assert rep.passed


def test_criterion_08_milnor_suite():
    with Stopwatch(8, "exterior differential algebra suite", 30.0):
        # square relations for m <= 4
        for m in (2, 3, 4):
            R = make_ring(m, truncated_symbol_ia(4))
            rho = R.rho_elem()
            for i in range(m - 1):
                assert R.r(i) * R.r(i) == R.r(i + 1) * rho

        # exterior basis counts for n <= 6
        for n in range(7):
            assert len(flexible_cohomology(n).basis_words()) == 2 ** (n + 1)

        # differentials square to zero; rigidity
        for m in (2, 3, 4):
            R = make_ring(m, truncated_symbol_ia(2))
            for w in R.basis_words(k_max=2):
                e = R.element([w])
                for i in R.q_indices:
                    assert q_apply(i, q_apply(i, e)).is_zero()
            for k in range(m):
                for I in itertools.combinations(range(m - 1), k):
                    assert q_composite(I, R.r_set(I)) == R.one()
        F = flexible_cohomology(6)
        for k in range(7):
            for I in itertools.combinations(range(7), k):
                assert q_composite(I, F.r_set(I)) == F.one()

        # comultiplication identity, exhaustively over basis pairs for m <= 4
        for m in (2, 3, 4):
            R = make_ring(m, truncated_symbol_ia(2))
            words = R.basis_words(k_max=1)
            for K in [frozenset({i}) for i in R.q_indices]:
                for w1 in words:
                    for w2 in words:
                        assert comult_check(K, R.element([w1]), R.element([w2]))

        # restriction maps and equivariance
        for m in (2, 3):
            S = make_ring(m, trivial_ia())
            T = make_ring(m + 1, trivial_ia())
            proj = [frozenset({0})]
            for k in range(m - 1):
                for I in itertools.combinations(range(m - 1), k):
                    assert restrict_symbol(S, T, proj, S.r_set(I)) == T.r_set(I)
                    got = restrict_symbol(S, T, proj, S.eta() * S.r_set(I))
                    assert got == T.r_set(sorted(I) + [m - 1])
            for w in S.basis_words(k_max=3):
                e = S.element([w])
                for i in S.q_indices:
                    assert restrict_symbol(S, T, proj, q_apply(i, e)) == q_apply(
                        i, restrict_symbol(S, T, proj, e)
                    )

        # exactness on the combined periodic model, m <= 3, |k| <= 6
        for m in (2, 3):
            R = make_ring(m, trivial_ia())
            for i in R.q_indices:
                dims = q_homology_dimensions(R, i, -6, 6)
                assert dims and all(v == 0 for v in dims.values())


def test_criterion_09_numerical_suite():
    with Stopwatch(9, "pairing matrices, 20 unimodular towers, ideal quotient", 60.0):
        for n in (1, 2, 3, 4):
            rep = pairing_report(projective_space(n), 2)
            for entry in rep.codegrees.values():
                assert entry.matrix == [[1]]
                assert entry.kernel == []
        P1 = projective_space(1)
        Q = product(P1, P1)
        assert pairing_report(Q, 2).codegrees[1].matrix == [[0, 1], [1, 0]]
        _, Bl = bl_point_plane()
        assert pairing_report(Bl, 2).codegrees[1].matrix == [[1, 0], [0, -1]]

        rng = random.Random(20260809)
        for _ in range(20):
            X = random_tower(rng)
            rep = pairing_report(X, 2)
            for entry in rep.codegrees.values():
                assert entry.kernel == []
                assert integer_determinant(entry.matrix) in (1, -1)

        assert gamma_quotient(P1, 2, [P1.gen("h")]).dimensions == (1, 0)


def test_criterion_10_infrastructure():
    with Stopwatch(10, "parser round-trip, confluence check, full registry run", 180.0):
        rng = random.Random(1)
        for _ in range(10**4):
            forms = [["let", "u", random_expression(rng)]]
            script = Script(forms)
            assert parse_script(print_script(script)) == script

        P3 = projective_space(3)
        Q = product(P3, projective_space(1))
        _, Bl = bl_point_plane()
        B = projective_bundle(P3, BundleRoots.plus([P3.zero(), P3.gen("h")]))
        for pres in (P3, Q, Bl, B):
            assert confluence_check(pres.ring).passed

        from chowcalc.cli import main

        assert main(["lemmas", "--all", "--format", "json", "--seed", "0"]) == 0
