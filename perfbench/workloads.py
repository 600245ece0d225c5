"""The benchmark's three workloads: seeded inputs as plain data, and the
per-item calls into chowcalc with a known answer checked for each item.

Inputs are generated from the seed alone, before chowcalc is touched
(``lemmas-all`` only reads the registry's scenario ids).  Every check
compares a verdict against an answer that does not come from the engine:
the registry's expected verdicts, unimodularity of cellular towers, and
identities that hold by construction.

The seed picks what is computed but not how much: where the cost of an
item depends on its details (which bundle roots a tower has, which
monomials a class has), those details are a fixed design drawn once from
``DESIGN_SEED``, and the seed picks only choices of equal cost (the order
of the items, coefficients that are nonzero mod p, the swap of two
interchangeable generators).  Timings then differ between seeds by host
noise alone.

A workload is an object with ``inputs(seed)`` returning the plain-data
items of one pass, ``begin_pass(inputs)`` building per-pass state (the
fixed contexts items refer to), ``run_item(state, item)`` returning a list
of problems (empty when the verdict is right), and ``end_pass(state)``
returning problems found after the last item.  ``min_passes`` is the least
number of passes in a run; in an untraced run an item is run again, back to
back, until its runs have taken ``repeat_s`` seconds or it has run
``repeat_max`` times (see ``run.run_pass``).
"""

from __future__ import annotations

import itertools
import json
import random

from chowcalc import characteristic as ch
from chowcalc import milnor as mi
from chowcalc import numeric as nu
from chowcalc import registry as reg
from chowcalc import report as rp
from chowcalc import rings as ri
from chowcalc import varieties as va

MAX_TOWER_DIM = 6
DESIGN_SEED = 0


# ---------------------------------------------------------------------------
# lemmas-all: the registry, as `chowcalc lemmas --all --format json --seed N`
# ---------------------------------------------------------------------------

# The value scenario A23-L1-SL2 reports, as stated in its registry statement.
SL2_MATRIX = "((20 -2) (5 1))"


class LemmasAll:
    """Item = one registry scenario, in registry order; each pass then merges
    the reports and emits them as JSON lines with stable bytes."""

    name = "lemmas-all"
    # one scenario takes ~75% of a pass, so a run holds only a few passes;
    # the other scenarios repeat within a pass so that their median time
    # rests on enough runs
    min_passes = 4
    repeat_s = 0.9
    repeat_max = 10

    def inputs(self, seed: int) -> list:
        return [{"id": rec.id, "expected": rec.expected, "seed": seed}
                for rec in reg.all_records()]

    def begin_pass(self, inputs):
        return {"reports": {}}

    def run_item(self, state, item) -> list[str]:
        rep = reg.run(item["id"], seed=item["seed"])
        state["reports"][item["id"]] = rep  # a repeat replaces, in registry order
        problems = [f"{r.id}: verdict {r.verdict}, expected {item['expected']}"
                    for r in rep.results if r.verdict != item["expected"]]
        if not rep.results:
            problems.append(f"{item['id']}: no assertions ran")
        if item["id"] == "A23-L1-SL2" and rep.values.get("matrix") != SL2_MATRIX:
            problems.append(f"A23-L1-SL2: matrix {rep.values.get('matrix')!r}")
        return problems

    def end_pass(self, state) -> list[str]:
        total = rp.Report()
        for rep in state["reports"].values():
            total = total.merged(rep)
        lines = rp.emit_report(total, "json", stable=True).decode("utf-8").splitlines()
        objs = [json.loads(line) for line in lines]
        verdicts = [o for o in objs if "verdict" in o]
        summary = objs[-1]
        problems = []
        if summary != {"passed": len(verdicts), "failed": 0, "errors": 0}:
            problems.append(f"emitted summary {summary}")
        if any(o["millis"] != 0 for o in verdicts):
            problems.append("emitted millis are not zeroed under a seed")
        if {"value": "matrix", "content": SL2_MATRIX} not in objs:
            problems.append("emitted report lacks the A23-L1-SL2 matrix")
        return problems


# ---------------------------------------------------------------------------
# towers: seeded cellular towers, pairings and quotients
# ---------------------------------------------------------------------------

def tower_shapes() -> list:
    """Every sequence of one to three moves from P^1, P^2 or P^3 that keeps the
    dimension <= MAX_TOWER_DIM: products with P^k (k <= 3), bundles of rank 2
    or 3, blow-ups at a point, and blow-ups along a linear subspace of
    codimension k, which are only placed inside a plain projective space so
    that every tower stays cellular and hence unimodular."""
    shapes = []

    def grow(n, moves, dim, kind):
        if moves:
            shapes.append((n, tuple(moves)))
        if len(moves) == 3:
            return
        nxt = [(("product", k), dim + k, "product")
               for k in range(1, min(3, MAX_TOWER_DIM - dim) + 1)]
        nxt += [(("bundle", r), dim + r - 1, "bundle")
                for r in range(2, min(3, MAX_TOWER_DIM - dim + 1) + 1)]
        if dim >= 2:
            nxt.append((("blowup-point", None), dim, "blowup"))
        if kind == "pspace":
            nxt += [(("blowup-linear", k), dim, "blowup") for k in range(2, dim)]
        for move, dim2, kind2 in nxt:
            grow(n, moves + [move], dim2, kind2)

    for n in (1, 2, 3):
        grow(n, [], n, "pspace")
    return shapes


def tower_recipe(rng: random.Random, shape) -> dict:
    """Fill in a shape's details: which generators (by index, -1 for the
    zero class) are a bundle's Chern roots, and which degree-1 top monomial
    is a blown-up point.  Every move adds one generator, so indices are
    known without the engine."""
    n, shape_moves = shape
    gens = 1
    moves = []
    for kind, arg in shape_moves:
        if kind == "bundle":
            arg = [rng.randrange(-1, gens) for _ in range(arg)]
        elif kind == "blowup-point":
            arg = rng.randrange(1 << 16)
        moves.append([kind, arg])
        gens += 1
    return {"n": n, "moves": moves}


def build_tower(recipe: dict) -> va.ChowPresentation:
    X = va.projective_space(recipe["n"])
    for move, arg in recipe["moves"]:
        names = X.ring.names
        if move == "product":
            X = va.product(X, va.projective_space(arg))
        elif move == "bundle":
            roots = [X.zero() if i < 0 else X.gen(names[i]) for i in arg]
            X = va.projective_bundle(X, va.BundleRoots.plus(roots, ring=X.ring))
        elif move == "blowup-linear":
            center = va.CenterData.complete_intersection([X.gen("h")] * arg)
            X = va.blow_up(X, center, exceptional_gen=f"e{len(names)}")
        else:  # blowup-point: a top basis monomial of degree 1
            tops = [m for m in X.basis_of(X.dim) if X.degree_table.get(m) == 1]
            center = va.CenterData(
                fundamental=X.ring.from_table({tops[arg % len(tops)]: 1}),
                roots=va.BundleRoots.plus([X.zero()] * X.dim, ring=X.ring),
                restriction={g: X.zero() for g in names},
                name="pt",
            )
            X = va.blow_up(X, center, exceptional_gen=f"e{len(names)}")
    return X


class Towers:
    """Item = one tower recipe: build it, pair it mod 2 and mod 3, take the
    Bareiss determinant of every codegree matrix, and form the quotient by
    the first generator and the kernel-ideal check."""

    name = "towers"
    min_passes = 1
    repeat_s = 0.0
    repeat_max = 1

    def inputs(self, seed: int) -> list:
        # a fixed quarter of the shapes, so that a pass stays short and a run
        # holds many; their details are the fixed design, because one shape's
        # cost moves up to threefold with its bundle roots, and the seed picks
        # the order and each tower's quotient prime
        design, rng = random.Random(DESIGN_SEED), random.Random(seed)
        recipes = [tower_recipe(design, shape) for shape in tower_shapes()[::4]]
        for recipe in recipes:
            recipe["quotient_prime"] = rng.choice([2, 3])
        rng.shuffle(recipes)
        return recipes

    def begin_pass(self, inputs):
        return None

    def run_item(self, state, recipe) -> list[str]:
        X = build_tower(recipe)
        problems = []
        for p in (2, 3):
            rep = nu.pairing_report(X, p)
            for d, entry in rep.codegrees.items():
                if entry.kernel:
                    problems.append(f"{X.name}: kernel mod {p} in codegree {d}")
                if p == 2 and nu.integer_determinant(entry.matrix) not in (1, -1):
                    problems.append(f"{X.name}: codegree {d} pairing is not unimodular")
        q = recipe["quotient_prime"]
        dims = nu.gamma_quotient(X, q, [X.gen(X.ring.names[0])]).dimensions
        if len(dims) != X.dim + 1 or dims[0] != 1:
            problems.append(f"{X.name}: quotient dimensions {dims}")
        if not nu.kernel_is_ideal(X, q):
            problems.append(f"{X.name}: kernel is not an ideal mod {q}")
        return problems

    def end_pass(self, state) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# operations: reduced powers, characteristic classes, the Milnor suite
# ---------------------------------------------------------------------------

def _exponents(ngens: int, d: int) -> list:
    """Every exponent vector of codegree d over ngens codegree-1 generators."""
    if ngens == 1:
        return [[d]]
    return [[i] + rest for i in range(d + 1) for rest in _exponents(ngens - 1, d - i)]


def _monomials(design: random.Random, ngens: int, codegrees, terms: int) -> list:
    """``terms`` distinct monomials (all of them if there are fewer) of
    codegrees in ``codegrees``, drawn from the fixed design."""
    pool = [e for d in codegrees for e in _exponents(ngens, d)]
    return design.sample(pool, min(terms, len(pool)))


def _unit(rng: random.Random, p: int) -> int:
    return rng.choice([c for c in range(-5, 6) if c % p])


def _table(rng: random.Random, monomials: list, p: int, swap: bool) -> list:
    """A class on designed monomials as plain data, [[exponent per
    generator], coefficient] per term: the seed picks coefficients that are
    nonzero mod p and, where ``swap`` (two interchangeable generators of a
    rule-free ring), whether the generators trade places."""
    flip = swap and rng.random() < 0.5
    return [[m[::-1] if flip else m, _unit(rng, p)] for m in monomials]


def _linear(rng: random.Random, p: int) -> list:
    """A linear form a*x + b*y with a and b nonzero mod p, as a table."""
    return [[[1, 0], _unit(rng, p)], [[0, 1], _unit(rng, p)]]


def from_table(ring: ri.RingContext, table: list) -> ri.GradedClass:
    raw: dict = {}
    for exps, c in table:
        m = ri.Monomial(enumerate(exps))
        raw[m] = raw.get(m, 0) + c
    return ring.from_table(raw)


# Presentations the d-class cases draw from, with (generators, dimension):
# P^1..P^5 and two bundle towers, all mod 2.  Built fresh in each pass.
DCLASS_TOWERS = {f"P{n}": (1, n) for n in range(1, 6)}
DCLASS_TOWERS.update({"P(P1)": (2, 2), "P(P1xP1)": (3, 3)})


def _dclass_towers() -> dict:
    P1 = va.projective_space(1)
    Q = va.product(P1, P1)
    towers = {f"P{n}": va.projective_space(n) for n in range(1, 6)}
    towers["P(P1)"] = va.projective_bundle(P1, va.BundleRoots.plus([P1.zero(), P1.gen("h")]))
    towers["P(P1xP1)"] = va.projective_bundle(
        Q, va.BundleRoots.plus([Q.zero(), Q.gen("h_1")], ring=Q.ring))
    return {k: X.with_coefficients(2) for k, X in towers.items()}


def _words(m: int, height: int, k_max: int) -> list:
    """Basis words [k, I, s] of the weight-m symbol ring over F_2[rho]/(rho^height)."""
    return [[k, list(I), s]
            for k in range(k_max + 1)
            for size in range(m)
            for I in itertools.combinations(range(m - 1), size)
            for s in range(height)]


class Operations:
    """Item = one identity check.  Ring-side classes are seeded coefficient
    tables; the Milnor suite is exhaustive over its basis words."""

    name = "operations"
    min_passes = 1
    repeat_s = 0.0
    repeat_max = 1
    cartan_per_prime = 80
    p0_per_prime = 20
    embedded_per_prime = 10

    def inputs(self, seed: int) -> list:
        design, rng = random.Random(DESIGN_SEED), random.Random(seed)
        items = []
        for p in (2, 3):
            for _ in range(self.cartan_per_prime):
                a, b = (_monomials(design, 2, range(4), 2) for _ in "ab")
                items.append({"case": "cartan", "p": p, "a": _table(rng, a, p, True),
                              "b": _table(rng, b, p, True)})
            for _ in range(self.p0_per_prime):
                c = _monomials(design, 2, range(6), 3)
                items.append({"case": "p0", "p": p, "c": _table(rng, c, p, True)})
            for _ in range(self.embedded_per_prime):
                items.append({"case": "embedded", "p": p,
                              "l1": _linear(rng, p), "l2": _linear(rng, p)})
        # one homogeneous class per tower and codegree, on designed monomials
        for tower, (ngens, dim) in DCLASS_TOWERS.items():
            for d in range(dim + 1):
                c = _monomials(design, ngens, [d], 2)
                items.append({"case": "dclass", "tower": tower, "c": _table(rng, c, 2, False)})
        for m in (2, 3, 4):
            items.append({"case": "square", "m": m, "height": 4})
            for w in _words(m, 2, 2):
                items.append({"case": "d2", "m": m, "w": w})
            for k in range(m):
                for I in itertools.combinations(range(m - 1), k):
                    items.append({"case": "rigid", "m": m, "I": list(I)})
            words = _words(m, 2, 1)
            for K in range(m):
                for w1 in words:
                    for w2 in words:
                        items.append({"case": "comult", "m": m, "K": [K], "w1": w1, "w2": w2})
        for m in (2, 3):
            for w in _words(m, 1, 3):
                items.append({"case": "restrict", "m": m, "w": w})
            for i in range(m):
                items.append({"case": "exact", "m": m, "i": i})
        return items

    def begin_pass(self, inputs):
        return {
            2: va.generic_context([("x", 1), ("y", 1)], 5, modulus=2, name="C2"),
            3: va.generic_context([("x", 1), ("y", 1)], 6, modulus=3, name="C3"),
            "dclass": _dclass_towers(),
        }

    def end_pass(self, state) -> list[str]:
        return []

    def run_item(self, state, item) -> list[str]:
        ok = getattr(self, "_" + item["case"])(state, item)
        return [] if ok else [f"identity fails: {json.dumps(item, sort_keys=True)}"]

    # -- ring side -------------------------------------------------------

    def _cartan(self, state, item) -> bool:
        X = state[item["p"]]
        a, b = from_table(X.ring, item["a"]), from_table(X.ring, item["b"])
        return ch.steenrod_total(X, a * b) == ch.steenrod_total(X, a) * ch.steenrod_total(X, b)

    def _p0(self, state, item) -> bool:
        X = state[item["p"]]
        c = from_table(X.ring, item["c"])
        return all(ch.reduced_power(X, c.homogeneous_part(d), 0) == c.homogeneous_part(d)
                   for d in c.codegrees())

    def _embedded(self, state, item) -> bool:
        """For S = l1*l2 cut out by divisors with normal roots l1, l2:
        P(S) = S * prod(1 + l^(p-1)), whose pieces are q_1 = sum l^(p-1) and
        q_2 = prod l^(p-1); for p = 2 these are the Chern classes of N."""
        p = item["p"]
        X = state[p]
        l1, l2 = from_table(X.ring, item["l1"]), from_table(X.ring, item["l2"])
        S, N = l1 * l2, va.BundleRoots.plus([l1, l2])
        ok = ch.steenrod_total(X, S) == ch.steenrod_embedded(X, S, N)
        ok = ok and ch.embedded_power(X, S, N, 1) == (l1 ** (p - 1) + l2 ** (p - 1)) * S
        ok = ok and ch.embedded_power(X, S, N, 2) == (l1 * l2) ** (p - 1) * S
        if p == 2:
            ok = ok and ch.chern_class(N, 1) == l1 + l2 and ch.chern_class(N, 2) == l1 * l2
        return ok

    def _dclass(self, state, item) -> bool:
        """Reconstruction: sum_l d_l(T) * P_{i-l}(c) = P^i(c) for every
        homogeneous part of c and every i that fits."""
        X = state["dclass"][item["tower"]]
        dT = ch.d_class(X.tangent_class(), 2)
        c = from_table(X.ring, item["c"])
        for d in sorted(c.codegrees()):
            part = c.homogeneous_part(d)
            for i in range(0, X.dim - d + 1):
                lhs = X.zero()
                for l in range(0, i + 1):
                    dl = dT.homogeneous_part(l)
                    if not dl.is_zero():
                        lhs = lhs + dl * ch.homological_power(X, part, i - l)
                if lhs != ch.reduced_power(X, part, i):
                    return False
        return True

    # -- Milnor suite ----------------------------------------------------

    @staticmethod
    def _elem(R, w):
        return R.element([mi.Word(w[0], frozenset(w[1]), w[2])])

    def _square(self, state, item) -> bool:
        m = item["m"]
        R = mi.make_ring(m, mi.truncated_symbol_ia(item["height"]))
        rho = R.rho_elem()
        return all(R.r(i) * R.r(i) == R.r(i + 1) * rho for i in range(m - 1))

    def _d2(self, state, item) -> bool:
        R = mi.make_ring(item["m"], mi.truncated_symbol_ia(2))
        e = self._elem(R, item["w"])
        return all(mi.q_apply(i, mi.q_apply(i, e)).is_zero() for i in R.q_indices)

    def _rigid(self, state, item) -> bool:
        R = mi.make_ring(item["m"], mi.truncated_symbol_ia(2))
        return mi.q_composite(item["I"], R.r_set(item["I"])) == R.one()

    def _comult(self, state, item) -> bool:
        R = mi.make_ring(item["m"], mi.truncated_symbol_ia(2))
        return mi.comult_check(item["K"], self._elem(R, item["w1"]), self._elem(R, item["w2"]))

    def _restrict(self, state, item) -> bool:
        m = item["m"]
        S, T = mi.make_ring(m, mi.trivial_ia()), mi.make_ring(m + 1, mi.trivial_ia())
        proj = [frozenset({0})]
        e = self._elem(S, item["w"])
        return all(
            mi.restrict_symbol(S, T, proj, mi.q_apply(i, e))
            == mi.q_apply(i, mi.restrict_symbol(S, T, proj, e))
            for i in S.q_indices
        )

    def _exact(self, state, item) -> bool:
        R = mi.make_ring(item["m"], mi.trivial_ia())
        dims = mi.q_homology_dimensions(R, item["i"], -6, 6)
        return bool(dims) and all(v == 0 for v in dims.values())


WORKLOADS = {w.name: w for w in (LemmasAll(), Towers(), Operations())}
