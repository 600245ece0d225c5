"""The built-in scenario registry.

Each record carries an ID, a one-line statement of what the scenario
checks, and the script text.  Geometric inputs that the engine cannot
derive (general-position choices, connectedness, halved divisor classes)
enter as declared substitution ideals or rule sets inside the scripts; the
chosen substitution set is documented per script in comments.
"""

from __future__ import annotations

from .report import Report
from .script import parse_script, run_scenario


class LemmaRecord:
    """One registry entry, registered once under its ID."""

    __slots__ = ("id", "statement", "script", "expected")

    def __init__(self, id: str, statement: str, script: str, expected: str = "pass"):
        self.id = id
        self.statement = statement
        self.script = script
        self.expected = expected


_REGISTRY: dict[str, LemmaRecord] = {}


def _register(record: LemmaRecord) -> None:
    if record.id in _REGISTRY:
        raise ValueError(f"duplicate registry id {record.id}")
    _REGISTRY[record.id] = record


def all_records() -> list[LemmaRecord]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get(record_id: str) -> LemmaRecord:
    try:
        return _REGISTRY[record_id]
    except KeyError:
        raise KeyError(f"no registry entry {record_id!r}") from None


def run(record_id: str, seed=None) -> Report:
    rec = get(record_id)
    return run_scenario(parse_script(rec.script), rec.id, seed=seed)


def run_all(seed=None) -> Report:
    total = Report()
    for rec in all_records():
        total = total.merged(run(rec.id, seed=seed))
    return total


# ---------------------------------------------------------------------------
# 1-cycles on a 3-fold
# ---------------------------------------------------------------------------

_register(LemmaRecord(
    id="A15-L2",
    statement="first normal Chern number of a curve class dies mod 2 through "
              "the homological operation; mod-2 route on a concrete 3-fold "
              "plus the Euler-class bookkeeping of the odd-p correction",
    script="""
; mod-2 branch on a cellular 3-fold: the degree-1 homological operation
; kills every curve class pushed to the point
(pspace P 3 (mod 2))
(let S (mul h h))                       ; a line, cut by two hyperplanes
(assert-equal (lemma A15-L2) (embedded 1 S (roots h h)) (mul (add h h) S))
(assert-deg (lemma A15-L2) (homological 1 S) 0)
(assert-deg (derived) (homological 1 (mul h h)) 0)

; odd-p correction term: a rational curve contributes -2 per center point
(pspace C 1)
(assert-deg (lemma A15-L2) (part 1 (inv-total (tangent C))) -2)

; the ambient-tangent term is numerically trivial once the curve class is:
; c1(T_X).[S] lands in the ideal generated by [S]
(generic X3 3 (gens (x 1) (y 1) (t 1)))
(declare-ideal Snum (mul x y))
(assert-zero (lemma A15-L2) (mul t x y) (modulo Snum))
""",
))


# ---------------------------------------------------------------------------
# codimension-2 cycles on a 4-fold
# ---------------------------------------------------------------------------

_register(LemmaRecord(
    id="A18-L3",
    statement="pairwise-intersection bookkeeping: twice the second elementary "
              "symmetric function of component classes is [S]^2 - sum [S_i]^2, "
              "and modulo [S] the corrected square equals (c1^2+c2)(N_S).[S]",
    script="""
(generic X 4 (gens (x1 1) (y1 1) (x2 1) (y2 1)))
(let b1 (mul x1 y1)) (let b2 (mul x2 y2))
(let a1 (add x1 y1)) (let a2 (add x2 y2))
(let S (add b1 b2))
(let L2 (mul b1 b2))                     ; sum over 2-element subsets
(assert-equal (lemma A18-L3) (scale 2 L2) (sub (mul S S) (add (mul b1 b1) (mul b2 b2))))
(declare-ideal Snum S)
; with [S] numerically trivial: c1^2 - 2*Lambda^2 = (c1^2 + c2)(N_S).[S]
(let c12S (add (mul (pow a1 2) b1) (mul (pow a2 2) b2)))
(let c2S  (add (mul b1 b1) (mul b2 b2)))
(assert-equal (lemma A18-L3) (sub c12S (scale 2 L2)) (add c12S c2S) (modulo Snum))
""",
))

_register(LemmaRecord(
    id="A18-L5",
    statement="square of the first normal Chern class of a surface in a "
              "4-fold is numerically trivial: p=3 via the degree-2 operation, "
              "odd p>3 via the blow-up at the bi-halved point cycle",
    script="""
; p = 3: the degree-2 characteristic class of the first reduced power
(generic X 4 (mod 3) (gens (x 1) (y 1)))
(let S (mul x y))
(let c (add x y))
(let P1S (embedded 1 S (roots x y)))
(assert-equal (lemma A18-L5) P1S (mul (add (pow c 2) (mul x y)) S))
(assert-equal (trivial) (mul (mul x y) S) (mul S S))
(declare-ideal AB P1S)
(declare-ideal Snum S)
(assert-zero (lemma A18-L5) (mul (pow c 2) S) (modulo AB Snum))

; p > 3: blow up the point cycle cut by u ~ c/2 and v ~ c/3 on S
(generic X2 4 (gens (x 1) (y 1) (u 1) (v 1)))
(blowup Xt X2 e (class (mul x y u v)) (roots x y u v))
(let c (add x y))
(let b (mul x y))
(let F (mul e (sub c e)))
(let St (add b (neg (mul e c)) (mul e e)))
(assert-equal (trivial) (add St F) b)
(declare-ideal J (mul (sub (scale 2 u) c) b) (mul (sub (scale 3 v) c) b))
(let c12tot (add (mul (pow (sub c (scale 2 e)) 2) St) (mul (pow c 2) F)))
(assert-numequal (lemma A18-L5) (scale 3 c12tot) (mul St (pow c 2)) (modulo J))
(assert-numequal (lemma A18-L5) (scale 6 (mul St F)) (mul St (pow c 2)) (modulo J))
(assert-numzero (lemma A18-L5) (sub c12tot (scale 2 (mul St F))) (modulo J))
""",
))

_register(LemmaRecord(
    id="A18-L6",
    statement="first normal Chern class of the surface killed numerically: "
              "p=2 through the degree-1 operation, odd p through the blow-up "
              "at a halved divisor on the surface",
    script="""
; p = 2: the characteristic class of the first reduced power is c1
(generic X 4 (mod 2) (gens (x 1) (y 1)))
(let S (mul x y))
(assert-equal (lemma A18-L6) (embedded 1 S (roots x y)) (mul (add x y) S))

; odd p: blow up the curve R = CI(x,y,u) with 2u ~ c1(N_S) on S
(generic X2 4 (gens (x 1) (y 1) (u 1)))
(blowup Xt X2 e (class (mul x y u)) (roots x y u))
(let c (add x y))
(let b (mul x y))
(let F (mul e (sub c e)))
(let St (add b (neg (mul e c)) (mul e e)))
; the transform meets the fiber divisor along u = e (engine-derived)
(assert-zero (derived) (mul St (sub u e)))
(declare-ideal J (mul (sub (scale 2 u) c) b))
(declare-ideal H (mul c b u))            ; c1.[R] numerically trivial on R
(assert-numzero (lemma A18-L6) (mul (sub c (scale 2 e)) St) (modulo J))
(assert-numzero (lemma A18-L6) (mul (pow (sub c (scale 2 e)) 2) St) (modulo J))
(assert-numzero (lemma A18-L6) (mul (pow (sub c (scale 2 e)) 3) St) (modulo J))
(assert-numzero (lemma A18-L6) (mul c F) (modulo J H))
(assert-numzero (lemma A18-L6) (mul St F) (modulo J H))
""",
))


# ---------------------------------------------------------------------------
# 2-cycles on a 5-fold
# ---------------------------------------------------------------------------

_register(LemmaRecord(
    id="A20-L1",
    statement="second normal Chern number of a 2-cycle: p=2 through the "
              "degree-2 operation; odd p loses exactly 2 deg[Q] under the "
              "blow-up at the doubled-divisor curve",
    script="""
; p = 2: the characteristic class of the second reduced power is c2
(generic X 5 (mod 2) (gens (x1 1) (x2 1) (x3 1)))
(let S (mul x1 x2 x3))
(assert-equal (lemma A20-L1) (embedded 2 S (roots x1 x2 x3))
  (mul (add (mul x1 x2) (mul x2 x3) (mul x1 x3)) S))

; odd p: blow up R = CI(x1,x1g,x2,x2g); the transform and the fiber piece
; each lose one copy of the zero-cycle Q = R.S
(generic X2 5 (gens (x1 1) (x2 1) (x3 1) (x1g 1) (x2g 1)))
(blowup Xt X2 e (class (mul x1 x1g x2 x2g)) (roots x1 x1g x2 x2g))
(let r (neg e))
(let St (mul (add x1 r) (add x2 r) x3))
(let V (mul (neg (pow r 2)) x3))
(assert-equal (trivial) (add St V) (mul x1 x2 x3))
(let Q (mul x1 x1g x2 x2g x3))
(let c2S (mul (add (mul x1 x2) (mul x2 x3) (mul x1 x3)) (mul x1 x2 x3)))
(let c2St (mul (add (mul (add x1 r) (add x2 r)) (mul (add x1 r) x3) (mul (add x2 r) x3)) St))
(let c2V (mul (neg (pow r 2)) V))
(assert-equal (lemma A20-L1) (add c2St c2V) (sub c2S (scale 2 Q)))
""",
))

_register(LemmaRecord(
    id="A20-L2",
    statement="per-component second normal Chern class: roots (-r,0,r) give "
              "c2 = -r^2, and the fiber correction (p-1)(-1)-1+0 = -p "
              "vanishes mod p for p in {2,3,5}",
    script="""
(generic G 4 (gens (r 1)))
(assert-equal (lemma A20-L2) (chern 2 (roots (neg r) 0 r)) (neg (pow r 2)))
(assert-equal (trivial) (chern-total (roots r (neg r))) (sub 1 (pow r 2)))

; fiber bookkeeping: on the transformed plane bundle the section class q
; satisfies a^2 = -(p-1) q, r^2 = q, a r = 0, so c2 of roots (a-r, a, r)
; evaluates to -p q = 0 mod p
(generic B2 4 (mod 2) (gens (a 1) (r 1) (q 2))
  (rules ((mul a r) 0) ((mul a a) (scale -1 q)) ((mul r r) q)))
(assert-zero (lemma A20-L2) (chern 2 (roots (sub a r) a r)))
(generic B3 4 (mod 3) (gens (a 1) (r 1) (q 2))
  (rules ((mul a r) 0) ((mul a a) (scale -2 q)) ((mul r r) q)))
(assert-zero (lemma A20-L2) (chern 2 (roots (sub a r) a r)))
(generic B5 4 (mod 5) (gens (a 1) (r 1) (q 2))
  (rules ((mul a r) 0) ((mul a a) (scale -4 q)) ((mul r r) q)))
(assert-zero (lemma A20-L2) (chern 2 (roots (sub a r) a r)))

; the companion fiber component with roots (-a, a, 0) carries (p-1) deg[Q]
(in-context B3)
(assert-equal (lemma A20-L2) (chern 2 (roots (neg a) a 0)) (scale 2 q))
""",
))


# ---------------------------------------------------------------------------
# codimension-2 cycles on a 5-fold
# ---------------------------------------------------------------------------

_register(LemmaRecord(
    id="A23-L1",
    statement="mod 2 the expanded component decomposition kills c1^3 and "
              "c1^2 outright, and c1^3+c1c2 is the composite of the degree-2 "
              "and degree-1 reduced powers",
    script="""
(generic X 5 (mod 2) (gens (x1 1) (y1 1) (x2 1) (y2 1)))
(let c13a (add (mul x1 y1 (pow (add x1 y1) 3))
               (mul (add x1 y1) x1 (pow y1 3))
               (mul (add x1 y1) y1 (pow x1 3))))
(let c13b (add (mul x2 y2 (pow (add x2 y2) 3))
               (mul (add x2 y2) x2 (pow y2 3))
               (mul (add x2 y2) y2 (pow x2 3))))
(assert-zero (lemma A23-L1) (add c13a c13b))
(let c12a (add (mul x1 y1 (pow (add x1 y1) 2))
               (mul (add x1 y1) x1 (pow y1 2))
               (mul (add x1 y1) y1 (pow x1 2))))
(assert-zero (lemma A23-L1) c12a)
; per complete intersection: (c1^3 + c1c2)(N).[S] = P^2 P^1 [S]
(let S (mul x1 y1))
(let c (add x1 y1))
(assert-equal (lemma A23-L1)
  (add (mul (pow c 3) S) (mul c (mul x1 y1) S))
  (ppow 2 (ppow 1 S)))
""",
))

_register(LemmaRecord(
    id="A23-L1-SL1",
    statement="blow-up at a degree-1 point shifts the characteristic numbers "
              "by exactly -2 on c1c2 and -8 on c1^3",
    script="""
(generic X 5 (gens (x 1) (y 1) (pt 5)) (degrees ((mul pt 1) 1)))
(blowup Xt X e (class pt) (roots 0 0 0 0 0)
  (restrict (x 0) (y 0) (pt 0)))
(let r (neg e))
(let St (mul (add x r) (add y r)))
(let F (mul (neg r) r))
(assert-equal (trivial) (add St F) (mul x y))
(let c1c2new (mul (pow (add x r) 2) (pow (add y r) 2) (add x y (scale 2 r))))
(let c1c2old (mul (pow x 2) (pow y 2) (add x y)))
(assert-equal (lemma A23-L1-SL1) c1c2new (sub c1c2old (scale 2 pt)))
(assert-deg (lemma A23-L1-SL1) (sub c1c2new c1c2old) -2)
(let c13new (mul (add x r) (add y r) (pow (add x y (scale 2 r)) 3)))
(let c13old (mul x y (pow (add x y) 3)))
(assert-equal (lemma A23-L1-SL1) c13new (sub c13old (scale 8 pt)))
(assert-deg (lemma A23-L1-SL1) (sub c13new c13old) -8)
""",
))

_register(LemmaRecord(
    id="A23-L1-SL2",
    statement="the expansion substitution acts on the pair (c1^3, c1c2) of "
              "characteristic numbers by the matrix [[20, -2], [5, 1]]",
    script="""
(generic X 5 (gens (x 1) (y 1)))
(let c13 (mul x y (pow (add x y) 3)))
(let c1c2 (mul (add x y) (pow (mul x y) 2)))
; expanded components: (x,y) kept, minus ((x+y),x), minus ((x+y),y),
; plus ((x+y),(x+y))
(let c13exp (add c13
  (neg (mul (add x y) x (pow (add (scale 2 x) y) 3)))
  (neg (mul (add x y) y (pow (add (scale 2 y) x) 3)))
  (mul (pow (add x y) 2) (pow (scale 2 (add x y)) 3))))
(let c1c2exp (add c1c2
  (neg (mul (add (scale 2 x) y) (pow (mul (add x y) x) 2)))
  (neg (mul (add (scale 2 y) x) (pow (mul (add x y) y) 2)))
  (mul (scale 2 (add x y)) (pow (pow (add x y) 2) 2))))
(assert-equal (lemma A23-L1-SL2) (sub c13exp c13)
  (mul x y (add x y) (sub (scale 19 (pow (add x y) 2)) (scale 2 (mul x y)))))
(assert-equal (lemma A23-L1-SL2) c13exp (sub (scale 20 c13) (scale 2 c1c2)))
(assert-equal (lemma A23-L1-SL2) c1c2exp (add (scale 5 c13) c1c2))
(report-value matrix ((20 -2) (5 1)))
""",
))

_register(LemmaRecord(
    id="A23-L2-SL1",
    statement="blow-up at all pairwise intersections of three complete-"
              "intersection components: the five degree factors 2, (1, 0), "
              "c1^3+4c1c2, -3, -2 hold as class identities modulo [S]",
    script="""
(generic X 5 (gens (x1 1) (y1 1) (x2 1) (y2 1) (x3 1) (y3 1)))
(blowup X12 X e12 (class (mul x1 y1 x2 y2)) (roots x1 y1 x2 y2))
(blowup X13 X12 e13 (class (mul x1 y1 x3 y3)) (roots x1 y1 x3 y3) (restrict (e12 0)))
(blowup Xt X13 e23 (class (mul x2 y2 x3 y3)) (roots x2 y2 x3 y3) (restrict (e12 0) (e13 0)))

(let r12 (neg e12)) (let r13 (neg e13)) (let r23 (neg e23))
(let p1 (add r12 r13)) (let p2 (add r12 r23)) (let p3 (add r13 r23))
(let a1 (add x1 y1)) (let a2 (add x2 y2)) (let a3 (add x3 y3))
(let b1 (mul x1 y1)) (let b2 (mul x2 y2)) (let b3 (mul x3 y3))
(declare-ideal Snum (add b1 b2 b3))

(let St1 (mul (add p1 x1) (add p1 y1)))
(let St2 (mul (add p2 x2) (add p2 y2)))
(let St3 (mul (add p3 x3) (add p3 y3)))
(let rho (add r12 r13 r23))
(let G (mul (neg rho) rho))
(assert-equal (trivial)
  (add St1 St2 St3
       (mul (neg r12) (add r12 a1 a2)) (mul (neg r13) (add r13 a1 a3)) (mul (neg r23) (add r23 a2 a3))
       G)
  (add b1 b2 b3))

(let c1c2S (add (mul a1 b1 b1) (mul a2 b2 b2) (mul a3 b3 b3)))
(let c13S  (add (mul b1 (pow a1 3)) (mul b2 (pow a2 3)) (mul b3 (pow a3 3))))

; (1) transform side: factor 2
(let c1c2St (add
  (mul (pow (add p1 x1) 2) (pow (add p1 y1) 2) (add (scale 2 p1) a1))
  (mul (pow (add p2 x2) 2) (pow (add p2 y2) 2) (add (scale 2 p2) a2))
  (mul (pow (add p3 x3) 2) (pow (add p3 y3) 2) (add (scale 2 p3) a3))))
(assert-equal (lemma A23-L2-SL1) c1c2St (scale 2 c1c2S) (modulo Snum))

; (2) fiber side: factor 1, and the square component contributes 0
(let c1c2F (add
  (mul (pow r12 2) (pow (add r12 a1 a2) 2) (add a1 a2))
  (mul (pow r13 2) (pow (add r13 a1 a3) 2) (add a1 a3))
  (mul (pow r23 2) (pow (add r23 a2 a3) 2) (add a2 a3))))
(assert-equal (lemma A23-L2-SL1) c1c2F c1c2S (modulo Snum))
(assert-zero (lemma A23-L2-SL1)
  (mul (chern 1 (roots (neg rho) rho)) (chern 2 (roots (neg rho) rho)) G))

; (3) the cube picks up 4 c1c2
(let c13St (add
  (mul (add p1 x1) (add p1 y1) (pow (add (scale 2 p1) a1) 3))
  (mul (add p2 x2) (add p2 y2) (pow (add (scale 2 p2) a2) 3))
  (mul (add p3 x3) (add p3 y3) (pow (add (scale 2 p3) a3) 3))))
(let c13F (add
  (mul (neg r12) (add r12 a1 a2) (pow (add a1 a2) 3))
  (mul (neg r13) (add r13 a1 a3) (pow (add a1 a3) 3))
  (mul (neg r23) (add r23 a2 a3) (pow (add a2 a3) 3))))
(assert-equal (lemma A23-L2-SL1) (add c13St c13F) (add c13S (scale 4 c1c2S)) (modulo Snum))

; (4) transform-normal c1 against the mutual intersection: factor -3
(let t4 (add
  (mul (add (mul (add (scale 2 p1) a1) St1) (mul (add (scale 2 p2) a2) St2)) (neg r12) (add r12 a1 a2))
  (mul (add (mul (add (scale 2 p1) a1) St1) (mul (add (scale 2 p3) a3) St3)) (neg r13) (add r13 a1 a3))
  (mul (add (mul (add (scale 2 p2) a2) St2) (mul (add (scale 2 p3) a3) St3)) (neg r23) (add r23 a2 a3))))
(assert-equal (lemma A23-L2-SL1) t4 (scale -3 c1c2S) (modulo Snum))

; (5) fiber-normal c1 against the mutual intersection: factor -2
(let t5 (add
  (mul (add St1 St2) (add a1 a2) (neg r12) (add r12 a1 a2))
  (mul (add St1 St3) (add a1 a3) (neg r13) (add r13 a1 a3))
  (mul (add St2 St3) (add a2 a3) (neg r23) (add r23 a2 a3))))
(assert-equal (lemma A23-L2-SL1) t5 (scale -2 c1c2S) (modulo Snum))
""",
))

_register(LemmaRecord(
    id="A23-L2-SL4",
    statement="two components with connected curve intersection combine: the "
              "replacement classes have numerically trivial c1^3 and c1c2 "
              "given the hypotheses; clause (2) is [S]-algebra",
    script="""
; the intersection of the two fiber divisors is a product-line bundle over
; the curve; its base classes of codegree >= 2 vanish, declared as rules
(generic X 5 (gens (x1 1) (y1 1) (x2 1) (y2 1)))
(blowup X1 X e1 (class (mul x1 y1)) (roots x1 y1))
(blowup Xt X1 e2 (class (mul x2 y2)) (roots x2 y2)
  (rules ((mul e1 e2 x1 x1) 0) ((mul e1 e2 x1 y1) 0) ((mul e1 e2 x1 x2) 0) ((mul e1 e2 x1 y2) 0)
         ((mul e1 e2 y1 y1) 0) ((mul e1 e2 y1 x2) 0) ((mul e1 e2 y1 y2) 0)
         ((mul e1 e2 x2 x2) 0) ((mul e1 e2 x2 y2) 0) ((mul e1 e2 y2 y2) 0)))

(let a1 (add x1 y1)) (let a2 (add x2 y2))
(let b1 (mul x1 y1)) (let b2 (mul x2 y2))
(let S (add b1 b2))
(let S12 (mul b1 b2))
(declare-ideal Snum S)
(declare-ideal H (mul a1 S12) (mul a2 S12) (mul a1 b1 b1) (mul a2 b2 b2)
                 (add (mul (pow a1 3) b1) (mul (pow a2 3) b2)))

; the replacement classes on the two fiber divisors sum to the pullback
(let Sp1 (mul e1 (add (neg e1) e2 a1)))
(let Sp2 (mul e2 (add (neg e1) (neg e2) a2)))
(assert-equal (trivial) (add Sp1 Sp2) (add b1 b2))

; clause (2): [S] trivial and c1c2(N_i)[S_i] trivial kill c1(N_i).[S12]
(assert-equal (lemma A23-L2-SL4) (mul a1 S12) (neg (mul a1 b1 b1)) (modulo Snum))
(assert-equal (lemma A23-L2-SL4) (mul a2 S12) (neg (mul a2 b2 b2)) (modulo Snum))

; clause (1): c1^3 and c1c2 of the combined replacement vanish numerically
(let c13Sp (add
  (mul e1 (add (neg e1) e2 a1) (pow (add e2 a1) 3))
  (mul e2 (add (neg e1) (neg e2) a2) (pow (add (neg e1) a2) 3))))
(assert-zero (lemma A23-L2-SL4) c13Sp (modulo H))
(let c1c2Sp (add
  (mul (add e2 a1) (add (neg e1) e2 a1) e1 e1 (add (neg e1) e2 a1))
  (mul (add (neg e1) a2) (add (neg e1) (neg e2) a2) e2 e2 (add (neg e1) (neg e2) a2))))
(assert-zero (lemma A23-L2-SL4) c1c2Sp (modulo H))
""",
))

_register(LemmaRecord(
    id="A23-L2-SL5",
    statement="the square of the first normal Chern class of the combined "
              "component equals -2 [S1][S2] + c1^2(N_S)[S] up to numerical "
              "equivalence over the connected intersection curve",
    script="""
(generic X 5 (gens (x1 1) (y1 1) (x2 1) (y2 1)))
(blowup X1 X e1 (class (mul x1 y1)) (roots x1 y1))
(blowup Xt X1 e2 (class (mul x2 y2)) (roots x2 y2)
  (rules ((mul e1 e2 x1 x1) 0) ((mul e1 e2 x1 y1) 0) ((mul e1 e2 x1 x2) 0) ((mul e1 e2 x1 y2) 0)
         ((mul e1 e2 y1 y1) 0) ((mul e1 e2 y1 x2) 0) ((mul e1 e2 y1 y2) 0)
         ((mul e1 e2 x2 x2) 0) ((mul e1 e2 x2 y2) 0) ((mul e1 e2 y2 y2) 0)))
(let a1 (add x1 y1)) (let a2 (add x2 y2))
(let b1 (mul x1 y1)) (let b2 (mul x2 y2))
(let S12 (mul b1 b2))
(declare-ideal H5 (mul a1 S12) (mul a2 S12))
(let c12Sp (add
  (mul e1 (add (neg e1) e2 a1) (pow (add e2 a1) 2))
  (mul e2 (add (neg e1) (neg e2) a2) (pow (add (neg e1) a2) 2))))
(let c12S (add (mul (pow a1 2) b1) (mul (pow a2 2) b2)))
(assert-numequal (lemma A23-L2-SL5) c12Sp (add (scale -2 S12) c12S) (modulo H5))
""",
))

_register(LemmaRecord(
    id="A23-L3",
    statement="blow-up at the bi-halved curve makes the square of the first "
              "normal Chern class numerically trivial while preserving the "
              "cube and mixed triviality",
    script="""
(generic X 5 (gens (x 1) (y 1) (u 1) (v 1)))
(blowup Xt X e (class (mul x y u v)) (roots x y u v))
(let c (add x y))
(let b (mul x y))
(let F (mul e (sub c e)))
(let St (add b (neg (mul e c)) (mul e e)))
(assert-equal (trivial) (add St F) b)
; fiber relation on the transform comes out of the rewrite system
(assert-zero (derived) (mul St (add (mul e e) (neg (mul (add u v) e)) (mul u v))))

(declare-ideal J (mul (sub (scale 2 u) c) b) (mul (sub (scale 3 v) c) b))
(declare-ideal H (mul (pow c 3) b) (mul c b b) (mul c b u v))

(let c12tot (add (mul (pow (sub c (scale 2 e)) 2) St) (mul (pow c 2) F)))
(assert-numequal (lemma A23-L3) (scale 3 c12tot) (mul St (pow c 2)) (modulo J H))
(assert-numequal (lemma A23-L3) (scale 6 (mul St F)) (mul St (pow c 2)) (modulo J H))
(assert-numzero (lemma A23-L3) (mul (pow (sub c (scale 2 e)) 3) St) (modulo J H))
(assert-zero (lemma A23-L3) (mul (pow c 3) F))
; c1c2 of both pieces stays numerically trivial
(assert-numzero (lemma A23-L3)
  (mul (sub c (scale 2 e)) (mul (sub x e) (sub y e)) St) (modulo J H))
(assert-numzero (lemma A23-L3) (mul c (mul (sub c e) (neg e)) F) (modulo J H))
; the combination entering the next step vanishes numerically
(assert-numzero (lemma A23-L3) (sub c12tot (scale 2 (mul St F))) (modulo J H))
""",
))

_register(LemmaRecord(
    id="A23-L4",
    statement="final kill of the first normal Chern class for odd p: blow up "
              "the halved divisor on the surface; every power stays "
              "numerically trivial",
    script="""
(generic X 5 (gens (x 1) (y 1) (u 1)))
(blowup Xt X e (class (mul x y u)) (roots x y u))
(let c (add x y))
(let b (mul x y))
(let F (mul e (sub c e)))
(let St (add b (neg (mul e c)) (mul e e)))
(assert-equal (trivial) (add St F) b)
(assert-zero (derived) (mul St (sub u e)))
(declare-ideal J (mul (sub (scale 2 u) c) b))
(declare-ideal H (mul (pow c 2) b) (mul c b u))
(let c1tot (add (mul (sub c (scale 2 e)) St) (mul c F)))
(assert-numequal (lemma A23-L4) c1tot (mul F c) (modulo J))
(assert-numzero (lemma A23-L4) (mul F c) (modulo J H))
(assert-numzero (lemma A23-L4) (mul St F) (modulo J H))
(assert-numzero (lemma A23-L4)
  (add (mul (pow (sub c (scale 2 e)) 2) St) (mul (pow c 2) F)) (modulo J H))
(assert-numzero (lemma A23-L4)
  (add (mul (pow (sub c (scale 2 e)) 3) St) (mul (pow c 3) F)) (modulo J H))
""",
))
