"""The scenario DSL: a small s-expression language for building ring
contexts, binding classes, and running assertions, plus its total parser
and the evaluator that records per-assertion verdicts.

Grammar (informal):

    form      := context | binding | declaration | assertion | report
    context   := (pspace [NAME] N [(mod P)])
               | (product NAME X Y)
               | (pbundle NAME BASE XI (roots expr ...))
               | (blowup NAME BASE E (class expr) (roots expr ...)
                         [(restrict (GEN expr) ...)] [(rules (LEAD REPL) ...)])
               | (generic NAME DIM [(mod P)] (gens (NAME CODEG) ...)
                         [(rules (LEAD REPL) ...)] [(degrees (MONO INT) ...)]
                         [(tangent expr)])
               | (milnor NAME M [(rho-height T)]) | (flexible NAME N)
    binding   := (let NAME expr) | (in-context NAME)
    declaration := (declare-ideal NAME expr ...) | (declare-rules NAME (LEAD REPL) ...)
    assertion := (assert-zero TAG expr [(modulo NAME ...)])
               | (assert-equal TAG expr expr [(modulo NAME ...)])
               | (assert-numzero TAG expr [(modulo NAME ...)])
               | (assert-numequal TAG expr expr [(modulo NAME ...)])
               | (assert-deg TAG expr INT)
               | (assert-kernel-dim TAG CTX CODEG PRIME INT)
               | (assert-comult TAG SET expr expr)
    report    := (report-value NAME expr) | (report-value NAME LITERAL)
    LITERAL   := a parenthesized list of integers and such lists,
                 e.g. the matrix ((20 -2) (5 1)), reported as written
    TAG       := (lemma ID) | (trivial) | (derived)

    A context form's clauses come in any order, each at most once.  A
    clause the form does not take, a repeated GEN or MONO, an operand of
    another shape, or a NAME, XI, E or GEN that is not an identifier is an
    error verdict whose detail is the form's usage line; X, Y, BASE and
    CTX must name presentations, and the NAME of in-context a presentation
    or a Milnor ring.  Clauses are read in the context their form builds
    on: BASE; for generic's clauses and blowup's rules, a rule-free
    presentation in the generators of the ring the form builds (BASE's,
    then E, primed while it names one of them), so they are read as
    written; the current one for declare-rules.  A rule side, degree
    monomial or tangent of another context is an error verdict.

    The num- variants check the identity against every basis class of
    complementary codegree, the right notion for claims that hold only up
    to numerical equivalence below the top codegree.  Expression heads:
    add sub neg mul pow scale part, chern chern-total segre-total,
    steenrod ppow embedded embedded-total dclass homological, pullback
    pushforward tangent inv-total, qapply rset.  report-value records
    integers, literals, classes and Milnor elements only.

Atoms are integers, identifiers, and subset literals like {0 1 2}.
Comments run from ';' to end of line.  Parsing is total: it either returns
a Script or raises ParseError with a line/column position (also for
brackets nested deeper than ``MAX_DEPTH``), and printing a parsed script
reparses to an equal Script.

The reader splits the text with string methods and builds the forms in
one loop.  It drops comments (one regex substitution, made only when the
text holds a ';'), turns the other separators into spaces, pads each
bracket with spaces and splits on single spaces, which yields the
brackets and atoms of the text; the loop builds the forms on an explicit
stack of open lists, checking ``MAX_DEPTH`` as each bracket opens, and
neither recurses nor tracks positions.  Only when it raises a ParseError
does it compute the line and column, from the same token of the original
text as ``_tokenize``, a regex scan that numbers every token, reads it.
"""

from __future__ import annotations

import re
import time
from fractions import Fraction
from math import lcm
from typing import Optional

from . import characteristic as chops
from . import milnor as miln
from .numeric import ideal_residual, numerical_kernel, pairing_residuals
from .report import ERROR, FAIL, PASS, AssertionResult, Report
from .rings import GradedClass, RingContext, inverse_series
from .varieties import (
    BundleRoots,
    CenterData,
    ChowPresentation,
    _exceptional_name,
    _generic_presentation,
    blow_up,
    enumerate_basis,
    generic_context,
    product,
    projective_bundle,
    projective_space,
)


# An integer (pow a n) with |a| > 1 is refused before it is computed when
# n * bit_length(a), a bound on the bit length of the result, exceeds this.
MAX_POW_BITS = 4096

# Brackets nest at most this deep; a deeper one is a ParseError.  The
# reader keeps its open lists on a stack, but eval_expr and the printer
# recurse once per level, eval_expr with up to two frames a level (its
# list comprehension's, before Python 3.12, and its own), so this depth
# stays well inside Python's default limit of 1,000 frames.
MAX_DEPTH = 200


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class EvalError(Exception):
    pass


# ---------------------------------------------------------------------------
# Tokenizer / reader / printer
# ---------------------------------------------------------------------------

# a newline, a comment, a bracket or an atom; spaces, tabs, '\r' and ','
# separate, and no other character does (not '\x0c' or '\u00a0'), so the
# reader splits on single spaces, never with str.split().  Only
# ``_tokenize`` scans with it, to number the tokens of a ParseError.
_TOKEN = re.compile(r"\n|;[^\n]*|([(){}]|[^ \t\r\n,(){};]+)")
_COMMENT = re.compile(r";[^\n]*")
_SEPARATORS = str.maketrans(",\t\r\n", "    ")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """The brackets and atoms of text, each as (text, line, column)."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line += 1
            line_start = m.end()
        elif tok[0] != ";":
            tokens.append((tok, line, m.start() - line_start + 1))
    return tokens


class Script:
    """Parsed forms; equal by forms."""

    __slots__ = ("forms",)

    def __init__(self, forms: list):
        self.forms = forms

    def __eq__(self, other):
        return isinstance(other, Script) and self.forms == other.forms


_CLOSING = {"(": ")", "{": "}"}


def _error(text: str, k: int, message: str) -> ParseError:
    """A ParseError at the k-th bracket or atom of text."""
    _, line, col = _tokenize(text)[k]
    return ParseError(message, line, col)


def parse_script(text: str) -> Script:
    """Total parse: returns a Script or raises ParseError with a position.

    One split and one loop: the open lists are a stack, and a position is
    computed only for the error raised, from the original text."""
    spaced = _COMMENT.sub("", text) if ";" in text else text
    spaced = spaced.translate(_SEPARATORS).replace("(", " ( ").replace(")", " ) ")
    tokens = list(filter(None, spaced.replace("{", " { ").replace("}", " } ").split(" ")))
    forms: list = []
    # the innermost open list, the bracket that closes it and the index of
    # the token that opened it; the enclosing ones are stacked
    items, close, start = forms, None, 0
    stack = []
    for k, tok in enumerate(tokens):
        opened = _CLOSING.get(tok)
        if opened is not None:
            if len(stack) == MAX_DEPTH:
                raise _error(text, k, f"brackets nest deeper than {MAX_DEPTH}")
            stack.append((items, close, start))
            items, close, start = [], opened, k
            continue
        if tok == close:
            value = items if close == ")" else frozenset(items)
            k = start
            items, close, start = stack.pop()
        elif tok == ")" or tok == "}":
            raise _error(text, k, f"unexpected {tok!r}")
        else:
            # int() accepts only atoms that start with a digit, a sign or
            # whitespace, so every other atom is a name without a try
            value = tok
            c = tok[0]
            if c.isdigit() or c in "+-" or c.isspace():
                try:
                    value = int(tok)
                except ValueError:
                    pass
        # value is complete and began at the k-th token
        if close == ")" or (close == "}" and isinstance(value, int)):
            items.append(value)
        elif close is None and isinstance(value, list):
            forms.append(value)
        else:
            raise _error(text, k, "subset literals hold integers" if close else
                         "top-level forms must be parenthesized")
    if stack:
        raise _error(text, start, f"unbalanced {tokens[start]!r}: missing {close!r}")
    return Script(forms)


def _print_node(node) -> str:
    if isinstance(node, list):
        return "(" + " ".join(_print_node(x) for x in node) + ")"
    if isinstance(node, frozenset):
        return "{" + " ".join(str(x) for x in sorted(node)) + "}"
    return str(node)


def _is_literal(node) -> bool:
    """Whether node is a list of integers and such lists, e.g. a matrix."""
    return isinstance(node, list) and all(isinstance(x, int) or _is_literal(x) for x in node)


def print_script(script: Script) -> str:
    return "\n".join(_print_node(f) for f in script.forms) + "\n"


# ---------------------------------------------------------------------------
# Evaluation environment
# ---------------------------------------------------------------------------

class _IdealDecl:
    __slots__ = ("gens",)

    def __init__(self, gens: list):
        self.gens = gens


class _RulesDecl:
    __slots__ = ("ring", "rules")

    def __init__(self, ring: RingContext, rules: list):
        self.ring = ring  # the ring whose keys the rules are
        self.rules = rules  # (lead monomial, replacement table)


class Env:
    __slots__ = ("bindings", "current", "pres_by_ring", "notes")

    def __init__(self):
        self.bindings: dict = {}
        self.current = None
        self.pres_by_ring: dict = {}
        self.notes: dict = {}  # report notes as keys, first seen first

    def define(self, name: str, value) -> None:
        self.bindings[name] = value
        if isinstance(value, ChowPresentation):
            self.pres_by_ring[id(value.ring)] = value

    def lookup(self, name: str):
        if name in self.bindings:
            return self.bindings[name]
        cur = self.current
        if isinstance(cur, ChowPresentation) and name in cur.ring.names:
            return cur.gen(name)
        if isinstance(cur, miln.MilnorRing):
            if name == "eta" and cur.has_eta:
                return cur.eta()
            if name == "rho":
                return cur.rho_elem()
            if name.startswith("r") and name[1:].isdigit():
                return cur.r(int(name[1:]))
        raise EvalError(f"undefined identifier {name!r}")

    def presentation_of(self, c: GradedClass) -> ChowPresentation:
        pres = self.pres_by_ring.get(id(c.ring))
        if pres is None and isinstance(self.current, ChowPresentation) and self.current.ring is c.ring:
            pres = self.current  # a context form's presentation, not yet bound
        if pres is None:
            raise EvalError("class does not belong to a known presentation")
        return pres


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise EvalError(msg)


def _head(form) -> str:
    _expect(isinstance(form, list) and form and isinstance(form[0], str), "malformed form")
    return form[0]


def _read_form(args: list, kinds: tuple, names: tuple, usage: str, required: tuple = ()) -> tuple[list, dict]:
    """The operands of a context form, one of each type in kinds, and its
    clauses by name, each as its list of values; EvalError with the usage
    when an operand is missing or of another type, or a clause is not
    (NAME ...) with NAME in names, comes twice or, if required, is
    absent."""
    ops = args[: len(kinds)]
    _expect(len(ops) == len(kinds) and all(map(isinstance, ops, kinds)), usage)
    clauses: dict[str, list] = {}
    for a in args[len(kinds) :]:
        _expect(isinstance(a, list) and a and a[0] in names and a[0] not in clauses, usage)
        clauses[a[0]] = a[1:]
    _expect(all(r in clauses for r in required), usage)
    return ops, clauses


def _single(clauses: dict[str, list], name: str, default, usage: str):
    """The one value of clause NAME, or default when it is absent;
    EvalError with the usage when the clause has another number of
    values."""
    if name not in clauses:
        return default
    _expect(len(clauses[name]) == 1, usage)
    return clauses[name][0]


def _presentation(env: Env, name, usage: str) -> ChowPresentation:
    """The presentation bound to name; EvalError with the usage when name
    is not an identifier or is bound to something else."""
    _expect(isinstance(name, str), usage)
    pres = env.lookup(name)
    _expect(isinstance(pres, ChowPresentation), usage)
    return pres


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def _as_class(env: Env, value) -> GradedClass:
    if isinstance(value, GradedClass):
        return value
    if isinstance(value, int):
        cur = env.current
        _expect(isinstance(cur, ChowPresentation), "integer scalar needs a ring context")
        return cur.scalar(value)
    raise EvalError(f"expected a class, got {type(value).__name__}")


def _operands(env: Env, vals: list) -> list:
    """The operands of add, sub, neg, mul, pow and the sides of assert-equal:
    classes, unless one of them is a Milnor element.  Then all must be
    elements of its ring, and an integer n stands for n mod 2 times its
    unit."""
    for v in vals:
        if isinstance(v, miln.MilnorElement):
            ring = v.ring
            break
    else:
        return [_as_class(env, v) for v in vals]
    out = []
    for v in vals:
        if isinstance(v, int):
            v = ring.one() if v % 2 else ring.zero()
        _expect(isinstance(v, miln.MilnorElement), f"expected a Milnor element, got {type(v).__name__}")
        if v.ring is not ring:
            raise miln.MilnorError("elements of different rings")
        out.append(v)
    return out


def _eval_roots(env: Env, form) -> BundleRoots:
    _expect(isinstance(form, list) and form and form[0] == "roots", "expected (roots ...)")
    cur = env.current
    _expect(isinstance(cur, ChowPresentation), "roots need a ring context")
    classes = [_as_class(env, eval_expr(env, a)) for a in form[1:]]
    return BundleRoots.plus(classes, ring=cur.ring)


def eval_expr(env: Env, node):
    # names are the most common nodes, so they are tested first; the
    # all-integer tests are loops and operands are evaluated by direct
    # calls, so a node allocates no closure or generator
    if isinstance(node, str):
        return env.lookup(node)
    if isinstance(node, (int, frozenset)):
        return node
    _expect(isinstance(node, list) and node, "empty expression")
    head = node[0]
    args = node[1:]
    if head == "add":
        vals = [eval_expr(env, a) for a in args]
        _expect(bool(vals), "(add) needs arguments")
        for v in vals:
            if not isinstance(v, int):
                break
        else:
            return sum(vals)
        acc, *rest = _operands(env, vals)
        for v in rest:
            acc = acc + v
        return acc
    if head == "sub":
        _expect(len(args) == 2, "(sub a b)")
        a, b = eval_expr(env, args[0]), eval_expr(env, args[1])
        if isinstance(a, int) and isinstance(b, int):
            return a - b
        a, b = _operands(env, [a, b])
        return a - b
    if head == "neg":
        _expect(len(args) == 1, "(neg a)")
        v = eval_expr(env, args[0])
        return -v if isinstance(v, int) else -_operands(env, [v])[0]
    if head == "mul":
        vals = [eval_expr(env, a) for a in args]
        _expect(bool(vals), "(mul) needs arguments")
        out = 1
        for v in vals:
            if not isinstance(v, int):
                break
            out *= v
        else:
            return out
        acc, *rest = _operands(env, vals)
        for v in rest:
            acc = acc * v
        return acc
    if head == "pow":
        _expect(len(args) == 2 and isinstance(args[1], int), "(pow a n)")
        base = eval_expr(env, args[0])
        if isinstance(base, int):
            if args[1] < 0:
                raise ValueError("negative power")
            if abs(base) > 1 and args[1] * abs(base).bit_length() > MAX_POW_BITS:
                raise ValueError(f"integer power exceeds {MAX_POW_BITS} bits")
            return base ** args[1]
        return _operands(env, [base])[0] ** args[1]
    if head == "scale":
        _expect(len(args) == 2, "(scale k a)")
        k = eval_expr(env, args[0])
        _expect(isinstance(k, int), "(scale k a) needs integer k")
        return _as_class(env, eval_expr(env, args[1])).scale(k)
    if head == "part":
        _expect(len(args) == 2 and isinstance(args[0], int), "(part d a)")
        return _as_class(env, eval_expr(env, args[1])).homogeneous_part(args[0])
    if head == "chern-total":
        _expect(len(args) == 1, "(chern-total (roots ...))")
        return chops.chern_total(_eval_roots(env, args[0]))
    if head == "chern":
        _expect(len(args) == 2 and isinstance(args[0], int), "(chern j (roots ...))")
        return chops.chern_class(_eval_roots(env, args[1]), args[0])
    if head == "segre-total":
        _expect(len(args) == 1, "(segre-total (roots ...))")
        return chops.segre_total(_eval_roots(env, args[0]))
    if head == "steenrod":
        _expect(len(args) == 1, "(steenrod a)")
        c = _as_class(env, eval_expr(env, args[0]))
        return chops.steenrod_total(env.presentation_of(c), c)
    if head == "ppow":
        _expect(len(args) == 2 and isinstance(args[0], int), "(ppow i a)")
        c = _as_class(env, eval_expr(env, args[1]))
        return chops.reduced_power(env.presentation_of(c), c, args[0])
    if head == "embedded":
        _expect(len(args) == 3 and isinstance(args[0], int), "(embedded i S (roots ...))")
        s = _as_class(env, eval_expr(env, args[1]))
        roots = _eval_roots(env, args[2])
        return chops.embedded_power(env.presentation_of(s), s, roots, args[0])
    if head == "embedded-total":
        _expect(len(args) == 2, "(embedded-total S (roots ...))")
        s = _as_class(env, eval_expr(env, args[0]))
        roots = _eval_roots(env, args[1])
        return chops.steenrod_embedded(env.presentation_of(s), s, roots)
    if head == "dclass":
        _expect(len(args) == 2 and isinstance(args[0], int), "(dclass p (roots ...))")
        env.notes[chops.D_CLASS_CONVENTION_NOTE] = None
        return chops.d_class(_eval_roots(env, args[1]), args[0])
    if head == "homological":
        _expect(len(args) == 2 and isinstance(args[0], int), "(homological i a)")
        env.notes[chops.D_CLASS_CONVENTION_NOTE] = None
        c = _as_class(env, eval_expr(env, args[1]))
        return chops.homological_power(env.presentation_of(c), c, args[0])
    if head == "tangent":
        _expect(len(args) == 1, "(tangent CTX)")
        return _presentation(env, args[0], "(tangent CTX)").tangent_class()
    if head == "inv-total":
        _expect(len(args) == 1, "(inv-total a)")
        return inverse_series(_as_class(env, eval_expr(env, args[0])))
    if head == "pullback":
        _expect(len(args) == 2, "(pullback CTX a)")
        return _presentation(env, args[0], "(pullback CTX a)").pullback(_as_class(env, eval_expr(env, args[1])))
    if head == "pushforward":
        _expect(len(args) == 2, "(pushforward CTX a)")
        return _presentation(env, args[0], "(pushforward CTX a)").pushforward(_as_class(env, eval_expr(env, args[1])))
    if head == "qapply":
        _expect(len(args) == 2 and isinstance(args[0], int), "(qapply i x)")
        x = eval_expr(env, args[1])
        _expect(isinstance(x, miln.MilnorElement), "(qapply) needs a Milnor element")
        return miln.q_apply(args[0], x)
    if head == "rset":
        _expect(len(args) == 1 and isinstance(args[0], frozenset), "(rset {i ...})")
        cur = env.current
        _expect(isinstance(cur, miln.MilnorRing), "(rset) needs a Milnor ring context")
        return cur.r_set(sorted(args[0]))
    raise EvalError(f"unknown form head {head!r}")


# ---------------------------------------------------------------------------
# Identity verification modulo declared rules/ideals
# ---------------------------------------------------------------------------

def _reduction(
    env: Env, lhs: GradedClass, rhs: GradedClass, modulo
) -> tuple[ChowPresentation, list[GradedClass], GradedClass]:
    """The presentation to reduce in, the declared ideal generators and
    lhs - rhs, the last two in its ring.  With declared rules that is
    lhs's presentation ``with_rules`` them, kept on it as ``("with-rules",
    rules)``, the rules as (lead, sorted replacement items) in declaration
    order, so every assertion modulo the same rules reads one copy and what
    is kept on it."""
    if lhs.ring is not rhs.ring:
        raise EvalError("identity sides live in different contexts")
    ctx = lhs.ring
    gens: list[GradedClass] = []
    extra = []
    for decl in modulo:
        if isinstance(decl, _IdealDecl):
            gens.extend(decl.gens)
        elif isinstance(decl, _RulesDecl):
            _expect(decl.ring is ctx, "declared rules live in a different context")
            extra.extend(decl.rules)
        else:
            raise EvalError("modulo clause names must refer to declared sets")
    if any(g.ring is not ctx for g in gens):
        raise EvalError("ideal generators live in a different context")
    pres = env.presentation_of(lhs)
    if not extra:
        return pres, gens, lhs - rhs
    key = tuple((lead, tuple(sorted(table.items()))) for lead, table in extra)
    pres = pres.kept(("with-rules", key), pres.with_rules, extra)
    ring = pres.ring
    return pres, [ring.from_table(g.table) for g in gens], ring.from_table((lhs - rhs).table)


def _witness(ring: RingContext, residual: dict[int, Fraction]) -> str:
    """An integral residual as its class, a fractional one as
    (den * residual)/den with den the least common denominator."""
    den = lcm(*(Fraction(v).denominator for v in residual.values()))
    text = str(GradedClass(ring, {m: int(v * den) for m, v in residual.items()}))
    return text if den == 1 else f"({text})/{den}"


def verify_identity(
    env: Env,
    lhs: GradedClass,
    rhs: GradedClass,
    modulo: list = (),
) -> tuple[bool, Optional[str]]:
    """Pass iff lhs - rhs reduces to zero modulo the declared oriented rules
    and ideal generators.  On failure the witness is the exact residual:
    the difference after the rules, minus its projection to the ideal's
    span in each codegree (over Q, or F_p in a mod-p context), printed as
    a class, or as (den * residual)/den when its coefficients are not
    integers.  Each codegree's residual is ``numeric.ideal_residual``."""
    pres, gens, diff = _reduction(env, lhs, rhs, modulo)
    residual = {}
    for d in sorted(diff.codegrees()):
        residual.update(ideal_residual(pres, gens, diff, d))
    return not residual, _witness(pres.ring, residual) if residual else None


def verify_numerical(
    env: Env,
    lhs: GradedClass,
    rhs: GradedClass,
    modulo: list = (),
) -> tuple[bool, Optional[str]]:
    """Pass iff lhs - rhs pairs to zero against every basis class of
    complementary codegree, modulo the declared sets: the products
    (lhs - rhs) * w must land in the declared ideal span at top codegree.
    The witness is the exact residual of the first product that does not,
    in the text form of ``verify_identity``, followed by
    "(pairing against w)".

    This is the right notion for identities claimed only up to numerical
    equivalence below the top codegree.  The products and their residuals
    are ``numeric.pairing_residuals``.
    """
    pres, gens, diff = _reduction(env, lhs, rhs, modulo)
    ring = pres.ring
    for b, residual in pairing_residuals(pres, gens, diff):
        if residual:
            return False, f"{_witness(ring, residual)} (pairing against {GradedClass(ring, {b: 1})})"
    return True, None


# ---------------------------------------------------------------------------
# Form evaluation
# ---------------------------------------------------------------------------

def _parse_tag(form) -> str:
    _expect(isinstance(form, list) and form and isinstance(form[0], str), "assertions need a provenance tag")
    kind = form[0]
    if kind == "lemma":
        _expect(len(form) == 2 and isinstance(form[1], str), "(lemma ID)")
        return f"lemma:{form[1]}"
    if kind in ("trivial", "derived"):
        _expect(len(form) == 1, f"({kind})")
        return kind
    raise EvalError(f"unknown provenance tag {kind!r}")


def _mod_clause(env: Env, clauses: list) -> list:
    decls = []
    for c in clauses:
        _expect(isinstance(c, list) and c and c[0] == "modulo", "expected (modulo NAME ...)")
        for name in c[1:]:
            _expect(isinstance(name, str), "(modulo) takes declared names")
            decls.append(env.lookup(name))
    return decls


def _read_classes(env: Env, context, exprs, refusal: Optional[str] = None) -> list[GradedClass]:
    """The classes of a form's operands, evaluated with context, the one
    the form builds on, current.  With a refusal the form keeps them as
    keys, which read right only in the ring that made them, so a class of
    another ring, or any when context is no presentation, is refused."""
    saved, env.current = env.current, context
    try:
        classes = [_as_class(env, eval_expr(env, x)) for x in exprs]
    finally:
        env.current = saved
    if refusal is not None:
        _expect(isinstance(context, ChowPresentation) and all(c.ring is context.ring for c in classes), refusal)
    return classes


def _monomial(c: GradedClass, refusal: str) -> int:
    """The key of c, which must be a single monic monomial.  A monomial
    above the dimension of the presentation it is read on reads as 0, so
    the refusal of 0 names that dimension."""
    d = c.ring.dimension
    _expect(bool(c.table), f"{refusal}: this one reads as 0 on the presentation of dimension {d} "
                           f"it is read on, where every monomial above codegree {d} is 0")
    _expect(len(c.table) == 1 and set(c.table.values()) == {1}, refusal)
    return next(iter(c.table))


def _rule_sides(pairs) -> list:
    """The expressions of rule clause entries (LEAD REPL), lead first."""
    _expect(all(isinstance(pair, list) and len(pair) == 2 for pair in pairs), "rule clause entries are (LEAD REPL)")
    return [side for pair in pairs for side in pair]


def _eval_rule_pairs(sides: list[GradedClass]) -> list:
    """The (lead key, replacement table) rules of sides ``_rule_sides`` read."""
    return [(_monomial(lead, "rule lead must be a single monic monomial"), dict(repl.table))
            for lead, repl in zip(sides[::2], sides[1::2])]


def _clause_presentation(names, codegrees, modulus: int, dim: int, name: str) -> ChowPresentation:
    """The rule-free presentation on which a context form's clauses are
    read as written, before the form's ring is built.  It lists its basis
    only if a clause reads it, and it stays unbound: a clause that fails
    leaves the environment as it was."""
    ring = RingContext(names, codegrees, modulus=modulus, dimension=dim)
    return _generic_presentation(ring, lambda: enumerate_basis(ring), None, None, name)


_CONTEXT_USAGE = {
    "pspace": "(pspace [NAME] N [(mod P)])",
    "product": "(product NAME X Y)",
    "pbundle": "(pbundle NAME BASE XI (roots expr ...))",
    "blowup": "(blowup NAME BASE E (class expr) (roots expr ...) ...)",
    "generic": "(generic NAME DIM [(mod P)] (gens (NAME CODEG) ...) ...)",
    "milnor": "(milnor NAME M [(rho-height T)])",
    "flexible": "(flexible NAME N)",
}
_CONTEXT_HEADS = set(_CONTEXT_USAGE)


def _eval_context_form(env: Env, form: list) -> None:
    head = _head(form)
    _expect(head in _CONTEXT_USAGE, f"unknown context form {head!r}")
    usage = _CONTEXT_USAGE[head]
    args = form[1:]
    if head == "pspace":
        unnamed = bool(args) and isinstance(args[0], int)
        ops, clauses = _read_form(args, (int,) if unnamed else (str, int), ("mod",), usage)
        value = projective_space(ops[-1], modulus=_single(clauses, "mod", 0, usage), name=None if unnamed else ops[0])
        name = value.name
    elif head == "product":
        (name, x, y), _ = _read_form(args, (str, str, str), (), usage)
        value = product(_presentation(env, x, usage), _presentation(env, y, usage), name=name)
    elif head == "pbundle":
        (name, base, xi), clauses = _read_form(args, (str, str, str), ("roots",), usage, ("roots",))
        base = _presentation(env, base, usage)
        roots = BundleRoots.plus(_read_classes(env, base, clauses["roots"]), ring=base.ring)
        value = projective_bundle(base, roots, fiber_gen=xi, name=name)
    elif head == "blowup":
        (name, base, egen), clauses = _read_form(
            args, (str, str, str), ("class", "roots", "restrict", "rules"), usage, ("class", "roots"))
        base = _presentation(env, base, usage)
        restrict, rank = clauses.get("restrict", ()), len(clauses["roots"])
        _expect(all(isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) for e in restrict)
                and len({e[0] for e in restrict}) == len(restrict), usage)
        fundamental, *classes = _read_classes(
            env, base, [_single(clauses, "class", None, usage), *clauses["roots"], *(e[1] for e in restrict)])
        roots = BundleRoots.plus(classes[:rank], ring=base.ring)
        restriction = {e[0]: c for e, c in zip(restrict, classes[rank:])}
        center = CenterData(fundamental=fundamental, roots=roots, restriction=restriction, name=f"Z({name})")
        sides, rules = _rule_sides(clauses.get("rules", ())), []
        if sides:
            # the rules name the exceptional generator, so they are read on a
            # rule-free presentation in the blow-up's generators
            ring = base.ring
            clause_pres = _clause_presentation(
                [*ring.names, _exceptional_name(base, egen)], [*ring.codegrees, 1], ring.modulus, base.dim, name)
            rules = _eval_rule_pairs(_read_classes(env, clause_pres, sides, "declared rules live in a different context"))
        value = blow_up(base, center, exceptional_gen=egen, name=name, rules=rules)
    elif head == "generic":
        (name, dim), clauses = _read_form(
            args, (str, int), ("mod", "gens", "rules", "degrees", "tangent"), usage, ("gens",))
        mod = _single(clauses, "mod", 0, usage)
        gens = clauses["gens"]
        _expect(all(isinstance(g, list) and len(g) == 2 and isinstance(g[0], str) and isinstance(g[1], int)
                    for g in gens), usage)
        sides, entries = _rule_sides(clauses.get("rules", ())), clauses.get("degrees", ())
        _expect(all(isinstance(e, list) and len(e) == 2 and isinstance(e[1], int) for e in entries), usage)
        tangent = [_single(clauses, "tangent", None, usage)] if "tangent" in clauses else []
        rules, degrees, tangent_tbl = [], {}, None
        if sides or entries or tangent:
            clause_pres = _clause_presentation([n for n, _ in gens], [d for _, d in gens], mod, dim, name)
            classes = _read_classes(env, clause_pres, [*sides, *(e[0] for e in entries), *tangent],
                                    "declared rules live in a different context")
            rules = _eval_rule_pairs(classes[: len(sides)])
            for entry, c in zip(entries, classes[len(sides) :]):
                mono = _monomial(c, "degree entries need monic monomials")
                _expect(mono not in degrees, usage)
                degrees[mono] = entry[1]
            tangent_tbl = dict(classes[-1].table) if tangent else None
        # the presentation is built once, with its rules, so its basis is
        # enumerated once
        value = generic_context(gens, dim, rules, mod, degrees or None, tangent_tbl, name)
    elif head == "milnor":
        (name, m), clauses = _read_form(args, (str, int), ("rho-height",), usage)
        value = miln.make_ring(m, miln.truncated_symbol_ia(_single(clauses, "rho-height", 1, usage)), name=name)
    else:
        (name, n), _ = _read_form(args, (str, int), (), usage)
        value = miln.flexible_cohomology(n)
        value.name = name
    env.define(name, value)
    env.current = value


_ASSERT_USAGE = {
    "assert-zero": "(assert-zero TAG expr [(modulo NAME ...)])",
    "assert-equal": "(assert-equal TAG expr expr [(modulo NAME ...)])",
    "assert-numzero": "(assert-numzero TAG expr [(modulo NAME ...)])",
    "assert-numequal": "(assert-numequal TAG expr expr [(modulo NAME ...)])",
    "assert-deg": "(assert-deg TAG expr INT)",
    "assert-kernel-dim": "(assert-kernel-dim TAG CTX CODEG PRIME INT)",
    "assert-comult": "(assert-comult TAG SET x y)",
}
_ASSERT_HEADS = set(_ASSERT_USAGE)


def _sides(form: list, n: int, usage: str) -> tuple[list, list]:
    """The n expressions of an identity assertion and the clauses after
    them; EvalError with the usage when fewer than n operands come ahead
    of the first (modulo ...) clause."""
    exprs, clauses = form[2 : 2 + n], form[2 + n :]
    _expect(len(exprs) == n and not any(isinstance(x, list) and x[:1] == ["modulo"] for x in exprs), usage)
    return exprs, clauses


def _eval_assertion(env: Env, form: list, aid: str) -> AssertionResult:
    head = form[0]
    usage = _ASSERT_USAGE[head]
    _expect(len(form) > 1, usage)
    tag = _parse_tag(form[1])
    start = time.perf_counter()

    def done(ok: bool, detail: str, witness: Optional[str] = None) -> AssertionResult:
        ms = int((time.perf_counter() - start) * 1000)
        if ok:
            detail, witness = "", None
        return AssertionResult(id=aid, verdict=PASS if ok else FAIL, tag=tag, detail=detail, witness=witness, millis=ms)

    if head == "assert-zero":
        (expr,), clauses = _sides(form, 1, usage)
        mod = _mod_clause(env, clauses)
        value = eval_expr(env, expr)
        if isinstance(value, miln.MilnorElement):
            _expect(not mod, "(modulo) does not apply to Milnor elements")
            return done(value.is_zero(), "element does not vanish", str(value))
        c = _as_class(env, value)
        ok, witness = verify_identity(env, c, c.ring.zero(), mod)
        return done(ok, "class does not vanish", witness)
    if head == "assert-equal":
        (lhs, rhs), clauses = _sides(form, 2, usage)
        mod = _mod_clause(env, clauses)
        a = eval_expr(env, lhs)
        b = eval_expr(env, rhs)
        if isinstance(a, miln.MilnorElement) or isinstance(b, miln.MilnorElement):
            _expect(not mod, "(modulo) does not apply to Milnor elements")
            a, b = _operands(env, [a, b])
            return done(a == b, "elements differ", f"{a} != {b}")
        ok, witness = verify_identity(env, _as_class(env, a), _as_class(env, b), mod)
        return done(ok, "sides differ", witness)
    if head in ("assert-numzero", "assert-numequal"):
        exprs, clauses = _sides(form, 1 if head == "assert-numzero" else 2, usage)
        mod = _mod_clause(env, clauses)
        a = _as_class(env, eval_expr(env, exprs[0]))
        b = a.ring.zero() if head == "assert-numzero" else _as_class(env, eval_expr(env, exprs[1]))
        ok, witness = verify_numerical(env, a, b, mod)
        return done(ok, "sides differ numerically", witness)
    if head == "assert-deg":
        _expect(len(form) == 4 and isinstance(form[3], int), usage)
        c = _as_class(env, eval_expr(env, form[2]))
        pres = env.presentation_of(c)
        got = pres.degree(c)
        want = form[3] % pres.ring.modulus if pres.ring.modulus else form[3]
        return done(got == want, f"degree {got}, wanted {want}", str(got))
    if head == "assert-kernel-dim":
        _expect(len(form) == 6 and all(isinstance(x, int) for x in form[3:]), usage)
        kernel, _ = numerical_kernel(_presentation(env, form[2], usage), form[3], form[4])
        return done(len(kernel) == form[5], f"kernel dimension {len(kernel)}, wanted {form[5]}",
                    ", ".join(map(str, kernel)))
    if head == "assert-comult":
        _expect(len(form) == 5 and isinstance(form[2], frozenset), usage)
        x = eval_expr(env, form[3])
        y = eval_expr(env, form[4])
        _expect(isinstance(x, miln.MilnorElement) and isinstance(y, miln.MilnorElement),
                "(assert-comult) needs Milnor elements")
        return done(miln.comult_check(sorted(form[2]), x, y), "comultiplication identity fails")
    raise EvalError(f"unknown assertion {head!r}")


def run_scenario(script: Script, script_id: str = "script", seed: Optional[int] = None) -> Report:
    """Evaluate forms in order; assertion verdicts are recorded, evaluation
    errors become per-assertion 'error' verdicts, never a crash.

    Evaluation itself is deterministic; the seed is part of the runner
    contract (fixing it also makes emitted report bytes stable)."""
    report = Report()
    env = Env()
    counter = 0
    for idx, form in enumerate(script.forms):
        try:
            head = _head(form)
        except EvalError as exc:
            report.add(AssertionResult(id=f"{script_id}#form{idx}", verdict=ERROR, detail=str(exc)))
            continue
        if head in _ASSERT_HEADS:
            counter += 1
            aid = f"{script_id}#{counter}"
            try:
                report.add(_eval_assertion(env, form, aid))
            except Exception as exc:  # per-assertion error verdict, not a crash
                report.add(AssertionResult(id=aid, verdict=ERROR, tag="", detail=f"{type(exc).__name__}: {exc}"))
            continue
        try:
            if head in _CONTEXT_HEADS:
                _eval_context_form(env, form)
            elif head == "let":
                _expect(len(form) == 3 and isinstance(form[1], str), "(let NAME expr)")
                env.define(form[1], eval_expr(env, form[2]))
            elif head == "in-context":
                _expect(len(form) == 2 and isinstance(form[1], str), "(in-context NAME)")
                context = env.lookup(form[1])
                _expect(isinstance(context, (ChowPresentation, miln.MilnorRing)), "(in-context NAME)")
                env.current = context
            elif head == "declare-ideal":
                _expect(len(form) >= 3 and isinstance(form[1], str), "(declare-ideal NAME expr ...)")
                gens = [_as_class(env, eval_expr(env, a)) for a in form[2:]]
                env.define(form[1], _IdealDecl(gens))
            elif head == "declare-rules":
                _expect(len(form) >= 3 and isinstance(form[1], str), "(declare-rules NAME (LEAD REPL) ...)")
                sides = _read_classes(env, env.current, _rule_sides(form[2:]), "rule sides live in different contexts")
                env.define(form[1], _RulesDecl(env.current.ring, _eval_rule_pairs(sides)))
            elif head == "report-value":
                usage = "(report-value NAME expr)"
                _expect(len(form) == 3 and isinstance(form[1], str), usage)
                value = form[2] if _is_literal(form[2]) else eval_expr(env, form[2])
                # a declared set or a context would print as an object, some by memory address
                _expect(isinstance(value, (int, list, frozenset, GradedClass, miln.MilnorElement)), usage)
                report.values[form[1]] = _print_node(value)
            else:
                raise EvalError(f"unknown form head {head!r}")
        except Exception as exc:
            report.add(AssertionResult(
                id=f"{script_id}#form{idx}", verdict=ERROR,
                detail=f"{type(exc).__name__}: {exc} in {_print_node(form)[:120]}",
            ))
    report.notes = list(env.notes)
    return report
