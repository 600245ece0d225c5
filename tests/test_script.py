import random
import re
from pathlib import Path

import pytest

from chowcalc.report import ERROR, FAIL, PASS, AssertionResult, Report, emit_report
from chowcalc.rings import RingError
from chowcalc.script import (
    _ASSERT_HEADS,
    _CONTEXT_HEADS,
    MAX_DEPTH,
    Env,
    ParseError,
    Script,
    _tokenize,
    parse_script,
    print_script,
    run_scenario,
    verify_identity,
    verify_numerical,
)
from chowcalc.varieties import ChowPresentation, generic_context
from helpers import (
    basis_classes,
    counting,
    kept_under,
    random_class,
    random_tower,
    reference_parse,
    reference_tokenize,
)


def parse_outcome(read, text):
    """The forms read returns for text, or its ParseError as (message,
    line, column)."""
    try:
        forms = read(text)
    except ParseError as err:
        return str(err), err.line, err.col
    return forms.forms if isinstance(forms, Script) else forms


class TestParser:
    def test_single_context_form(self):
        s = parse_script("(pspace 3)")
        assert s.forms == [["pspace", 3]]

    def test_assertion_form(self):
        s = parse_script("(assert-zero (trivial) (add (mul x y) (neg (mul y x))))")
        assert s.forms[0][0] == "assert-zero"

    def test_subset_literal(self):
        s = parse_script("(assert-comult (trivial) {0 1} r0 r1)")
        assert s.forms[0][2] == frozenset({0, 1})

    def test_comments_and_commas(self):
        s = parse_script("; header\n(let u 3) ; trailing\n(let v, 4)")
        assert s.forms == [["let", "u", 3], ["let", "v", 4]]

    def test_unbalanced_open(self):
        with pytest.raises(ParseError) as err:
            parse_script("(pspace")
        assert err.value.line == 1

    def test_unexpected_close(self):
        with pytest.raises(ParseError) as err:
            parse_script("())")
        assert "unexpected" in str(err.value)

    def test_position_reporting(self):
        with pytest.raises(ParseError) as err:
            parse_script("(let u 1)\n  (oops")
        assert err.value.line == 2
        assert err.value.col == 3

    @staticmethod
    def assert_top_level_error(text, line, col):
        with pytest.raises(ParseError) as err:
            parse_script(text)
        assert str(err.value) == f"top-level forms must be parenthesized at line {line}, column {col}"
        assert (err.value.line, err.value.col) == (line, col)

    def test_top_level_atom_rejected(self):
        # at the atom, wherever it stands
        self.assert_top_level_error("42", 1, 1)
        self.assert_top_level_error("(let u 1)\n  42", 2, 3)
        self.assert_top_level_error("(let u 1) x (let v 2)", 1, 11)

    def test_top_level_subset_literal_rejected(self):
        # at its '{', once the literal has closed
        self.assert_top_level_error("{1 2}", 1, 1)
        self.assert_top_level_error("(let u 1)\n; {\n {1 2}", 3, 2)
        self.assert_top_level_error("(let u 1)\n\t{3 -4} (let v 2)", 2, 2)

    @pytest.mark.parametrize("text, message, line, col", [
        ("{1 x}", "subset literals hold integers", 1, 4),
        ("(let s {1 2", "unbalanced '{': missing '}'", 1, 8),
        ("{1 (a)}", "subset literals hold integers", 1, 4),
        ("}", "unexpected '}'", 1, 1),
        ("(let u 1)\n  }", "unexpected '}'", 2, 3),
    ])
    def test_brace_errors(self, text, message, line, col):
        with pytest.raises(ParseError) as err:
            parse_script(text)
        assert str(err.value) == f"{message} at line {line}, column {col}"
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("text", [
        "(f {1 (a)})", "(f {1 (a) 2", "(f {1 (a", "{(a) x}", "(f {1 {2}})",
        "(f {1 (a))", "(f {1 (a}", "(f {1 (g {x})})",
        "(f {" + "(" * (MAX_DEPTH - 2) + ")" * (MAX_DEPTH - 2) + "})",
        "(f {" + "(" * (MAX_DEPTH - 1) + ")" * (MAX_DEPTH - 1) + "})",
        "{" + "(" * (MAX_DEPTH - 1) + ")" * (MAX_DEPTH - 1) + "}",
        "{" + "(" * MAX_DEPTH + ")" * MAX_DEPTH + "}",
        "(let u 1) ; a (comment} here\n(let v 2)\n  ; {\n\t(oops",
        "(let u 1) ; )\n(let v {1 x})",
        "; only\n\n(a)(b) ; c\n )",
    ])
    def test_reader_matches_reference_cases(self, text):
        assert parse_outcome(parse_script, text) == parse_outcome(reference_parse, text)

    def test_reader_matches_reference(self):
        # random texts over brackets, digits, signs, letters, separators,
        # comments and whitespace that does not separate ('\x0c', '\u00a0'),
        # half of them scripts with one character changed: the same forms,
        # or the same message at the same position
        rng = random.Random(1)
        alphabet = "(){}0123456789+-xyz \t\n,;\r\x0b\x0c\u00a0\u3000"
        raised = 0
        for i in range(12_000):
            if i % 2:
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            else:
                text = random_script_text(rng)
                if rng.random() < 0.7:
                    k = rng.randrange(len(text) + 1)
                    text = text[:k] + rng.choice(alphabet) + text[k + rng.randint(0, 1):]
            got = parse_outcome(parse_script, text)
            assert got == parse_outcome(reference_parse, text), repr(text)
            raised += isinstance(got, tuple)
        # both outcomes occur often
        assert 2000 < raised < 10_000

    def test_tokenizer_matches_reference(self):
        rng = random.Random(0)
        alphabet = "(){} \t\r\n,;\x0b\x0c\u00a0\u3000xyz019-"
        for _ in range(10_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            assert _tokenize(text) == reference_tokenize(text), repr(text)

    # an atom is an integer exactly when int() reads it; the parser tries
    # int() only on atoms that start with a digit, a sign or whitespace
    @pytest.mark.parametrize("atom", [
        "+3", "-0", "1_000", "\u0663", " 7", "x1", "-", "+-1", "1e3", "0x10",
        "\x0c7", "\u30007", "\u00b2", "_1", "7x",
    ])
    def test_integer_atoms_are_what_int_reads(self, atom):
        try:
            want = int(atom)
        except ValueError:
            want = atom
        form = parse_script(f"(f {atom})").forms[0]
        assert form == ["f", want] and type(form[1]) is type(want)


def random_form(rng, depth=0):
    heads = ["add", "mul", "sub", "neg", "pow", "scale", "part"]
    if depth > 2 or rng.random() < 0.4:
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-20, 20)
        if kind == 1:
            return rng.choice(["x", "y", "alpha", "beta-2", "e12"])
        return frozenset(rng.sample(range(6), rng.randint(0, 3)))
    head = rng.choice(heads)
    n = {"add": 2, "mul": 3, "sub": 2, "neg": 1, "pow": 2, "scale": 2, "part": 2}[head]
    return [head] + [random_form(rng, depth + 1) for _ in range(n)]


def random_script_text(rng):
    """A few random forms as text, with commas, newlines and comments
    between their tokens."""
    seps = [" ", " ", ", ", "\n", "\t", " ; note (}\n"]
    out = []

    def emit(node):
        if isinstance(node, list):
            out.append("(")
            for x in node:
                emit(x)
                out.append(rng.choice(seps))
            out.append(")")
        elif isinstance(node, frozenset):
            out.append("{" + rng.choice(seps).join(map(str, sorted(node))) + "}")
        else:
            out.append(str(node))

    for _ in range(rng.randint(1, 3)):
        emit(["f", random_form(rng, 1), random_form(rng, 1)])
        out.append(rng.choice(seps))
    return "".join(out)


def test_readme_lisp_blocks_parse():
    # every lisp block of the README parses, and names only known form heads
    text = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```lisp\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) >= 3
    known = _CONTEXT_HEADS | _ASSERT_HEADS | {
        "let", "in-context", "declare-ideal", "declare-rules", "report-value",
    }
    for block in blocks:
        forms = parse_script(block).forms
        assert forms and {f[0] for f in forms} <= known, block


class TestRoundTrip:
    def test_round_trip_corpus(self):
        rng = random.Random(0)
        for _ in range(1500):
            forms = [["let", "u", random_form(rng)] for _ in range(rng.randint(1, 3))]
            script = Script(forms)
            printed = print_script(script)
            assert parse_script(printed) == script

    def test_round_trip_registry_scripts(self):
        from chowcalc import registry

        for rec in registry.all_records():
            parsed = parse_script(rec.script)
            assert parse_script(print_script(parsed)) == parsed


class TestEvaluator:
    def test_generic_mod2_assertion(self):
        rep = run_scenario(parse_script(
            "(generic X 4 (mod 2) (gens (x 1) (y 1)))"
            "(assert-zero (trivial) (add (mul x y) (mul y x)))"
        ))
        assert rep.ok

    def test_context_clauses_see_their_presentation(self):
        # clauses run before the context is bound, yet operations that need
        # the presentation (here the total Steenrod square) still find it
        rep = run_scenario(parse_script(
            "(generic X 3 (mod 2) (gens (x 1)) (tangent (steenrod x)))"
            "(assert-equal (trivial) (tangent X) (add x (mul x x)))"
            "(pspace P 3 (mod 2))"
            "(blowup B P e (class (mul h h)) (roots 0 h) (rules ((mul e (part 1 (steenrod h))) 0)))"
            "(assert-zero (trivial) (mul e h))"
        ))
        assert rep.ok, [(r.verdict, r.detail) for r in rep.results]

    @pytest.mark.parametrize("text, verdicts", [
        # the README example: read in the built blow-up, the restriction
        # rule e*h -> 0 would rewrite the declared lead to 0
        ("(pspace X 3)(blowup Y X e (class (mul h h)) (roots 0 0) (restrict (h 0)) (rules ((mul e h) 0)))"
         "(assert-zero (trivial) (mul e h))", [(PASS, "")]),
        # e*Sq(h) = e*h + e*h^2 is a monomial only after the blow-up's kill
        # rule e*h^2 -> 0
        ("(pspace P 3 (mod 2))(blowup B P e (class (mul h h)) (roots 0 h) (rules ((mul e (steenrod h)) 0)))",
         [(ERROR, "EvalError: rule lead must be a single monic monomial")]),
    ])
    def test_blowup_rules_are_read_as_written(self, text, verdicts):
        rep = run_scenario(parse_script(text))
        assert [(r.verdict, r.detail.partition(" in (")[0]) for r in rep.results] == verdicts

    def test_blowup_rules_are_added_to_one_blow_up(self, monkeypatch):
        from chowcalc import script

        calls = counting(monkeypatch, script, "blow_up")
        copies = counting(monkeypatch, ChowPresentation, "with_rules")
        rep = run_scenario(parse_script(
            "(pspace P 3)"
            "(blowup B P e (class (mul h h)) (roots h h) (rules ((pow h 3) 0)))"
            "(assert-zero (trivial) (pow h 3))"
        ))
        assert rep.ok and len(calls) == 1 and not copies

    @pytest.mark.parametrize("gen, verdicts", [
        ("h", [(PASS, "")]),
        ("hh", [(ERROR, "CoverageError: restriction names 'hh', not a generator of 'P'"),
                (ERROR, "EvalError: undefined identifier 'e'")]),
    ])
    def test_blowup_restriction_of_an_unknown_generator_is_an_error(self, gen, verdicts):
        rep = run_scenario(parse_script(
            "(pspace P 3)"
            f"(blowup B P e (class (mul h h)) (roots h h) (restrict ({gen} 0)))"
            "(assert-zero (trivial) (mul h e))"
        ))
        assert [(r.verdict, r.detail.partition(" in (")[0]) for r in rep.results] == verdicts

    GENERIC = (
        "(generic X 3 (mod {mod}) (gens (x 1) (y 1) (p 3))"
        " (rules ((pow x 2) 0) ((mul x y) (scale 2 (pow y 2))))"
        " (degrees (p 1) ((pow y 3) 1)) (tangent (add 1 (scale 2 y))))"
    )

    @pytest.mark.parametrize("mod", [0, 3])
    def test_generic_form_adds_rules_to_its_first_build(self, monkeypatch, mod):
        # the clauses are read on a rule-free ring whose basis is not
        # enumerated, and the presentation is built once with the declared
        # rules, so one basis is enumerated; the result is generic_context
        # with every clause
        from chowcalc import varieties
        from chowcalc.rings import Monomial
        from chowcalc.script import _eval_context_form

        calls = counting(monkeypatch, varieties, "enumerate_basis")
        env = Env()
        _eval_context_form(env, parse_script(self.GENERIC.format(mod=mod)).forms[0])
        X = env.lookup("X")
        assert len(calls) == 1
        monkeypatch.undo()
        y = Monomial([(1, 1)])
        want = generic_context(
            [("x", 1), ("y", 1), ("p", 3)], 3, modulus=mod,
            rules=[(Monomial([(0, 2)]), {}), (Monomial([(0, 1), (1, 1)]), {Monomial([(1, 2)]): 2})],
            degrees={Monomial([(2, 1)]): 1, Monomial([(1, 3)]): 1}, tangent_table={0: 1, y: 2},
            name="X",
        )
        assert X.ring.rules == want.ring.rules and len(X.ring.rules) == 2
        assert X.basis == want.basis
        assert X.degree_table == want.degree_table and X.degree_total == want.degree_total is True
        assert X.tangent.table == want.tangent.table == {0: 1, y: 2}
        assert (X.kind, X.name, X.provenance) == (want.kind, want.name, want.provenance)

    def test_empty_script(self):
        rep = run_scenario(parse_script(""))
        assert rep.ok
        assert rep.counts == {"passed": 0, "failed": 0, "errors": 0}

    def test_failure_records_witness(self):
        rep = run_scenario(parse_script(
            "(generic X 3 (gens (x 1)))"
            "(assert-zero (trivial) (mul x x))"
        ))
        assert not rep.ok
        assert rep.results[0].verdict == FAIL
        assert rep.results[0].witness == "x^2"

    def test_error_verdict_no_crash(self):
        rep = run_scenario(parse_script("(assert-zero (trivial) (mul nope 2))"))
        assert rep.results[0].verdict == ERROR

    def test_assert_deg(self):
        rep = run_scenario(parse_script(
            "(pspace P 2)"
            "(assert-deg (trivial) (mul h h) 1)"
            "(assert-deg (trivial) (scale 3 (mul h h)) 3)"
        ))
        assert rep.ok

    def test_assert_kernel_dim(self):
        rep = run_scenario(parse_script(
            "(pspace P 3)"
            "(assert-kernel-dim (trivial) P 1 2 0)"
        ))
        assert rep.ok

    def test_assert_kernel_dim_witness_names_the_kernel(self):
        rep = run_scenario(parse_script(
            "(generic X 3 (gens (x 1)) (degrees ((pow x 3) 2)))"
            "(assert-kernel-dim (trivial) X 1 2 0)"
        ))
        (res,) = rep.results
        assert (res.verdict, res.detail, res.witness) == (FAIL, "kernel dimension 1, wanted 0", "x")

    def test_assert_kernel_dim_errors(self):
        # a modulus that is not prime, or a codegree outside 0..dim, is an
        # error verdict, not a report
        rep = run_scenario(parse_script(
            "(pspace P 2) (pspace R 2) (product Q P R)"
            "(assert-kernel-dim (trivial) Q 1 4 0)"
            "(assert-kernel-dim (trivial) Q 1 9 0)"
            "(assert-kernel-dim (trivial) Q 1 1 0)"
            "(assert-kernel-dim (trivial) Q 1 0 0)"
            "(assert-kernel-dim (trivial) Q 1 -2 0)"
            "(assert-kernel-dim (trivial) Q 7 2 0)"
            "(assert-kernel-dim (trivial) Q -1 2 0)"
        ))
        assert [(r.verdict, r.detail) for r in rep.results] == [
            (ERROR, f"ValueError: pairing modulus {p} is not prime") for p in (4, 9, 1, 0, -2)
        ] + [(ERROR, f"ValueError: codegree {r} is outside 0..4") for r in (7, -1)]

    def test_d_class_modulus_must_be_prime(self):
        # (dclass 4 ...) used to give 1 + x^3 + y^3, and (dclass 1 ...) the class 4
        rep = run_scenario(parse_script(
            "(generic X 4 (gens (x 1) (y 1)))"
            "(assert-zero (trivial) (dclass 4 (roots x y)))"
            "(assert-zero (trivial) (dclass 1 (roots x y)))"
            "(assert-equal (trivial) (dclass 3 (roots x y))"
            " (mul (add 1 (pow x 2)) (add 1 (pow y 2))))"
        ))
        assert [(r.verdict, r.detail) for r in rep.results] == [
            (ERROR, f"ValueError: modulus {p} is not prime") for p in (4, 1)
        ] + [(PASS, "")]

    def test_milnor_forms(self):
        rep = run_scenario(parse_script(
            "(milnor R 3 (rho-height 3))"
            "(assert-equal (trivial) (mul r0 r0) (mul r1 rho))"
            "(assert-comult (trivial) {1} r0 r0)"
            "(assert-equal (trivial) (qapply 1 (rset {0 1})) r0)"
            "(flexible F 2)"
            "(assert-zero (trivial) (mul r0 r0))"
        ))
        assert rep.ok, emit_report(rep, "human").decode()

    def test_milnor_arithmetic(self):
        # add, sub, neg, mul and pow take Milnor elements; over F_2 sub is
        # add and neg is the identity
        rep = run_scenario(parse_script(
            "(milnor M 3 (rho-height 2))"
            "(assert-zero (trivial) (add (mul r0 r0) (mul r1 rho)))"
            "(assert-equal (trivial) (pow r0 2) (mul r1 rho))"
            "(assert-zero (trivial) (sub (pow r0 2) (mul r1 rho)))"
            "(assert-equal (trivial) (neg r0) r0)"
            "(assert-equal (trivial) (pow eta 3) (mul eta eta eta))"
            "(assert-zero (trivial) (pow r0 4))"
            "(assert-equal (trivial) (add r0 r1) r0)"
            "(assert-zero (trivial) (add r0 h))"
            "(assert-zero (trivial) (pow r0 -1))"
        ))
        assert [(r.verdict, r.detail) for r in rep.results] == [
            (PASS, ""), (PASS, ""), (PASS, ""), (PASS, ""), (PASS, ""), (PASS, ""),
            (ERROR, "MilnorError: words of mixed bidegree: ['(-1)[-3]', '(0)[-1]']"),
            (ERROR, "EvalError: undefined identifier 'h'"),
            (ERROR, "MilnorError: negative power"),
        ]

    @pytest.mark.parametrize("assertion", [
        "(assert-equal (trivial) (mul r0 r0) (mul r1 rho) (modulo I))",
        "(assert-zero (trivial) (add (mul r0 r0) (mul r1 rho)) (modulo I))",
    ])
    def test_modulo_on_milnor_elements_is_an_error(self, assertion):
        rep = run_scenario(parse_script(
            f"(pspace P 2) (declare-ideal I (mul h h)) (milnor M 3 (rho-height 2)) {assertion}"
        ))
        assert [(r.verdict, r.detail) for r in rep.results] == [
            (ERROR, "EvalError: (modulo) does not apply to Milnor elements"),
        ]

    def test_integers_beside_milnor_elements(self):
        # an integer n beside a Milnor element is n mod 2 times its ring's
        # unit; integers alone stay integers, which need a class context
        rep = run_scenario(parse_script(
            "(milnor M 3 (rho-height 2))"
            "(assert-equal (trivial) (qapply 0 r0) 1)"
            "(assert-equal (trivial) (mul 3 r0) r0)"
            "(assert-equal (trivial) (mul r0 2) 0)"
            "(assert-equal (trivial) 1 (rset {}))"
            "(assert-zero (trivial) (add 3 (qapply 0 r0)))"
            "(assert-zero (trivial) (sub (qapply 0 r0) -1))"
            "(assert-equal (trivial) (qapply 0 r0) 0)"
            "(assert-equal (trivial) (add r0 1) r0)"
            "(assert-equal (trivial) (add 1 2) 3)"
        ))
        assert [(r.verdict, r.detail, r.witness) for r in rep.results] == [
            (PASS, "", None), (PASS, "", None), (PASS, "", None), (PASS, "", None),
            (PASS, "", None), (PASS, "", None),
            (FAIL, "elements differ", "1 != 0"),
            (ERROR, "MilnorError: words of mixed bidegree: ['(0)[-1]', '(0)[0]']", None),
            (ERROR, "EvalError: integer scalar needs a ring context", None),
        ]

    def test_milnor_sides_must_share_a_ring(self):
        rep = run_scenario(parse_script(
            "(pspace P 2) (let x h)"
            "(milnor M 3) (let a r0) (milnor N 3)"
            "(assert-equal (trivial) a r0)"
            "(assert-equal (trivial) r0 (mul a 1))"
            "(assert-comult (trivial) {0} a r0)"
            "(assert-equal (trivial) x r0)"
            "(assert-equal (trivial) (mul r0 1) r0)"
        ))
        assert [(r.verdict, r.detail) for r in rep.results] == [
            (ERROR, "MilnorError: elements of different rings"),
            (ERROR, "MilnorError: elements of different rings"),
            (ERROR, "MilnorError: elements of different rings"),
            (ERROR, "EvalError: expected a Milnor element, got GradedClass"),
            (PASS, ""),
        ]

    def test_bundle_and_characteristic_forms(self):
        rep = run_scenario(parse_script(
            "(pspace X 2) (pbundle B X xi (roots 0 h))"
            "(let p2 (pushforward B (pow xi 2))) (let p1 (pushforward B xi))"
            "(in-context X) (let hx h)"
            "(assert-equal (trivial) p2 (neg h))"
            "(assert-equal (trivial) p1 1)"
            "(assert-equal (trivial) p2 h)"
            "(assert-equal (trivial) (segre-total (roots h h))"
            "  (add 1 (scale -2 h) (scale 3 (mul h h))))"
            "(in-context B)"
            "(assert-equal (trivial) (pullback B hx) h)"
            "(pspace 3 (mod 2))"  # unnamed: binds P3
            "(assert-equal (trivial) (embedded-total (mul h h) (roots h h)) (mul h h))"
            "(in-context P3)"
            "(assert-deg (trivial) (pow h 3) 1)"
        ))
        assert [r.verdict for r in rep.results] == [PASS, PASS, FAIL, PASS, PASS, PASS, PASS]

    def test_steenrod_and_pullback_forms(self):
        rep = run_scenario(parse_script(
            "(pspace P 3 (mod 2))"
            "(assert-equal (trivial) (steenrod h) (add h (mul h h)))"
            "(assert-equal (trivial) (ppow 0 (mul h h)) (mul h h))"
        ))
        assert rep.ok

    def test_modulo_rules_declaration(self):
        rep = run_scenario(parse_script(
            "(generic X 4 (gens (x 1) (y 1) (z 1)))"
            "(declare-rules R ((mul x y) (mul z z)))"
            "(assert-equal (derived) (mul x y z) (mul z z z) (modulo R))"
        ))
        assert rep.ok

    def test_malformed_trailing_clauses_are_errors(self):
        rep = run_scenario(parse_script(
            "(generic X 2 (gens (x 1) (y 1)))"
            "(declare-ideal J (mul x y))"
            "(assert-zero (trivial) (mul x y) (modolu J))"
            "(assert-equal (trivial) (mul x y) 0 (modulo J) junk)"
            "(assert-numzero (trivial) (mul x y) junk)"
        ))
        assert [(r.verdict, r.detail) for r in rep.results] == [
            (ERROR, "EvalError: expected (modulo NAME ...)")] * 3

    @pytest.mark.parametrize("assertion, usage", [
        ("(assert-zero)", "(assert-zero TAG expr [(modulo NAME ...)])"),
        ("(assert-zero (trivial))", "(assert-zero TAG expr [(modulo NAME ...)])"),
        ("(assert-zero (trivial) (modulo I))", "(assert-zero TAG expr [(modulo NAME ...)])"),
        ("(assert-equal (trivial) h)", "(assert-equal TAG expr expr [(modulo NAME ...)])"),
        ("(assert-equal (trivial) h (modulo I))", "(assert-equal TAG expr expr [(modulo NAME ...)])"),
        ("(assert-numzero)", "(assert-numzero TAG expr [(modulo NAME ...)])"),
        ("(assert-numequal (trivial) h)", "(assert-numequal TAG expr expr [(modulo NAME ...)])"),
        ("(assert-numequal (trivial) h (modulo I) (modulo I))",
         "(assert-numequal TAG expr expr [(modulo NAME ...)])"),
        ("(assert-deg)", "(assert-deg TAG expr INT)"),
        ("(assert-kernel-dim (trivial) P 1 2 x)", "(assert-kernel-dim TAG CTX CODEG PRIME INT)"),
        ("(assert-kernel-dim (trivial) P x 2 0)", "(assert-kernel-dim TAG CTX CODEG PRIME INT)"),
        ("(assert-kernel-dim (trivial) P 1 {2} 0)", "(assert-kernel-dim TAG CTX CODEG PRIME INT)"),
        ("(assert-comult)", "(assert-comult TAG SET x y)"),
    ])
    def test_missing_operands_are_usage_errors(self, assertion, usage):
        # too few expressions ahead of the (modulo ...) clauses, or an
        # operand of assert-kernel-dim that is not an integer
        rep = run_scenario(parse_script(f"(pspace P 2) (declare-ideal I (mul h h)) {assertion}"))
        assert [(r.verdict, r.detail) for r in rep.results] == [(ERROR, f"EvalError: {usage}")]

    PSPACE_USAGE = "(pspace [NAME] N [(mod P)])"
    GENERIC_USAGE = "(generic NAME DIM [(mod P)] (gens (NAME CODEG) ...) ...)"
    MILNOR_USAGE = "(milnor NAME M [(rho-height T)])"

    @pytest.mark.parametrize("form, usage", [
        ("(pspace P 2 (mod))", PSPACE_USAGE),
        ("(generic X 2 (mod) (gens (x 1)))", GENERIC_USAGE),
        ("(milnor M 2 (rho-height))", MILNOR_USAGE),
        ("(pspace P 2 (mod 3 5))", PSPACE_USAGE),
        ("(milnor M 2 (rho-height 2 3))", MILNOR_USAGE),
        ("(milnor M 2 (rho-height 2) (rho-height 3))", MILNOR_USAGE),
    ])
    def test_single_value_clauses_are_usage_errors(self, form, usage):
        # (mod P) and (rho-height T) take exactly one value, once
        rep = run_scenario(parse_script(form))
        assert [(r.verdict, r.detail) for r in rep.results] == [(ERROR, f"EvalError: {usage} in {form}")]

    PBUNDLE_USAGE = "(pbundle NAME BASE XI (roots expr ...))"
    BLOWUP_USAGE = "(blowup NAME BASE E (class expr) (roots expr ...) ...)"
    BLOWUP = "(blowup B P e (class (mul h h)) (roots h h)"

    @pytest.mark.parametrize("form, usage", [
        # a clause given twice, or one the form does not take
        ("(generic X 2 (gens (x 1)) (gens (y 1)))", GENERIC_USAGE),
        ("(generic X 2 (gens (x 1)) (rules ((mul x x) 0)) (rules ((pow x 3) 0)))", GENERIC_USAGE),
        ("(generic X 2 (gens (x 1)) (degrees ((pow x 2) 1)) (degrees ((pow x 2) 2)))", GENERIC_USAGE),
        ("(generic X 2 (gens (x 1)) (degrees ((pow x 2) 1) ((pow x 2) 2)))", GENERIC_USAGE),
        ("(generic X 2 (gens (x 1)) (tangent 1) (tangent x))", GENERIC_USAGE),
        ("(generic X 2 (gens (x 1)) (foo 1))", GENERIC_USAGE),
        (f"{BLOWUP} (class h))", BLOWUP_USAGE),
        (f"{BLOWUP} (roots h h))", BLOWUP_USAGE),
        (f"{BLOWUP} (restrict (h 0)) (restrict (h h)))", BLOWUP_USAGE),
        (f"{BLOWUP} (restrict (h 0) (h h)))", BLOWUP_USAGE),
        (f"{BLOWUP} (rules ((pow e 3) 0)) (rules ((pow e 4) 0)))", BLOWUP_USAGE),
        (f"{BLOWUP} junk)", BLOWUP_USAGE),
        ("(pbundle E P xi (roots h) (roots h h))", PBUNDLE_USAGE),
        ("(milnor M 2 (foo 1))", MILNOR_USAGE),
        # a clause entry or an operand of the wrong shape
        ("(generic X 2 (gens (x a)))", GENERIC_USAGE),
        ("(generic X 2 (gens ((a) 1)))", GENERIC_USAGE),
        ("(generic X 2 (gens (x 1)) (tangent))", GENERIC_USAGE),
        ("(blowup B P e (class) (roots h h))", BLOWUP_USAGE),
        (f"{BLOWUP} (restrict ((h) 0)))", BLOWUP_USAGE),
        ("(product Q P a)", "(product NAME X Y)"),
        ("(product (Q) P P)", "(product NAME X Y)"),
        ("(pspace P 2 3)", PSPACE_USAGE),
        # an integer, or a list, where a name belongs
        ("(generic X 2 (gens (1 1)))", GENERIC_USAGE),
        ("(pbundle E P 3 (roots h h))", PBUNDLE_USAGE),
        ("(blowup B P (e) (class (mul h h)) (roots h h))", BLOWUP_USAGE),
        ("(milnor 3 3)", MILNOR_USAGE),
    ])
    def test_context_forms_refuse_what_they_would_drop(self, form, usage):
        # each clause is read once, by the one reader that refuses a repeat,
        # so no clause is dropped and no Python error escapes
        rep = run_scenario(parse_script(f"(pspace P 2) (let a h) {form}"))
        assert [(r.verdict, r.detail) for r in rep.results] == [(ERROR, f"EvalError: {usage} in {form}")]

    @pytest.mark.parametrize("form, detail", [
        ("(generic X 2 (gens (a 1)) (rules ((scale 2 (pow a 2)) 0)))", "rule lead must be a single monic monomial"),
        (f"{BLOWUP} (rules ((add e e) 0)))", "rule lead must be a single monic monomial"),
        ("(declare-rules R ((add h h) 0))", "rule lead must be a single monic monomial"),
        ("(generic X 2 (gens (a 1)) (degrees ((scale 2 (pow a 2)) 1)))", "degree entries need monic monomials"),
        ("(generic X 2 (gens (a 1) (b 1)) (degrees ((add a b) 1)))", "degree entries need monic monomials"),
        ("(let c (chern 1 h))", "expected (roots ...)"),
        ("(let r (roots h h))", "unknown form head 'roots'"),
    ])
    def test_keys_and_roots_are_refused_as_before(self, form, detail):
        # rule leads and degree entries share one monomial check, and
        # (roots ...) is an operand of the forms that take it, not a value
        rep = run_scenario(parse_script(f"(pspace P 2) {form}"))
        assert [(r.verdict, r.detail) for r in rep.results] == [(ERROR, f"EvalError: {detail} in {form}")]

    @pytest.mark.parametrize("form, detail, dim", [
        ("(generic X 2 (gens (x 1) (y 1)) (rules ((pow x 3) 0)))", "rule lead must be a single monic monomial", 2),
        ("(generic Y 2 (gens (x 1)) (degrees ((pow x 3) 1)))", "degree entries need monic monomials", 2),
        ("(generic Y 3 (gens (x 1)) (degrees ((pow x 4) 1)))", "degree entries need monic monomials", 3),
        (f"{BLOWUP} (rules ((pow e 3) 0)))", "rule lead must be a single monic monomial", 2),
        ("(declare-rules R ((pow h 3) 0))", "rule lead must be a single monic monomial", 2),
    ])
    def test_a_key_above_the_dimension_is_refused_naming_it(self, form, detail, dim):
        # a monomial above the dimension of the presentation a clause is
        # read on is 0 there, so the refusal of 0 names that dimension
        rep = run_scenario(parse_script(f"(pspace P 2) {form}"))
        assert [(r.verdict, r.detail) for r in rep.results] == [(ERROR, (
            f"EvalError: {detail}: this one reads as 0 on the presentation of dimension {dim} it is read on, "
            f"where every monomial above codegree {dim} is 0 in {form}"))]

    def test_a_repeated_rules_clause_is_not_ignored(self):
        # the second (rules ...) used to be dropped, so x^2 failed to vanish
        rep = run_scenario(parse_script(
            "(generic X 2 (gens (x 1) (y 1)) (rules ((mul x y) 0)) (rules ((pow x 2) 0)))"
            "(assert-zero (trivial) (pow x 2))"
        ))
        assert [r.verdict for r in rep.results] == [ERROR, ERROR]
        assert rep.results[0].detail.startswith(f"EvalError: {self.GENERIC_USAGE} in ")

    @pytest.mark.parametrize("expr, usage", [
        ("(tangent a)", "(tangent CTX)"),
        ("(tangent 3)", "(tangent CTX)"),
        ("(pullback a h)", "(pullback CTX a)"),
        ("(pushforward M h)", "(pushforward CTX a)"),
    ])
    def test_presentation_operands_are_usage_errors(self, expr, usage):
        rep = run_scenario(parse_script(
            f"(milnor M 2) (pspace P 2) (let a h) (assert-zero (trivial) {expr})"
            "(assert-kernel-dim (trivial) a 1 2 0)"
        ))
        assert [(r.verdict, r.detail) for r in rep.results] == [
            (ERROR, f"EvalError: {usage}"), (ERROR, "EvalError: (assert-kernel-dim TAG CTX CODEG PRIME INT)")]

    def test_in_context_refuses_what_is_no_context(self):
        # a class was made current, so h was then undefined at the assertion
        rep = run_scenario(parse_script("(pspace P 2) (let a h) (in-context a) (assert-zero (trivial) h)"))
        assert [(r.id, r.verdict) for r in rep.results] == [("script#form2", ERROR), ("script#1", FAIL)]
        assert rep.results[0].detail == "EvalError: (in-context NAME) in (in-context a)"
        rep = run_scenario(parse_script(
            "(milnor M 2) (pspace P 2) (in-context M) (assert-comult (trivial) {1} r0 r0)"
            "(in-context P) (assert-zero (trivial) (pow h 3))"))
        assert [r.verdict for r in rep.results] == [PASS, PASS]

    def test_negative_generic_dimension_is_an_error(self):
        rep = run_scenario(parse_script("(generic X -1 (gens (x 1))) (generic Y 0 (gens (x 1)))"))
        assert [(r.id, r.verdict, r.detail) for r in rep.results] == [
            ("script#form0", ERROR,
             "ValueError: dimension -1 is negative in (generic X -1 (gens (x 1)))"),
        ]

    def test_unknown_form_is_error(self):
        rep = run_scenario(parse_script("(frobnicate 1 2)"))
        assert rep.results[0].verdict == ERROR


J_2X_PLUS_Y = "(declare-ideal J (add (scale 2 x) y))"
# three assertions modulo one set of declared rules and an ideal
RULES_THEN_IDEAL = (
    "(generic X 3 (gens (x 1) (y 1) (z 1)))" + J_2X_PLUS_Y
    + "(declare-rules R ((mul x y) (mul z z)))"
    "(assert-numequal (trivial) (mul x y) (mul z z) (modulo R J))"
    "(assert-numzero (trivial) (mul x z) (modulo R J))"
    "(assert-numzero (trivial) (mul (add (scale 2 x) y) z) (modulo R J))"
)


class TestVerifyIdentity:
    def test_ideal_membership(self):
        X = generic_context([("x", 1), ("y", 1)], 4)
        env = Env()
        env.define("X", X)
        env.current = X
        x, y = X.gen("x"), X.gen("y")
        from chowcalc.script import _IdealDecl

        ok, witness = verify_identity(env, x * x * y, X.zero(), [_IdealDecl([x * y])])
        assert ok and witness is None
        ok, witness = verify_identity(env, x * x * x, X.zero(), [_IdealDecl([x * y])])
        assert not ok
        assert witness == "x^3"

    # J = 2x + y: over Q, x + z is z - y/2 modulo J, so the exact residual
    # has a denominator; a witness of z alone would not be in the class.
    @pytest.mark.parametrize("src, witness", [
        ("(generic X 2 (gens (x 1) (y 1) (z 1)))" + J_2X_PLUS_Y
         + "(assert-zero (trivial) (add x z) (modulo J))",
         "(-y + 2*z)/2"),
        # (x + z) * x = x^2 + x*z is y^2/4 - y*z/2 modulo J*x, J*y, J*z
        ("(generic X 2 (gens (x 1) (y 1) (z 1)))" + J_2X_PLUS_Y
         + "(assert-numzero (trivial) (add x z) (modulo J))",
         "(y^2 - 2*y*z)/4 (pairing against x)"),
        # x*y - x*z is z^2 - x*z under R, and y*z/2 + z^2 modulo J
        ("(generic X 3 (gens (x 1) (y 1) (z 1)))" + J_2X_PLUS_Y
         + "(declare-rules R ((mul x y) (mul z z)))"
         "(assert-equal (trivial) (mul x y) (mul x z) (modulo R J))",
         "(y*z + 2*z^2)/2"),
        # over F_3, 2 is invertible: x + z - 2*(2x + y) = y + z
        ("(generic X 2 (mod 3) (gens (x 1) (y 1) (z 1)))" + J_2X_PLUS_Y
         + "(assert-zero (trivial) (add x z) (modulo J))",
         "y + z"),
    ], ids=["fractional", "numerical", "rules-then-ideal", "mod-3"])
    def test_exact_residual_witness(self, src, witness):
        rep = run_scenario(parse_script(src))
        assert [(r.verdict, r.witness) for r in rep.results] == [(FAIL, witness)]

    def test_one_ideal_rows_build_per_codegree(self, monkeypatch):
        # A23-L2-SL1 makes five assertions modulo Snum on one blow-up; the
        # rows of each codegree are built once and kept on it
        from chowcalc import numeric, registry, script

        verifies = counting(monkeypatch, script, "verify_identity")
        builds = counting(monkeypatch, numeric, "_ideal_rows")
        assert registry.run("A23-L2-SL1").ok
        assert sum(1 for args in verifies if args[3:] and args[3]) == 5
        assert [d for _, _, d in builds] == [5]
        (X, gens, d), = builds
        assert list(kept_under(X, "ideal")) == [(5, frozenset(gens[0].table.items()))]

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_kept_ideal_rows_are_pivot_rows(self, monkeypatch, p):
        # one echelon per codegree: the kept rows have distinct leads and
        # are primitive with a positive lead (over Q) or monic (over F_p),
        # so each membership test echelons them again without eliminating
        from math import gcd

        from chowcalc import numeric
        from chowcalc.script import _IdealDecl

        X = random_tower(random.Random(7))
        X = X.with_coefficients(p) if p else X
        env = Env()
        env.define("X", X)
        env.current = X
        a, b = X.gen(X.ring.names[0]), X.gen(X.ring.names[-1])
        J = _IdealDecl([a * 2 + b, a * 3])
        c = random_class(X.ring, random.Random(8))
        assert verify_identity(env, (a * 2 + b) * c, X.zero(), [J]) == (True, None)
        kept = kept_under(X, "ideal")
        assert kept
        eliminations = counting(monkeypatch, numeric, "_eliminate")
        for pivots in kept.values():
            rows = list(pivots.values())
            leads = [min(r) for r in rows]
            assert leads == list(pivots)
            assert len(set(leads)) == len(rows)
            for r, lead in zip(rows, leads):
                assert r[lead] == 1 if p else (r[lead] > 0 and gcd(*r.values()) == 1)
            assert list(numeric._echelon(rows, p).values()) == rows
        assert eliminations == []

    def test_rows_are_kept_on_the_rules_copy(self, monkeypatch):
        from chowcalc.script import _IdealDecl, _RulesDecl

        X = generic_context([("x", 1), ("y", 1), ("z", 1)], 3)
        env = Env()
        env.define("X", X)
        env.current = X
        x, y, z = X.gen("x"), X.gen("y"), X.gen("z")
        J = _IdealDecl([x * 2 + y])
        R = _RulesDecl(X.ring, [(next(iter((x * y).table)), dict((z * z).table))])
        builds = counting(monkeypatch, ChowPresentation, "with_rules")
        assert verify_identity(env, x * y, x * z, [R, J]) == (False, "(y*z + 2*z^2)/2")
        assert verify_identity(env, (x * 2 + y) * z, X.zero(), [R, J]) == (True, None)
        assert verify_identity(env, x * y, z * z, [R]) == (True, None)
        assert len(builds) == 1
        (copy,) = kept_under(X, "with-rules").values()
        assert kept_under(X, "ideal") == {}
        assert [key[0] for key in kept_under(copy, "ideal")] == [2]

    @pytest.mark.parametrize("form", ["assert-zero", "assert-numzero"])
    def test_ideal_generator_from_another_context(self, form):
        rep = run_scenario(parse_script(
            "(pspace P 2)(declare-ideal J (mul h h))"
            f"(pspace Q 3)({form} (trivial) (mul h h) (modulo J))"
        ))
        assert [(r.verdict, r.detail.partition(" in (")[0]) for r in rep.results] == [
            (ERROR, "EvalError: ideal generators live in a different context")]

    @pytest.mark.parametrize("form", ["assert-zero", "assert-numzero"])
    def test_rules_from_another_context(self, form):
        # R's key for b^2 is Y's key for d^2: read in Y, R would say d^2 -> 0
        rep = run_scenario(parse_script(
            "(generic X 4 (gens (a 1) (b 2)) (degrees ((pow b 2) 1)))(declare-rules R ((pow b 2) 0))"
            f"(generic Y 4 (gens (c 2) (d 1)) (degrees ((pow c 2) 1)))({form} (trivial) (pow d 2) (modulo R))"
        ))
        assert [(r.verdict, r.detail.partition(" in (")[0]) for r in rep.results] == [
            (ERROR, "EvalError: declared rules live in a different context")]

    def test_rule_sides_from_another_context(self):
        # rule pairs are read as keys of one ring: the declaration's, or the
        # context form's that they are declared in
        rep = run_scenario(parse_script(
            "(generic Y 4 (gens (c 2) (d 1)))(let u (pow c 2))(let v (pow d 4))"
            "(pspace P 2)(declare-rules S ((pow h 2) u))"
            "(generic Z 4 (gens (c 2) (d 1)) (rules (u v)))"
            "(blowup B P e (class (mul h h)) (roots h h) (rules (u v)))"
        ))
        assert [(r.verdict, r.detail.partition(" in (")[0]) for r in rep.results] == [
            (ERROR, "EvalError: rule sides live in different contexts"),
            (ERROR, "EvalError: declared rules live in a different context"),
            (ERROR, "EvalError: declared rules live in a different context"),
        ]

    # Y's c and W's a have one key, so read by its keys Y's 1 + c was W's
    # tangent 1 + a, and Y's c^2 gave deg a^2 = 1: both scripts passed
    FOUND_GENERIC = (
        "(generic Y 2 (gens (c 1) (d 1))) (let t (add 1 c))"
        "(generic W 2 (gens (a 1) (b 1)) (degrees ((pow a 2) 1)) (tangent t))"
        "(assert-equal (trivial) (tangent W) (add 1 a))"
    )

    @pytest.mark.parametrize("text, verdicts", [
        (FOUND_GENERIC, [("script#form2", ERROR), ("script#1", ERROR)]),
        (FOUND_GENERIC + "(in-context Y) (let u (pow c 2))"
         "(generic Z 2 (gens (a 1) (b 1)) (degrees (u 1))) (assert-deg (trivial) (pow a 2) 1)",
         [("script#form2", ERROR), ("script#1", ERROR), ("script#form6", ERROR), ("script#2", ERROR)]),
    ], ids=["tangent", "degrees"])
    def test_generic_clauses_refuse_classes_of_another_context(self, text, verdicts):
        rep = run_scenario(parse_script(text))
        assert [(r.id, r.verdict) for r in rep.results] == verdicts
        refused = [r.detail.partition(" in (")[0] for r in rep.results if "#form" in r.id]
        assert set(refused) == {"EvalError: declared rules live in a different context"}

    @pytest.mark.parametrize("context", ["(pspace P 2)", "(milnor M 2)"])
    def test_declared_rules_are_read_in_the_current_context(self, context):
        # S's sides both live in Y, so they made rules of Y while P or M was
        # current; the declaration is now refused and S stays unbound
        rep = run_scenario(parse_script(
            "(generic Y 4 (gens (c 2) (d 1))) (let u (pow c 2)) (let v (pow d 4))"
            f"{context} (declare-rules S (u v)) (in-context Y) (assert-equal (trivial) u v (modulo S))"
        ))
        assert [(r.verdict, r.detail.partition(" in (")[0]) for r in rep.results] == [
            (ERROR, "EvalError: rule sides live in different contexts"),
            (ERROR, "EvalError: undefined identifier 'S'"),
        ]

    def test_ideal_rows_refuse_a_generator_of_another_ring(self):
        from chowcalc.numeric import _ideal_pivots
        from chowcalc.rings import RingError

        X = generic_context([("x", 1)], 2)
        Y = generic_context([("x", 1)], 2)
        with pytest.raises(RingError, match="different ring"):
            _ideal_pivots(X, [X.gen("x"), Y.gen("x")], 1)
        assert kept_under(X, "ideal") == {}


def dense_verdicts(env, lhs, rhs, modulo):
    """Reference verdicts of verify_identity and verify_numerical on the
    dense path: each codegree's ideal rows as coordinate lists, echeloned
    per membership test, and each numerical product a class product with a
    basis class.  Declared rules reduce in a copy built here, apart from
    the one the assertions keep; with no ideal the residual is the part's
    coordinates."""
    from chowcalc.numeric import ideal_span_rows, modp_in_rowspan, rational_in_rowspan
    from chowcalc.script import _IdealDecl, _witness

    gens = [g for decl in modulo if isinstance(decl, _IdealDecl) for g in decl.gens]
    rules = [rule for decl in modulo if not isinstance(decl, _IdealDecl) for rule in decl.rules]
    pres, diff = env.presentation_of(lhs), lhs - rhs
    if rules:
        pres = pres.with_rules(rules)
        diff = pres.ring.from_table(diff.table)
        gens = [pres.ring.from_table(g.table) for g in gens]
    p, n = pres.ring.modulus, pres.dim

    def residual(c, d):
        vec = pres.coordinates(c, d)
        if gens:
            rows = ideal_span_rows(pres, gens, d)
            vec = (modp_in_rowspan(rows, vec, p) if p else rational_in_rowspan(rows, vec))[1]
        return {m: v for m, v in zip(pres.basis_of(d), vec) if v}

    res = {}
    for d in sorted(diff.codegrees()):
        res.update(residual(diff, d))
    identity = (not res, _witness(pres.ring, res) if res else None)
    numerical = (True, None)
    for d in sorted(diff.codegrees()):
        part = diff.homogeneous_part(d)
        found = next(((w, r) for w in basis_classes(pres, n - d) if (r := residual(part * w, n))), None)
        if found:
            numerical = (False, f"{_witness(pres.ring, found[1])} (pairing against {found[0]})")
            break
    return identity, numerical


def random_identities(X, J, rng):
    """Four (lhs, rhs) pairs: a combination of J's generators, half the
    time plus a stray term, against zero or a random monomial class."""
    for _ in range(4):
        lhs = X.zero()
        for g in J.gens:
            lhs = lhs + g * random_class(X.ring, rng)
        if rng.random() < 0.5:
            lhs = lhs + random_class(X.ring, rng, terms=1)
        rhs = random_class(X.ring, rng, terms=1) if rng.random() < 0.3 else X.zero()
        yield lhs, rhs


def random_rule(X, rng):
    """A rule on X's basis monomials: a random one of codegree at least 1
    killed, or sent to a multiple of a monomial before it in key order,
    unless that copy cannot be built."""
    lead_codegrees = [d for d in range(1, X.dim + 1) if X.basis_of(d)]
    d = rng.choice(lead_codegrees)
    k = rng.randrange(len(X.basis_of(d)))
    lead = X.basis_of(d)[k]
    if k and rng.random() < 0.5:
        rule = (lead, {X.basis_of(d)[rng.randrange(k)]: rng.choice([-2, -1, 1, 3])})
        try:
            X.with_rules([rule])
            return rule
        except RingError:
            pass
    return lead, {}


class TestKeptRowsMatchDenseRows:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_tower_identities(self, seed):
        # identities modulo a random ideal, some in it and some not, over Q,
        # F_2 and F_3: the kept dict rows give the dense path's verdicts,
        # and so do the checks with no (modulo ...) clause
        from chowcalc.script import _IdealDecl

        rng = random.Random(seed)
        X = random_tower(rng)
        p = (0, 2, 3)[seed % 3]
        if p:
            X = X.with_coefficients(p)
        env = Env()
        env.define("X", X)
        env.current = X
        J = _IdealDecl([random_class(X.ring, rng) for _ in range(rng.randint(1, 2))])
        for lhs, rhs in random_identities(X, J, rng):
            for modulo in ([J], []):
                got = (verify_identity(env, lhs, rhs, modulo), verify_numerical(env, lhs, rhs, modulo))
                assert got == dense_verdicts(env, lhs, rhs, modulo)

    @pytest.mark.parametrize("seed", range(30))
    def test_declared_rules_copy(self, seed):
        # the same checks modulo a random declared rule, alone and with a
        # random ideal, read in the copy that the assertions keep
        from chowcalc.script import _IdealDecl, _RulesDecl

        rng = random.Random(1000 + seed)
        X = random_tower(rng)
        p = (0, 2, 3)[seed % 3]
        if p:
            X = X.with_coefficients(p)
        env = Env()
        env.define("X", X)
        env.current = X
        R = _RulesDecl(X.ring, [random_rule(X, rng)])
        J = _IdealDecl([random_class(X.ring, rng) for _ in range(rng.randint(1, 2))])
        for lhs, rhs in random_identities(X, J, rng):
            for modulo in ([R, J], [R]):
                got = (verify_identity(env, lhs, rhs, modulo), verify_numerical(env, lhs, rhs, modulo))
                assert got == dense_verdicts(env, lhs, rhs, modulo)
        assert len(kept_under(X, "with-rules")) == 1


class TestVerifyNumerical:
    """Each presentation echelons the top-codegree span of an ideal once;
    the verdicts and witnesses are those of an echelon per assertion."""

    @pytest.mark.parametrize("src, expected", [
        # J and (J, K) are two ideals of one presentation
        ("(generic X 3 (gens (x 1) (y 1) (z 1)))" + J_2X_PLUS_Y + "(declare-ideal K (mul x z))"
         "(assert-numzero (trivial) (mul (add (scale 2 x) y) z) (modulo J))"
         "(assert-numequal (trivial) (mul x y) (scale -2 (mul x x)) (modulo J K))"
         "(assert-numequal (trivial) (mul x y z) (scale -2 (mul x x z)) (modulo J))"
         "(assert-numzero (trivial) (mul z z) (modulo J K))",
         [(PASS, None), (PASS, None), (PASS, None), (FAIL, "z^3 (pairing against z)")]),
        ("(generic X 2 (gens (x 1) (y 1) (z 1)))" + J_2X_PLUS_Y
         + "(assert-numzero (trivial) (add (scale 2 x) y) (modulo J))"
         "(assert-numzero (trivial) (add x z) (modulo J))"
         "(assert-numzero (trivial) (scale 4 x) (modulo J))",
         [(PASS, None), (FAIL, "(y^2 - 2*y*z)/4 (pairing against x)"),
          (FAIL, "y^2 (pairing against x)")]),
        # declared rules build one presentation, which every assertion
        # modulo them reads
        (RULES_THEN_IDEAL,
         [(PASS, None), (FAIL, "(-z^3)/2 (pairing against x)"), (PASS, None)]),
        # x^2 -> y^2 leaves x*y and y^2 in codegree 2: the dual classes are
        # the copy's basis, never x^2, which the declared rule rewrites
        ("(generic X 2 (gens (x 1) (y 1)))"
         "(declare-rules R ((pow x 2) (pow y 2)))"
         "(assert-numzero (trivial) 1 (modulo R))",
         [(FAIL, "x*y (pairing against x*y)")]),
    ], ids=["shared-ideal", "fail-after-pass", "rules-then-ideal", "rules-shrink-the-basis"])
    def test_verdicts_and_witnesses(self, src, expected):
        rep = run_scenario(parse_script(src))
        assert [(r.verdict, r.witness) for r in rep.results] == expected

    def test_one_copy_per_declared_rules(self, monkeypatch):
        calls = counting(monkeypatch, ChowPresentation, "with_rules")
        rep = run_scenario(parse_script(RULES_THEN_IDEAL))
        assert len(rep.results) == 3 and len(calls) == 1
        # the same rules declared again, built apart, find the same copy
        rep = run_scenario(parse_script(
            RULES_THEN_IDEAL + "(declare-rules S ((mul x y) (mul z z)))"
            "(assert-numzero (trivial) (mul x z) (modulo S J))"
            "(assert-numzero (trivial) (mul x z) (modulo S))"
        ))
        assert [r.verdict for r in rep.results] == [PASS, FAIL, PASS, FAIL, FAIL]
        assert len(calls) == 2

    def test_identity_and_numerical_checks_share_one_echelon(self, monkeypatch):
        # an identity check whose difference has a top-codegree part keeps
        # the echelon a numerical check modulo the same ideal reads
        from chowcalc import numeric

        builds = counting(monkeypatch, numeric, "_ideal_rows")
        rep = run_scenario(parse_script(
            "(generic X 2 (gens (x 1) (y 1)))(declare-ideal J (mul x y))"
            "(assert-equal (trivial) (add x (mul x y)) x (modulo J))"
            "(assert-numzero (trivial) (mul y x) (modulo J))"
            "(assert-numzero (trivial) (sub x y) (modulo J))"
        ))
        assert [(r.verdict, r.witness) for r in rep.results] == [
            (PASS, None), (PASS, None), (FAIL, "x^2 (pairing against x)")]
        assert [d for _, _, d in builds] == [2]
        (X, gens, _), = builds
        assert list(kept_under(X, "ideal")) == [(2, frozenset(gens[0].table.items()))]

    def test_one_span_per_ideal(self):
        from chowcalc.script import _IdealDecl

        X = generic_context([("x", 1), ("y", 1)], 2)
        env = Env()
        env.define("X", X)
        env.current = X
        x, y = X.gen("x"), X.gen("y")
        J = _IdealDecl([x * y])
        assert verify_numerical(env, x * y, X.zero(), [J]) == (True, None)
        assert verify_numerical(env, x, X.zero(), [J]) == (False, "x^2 (pairing against x)")
        # the same generators, built again, find the same span
        assert verify_numerical(env, y * x, X.zero(), [_IdealDecl([y * x])]) == (True, None)
        assert len(kept_under(X, "ideal")) == 1
        assert verify_numerical(env, x, X.zero(), [_IdealDecl([x * x])]) == (False, "x*y (pairing against y)")
        assert len(kept_under(X, "ideal")) == 2


class TestReports:
    def test_empty_report_summary(self):
        out = emit_report(Report(), "json").decode()
        assert out.strip().splitlines()[-1] == '{"errors": 0, "failed": 0, "passed": 0}'

    def test_report_defaults_are_fresh(self):
        # each report built without results, notes or values owns its own
        a, b = Report(), Report()
        a.add(AssertionResult("x", PASS))
        a.notes.append("n")
        a.values["k"] = "v"
        assert (b.results, b.notes, b.values) == ([], [], {})
        assert a.counts == {"passed": 1, "failed": 0, "errors": 0}
        r = a.results[0]
        assert (r.id, r.verdict, r.tag, r.detail, r.witness, r.millis) == ("x", PASS, "", "", None, 0)

    def test_d_class_note_once_also_from_a_failed_form(self):
        from chowcalc.characteristic import D_CLASS_CONVENTION_NOTE

        assert run_scenario(parse_script("(pspace P 2 (mod 2))(let a h)")).notes == []
        rep = run_scenario(parse_script(
            "(pspace P 2 (mod 2))(let a (dclass 2 (roots undefined)))"
            "(let b (homological 1 h))(let c (dclass 2 (roots h)))"
        ))
        assert [r.verdict for r in rep.results] == [ERROR]
        assert rep.notes == [D_CLASS_CONVENTION_NOTE]

    def test_report_value_records_only_what_prints_as_written(self):
        # declared sets, contexts and roots printed as Python objects, some
        # by memory address, so the report's bytes changed from run to run
        refused = ["(report-value a J)", "(report-value b R)", "(report-value c P)", "(report-value m M)"]
        rep = run_scenario(parse_script(
            "(pspace P 2) (declare-ideal J h) (declare-rules R ((pow h 2) 0))"
            f"{''.join(refused[:3])} (report-value d (roots h h))"
            "(report-value e (add h 1)) (report-value f (add 2 3)) (report-value g {2 0 1})"
            f"(report-value k ((1 2) (3))) (milnor M 3) {refused[3]} (report-value n (mul r0 r1))"
        ))
        assert [r.detail for r in rep.results] == [
            f"EvalError: (report-value NAME expr) in {form}" for form in refused[:3]
        ] + ["EvalError: unknown form head 'roots' in (report-value d (roots h h))",
             f"EvalError: (report-value NAME expr) in {refused[3]}"]
        assert rep.values == {"e": "1 + h", "f": "5", "g": "{0 1 2}", "k": "((1 2) (3))", "n": "r0*r1"}
        assert b"0x" not in emit_report(rep, "json", stable=True)

    def test_json_single_pass(self):
        rep = run_scenario(parse_script("(pspace P 1)(assert-deg (trivial) h 1)"))
        lines = emit_report(rep, "json", stable=True).decode().strip().splitlines()
        assert '"verdict": "pass"' in lines[0]

    def test_json_fail_has_witness(self):
        rep = run_scenario(parse_script(
            "(generic X 2 (gens (x 1)))(assert-zero (trivial) x)"
        ))
        lines = emit_report(rep, "json", stable=True).decode().strip().splitlines()
        assert '"witness"' in lines[0]

    def test_determinism_bytes(self):
        from chowcalc import registry

        a = emit_report(registry.run("A23-L1-SL2", seed=7), "json", stable=True)
        b = emit_report(registry.run("A23-L1-SL2", seed=7), "json", stable=True)
        assert a == b

    def test_exit_status(self):
        good = run_scenario(parse_script("(pspace P 1)(assert-deg (trivial) h 1)"))
        bad = run_scenario(parse_script("(generic X 2 (gens (x 1)))(assert-zero (trivial) x)"))
        assert good.exit_status() == 0
        assert bad.exit_status() == 1


class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        from chowcalc.cli import main

        script = tmp_path / "ok.sexp"
        script.write_text("(pspace P 2)(assert-deg (trivial) (mul h h) 1)\n")
        assert main(["run", str(script)]) == 0
        bad = tmp_path / "bad.sexp"
        bad.write_text("(generic X 2 (gens (x 1)))(assert-zero (trivial) x)\n")
        assert main(["run", str(bad)]) == 1
        broken = tmp_path / "broken.sexp"
        broken.write_text("(pspace\n")
        assert main(["run", str(broken)]) == 2

    def test_lemmas_id_and_list(self, capsys):
        from chowcalc.cli import main

        assert main(["lemmas", "--id", "A23-L1-SL1", "--format", "json", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert '"verdict": "pass"' in out
        assert main(["lemmas", "--list"]) == 0
        out = capsys.readouterr().out
        assert "A23-L2-SL1" in out
        assert main(["lemmas", "--id", "NOPE"]) == 2

    def test_eval_subcommand(self, tmp_path, capsys):
        from chowcalc.cli import main
        from chowcalc.varieties import projective_space

        path = tmp_path / "p2.json"
        projective_space(2).save(path)
        assert main(["eval", "(mul h h h)", "--context", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "0"
        assert main(["eval", "(mul h h)", "--context", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "h^2"

    @pytest.mark.parametrize("expression, error", [
        ("(pow h -1)", "error: ValueError: "),
        ("(steenrod h)", "error: RingError: "),
        ("(add nope 1)", "error: EvalError: undefined identifier 'nope'"),
    ])
    def test_eval_errors_exit_2(self, tmp_path, capsys, expression, error):
        from chowcalc.cli import main
        from chowcalc.varieties import projective_space

        path = tmp_path / "p2.json"
        projective_space(2).save(path)
        assert main(["eval", expression, "--context", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(error)
