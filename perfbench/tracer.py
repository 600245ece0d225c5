"""Spans around the public boundaries of chowcalc's modules, recorded from
outside the package.

Each boundary function is wrapped where it is defined and in every chowcalc
module that binds it by name (``script`` imports ``blow_up``,
``rational_in_rowspan``, ``modp_in_rowspan`` and ``pairing_report``
directly, and the package re-exports most functions), so that no call path
escapes the wrapper.  A call made while a span of the same group is open is
folded into that span: its time is already covered, and counting it again
would count one piece of work twice.

A span is (name, start_ns, end_ns, parent, item), kept in memory and
written out when the run ends.  Per group the tracer sums self time (span
duration minus the child spans it covers), entries, and the work counts
named in ``GROUPS``; every count depends only on the inputs.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter

import chowcalc  # noqa: F401  (loads every module whose bindings are patched)
from chowcalc import rings

# group -> (time metric, calls metric or None, boundaries as "module:attr"
# or "module:Class.attr")
GROUPS = {
    "rings.build": ("rings.build_s", "rings.builds", ["rings:RingContext.__init__"]),
    "rings.reduce": ("rings.reduce_s", "rings.reduce_calls", [
        "rings:RingContext.gen", "rings:RingContext.from_table", "rings:normal_form"]),
    "rings.mul": ("rings.mul_s", "rings.mul_calls", ["rings:GradedClass.__mul__"]),
    "rings.evaluate": ("rings.evaluate_s", "rings.evaluate_calls", ["rings:evaluate"]),
    "varieties.blow_up": ("varieties.blow_up_s", "varieties.blow_ups", ["varieties:blow_up"]),
    "varieties.construct": ("varieties.construct_s", "varieties.constructs", [
        "varieties:projective_space", "varieties:product",
        "varieties:projective_bundle", "varieties:generic_context"]),
    "varieties.basis": ("varieties.basis_s", None, ["varieties:enumerate_basis"]),
    "varieties.with_coefficients": (
        "varieties.with_coefficients_s", "varieties.with_coefficients_calls",
        ["varieties:ChowPresentation.with_coefficients"]),
    "varieties.coordinates": ("varieties.coordinates_s", "varieties.coordinates_calls",
                              ["varieties:ChowPresentation.coordinates"]),
    "varieties.degree": ("varieties.degree_s", "varieties.degree_calls",
                         ["varieties:ChowPresentation.degree"]),
    "numeric.rowspan_q": ("numeric.rowspan_q_s", "numeric.rowspan_q_calls",
                          ["numeric:rational_in_rowspan"]),
    "numeric.modp": ("numeric.modp_s", "numeric.modp_calls", [
        "numeric:modp_rref", "numeric:modp_in_rowspan", "numeric:modp_kernel",
        "numeric:modp_rank"]),
    "numeric.bareiss": ("numeric.bareiss_s", "numeric.bareiss_calls",
                        ["numeric:integer_determinant"]),
    "numeric.pairing": ("numeric.pairing_s", None, ["numeric:pairing_report"]),
    "numeric.quotient": ("numeric.quotient_s", None, [
        "numeric:gamma_quotient", "numeric:ideal_span_rows", "numeric:kernel_is_ideal"]),
    "script.parse": ("script.parse_s", None, ["script:parse_script"]),
    "script.eval": ("script.eval_s", "script.eval_calls", ["script:eval_expr"]),
    "script.verify": ("script.verify_s", "script.verify_calls", ["script:verify_identity"]),
    "script.verify_num": ("script.verify_num_s", "script.verify_num_calls",
                          ["script:verify_numerical"]),
    "characteristic.power": ("characteristic.power_s", "characteristic.power_calls", [
        "characteristic:steenrod_total", "characteristic:reduced_power",
        "characteristic:steenrod_embedded", "characteristic:embedded_power"]),
    "characteristic.chern": ("characteristic.chern_s", "characteristic.chern_calls", [
        "characteristic:chern_total", "characteristic:chern_class",
        "characteristic:segre_total"]),
    "characteristic.dclass": ("characteristic.dclass_s", "characteristic.dclass_calls", [
        "characteristic:d_class", "characteristic:d_class_from_roots",
        "characteristic:d_class_from_total"]),
    "milnor.ring": ("milnor.ring_s", None, ["milnor:make_ring", "milnor:flexible_cohomology"]),
    "milnor.mul": ("milnor.mul_s", "milnor.mul_calls", ["milnor:MilnorElement.__mul__"]),
    "milnor.q_apply": ("milnor.q_apply_s", "milnor.q_apply_calls", ["milnor:q_apply"]),
    "milnor.comult": ("milnor.comult_s", "milnor.comult_calls", ["milnor:comult_check"]),
    "milnor.homology": ("milnor.homology_s", None, ["milnor:q_homology_dimensions"]),
    "report.emit": ("report.emit_s", None, ["report:emit_report"]),
}

# Work counts beyond entries, and the layers whose failures are counted.
WORK_METRICS = [
    "rings.rules_stored", "rings.rules_minimal", "rings.mul_terms_in", "rings.mul_terms_out",
    "varieties.basis_monomials", "numeric.rowspan_q_cells", "numeric.modp_cells",
    "numeric.pairing_entries", "script.parse_forms",
]
FAILURE_LAYERS = ("rings", "varieties")


def per_layer_names() -> list[str]:
    """Every metric the tracer reports, in a fixed order."""
    names = []
    for time_name, calls_name, _ in GROUPS.values():
        names.append(time_name)
        if calls_name:
            names.append(calls_name)
    names += WORK_METRICS + ["rings.rules_minimal_ratio"]
    names += [f"{layer}.failures" for layer in FAILURE_LAYERS]
    return names


def minimal_rule_count(rules) -> int:
    """Rules whose lead is not a proper multiple of another rule's lead.

    Leads have small total degree, so enumerating each lead's proper
    divisors is far cheaper than comparing all pairs of leads."""
    leads = {r.lead.exps for r in rules}
    count = 0
    for r in rules:
        exps = r.lead.exps
        ranges = [range(e + 1) for _, e in exps]
        minimal = True
        for combo in itertools.product(*ranges):
            div = tuple((i, e) for (i, _), e in zip(exps, combo) if e)
            if div and div != exps and div in leads:
                minimal = False
                break
        count += minimal
    return count


def _cells(rows, ncols=None) -> int:
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(rows) * ncols


class Tracer:
    """Installs wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item = None
        self.self_ns = Counter()
        self.counts = Counter()
        self._stack: list[list] = []   # [group, start_ns, child_ns, span index]
        self._patched: list[tuple] = []  # (namespace, attr, original)
        self._built_rules: list[tuple] = []  # rules of every ring built
        self._failed: dict[str, dict[int, BaseException]] = {l: {} for l in FAILURE_LAYERS}

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Self time per group in seconds and every work count."""
        self._count_rules()
        out = {}
        for group, (time_name, calls_name, _) in GROUPS.items():
            out[time_name] = self.self_ns[group] / 1e9
            if calls_name:
                out[calls_name] = self.counts[calls_name]
        for name in WORK_METRICS:
            out[name] = self.counts[name]
        stored = self.counts["rings.rules_stored"]
        out["rings.rules_minimal_ratio"] = self.counts["rings.rules_minimal"] / stored if stored else 0.0
        for layer in FAILURE_LAYERS:
            out[f"{layer}.failures"] = len(self._failed[layer])
        return out

    def span_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "chowcalc" or name.startswith("chowcalc."))]
        originals = []
        for group, (_, _, boundaries) in GROUPS.items():
            for spec in boundaries:
                mod_name, _, path = spec.partition(":")
                owner = sys.modules[f"chowcalc.{mod_name}"]
                cls_name, _, attr = path.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name)
                orig = owner.__dict__[attr]
                wrapper = self._wrap(group, f"{mod_name}.{path}", orig)
                originals.append(orig)
                if cls_name:
                    # also catch aliases such as GradedClass.__rmul__
                    for name, value in list(vars(owner).items()):
                        if value is orig:
                            self._patch(owner, name, wrapper)
                else:
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is orig:
                                self._patch(mod, name, wrapper)
        leftover = unpatched_bindings(originals)
        if leftover:
            self.__exit__(None, None, None)
            raise RuntimeError(f"boundaries still bound unwrapped: {leftover}")
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched = []

    def _patch(self, owner, name, wrapper) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, group, name, orig):
        stack = self._stack
        clock = time.perf_counter_ns
        calls_name = GROUPS[group][1]
        after = self._after.get(group)
        layer = group.partition(".")[0]
        count_failures = layer in FAILURE_LAYERS
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == group:
                return orig(*args, **kwargs)
            spans = tracer.spans
            index = len(spans)
            parent = stack[-1][3] if stack else None
            frame = [group, clock(), 0, index]
            spans.append(None)
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                if count_failures:
                    tracer._failed[layer].setdefault(id(exc), exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.self_ns[group] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                spans[index] = (name, frame[1], end, parent, tracer.item)
            if calls_name:
                tracer.counts[calls_name] += 1
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    # -- work counts read at the boundary, after the call ------------------

    def _after_build(self, args, result) -> None:
        # counted in metrics(), outside every span, since finding the
        # minimal leads costs far more than building a small ring
        self._built_rules.append(args[0].rules)

    def _count_rules(self) -> None:
        minimal_of = {}
        for rules in self._built_rules:
            key = tuple(r.lead.exps for r in rules)
            if key not in minimal_of:
                minimal_of[key] = minimal_rule_count(rules)
            self.counts["rings.rules_stored"] += len(rules)
            self.counts["rings.rules_minimal"] += minimal_of[key]
        self._built_rules = []

    def _after_mul(self, args, result) -> None:
        a, b = args
        self.counts["rings.mul_terms_in"] += len(a.table) * (
            len(b.table) if isinstance(b, rings.GradedClass) else 1)
        self.counts["rings.mul_terms_out"] += len(result.table)

    def _after_construct(self, args, result) -> None:
        self.counts["varieties.basis_monomials"] += sum(len(b) for b in result.basis)

    def _after_rowspan_q(self, args, result) -> None:
        rows, vec = args[:2]
        self.counts["numeric.rowspan_q_cells"] += _cells(rows, len(vec))

    def _after_modp(self, args, result) -> None:
        rows = args[0]
        self.counts["numeric.modp_cells"] += _cells(rows)

    def _after_pairing(self, args, result) -> None:
        self.counts["numeric.pairing_entries"] += sum(
            _cells(e.matrix) for e in result.codegrees.values())

    def _after_parse(self, args, result) -> None:
        self.counts["script.parse_forms"] += len(result.forms)

    _after = {
        "rings.build": _after_build,
        "rings.mul": _after_mul,
        "varieties.construct": _after_construct,
        "varieties.blow_up": _after_construct,
        "numeric.rowspan_q": _after_rowspan_q,
        "numeric.modp": _after_modp,
        "numeric.pairing": _after_pairing,
        "script.parse": _after_parse,
    }


def unpatched_bindings(originals) -> list[str]:
    """Every chowcalc module or class attribute still bound to an original
    boundary function: a path the wrappers would miss."""
    ids = {id(f) for f in originals}
    found = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "chowcalc" or name.startswith("chowcalc.")):
            continue
        for attr, value in vars(mod).items():
            if id(value) in ids:
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    if id(cvalue) in ids:
                        found.append(f"{name}.{attr}.{cattr}")
    return found

