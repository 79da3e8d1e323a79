"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of the ``rigidity`` modules at
every module attribute that holds them (so ``mason.gcd_univariate`` and
``poly.gcd_univariate`` both report as ``poly.gcd_univariate``) and at the
class attributes of the operator methods (``__mul__`` and ``__rmul__``).
Each wrapped call records a span (name, start, end, parent) in memory; self
time is a span's duration minus the time its child spans cover.  Scalar
operations in ``gauss`` get counters only, since a span per scalar operation
would swamp the run.  ``uninstall`` puts every original back and checks each
one by identity.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns
from types import ModuleType

# (module, attribute or Class.attribute, metric name); spans.
SPAN_TARGETS = (
    ("rigidity.cli", "main", "cli.main"),
    ("rigidity.parsing", "parse_poly", "parsing.parse_poly"),
    ("rigidity.parsing", "format_poly", "parsing.format_poly"),
    ("rigidity.families", "recognize_family", "families.recognize_family"),
    ("rigidity.families", "classify", "families.classify"),
    ("rigidity.grading", "gr_presentation", "grading.gr_presentation"),
    ("rigidity.grading", "derivation_degree_jump", "grading.derivation_degree_jump"),
    ("rigidity.derivation", "make_derivation", "derivation.make_derivation"),
    ("rigidity.derivation", "probe_nilpotency", "derivation.probe_nilpotency"),
    ("rigidity.derivation", "apply", "derivation.apply"),
    ("rigidity.quotient", "RingPresentation.normal_form", "quotient.normal_form"),
    ("rigidity.poly", "Polynomial.__mul__", "poly.mul"),
    ("rigidity.poly", "Polynomial.__rmul__", "poly.mul"),
    ("rigidity.poly", "Polynomial.div_rem", "poly.div_rem"),
    ("rigidity.poly", "Polynomial.diff", "poly.diff"),
    ("rigidity.poly", "gcd_univariate", "poly.gcd_univariate"),
    ("rigidity.mason", "distinct_root_count", "mason.distinct_root_count"),
    ("rigidity.mason", "mason_check", "mason.mason_check"),
    ("rigidity.oracle", "bounded_search", "oracle.bounded_search"),
    ("rigidity.oracle", "verify_parametrization", "oracle.verify_parametrization"),
)

# Counters only.
COUNT_TARGETS = (
    ("rigidity.gauss", "GaussianRational.__mul__", "gauss.mul"),
    ("rigidity.gauss", "GaussianRational.__rmul__", "gauss.mul"),
    ("rigidity.gauss", "GaussianRational.__add__", "gauss.add"),
    ("rigidity.gauss", "GaussianRational.__radd__", "gauss.add"),
    ("rigidity.gauss", "GaussianRational.inverse", "gauss.inverse"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []  # name id, start, end, parent
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, int] = {}
        self.terms_out = 0  # poly.mul
        self.terms_in = 0  # poly.div_rem
        self.max_coeff_bits = 0
        self.witnessed_verdicts = 0
        self.leaves = 0
        self.hits = 0
        self._stack: list[int] = []  # open span indices
        self._covered: list[int] = []  # child time inside each open span
        self._patched: list[tuple[object, str, object]] = []
        # Entry points that no longer exist; their metrics read 0.
        self.missing: list[str] = []
        self._poly_type = None
        self._element_type = None

    # -- installation --------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _install_one(self, module: str, target: str, make) -> None:
        mod = sys.modules[module]
        if "." in target:  # a class attribute: one owner
            cls_name, attr = target.split(".")
            owner = getattr(mod, cls_name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module}.{target}")
                return
            self._patch(owner, attr, make(vars(owner)[attr]))
            return
        original = getattr(mod, target, None)
        if original is None:
            self.missing.append(f"{module}.{target}")
            return
        wrapper = make(original)
        # Every alias of the function in the package, e.g. cli.parse_poly.
        for name, other in list(sys.modules.items()):
            if not (name == "rigidity" or name.startswith("rigidity.")):
                continue
            if not isinstance(other, ModuleType):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, attr, wrapper)

    def install(self) -> None:
        poly = sys.modules["rigidity.poly"]
        quotient = sys.modules["rigidity.quotient"]
        self._poly_type = poly.Polynomial
        self._element_type = quotient.RingElement
        for module, target, name in SPAN_TARGETS:
            self._install_one(module, target, lambda fn, n=name: self._span_wrapper(fn, n))
        for module, target, name in COUNT_TARGETS:
            self._install_one(module, target, lambda fn, n=name: self._count_wrapper(fn, n))

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return the ones that did not
        come back identical to the original."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner).get(attr) is not original
        ]
        self._patched.clear()
        return wrong

    # -- wrappers -------------------------------------------------------

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, name: str):
        ident = self._id(name)
        spans, stack, covered = self.spans, self._stack, self._covered
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        post = self._post_hooks().get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((ident, 0, 0, parent))
            stack.append(index)
            covered.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                inner = covered.pop()
                spans[index] = (ident, start, end, parent)
                calls[ident] += 1
                total_ns[ident] += end - start
                self_ns[ident] += end - start - inner
                if covered:
                    covered[-1] += end - start
            self._scan_bits(result)
            if post is not None:
                post(args, result)
            if covered:
                # The parent's self time excludes this bookkeeping too.
                covered[-1] += perf_counter_ns() - end
            return result

        return traced

    # -- counts taken from arguments and results -------------------------

    def _post_hooks(self) -> dict:
        def mul(args, result):
            if isinstance(result, self._poly_type):
                self.terms_out += len(result.terms)

        def div_rem(args, result):
            self.terms_in += len(args[0].terms)

        def classify(args, result):
            if result.status == "NotRigid" and result.witness is not None:
                self.witnessed_verdicts += 1

        def search(args, result):
            self.leaves += result.examined
            self.hits += result.status == "Found"

        return {
            "poly.mul": mul,
            "poly.div_rem": div_rem,
            "families.classify": classify,
            "oracle.bounded_search": search,
        }

    def _scan_bits(self, value) -> None:
        if isinstance(value, tuple):
            for item in value:
                self._scan_bits(item)
            return
        if isinstance(value, self._element_type):
            value = value.rep
        if not isinstance(value, self._poly_type):
            return
        best = self.max_coeff_bits
        for c in value.terms.values():
            for part in (c.re, c.im):
                bits = max(part.numerator.bit_length(), part.denominator.bit_length())
                if bits > best:
                    best = bits
        self.max_coeff_bits = best

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        names = [name for _, _, name in SPAN_TARGETS]
        for name in names:
            i = self._id(name)
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.s"] = self.total_ns[i] / 1e9
            out[f"{name}.self_s"] = self.self_ns[i] / 1e9
        out["cli.self_s"] = out["cli.main.self_s"]
        out["poly.mul.terms_out"] = self.terms_out
        out["poly.div_rem.terms_in"] = self.terms_in
        for _, _, name in COUNT_TARGETS:
            out[f"{name}.calls"] = self.counts.get(name, 0)
        out["gauss.max_coeff_bits"] = self.max_coeff_bits
        probes = out["derivation.probe_nilpotency.calls"]
        out["derivation.probes_per_witness"] = (
            probes / self.witnessed_verdicts if self.witnessed_verdicts else 0.0
        )
        out["oracle.leaves_examined"] = self.leaves
        search_s = out["oracle.bounded_search.s"]
        out["oracle.leaves_per_s"] = self.leaves / search_s if search_s else 0.0
        out["oracle.hits_per_leaf"] = self.hits / self.leaves if self.leaves else 0.0
        return out

    def span_record(self) -> dict:
        return {"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"],
                "spans": self.spans}
