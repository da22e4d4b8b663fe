"""Spans and counters around symtrace's public functions, installed from outside.

`install()` replaces each target function with a wrapper in every loaded
symtrace module that holds it (names imported with `from .x import f`
are separate bindings), and methods on their class.  Each wrapper keeps
its own call count, inclusive time (outermost activation only, so
recursion is not double counted) and self time (its span minus the part
covered by child spans).  Spans record name, start, end and parent id;
the first SPAN_CAP of an op are kept, the rest only counted.
"""

from __future__ import annotations

import sys
import time
from math import comb

SPAN_CAP = 20_000

# (metric prefix, module, attribute); "Class.method" patches the class
TARGETS = [
    ("poly.mul", "symtrace.poly", "Poly.__mul__"),
    ("poly.add", "symtrace.poly", "Poly.__add__"),
    ("poly.scale", "symtrace.poly", "Poly.scale"),
    ("poly.partial_pos", "symtrace.poly", "Poly.partial_pos"),
    ("poly.compose", "symtrace.poly", "Poly.compose"),
    ("poly.evaluate", "symtrace.poly", "Poly.evaluate"),
    ("weyl.apply", "symtrace.weyl", "WeylOp.apply"),
    ("weyl.mul", "symtrace.weyl", "WeylOp.__mul__"),
    ("symfun.family", "symtrace.symfun", "family"),
    ("symfun.reduce_to_sigma", "symtrace.symfun", "reduce_to_sigma"),
    ("symfun.discriminant", "symtrace.symfun", "discriminant"),
    ("annihilators.generator_system", "symtrace.annihilators", "generator_system"),
    ("transport.xi_transport", "symtrace.transport", "xi_transport"),
    ("charvar.vanishes_on_Z", "symtrace.charvar", "vanishes_on_Z"),
    ("charvar.decompose_in_minors", "symtrace.charvar", "decompose_in_minors"),
    ("charvar.recombine", "symtrace.charvar", "recombine"),
    ("charvar.sample_z_points", "symtrace.charvar", "sample_z_points"),
    ("charvar.rewrite_eta_product", "symtrace.charvar", "rewrite_eta_product"),
    ("membership.reduce_modulo_system", "symtrace.membership", "reduce_modulo_system"),
    ("membership.verify_certificate", "symtrace.membership", "verify_certificate"),
    ("report.run_suite", "symtrace.report", "run_suite"),
    ("report.golden_check", "symtrace.report", "golden_check"),
    ("serialize.dumps", "symtrace.serialize", "dumps"),
    ("serialize.weyl_to_dict", "symtrace.serialize", "weyl_to_dict"),
    ("serialize.weyl_from_dict", "symtrace.serialize", "weyl_from_dict"),
    ("serialize.poly_from_dict", "symtrace.serialize", "poly_from_dict"),
    ("numerics.trace_contour", "symtrace.numerics", "trace_contour"),
    ("numerics.poly_roots", "symtrace.numerics", "poly_roots"),
    ("cli.dispatch", "symtrace.cli", "dispatch"),
]

COUNTERS = ("poly.constructions", "poly.mul.result_terms", "poly.mul.term_products",
            "transport.nonzero_coeffs", "transport.indices_solved",
            "membership.descent_steps", "charvar.decompose_attempts",
            "charvar.rejected", "serialize.bytes_out")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, incl_s, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple] = []          # (id, name, start, end, parent id)
        self.spans_dropped = 0
        self._stack: list[list] = []          # [span id, start, child time]
        self._next_id = 0
        self._active: dict[str, int] = {}

    def wrap(self, name: str, fn, after=None, on_error=None):
        """A wrapper around fn recording its span; `after(args, result)` and
        `on_error(exc)` update counters."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, active = self._stack, self.spans, self._active
        active[name] = 0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat[0] += 1
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - frame[1]
                stat[2] += dur - frame[2]
                if not active[name]:
                    stat[1] += dur
                if stack:
                    stack[-1][2] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, frame[1], end, parent))
                else:
                    self.spans_dropped += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, key: str, n=1):
        self.counters[key] += n

    # -- counters measured at the boundaries --------------------------------------

    def _hooks(self) -> dict:
        from symtrace.charvar import NotOnVarietyError
        from symtrace.poly import Poly

        def poly_mul(args, result):
            a, b = args
            if isinstance(b, Poly):
                self.count("poly.mul.result_terms", len(result.terms))
                self.count("poly.mul.term_products", len(a.terms) * len(b.terms))

        def xi(args, result):
            k, d = args[0].k, args[0].order()
            self.count("transport.nonzero_coeffs", len(result.terms))
            self.count("transport.indices_solved", comb(k + d, d) if d >= 0 else 0)

        def decompose(args, result):
            self.count("charvar.decompose_attempts")
            if self._active["membership.reduce_modulo_system"]:
                self.count("membership.descent_steps")

        def rejected(exc):
            if isinstance(exc, NotOnVarietyError):
                self.count("charvar.decompose_attempts")
                self.count("charvar.rejected")

        def dumps(args, result):
            self.count("serialize.bytes_out", len(result.encode("utf-8")))

        return {
            "poly.mul": {"after": poly_mul},
            "transport.xi_transport": {"after": xi},
            "charvar.decompose_in_minors": {"after": decompose, "on_error": rejected},
            "serialize.dumps": {"after": dumps},
        }

    def install(self) -> None:
        """Wrap every target in its class or in every module binding it."""
        import symtrace.cli  # noqa: F401  (loads every module that holds a target)

        hooks = self._hooks()
        modules = [m for n, m in list(sys.modules.items())
                   if n == "symtrace" or n.startswith("symtrace.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), **hooks.get(name, {})))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, **hooks.get(name, {}))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self._count_constructions()

    def _count_constructions(self):
        from symtrace.poly import Poly

        init = Poly.__init__
        counters = self.counters

        def counted_init(obj, *args, **kwargs):
            counters["poly.constructions"] += 1
            init(obj, *args, **kwargs)

        Poly.__init__ = counted_init

    def report(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "spans_kept": len(self.spans), "spans_dropped": self.spans_dropped}
