"""Per-layer tracing from outside the package.

`Tracer.install()` replaces public functions of the `omegarb` modules with
timing wrappers at every import site (each module global that is the
original function object, e.g. both `omegarb.groebner.buchberger` and
`omegarb.ideals.buchberger`) and on the few methods named below.  Nothing
under `src/` changes; `uninstall()` puts the originals back.

Three wrapper kinds:
- span:  a record (id, parent id, name, start, end) kept in memory;
- timer: the same timing and self-time accounting without a record, for
         functions called too often to keep every call;
- count: a call counter only, for the hottest kernel helpers.

A call's self time is its duration minus the time of the wrapped calls
below it.  Self times are summed per function name, whose first part is the
layer (the module), so the self times inside a cell add up to its duration.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "catalog", "poly", "solver", "groebner", "ideals", "cli", "algebras", "linalg", "constructions",
)

# (module, attribute, kind); "Class.method" patches the class attribute and
# is named module.method
TARGETS = [
    ("catalog", "load_builtin_catalog", "span"),
    ("catalog", "CatalogEntry.instantiate", "span"),
    ("poly", "parse_polynomial", "timer"),
    ("poly", "Polynomial.leading_monomial", "count"),
    ("poly", "mono_divides", "count"),
    ("solver", "generate_system", "span"),
    ("solver", "analyze_variety", "span"),
    ("groebner", "buchberger", "span"),
    ("groebner", "interreduce", "span"),
    ("groebner", "reduce", "timer"),
    ("ideals", "Ideal.groebner", "timer"),
    ("ideals", "ideal_membership", "timer"),
    ("ideals", "ideal_contains", "span"),
    ("ideals", "ideal_equal", "span"),
    ("ideals", "elimination", "span"),
    ("ideals", "intersect", "span"),
    ("ideals", "colon", "span"),
    ("ideals", "product", "span"),
    ("ideals", "radical_membership", "span"),
    ("ideals", "radical_contains", "span"),
    ("ideals", "krull_dim", "span"),
    ("ideals", "check_primality", "span"),
    ("ideals", "verify_components", "span"),
    ("cli", "run_table_row", "span"),
    ("cli", "_load_builtin_candidates", "span"),
    ("cli", "_builtin_expectations", "span"),
    ("algebras", "classify_map", "span"),
    ("algebras", "validate_algebra", "span"),
    ("algebras", "kernel_omega", "span"),
    ("linalg", "rref", "timer"),
    ("linalg", "det", "timer"),
    ("constructions", "left_symmetric_from_rb", "span"),
    ("constructions", "omega_deform", "span"),
    ("constructions", "iterate_deform", "span"),
    ("constructions", "homlie_from_rb", "span"),
    ("constructions", "homlie_structure", "span"),
]

# calls made directly from verify_components, by the check they serve
_VERIFY_PARTS = {
    "ideals.check_primality": "ideals.verify.primality",
    "ideals.radical_contains": "ideals.verify.radical_cover",
    "ideals.product": "ideals.verify.radical_cover",
    "ideals.intersect": "ideals.verify.radical_cover",
}


def _coeff_bits(basis) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for g in basis.elements for c in g.terms.values()),
        default=0,
    )


class Tracer:
    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._counts: dict[str, list[int]] = {}
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = [[0, "bench", 0.0]]  # [span id, name, child time]
        self.total = defaultdict(float)  # name -> inclusive seconds
        self.calls = Counter()
        self.self_time = defaultdict(float)  # name -> seconds
        self.stats = Counter()
        self.max_coeff_bits = 0
        self._next_id = 1
        self._verify_ideal = None
        for box in self._counts.values():
            box[0] = 0

    def root(self, name: str):
        """Context manager for a benchmark-level span (a cell or set-up)."""
        return _Root(self, name)

    # -- hooks: extra figures measured where the work happens -------------

    def _before(self, name, args, kwargs):
        """Name of a sub-total this call also counts toward, or None."""
        parent = self.stack[-1][1]
        if name == "groebner.buchberger":
            order = args[1] if len(args) > 1 else kwargs["order"]
            if kwargs.get("groebner_prefix", 0) > 0:
                return "groebner.buchberger.incremental"
            return f"groebner.buchberger.{order.kind}"
        if name == "groebner.reduce" and parent == "groebner.buchberger":
            return "groebner.reduce.spair"
        if name == "ideals.groebner":  # Ideal.groebner
            ideal = args[0]
            order = args[1] if len(args) > 1 else kwargs.get("order")
            if (order or ideal.default_order()) in ideal._cache:
                self.stats["groebner_cache_hits"] += 1
            return None
        if name == "ideals.verify_components":
            self._verify_ideal = args[0]
            return None
        if parent == "ideals.verify_components":
            if name == "ideals.ideal_contains":
                if args[1] is self._verify_ideal:
                    return "ideals.verify.containment"
                return "ideals.verify.irredundancy"
            return _VERIFY_PARTS.get(name)
        return None

    def _after(self, name, sub, result):
        if name == "groebner.buchberger":
            self.stats["basis_elements"] += len(result.elements)
            self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(result))
        elif sub == "groebner.reduce.spair" and result.is_zero():
            self.stats["spair_zero"] += 1
        elif name == "solver.generate_system":
            self.stats["generators"] += len(result.generators)
        elif name == "ideals.verify_components":
            self.stats["candidates"] += len(result.candidates)
            self.stats["certified"] += sum(c.certificate_status == "passed" for c in result.candidates)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, name: str, record: bool):
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sub = tracer._before(name, args, kwargs)
            parent = tracer.stack[-1]
            # a timer frame passes its parent's span id on to its children
            frame = [tracer._next_id if record else parent[0], name, 0.0]
            tracer._next_id += record
            tracer.stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer.stack.pop()
                d = t1 - t0
                parent[2] += d
                tracer.self_time[name] += d - frame[2]
                tracer.total[name] += d
                tracer.calls[name] += 1
                if sub:
                    tracer.total[sub] += d
                    tracer.calls[sub] += 1
                if record:
                    tracer.spans.append((frame[0], parent[0], name, t0, t1))
            tracer._after(name, sub, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        box = self._counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "omegarb" or n.startswith("omegarb.")]
        for module_name, attr, kind in TARGETS:
            module = sys.modules[f"omegarb.{module_name}"]
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                sites = [(getattr(module, cls_name), meth)]
            else:
                original = getattr(module, attr)
                sites = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            original = getattr(sites[0][0], sites[0][1])
            if kind == "count":
                wrapped = self._counted(original, name)
            else:
                wrapped = self._timed(original, name, record=kind == "span")
            for owner, key in sites:
                self._patched.append((owner, key, getattr(owner, key)))
                setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def count(self, name: str) -> int:
        return self._counts[name][0]


class _Root:
    """A benchmark-level span; on exit it holds its duration, its own self
    time and the self time of each wrapped function inside it."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.frame = [t._next_id, self.name, 0.0]
        t._next_id += 1
        t.stack.append(self.frame)
        self._before = dict(t.self_time)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t1 = time.perf_counter()
        t.stack.pop()
        self.duration = t1 - self.t0
        self.self_time = self.duration - self.frame[2]
        self.inside = {k: v - self._before.get(k, 0.0) for k, v in t.self_time.items()}
        t.spans.append((self.frame[0], 0, self.name, self.t0, t1))
        return False
