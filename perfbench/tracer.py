"""Per-layer tracing of the csalg modules, installed from outside ``src``.

``install()`` wraps the public functions of every ``csalg`` module and the
public methods and arithmetic dunders of its public classes.  A wrapper
replaces *every* binding of the original function object: ``from .core
import lambda_bracket`` in ``centroid``, the re-export in
``csalg/__init__`` and the ``__rmul__ = __mul__`` alias in a class body
all point at the same object, so all of them are rebound, and a call
through any name is counted once.

Each call is a span: its duration is added to the function's inclusive
time (outermost call only, so recursion is not counted twice) and, minus
the time of the wrapped calls it made, to its self time.  A module is busy
while any of its functions is on the stack; nested calls into the same
module are not counted twice.  Counts repeat exactly at a fixed seed;
times do not.
"""

import functools
import inspect
import sys
from fractions import Fraction
from time import perf_counter

#: Arithmetic dunders wrapped on top of the public methods.
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__",
           "__eq__")

#: Constructors wrapped because a per-layer metric counts them.
INITS = ("CycloField", "LaurentElt")

#: Trivial queries left unwrapped: they do no arithmetic and are called
#: so often that a wrapper would dominate their cost.
SKIP = ("is_zero", "is_unit", "is_one", "ngens", "parity", "zero", "one",
        "get", "gen_index", "parity_sign", "max_degree", "zero_elt",
        "zero_poly", "residue_of", "level")


class Tracer:
    """Counters and span times, keyed ``module.qualname``."""

    def __init__(self):
        # name -> [calls, inclusive_s, self_s, depth]
        self.spans = {}
        # module -> [depth, busy_s]
        self.modules = {}
        self.counts = {"mul_zero": 0, "mul_rational": 0,
                       "bracket_term_pairs": 0, "solutions": 0,
                       "solution_entries": 0}
        self._stack = [[0.0]]
        # id -> original function, for every function install() wrapped
        self.originals = {}

    def wrap(self, module, qualname, fn, before=None, after=None):
        span = self.spans.setdefault("%s.%s" % (module, qualname),
                                     [0, 0.0, 0.0, 0])
        mod = self.modules.setdefault(module, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            span[3] += 1
            mod[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                span[0] += 1
                span[2] += dt - frame[0]
                span[3] -= 1
                if not span[3]:
                    span[1] += dt
                mod[0] -= 1
                if not mod[0]:
                    mod[1] += dt
            if after is not None:
                after(result)
            return result

        return traced

    # -- hooks for the counters that need arguments or results ------------

    def _before_mul(self, args):
        a, b = args
        if isinstance(b, (int, Fraction)):
            b_zero, b_rational = not b, True
        elif hasattr(b, "coeffs"):
            b_zero = not b.coeffs
            b_rational = b_zero or (len(b.coeffs) == 1 and 0 in b.coeffs)
        else:
            return
        if b_zero or not a.coeffs:
            self.counts["mul_zero"] += 1
        elif b_rational and len(a.coeffs) == 1 and 0 in a.coeffs:
            self.counts["mul_rational"] += 1

    def _before_bracket(self, args):
        self.counts["bracket_term_pairs"] += \
            len(args[1].terms) * len(args[2].terms)

    def _after_centroid(self, solutions):
        self.counts["solutions"] += len(solutions)
        self.counts["solution_entries"] += sum(len(chi.entries)
                                               for chi in solutions)

    def hooks(self, qualname):
        return {
            "CycloScalar.__mul__": (self._before_mul, None),
            "lambda_bracket": (self._before_bracket, None),
            "centroid_basis": (None, self._after_centroid),
        }.get(qualname, (None, None))

    # -- reading the results ------------------------------------------------

    def calls(self, name):
        return self.spans.get(name, [0])[0]

    def inclusive(self, name):
        return self.spans.get(name, [0, 0.0])[1]

    def self_time(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def module_self(self, module):
        prefix = module + "."
        return sum(s[2] for name, s in self.spans.items()
                   if name.startswith(prefix))

    def busy(self, module):
        return self.modules.get(module, [0, 0.0])[1]

    def snapshot(self):
        """A JSON-ready dump, used to carry a child process's trace home."""
        return {"spans": {k: v[:3] for k, v in self.spans.items()},
                "modules": {k: v[1] for k, v in self.modules.items()},
                "counts": dict(self.counts)}

    def merge(self, snap):
        """Add a child process's snapshot into this tracer."""
        for name, (calls, incl, own) in snap["spans"].items():
            span = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
            span[0] += calls
            span[1] += incl
            span[2] += own
        for module, busy in snap["modules"].items():
            self.modules.setdefault(module, [0, 0.0])[1] += busy
        for key, value in snap["counts"].items():
            self.counts[key] += value


def _csalg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "csalg" or name.startswith("csalg.")) and m]


def _short(module_name):
    return module_name.rpartition(".")[2]


def _targets(modules):
    """(owner, attribute, function, module, qualname) for every wrap site."""
    out = []
    for mod in modules:
        if mod.__name__ == "csalg":
            continue
        short = _short(mod.__name__)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((mod, name, obj, short, obj.__qualname__))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    func = member
                    if isinstance(member, (classmethod, staticmethod)):
                        func = member.__func__
                    if not inspect.isfunction(func) or attr in SKIP:
                        continue
                    if attr.startswith("_") and attr not in DUNDERS and not (
                            attr == "__init__" and obj.__name__ in INITS):
                        continue
                    out.append((obj, attr, member, short, func.__qualname__))
    return out


def install(tracer=None):
    """Wrap every csalg binding in place; returns the tracer."""
    tracer = tracer or Tracer()
    modules = _csalg_modules()
    wrapped = {}
    for owner, attr, member, short, qualname in _targets(modules):
        key = id(member)
        if key not in wrapped:
            kind = type(member) if isinstance(
                member, (classmethod, staticmethod)) else None
            func = member.__func__ if kind else member
            before, after = tracer.hooks(qualname)
            new = tracer.wrap(short, qualname, func, before, after)
            tracer.originals[id(func)] = func
            wrapped[key] = (member, kind(new) if kind else new)
        setattr(owner, attr, wrapped[key][1])
    # rebind every other name that still points at a wrapped function
    by_id = {id(orig): new for orig, new in wrapped.values()}
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            new = by_id.get(id(obj))
            if new is not None and inspect.isfunction(obj):
                setattr(mod, name, new)
    return tracer


def unwrapped_bindings(tracer):
    """Names that still reach an original function after ``install()``.

    Scans every csalg module namespace and public class; empty when the
    tracer covers every binding.
    """
    left = []
    for mod in _csalg_modules():
        owners = [mod] + [c for c in vars(mod).values() if inspect.isclass(c)]
        for owner in owners:
            for name, obj in vars(owner).items():
                func = getattr(obj, "__func__", obj)
                if id(func) in tracer.originals:
                    left.append("%s.%s" % (getattr(owner, "__name__", owner),
                                           name))
    return left


def _share(part, whole):
    return part / whole if whole else 0.0


#: The per-layer metrics read off a tracer: (name, unit, reader, the
#: workloads whose traced run must make the metric nonzero).  The
#: ``cli.interpreter_s``, ``cli.import_s`` and ``trace.overhead_ratio``
#: figures are measured by the runner, not by the tracer.
ALL = ("centroid", "axioms", "modes", "cli")
LAYER_METRICS = [
    ("cyclotomic.mul_calls", "count",
     lambda t: t.calls("cyclotomic.CycloScalar.__mul__"),
     ("centroid", "axioms")),
    ("cyclotomic.mul_zero_share", "ratio",
     lambda t: _share(t.counts["mul_zero"],
                      t.calls("cyclotomic.CycloScalar.__mul__")),
     ("centroid",)),
    ("cyclotomic.mul_rational_share", "ratio",
     lambda t: _share(t.counts["mul_rational"],
                      t.calls("cyclotomic.CycloScalar.__mul__")),
     ("centroid",)),
    ("cyclotomic.add_calls", "count",
     lambda t: t.calls("cyclotomic.CycloScalar.__add__"), ("centroid",)),
    ("cyclotomic.inverse_calls", "count",
     lambda t: t.calls("cyclotomic.CycloScalar.inverse"),
     ("centroid", "modes")),
    ("cyclotomic.busy_s", "s", lambda t: t.busy("cyclotomic"), ("centroid",)),
    ("cyclotomic.field_build_s", "s",
     lambda t: t.inclusive("cyclotomic.CycloField.__init__"),
     ("modes", "cli")),
    ("laurent.binom_frac_calls", "count",
     lambda t: t.calls("laurent.binom_frac"), ("modes", "axioms")),
    ("laurent.elt_inits", "count",
     lambda t: t.calls("laurent.LaurentElt.__init__"), ("centroid",)),
    ("core.lambda_bracket_calls", "count",
     lambda t: t.calls("core.lambda_bracket"), ("axioms", "modes")),
    ("core.bracket_term_pairs", "count",
     lambda t: t.counts["bracket_term_pairs"], ("axioms", "modes")),
    ("core.lambda_bracket_self_s", "s",
     lambda t: t.self_time("core.lambda_bracket"), ("axioms", "modes")),
    ("core.to_hat_basis_calls", "count",
     lambda t: t.calls("core.to_hat_basis"), ("centroid",)),
    ("core.to_hat_basis_s", "s",
     lambda t: t.inclusive("core.to_hat_basis"), ("centroid",)),
    ("core.apply_partial_calls", "count",
     lambda t: t.calls("core.apply_partial"), ("axioms",)),
    ("core.check_axioms_self_s", "s",
     lambda t: t.self_time("core.check_axioms"), ("axioms",)),
    ("linalg.solve_calls", "count",
     lambda t: t.calls("linalg.solve"), ("modes",)),
    ("linalg.null_space_calls", "count",
     lambda t: t.calls("linalg.null_space"), ("modes",)),
    ("linalg.busy_s", "s", lambda t: t.busy("linalg"), ("modes",)),
    ("linalg.det_s", "s", lambda t: t.inclusive("linalg.det"), ("centroid",)),
    ("loops.alg_bracket_calls", "count",
     lambda t: t.calls("loops.alg_bracket"), ("modes",)),
    ("loops.alg_bracket_self_s", "s",
     lambda t: t.self_time("loops.alg_bracket"), ("modes",)),
    ("loops.piece_contains_calls", "count",
     lambda t: t.calls("loops.LoopAlgebra.piece_contains"), ("modes",)),
    ("loops.l0_spectrum_s", "s",
     lambda t: t.inclusive("loops.l0_spectrum"), ("modes",)),
    ("loops.eigenspaces_s", "s",
     lambda t: t.inclusive("loops.eigenspaces"), ("modes", "centroid")),
    ("morphisms.n4_auto_s", "s",
     lambda t: t.inclusive("morphisms.n4_auto"), ("modes",)),
    ("morphisms.order_of_s", "s",
     lambda t: t.inclusive("morphisms.order_of"), ("cli",)),
    ("morphisms.check_hom_s", "s",
     lambda t: t.inclusive("morphisms.check_hom"), ("cli",)),
    ("cohomology.n4_invariant_calls", "count",
     lambda t: t.calls("cohomology.n4_invariant"), ("modes",)),
    ("cohomology.pgl2_classes_s", "s",
     lambda t: t.inclusive("cohomology.pgl2_classes"), ("modes",)),
    ("centroid.centroid_basis_s", "s",
     lambda t: t.inclusive("centroid.centroid_basis"), ("centroid",)),
    ("centroid.self_s", "s", lambda t: t.module_self("centroid"),
     ("centroid",)),
    ("centroid.is_scalar_action_s", "s",
     lambda t: t.inclusive("centroid.is_scalar_action"), ("centroid",)),
    ("centroid.solutions", "count", lambda t: t.counts["solutions"],
     ("centroid",)),
    ("centroid.solution_entries", "count",
     lambda t: t.counts["solution_entries"], ("centroid",)),
    ("dsl.parse_algebra_s", "s",
     lambda t: t.inclusive("dsl.parse_algebra"), ALL),
    ("dsl.parse_element_calls", "count",
     lambda t: t.calls("dsl.parse_element"), ("cli",)),
    ("cli.main_self_s", "s", lambda t: t.module_self("cli"), ("cli",)),
]
