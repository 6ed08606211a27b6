"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public names of ``qtransfer`` from outside the package:
it replaces each function or method, in every module and class that holds
it, by a wrapper that opens a span, calls the original and closes the span.
A span records (id, name, start, end, parent) and belongs to one run id.
A name's self time is its spans' durations minus the time of the spans
opened inside them, so the self times of all names, the benchmark's own
``bench.*`` spans included, add up to the duration of the root span.

``QScalar`` arithmetic runs 10^4 to 10^6 times in one run, so its spans
(and those of the small ``SymPoly``, q-count and Young-subgroup helpers)
are folded: they add to the self times and call counts but are not kept
one by one.  Hot leaf functions (``perm_mul``, ``mat_mul``,
``in_rowspace``) are counted, not timed; their time stays in the span that
called them, as does the time of the clock's reference slices.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from bench_metrics import LAYERS, SELF_TIMES
from qtransfer.algebra import QScalar, SymPoly
from qtransfer.finitegl import GLGroup

QSCALAR = "algebra.QScalar"
ROOT_SPAN = "bench.loop"
CASE_SPAN = "bench.case"

# (module, attribute, span name); the span is kept unless the name is folded
SPANNED = [
    ("qtransfer.algebra.sympoly", "schur", "algebra.schur"),
    ("qtransfer.algebra.sympoly", "monomial_sym", "algebra.SymPoly"),
    ("qtransfer.algebra.sympoly", "elementary", "algebra.SymPoly"),
    ("qtransfer.algebra.sympoly", "powersum", "algebra.SymPoly"),
    ("qtransfer.algebra.qcount", "qint_balanced", "algebra.qcount"),
    ("qtransfer.algebra.qcount", "qbinom", "algebra.qcount"),
    ("qtransfer.algebra.qcount", "gl_order", "algebra.qcount"),
    ("qtransfer.algebra.qcount", "parabolic_order", "algebra.qcount"),
    ("qtransfer.algebra.qcount", "parahoric_index", "algebra.qcount"),
    ("qtransfer.transfer", "substitution_image", "transfer.substitution_image"),
    ("qtransfer.transfer", "image_e", "transfer.image_e"),
    ("qtransfer.transfer", "image_p", "transfer.image_p"),
    ("qtransfer.transfer", "image_schur", "transfer.image_schur"),
    ("qtransfer.transfer", "surjectivity_witness", "transfer.surjectivity_witness"),
    ("qtransfer.weylcomb", "proper_levi_vanishing", "weylcomb.proper_levi_vanishing"),
    ("qtransfer.weylcomb", "restriction_support", "weylcomb.restriction_support"),
    ("qtransfer.weylcomb", "f_g_table", "weylcomb.f_g_table"),
    ("qtransfer.weylcomb", "one_adic_ep", "weylcomb.one_adic_ep"),
    ("qtransfer.weylcomb", "orbital_sum", "weylcomb.orbital_sum"),
    ("qtransfer.weylcomb", "composition_class_counts", "weylcomb.composition_class_counts"),
    ("qtransfer.weylcomb", "young_subgroup", "weylcomb.young_subgroup"),
    ("qtransfer.finitegl.classfun", "dl_character", "finitegl.dl_character"),
    ("qtransfer.finitegl.classfun", "comb_prop_check", "finitegl.comb_prop_check"),
    ("qtransfer.finitegl.classfun", "ind_conjugate_identity_exhaustive",
     "finitegl.ind_conjugate_identity_exhaustive"),
    ("qtransfer.finitegl.group", "cached_group", "finitegl.cached_group"),
    ("qtransfer.epfun", "ep_function", "epfun.ep_function"),
    ("qtransfer.epfun", "product_ep", "epfun.product_ep"),
    ("qtransfer.epfun", "f_J", "epfun.f_J"),
    ("qtransfer.epfun", "to_one_basis", "epfun.to_one_basis"),
    ("qtransfer.epfun", "to_e_basis", "epfun.to_e_basis"),
    ("qtransfer.epfun", "shadow", "epfun.shadow"),
    ("qtransfer.epfun", "weyl_averaged_dl", "epfun.weyl_averaged_dl"),
    ("qtransfer.epfun", "fj_shadow_report", "epfun.fj_shadow_report"),
]

# (class, method names, span name)
SPANNED_METHODS = [
    (SymPoly, ("expand",), "algebra.SymPoly.expand"),
    (SymPoly, ("from_expansion",), "algebra.SymPoly.from_expansion"),
    (SymPoly, ("__mul__",), "algebra.SymPoly.mul"),
    (SymPoly, ("__init__", "__add__", "__sub__", "__neg__", "scale", "__rmul__"),
     "algebra.SymPoly"),
]

QSCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
               "v_power", "q_power", "from_v_terms", "specialize_q")

DIVISIONS = frozenset({"__truediv__", "__rtruediv__", "inverse"})

FOLDED = frozenset({QSCALAR, "algebra.SymPoly", "algebra.qcount", "weylcomb.young_subgroup"})

COUNTED = [
    ("qtransfer.weylcomb", "perm_mul", "weylcomb.perm_mul.calls"),
    ("qtransfer.finitegl.fqmat", "mat_mul", "finitegl.mat_mul.calls"),
    ("qtransfer.finitegl.fqmat", "in_rowspace", "finitegl.in_rowspace.calls"),
]

class Tracer:
    """Spans of one run, kept in memory until :meth:`write`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # open spans, innermost last: [id, name, start, child time, kept id]
        self._stack: list[list] = []
        self._last_id = 0

    def open(self, name: str) -> list:
        self._last_id += 1
        parent_kept = self._stack[-1][4] if self._stack else None
        kept = parent_kept if name in FOLDED else self._last_id
        # integer nanoseconds, so self times add up exactly
        frame = [self._last_id, name, time.perf_counter_ns(), 0, kept]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        span_id, name, start, child_ns, kept = frame
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if kept == span_id:
            self.spans.append((span_id, name, start, end,
                               parent[4] if parent is not None else None))

    def innermost(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "run": self.run_id}) + "\n")

    def metrics(self, refusals: Counter) -> dict[str, float]:
        """The per-layer metrics, except ``trace.overhead_ratio``, which
        needs an untraced run."""
        calls, counts = self.calls, self.counts

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out = {f"{name}.self_s": self.self_ns[name] / 1e9 for name in SELF_TIMES}
        layer_ns = Counter()
        for name, ns in self.self_ns.items():
            layer_ns[name.split(".")[0]] += ns
        out.update({f"{layer}.self_s": layer_ns[layer] / 1e9 for layer in LAYERS})
        ops = counts["algebra.QScalar.ops"]
        reps = "weylcomb.min_double_coset_reps"
        ind = "finitegl.parabolic_trivial_ind"
        out.update({
            "algebra.QScalar.ops": ops,
            "algebra.QScalar.laurent_share": share(counts["algebra.QScalar.laurent"], ops),
            "algebra.QScalar.quotient_ops": counts["algebra.QScalar.quotient_ops"],
            "algebra.QScalar.quotient_share": share(counts["algebra.QScalar.quotient_ops"], ops),
            "algebra.QScalar.quotient_s": counts["algebra.QScalar.quotient_ns"] / 1e9,
            "transfer.transfer_sym.monomials": counts["transfer.transfer_sym.monomials"],
            f"{reps}.calls": calls[reps],
            f"{reps}.repeat_share": share(counts[f"{reps}.repeats"], calls[reps]),
            "weylcomb.double_cosets": counts["weylcomb.double_cosets"],
            "weylcomb.perm_mul.calls": counts["weylcomb.perm_mul.calls"],
            "weylcomb.refusals": refusals["weylcomb"],
            f"{ind}.calls": calls[ind],
            f"{ind}.repeat_share": share(counts[f"{ind}.repeats"], calls[ind]),
            "finitegl.in_rowspace.calls": counts["finitegl.in_rowspace.calls"],
            "finitegl.classes.count": counts["finitegl.classes.count"],
            "finitegl.mat_mul.calls": counts["finitegl.mat_mul.calls"],
            "finitegl.refusals": refusals["finitegl"],
            "bench.loop.self_s": layer_ns["bench"] / 1e9,
            "trace.wall_s": sum(end - start for _, name, start, end, _ in self.spans
                                if name == ROOT_SPAN) / 1e9,
        })
        return out


# -- wrappers ------------------------------------------------------------------


def _spanned(tracer: Tracer, fn, name: str):
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = open_(name)
        try:
            return fn(*args, **kwargs)
        finally:
            close(frame)
    return wrapper


def _scalar_op(tracer: Tracer, fn):
    """A QScalar operation; only operations not nested in another one are
    counted as ops, so ``a - b`` is one op.  An op is also a quotient op if
    it divides or inverts, or if an operand or its result has a denominator
    other than 1: the ops that a Laurent-only fast path still has to send
    through the gcd.  Their time, nested ops included, is counted apart."""
    open_, close, counts = tracer.open, tracer.close, tracer.counts
    division = fn.__name__ in DIVISIONS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outermost = tracer.innermost() != QSCALAR
        frame = open_(QSCALAR)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(frame)
        if outermost and isinstance(result, QScalar):
            counts["algebra.QScalar.ops"] += 1
            if result.is_laurent():
                counts["algebra.QScalar.laurent"] += 1
            if division or not all(x.is_laurent() for x in (result, *args)
                                   if isinstance(x, QScalar)):
                counts["algebra.QScalar.quotient_ops"] += 1
                counts["algebra.QScalar.quotient_ns"] += time.perf_counter_ns() - frame[2]
        return result
    return wrapper


def _counted(tracer: Tracer, fn, name: str):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _repeats(tracer: Tracer, fn, name: str, key, built: str | None = None):
    """A kept span that also counts calls whose key was seen before in the
    run and, for first calls, the size of the result under ``built``."""
    seen = set()
    spanned = _spanned(tracer, fn, name)
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        k = key(*args, **kwargs)
        repeat = k in seen
        seen.add(k)
        result = spanned(*args, **kwargs)
        if repeat:
            counts[f"{name}.repeats"] += 1
        elif built is not None:
            counts[built] += len(result)
        return result
    return wrapper


def _first_classes(tracer: Tracer, fn):
    """GLGroup.conjugacy_classes: a span on the first access per group,
    which is the one that builds the classes."""
    built = weakref.WeakSet()
    spanned = _spanned(tracer, fn, "finitegl.classes")

    @functools.wraps(fn)
    def wrapper(group):
        if group in built:
            return fn(group)
        built.add(group)
        result = spanned(group)
        tracer.counts["finitegl.classes.count"] += len(result)
        return result
    return wrapper


def _transfer_sym(tracer: Tracer, fn, expand):
    spanned = _spanned(tracer, fn, "transfer.transfer_sym")

    @functools.wraps(fn)
    def wrapper(p, f):
        result = spanned(p, f)
        # the expansion is cached on f by now; call the unwrapped method
        tracer.counts["transfer.transfer_sym.monomials"] += len(expand(f))
        return result
    return wrapper


def _reps_key(M, I, d, bound=None):
    return frozenset(M), frozenset(I), d


def _ind_key(group, comp):
    return group.d, group.q, tuple(comp)


# -- installation ------------------------------------------------------------


def _module_attr(module: str, attr: str):
    return getattr(sys.modules[module], attr)


def _wrappers(tracer: Tracer) -> tuple[dict[int, object], list[tuple]]:
    """Wrappers for module-level functions, keyed by the id of the original,
    and (class, attribute, wrapped descriptor) for methods."""
    funcs = {}

    def add(module, attr, make):
        original = _module_attr(module, attr)
        funcs[id(original)] = (original, make(original))

    for module, attr, name in SPANNED:
        add(module, attr, lambda fn, name=name: _spanned(tracer, fn, name))
    for module, attr, name in COUNTED:
        add(module, attr, lambda fn, name=name: _counted(tracer, fn, name))
    add("qtransfer.weylcomb", "min_double_coset_reps",
        lambda fn: _repeats(tracer, fn, "weylcomb.min_double_coset_reps", _reps_key,
                            built="weylcomb.double_cosets"))
    add("qtransfer.finitegl.classfun", "parabolic_trivial_ind",
        lambda fn: _repeats(tracer, fn, "finitegl.parabolic_trivial_ind", _ind_key))
    add("qtransfer.transfer", "transfer_sym",
        lambda fn: _transfer_sym(tracer, fn, SymPoly.expand))

    methods = []
    for cls, attrs, name in SPANNED_METHODS:
        for attr in attrs:
            methods.append((cls, attr, _rewrap(cls, attr,
                                               lambda fn, name=name: _spanned(tracer, fn, name))))
    for attr in QSCALAR_OPS:
        methods.append((QScalar, attr, _rewrap(QScalar, attr,
                                               lambda fn: _scalar_op(tracer, fn))))
    methods.append((GLGroup, "conjugacy_classes",
                    _rewrap(GLGroup, "conjugacy_classes",
                            lambda fn: _first_classes(tracer, fn))))
    return funcs, methods


def _rewrap(cls, attr, make):
    """Wrap the function under a class attribute, keeping classmethods."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


@contextmanager
def installed(tracer: Tracer):
    """Patch every ``qtransfer`` and ``bench_*`` module that holds a traced
    function, and the traced methods; restore all of them on exit."""
    funcs, methods = _wrappers(tracer)
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name.startswith("qtransfer") or mod_name.startswith("bench_")):
            continue
        for attr, value in list(vars(module).items()):
            hit = funcs.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, hit[1])
    for cls, attr, wrapped in methods:
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
