"""Per-layer tracing from outside the library: wrapped callables, spans and counts.

``Tracer.install()`` replaces the callables listed in ``LAYERS`` (methods on
their classes, functions in every qtwist module that binds them) with
wrappers; ``uninstall()`` puts the originals back.  Wrappers do nothing
while no job is active.  During a job, a call that crosses into another
layer opens a span (name, start, end, parent, job id); a call inside the
same layer only counts.  A layer's self time is its spans' time minus the
time of the spans they contain.  Spans are kept in memory, up to
``SPAN_LIMIT``, and written out by ``write()``.  Every count is of calls the
wrappers see; a counter also learns the wrapped callable that made the call,
so work done on behalf of one caller can be counted apart.
"""

from __future__ import annotations

import json
from time import perf_counter

import qtwist
from qtwist import algebras, cli, cocycles, monoids, scalars, segre
from run import PER_LAYER_COUNTS

MODULES = (qtwist, scalars, monoids, cocycles, algebras, segre, cli)
COUNTS = PER_LAYER_COUNTS + ("segre.image_hits",)
SPAN_LIMIT = 20_000
#: Vectors a monoids enumeration delivers straight to one of these callers
#: also count as the caller's metric: kernel_basis makes one column of each.
DELIVERED = {"segre.kernel_basis": "segre.kernel_columns"}


def _one(metric):
    def count(tracer, caller, args, kwargs, result):
        tracer.counts[metric] += 1
    return count


def _table_pairs(tracer, caller, args, kwargs, result):
    tracer.counts["cocycles.table_pairs"] += len(args[0].table)


def _comparison(tracer, caller, args, kwargs, result):
    # The exhaustive check compares the two sides of the identity once per triple.
    if caller == "cocycles.verify_cocycle_equation":
        tracer.counts["cocycles.triples_checked"] += 1


def _term_pairs(tracer, caller, args, kwargs, result):
    tracer.counts["algebras.multiplies"] += 1
    tracer.counts["algebras.term_pairs"] += len(args[1].terms) * len(args[2].terms)


def _image(tracer, caller, args, kwargs, result):
    phi, u = args
    tracer.counts["segre.image_calls"] += 1
    seen = tracer.images.setdefault(id(phi), (phi, set()))[1]
    if u in seen:
        tracer.counts["segre.image_hits"] += 1
    else:
        seen.add(u)


def _pairs_checked(tracer, caller, args, kwargs, result):
    tracer.counts["segre.pairs_checked"] += result.pairs_checked


def _kernel(tracer, caller, args, kwargs, result):
    tracer.counts["segre.kernel_dim"] += len(result)


def _cli_main(tracer, caller, args, kwargs, result):
    tracer.counts["cli.invocations"] += 1
    out = kwargs.get("out", args[1] if len(args) > 1 else None)
    if out is not None:
        tracer.counts["cli.report_bytes"] += len(out.getvalue().encode())


_UNIT = _one("scalars.unit_ops")
_POLY = _one("scalars.poly_ops")
_SPEC = _one("scalars.specializations")
_LIT = _one("scalars.literals")
_EVAL = _one("cocycles.evaluations")
_LOOKUP = _one("cocycles.table_lookups")

#: layer -> {callable path in the layer's module: counter or None}.  A
#: generator entry is marked "yield" and counts the vectors it delivers to
#: callers outside its layer.
LAYERS = {
    "scalars": {
        "UnitScalar.__mul__": _UNIT, "UnitScalar.__truediv__": _UNIT, "UnitScalar.inv": _UNIT,
        "UnitScalar.__pow__": _UNIT, "UnitScalar.__neg__": _UNIT, "UnitScalar.__eq__": _comparison,
        "LaurentPolynomial.__add__": _POLY, "LaurentPolynomial.__sub__": _POLY,
        "LaurentPolynomial.__mul__": _POLY, "LaurentPolynomial.__neg__": _POLY,
        "LaurentPolynomial.scaled": _POLY,
        "UnitScalar.specialize": _SPEC, "LaurentPolynomial.specialize": _SPEC, "specialize": _SPEC,
        "parse_unit": _LIT, "parse_poly": _LIT, "render_unit": _LIT, "render_poly": _LIT,
    },
    "monoids": {
        "ExponentVector.__add__": _one("monoids.vector_adds"),
        "MonoidMorphism.__call__": _one("monoids.morphism_applies"),
        "ProductSplit.split": None, "ProductSplit.inject_left": None,
        "ProductSplit.inject_right": None, "segre_morphism": None,
        "vectors_of_degree": "yield", "vectors_up_to_degree": "yield",
    },
    "cocycles": {
        "BimultiplicativeCocycle.evaluate": _EVAL, "Pairing.evaluate": _EVAL,
        "BimultiplicativeCocycle.from_json": None, "BimultiplicativeCocycle.to_json": None,
        "BimultiplicativeCocycle.__mul__": None, "BimultiplicativeCocycle.inverse": None,
        "AntisymmetricMatrix.from_json": None, "AntisymmetricMatrix.to_json": None,
        "Pairing.from_json": None, "Pairing.to_json": None,
        "TruncatedCocycle.__init__": _table_pairs, "TruncatedCocycle.value": _LOOKUP,
        "TruncatedCocycle.from_function": None, "TruncatedCocycle.truncate": None,
        "TruncatedCocycle.from_json": None, "TruncatedCocycle.to_json": None,
        "TruncatedCocycle.__eq__": None,
        "FunctionOnMonoid.value": _LOOKUP, "FunctionOnMonoid.from_function": None,
        "FunctionOnMonoid.to_json": None,
        "canonical_from_antisym": None, "antisymmetrize": None, "cohomologous": None,
        "yamazaki_factorize": None, "yamazaki_reconstruct": None, "pullback": None,
        "coboundary": None, "verify_cocycle_equation": None, "trivialize_rank1": None,
        "yamazaki_trivialize": None, "symmetric_trivializer": None,
    },
    "algebras": {
        "TwistedMonoidAlgebra.multiply": _term_pairs, "AlgebraElement.__add__": None,
        "AlgebraElement.scaled": None, "AlgebraElement.to_json": None,
        "random_element": None, "parse_element": None, "render_element": None,
        "deformation_matrix": None, "twist_by": None,
    },
    "segre": {
        "GradedHomomorphism.__init__": None, "GradedHomomorphism.image_of_basis": _image,
        "GradedHomomorphism.apply": None, "verify_homomorphism": _pairs_checked,
        "build_quantum_segre": None, "kernel_basis": _kernel,
        "source_deformation_matrix": None, "kronecker": None,
    },
    "cli": {"main": _cli_main},
}

JOB = "job"


class Tracer:
    """Spans and counts of the jobs run while installed; see the module docstring."""

    def __init__(self):
        self.job = None
        self.stack, self.callers, self.spans, self.patches = [], [], [], []
        self.dropped = self.next_id = 0
        self.counts, self.self_time, self.images = {}, {}, {}
        self.job_start = 0.0

    # -- jobs ---------------------------------------------------------------

    def begin(self, job):
        """Start recording one job: fresh counts, self times and image-hit memory."""
        self.job = job
        self.counts = dict.fromkeys(COUNTS, 0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.images = {}
        self.stack = [[JOB, 0.0, self._new_id()]]
        self.callers = [JOB]
        self.job_start = perf_counter()

    def end(self):
        """Stop recording; returns (self seconds per layer, counts) of the job."""
        root = self.stack.pop()
        self._log(root[2], JOB, self.job_start, perf_counter(), None)
        self.job = None
        self.images = {}
        return self.self_time, self.counts

    # -- spans ----------------------------------------------------------------

    def _new_id(self):
        self.next_id += 1
        return self.next_id

    def _log(self, span_id, name, start, end, parent):
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((span_id, name, start, end, parent, self.job))
        else:
            self.dropped += 1

    def span(self, layer, name, fn, args, kwargs):
        parent = self.stack[-1]
        frame = [layer, 0.0, self._new_id()]
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            duration = end - start
            self.self_time[layer] += duration - frame[1]
            parent[1] += duration
            self._log(frame[2], name, start, end, parent[2])

    def write(self, path):
        """Write the kept spans as JSON lines, after a header line with the totals."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            caller = tracer.callers[-1]
            tracer.callers.append(name)
            try:
                if tracer.stack[-1][0] == layer:
                    result = fn(*args, **kwargs)
                else:
                    result = tracer.span(layer, name, fn, args, kwargs)
            finally:
                tracer.callers.pop()
            if counter is not None:
                counter(tracer, caller, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, layer, name, fn):
        tracer = self
        metric = f"{layer}.vectors_enumerated"

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if tracer.job is None or tracer.stack[-1][0] == layer:
                return gen
            metrics = [metric]
            if tracer.callers[-1] in DELIVERED:
                metrics.append(DELIVERED[tracer.callers[-1]])
            return tracer._iterate(layer, name, gen, metrics)

        return wrapper

    def _iterate(self, layer, name, gen, metrics):
        while True:
            try:
                item = self.span(layer, name, next, (gen,), {})
            except StopIteration:
                return
            for metric in metrics:
                self.counts[metric] += 1
            yield item

    def install(self):
        for layer, entries in LAYERS.items():
            module = getattr(qtwist, layer)
            for path, counter in entries.items():
                name = f"{layer}.{path}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, name, raw.__func__, counter))
                    else:
                        wrapped = self._wrap(layer, name, raw, counter)
                    setattr(cls, attr, wrapped)
                    self.patches.append((cls, attr, raw))
                    continue
                original = getattr(module, path)
                if counter == "yield":
                    wrapped = self._wrap_generator(layer, name, original)
                else:
                    wrapped = self._wrap(layer, name, original, counter)
                for mod in MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self.patches.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []
