"""Span tracing of the package's layers from outside the package.

``Tracer.install`` wraps the public functions of each layer (and the
private kernels behind ``linalg.det`` and ``linalg.rank``, which are the
layer boundary for exact versus float work) wherever a torsioncert module
holds a reference to them, and ``uninstall`` restores the originals.  Each
wrapper keeps a span stack in memory: a span's self time is its duration
minus the durations of the spans it called.  Constructions of QuadExt and
ComplexF are counted without spans.
"""

import sys
from time import perf_counter

# (module, attribute or Class.method, span name)
SPANS = (
    ("freegroup", "fox_derivative", "freegroup.fox_derivative"),
    ("representation", "Representation.eval_word",
     "representation.eval_word"),
    ("representation", "Representation.eval_ring_elem",
     "representation.eval_ring_elem"),
    ("representation", "SymPowerRep.__init__", "representation.SymPowerRep"),
    ("representation", "parabolic_roots", "representation.parabolic_roots"),
    ("linalg", "_bareiss_det", "linalg.det_exact"),
    ("linalg", "_float_det", "linalg.det_float"),
    ("linalg", "_exact_rank", "linalg.rank_exact"),
    ("linalg", "_float_rank", "linalg.rank_float"),
    ("linalg", "inverse", "linalg.inverse"),
    ("polynomial", "poly_matrix_det", "polynomial.poly_matrix_det"),
    ("polynomial", "mp_gcd", "polynomial.mp_gcd"),
    ("polynomial", "resultant_in_u", "polynomial.resultant_in_u"),
    ("polynomial", "squarefree_part", "polynomial.squarefree_part"),
    ("charvar", "lift", "charvar.lift"),
    ("charvar", "locus_verify", "charvar.locus_verify"),
    ("charvar", "eliminate_L2", "charvar.eliminate_L2"),
    ("suturedcert", "fox_matrix", "suturedcert.fox_matrix"),
    ("suturedcert", "oracle_dims", "suturedcert.oracle_dims"),
    ("twisted", "build_complex", "twisted.build_complex"),
    ("twisted", "homology_dims", "twisted.homology_dims"),
    ("twisted", "wada_torsion", "twisted.wada_torsion"),
)

CONSTRUCTIONS = (
    ("scalar", "QuadExt", "scalar.quadext_made"),
    ("scalar", "ComplexF", "scalar.complexf_made"),
)

# (metric, unit, better): every value is per traced verdict.  The span on
# resultant_in_u stays for the self-time accounting, but it has no metric:
# eliminate_L2 never calls it, because the certificate determinant reduced
# modulo u^2 - z u + 1 is invariant under u -> z - u and hence u-free.
METRICS = (
    ("scalar.quadext_made", "count/verdict", "lower"),
    ("scalar.complexf_made", "count/verdict", "lower"),
    ("freegroup.fox_derivative.calls", "count/verdict", "lower"),
    ("freegroup.fox_derivative.self_ms", "ms/verdict", "lower"),
    ("representation.eval_word.calls", "count/verdict", "lower"),
    ("representation.eval_word.self_ms", "ms/verdict", "lower"),
    ("representation.eval_ring_elem.self_ms", "ms/verdict", "lower"),
    ("representation.SymPowerRep.self_ms", "ms/verdict", "lower"),
    ("representation.parabolic_roots.self_ms", "ms/verdict", "lower"),
    ("representation.parabolic_roots.roots_per_call", "count", "higher"),
    ("linalg.det_exact.calls", "count/verdict", "lower"),
    ("linalg.det_exact.self_ms", "ms/verdict", "lower"),
    ("linalg.rank_exact.self_ms", "ms/verdict", "lower"),
    ("linalg.det_float.calls", "count/verdict", "lower"),
    ("linalg.det_float.self_ms", "ms/verdict", "lower"),
    ("linalg.rank_float.self_ms", "ms/verdict", "lower"),
    ("linalg.inverse.self_ms", "ms/verdict", "lower"),
    ("polynomial.poly_matrix_det.self_ms", "ms/verdict", "lower"),
    ("polynomial.mp_gcd.calls", "count/verdict", "lower"),
    ("polynomial.mp_gcd.self_ms", "ms/verdict", "lower"),
    ("polynomial.squarefree_part.self_ms", "ms/verdict", "lower"),
    ("charvar.lift.self_ms", "ms/verdict", "lower"),
    ("charvar.locus_verify.self_ms", "ms/verdict", "lower"),
    ("charvar.eliminate_L2.self_ms", "ms/verdict", "lower"),
    ("suturedcert.fox_matrix.self_ms", "ms/verdict", "lower"),
    ("suturedcert.oracle_dims.self_ms", "ms/verdict", "lower"),
    ("twisted.build_complex.self_ms", "ms/verdict", "lower"),
    ("twisted.homology_dims.self_ms", "ms/verdict", "lower"),
    ("twisted.wada_torsion.self_ms", "ms/verdict", "lower"),
    ("twisted.wada_torsion.dets_per_result", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "torsioncert"
                                  or name.startswith("torsioncert."))]


class Tracer:
    """Per-name call counts and self times, collected while installed."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._stack = []
        self._undo = []

    def _span(self, name, fn):
        stack, calls, self_s, counts = (self._stack, self.calls, self.self_s,
                                        self.counts)

        def wrapped(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + dt - frame[1]
            if name == "representation.parabolic_roots":
                counts["roots"] = counts.get("roots", 0) + len(result)
            elif name == "polynomial.poly_matrix_det" and any(
                    f[0] == "twisted.wada_torsion" for f in stack):
                counts["wada_dets"] = counts.get("wada_dets", 0) + 1
            return result
        return wrapped

    def _counted(self, name, init):
        counts = self.counts

        def wrapped(obj, *args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            init(obj, *args, **kwargs)
        return wrapped

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        pkg = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
        for mod, attr, name in SPANS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(pkg[mod], cls_name)
                self._replace(cls, meth, self._span(name, cls.__dict__[meth]))
                continue
            orig = getattr(pkg[mod], attr)
            wrapped = self._span(name, orig)
            for m in pkg.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._replace(m, key, wrapped)
        for mod, cls_name, name in CONSTRUCTIONS:
            cls = getattr(pkg[mod], cls_name)
            self._replace(cls, "__init__",
                          self._counted(name, cls.__dict__["__init__"]))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def metrics(self, verdicts, overhead_share):
        """Every METRICS value, per verdict where the unit says so."""
        def per(v):
            return v / verdicts

        def ms(name):
            return per(self.self_s.get(name, 0.0) * 1e3)

        def calls(name):
            return per(self.calls.get(name, 0))

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for metric, unit, _ in METRICS:
            span, _, field = metric.rpartition(".")
            if field == "self_ms":
                value = ms(span)
            elif field == "calls":
                value = calls(span)
            elif field == "roots_per_call":
                value = ratio(self.counts.get("roots", 0),
                              self.calls.get(span, 0))
            elif field == "dets_per_result":
                value = ratio(self.counts.get("wada_dets", 0),
                              self.calls.get(span, 0))
            elif metric == "trace.overhead_share":
                value = overhead_share
            else:
                value = per(self.counts.get(metric, 0))
            out[metric] = {"value": value, "unit": unit}
        return out
