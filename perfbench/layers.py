"""Which package functions are traced, and the per-layer metrics made of them.

Layer names follow the package modules: geometry (the polynomial engine,
evaluation, quadrature, Gram-Schmidt), foliation (frames, symbolic tables,
the evaluated-value cache, contraction), checks, analysis and cli.
"""

from __future__ import annotations

ENTRY_TABLES = ("bracket", "bott", "torsion", "nabla_t", "curvature", "lc",
                "lc_curvature")

#: check label in the report -> span name of the function run_checks calls
CHECK_SPANS = {
    "axioms": "checks.check_foliation_axioms",
    "h-type": "checks.check_h_type",
    "torsion-class": "checks.check_torsion_class",
    "yang-mills": "checks.check_yang_mills",
    "parallel-clifford": "checks.check_parallel_clifford",
    "lemma-identities": "checks.check_lemma_identities",
    "einstein": "checks.check_einstein",
    "curvature-constancy": "checks.check_curvature_constancy",
}
# the cd row: the Ricci lower bound computed in run_checks, then the CD trials
CD_SPANS = ("checks.ricci_horizontal", "analysis.cd")

LAYERS = ("geometry", "foliation", "checks", "analysis", "cli")

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [("models.build_s", "s", "lower"),
     ("geometry.mul.calls", "count", "lower"),
     ("geometry.mul.self_s", "s", "lower"),
     ("geometry.mul.terms_out", "count", "lower"),
     ("geometry.dedup.calls", "count", "lower"),
     ("geometry.dedup.self_s", "s", "lower"),
     ("geometry.partial.calls", "count", "lower"),
     ("geometry.partial.self_s", "s", "lower"),
     ("geometry.evaluate.calls", "count", "lower"),
     ("geometry.evaluate.self_s", "s", "lower"),
     ("geometry.columns.calls", "count", "lower"),
     ("geometry.columns.self_s", "s", "lower"),
     ("geometry.integrate_sphere.calls", "count", "lower"),
     ("geometry.integrate_sphere.self_s", "s", "lower"),
     ("geometry.gram_schmidt.calls", "count", "lower"),
     ("foliation.frame_batch.self_s", "s", "lower")]
    + [(f"foliation.entry.{t}.{k}", u, "lower") for t in ENTRY_TABLES
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("foliation.symbolic_terms", "count", "lower"),
       ("foliation.eval_entry.calls", "count", "lower"),
       ("foliation.eval_entry.builds", "count", "lower"),
       ("foliation.eval_entry.hit_ratio", "ratio", "higher"),
       ("foliation.values_mb", "MB", "lower"),
       ("foliation.contract.calls", "count", "lower"),
       ("foliation.contract.self_s", "s", "lower")]
    + [(f"checks.{c}.s", "s", "lower") for c in (*CHECK_SPANS, "cd")]
    + [("analysis.rayleigh_ritz.s", "s", "lower"),
       ("analysis.sub_laplacian_poly.calls", "count", "lower"),
       ("analysis.cd.s", "s", "lower"),
       ("cli.run_checks.s", "s", "lower"),
       ("cli.emit.s", "s", "lower"),
       ("split.table_build_s", "s", "lower"),
       ("split.evaluate_s", "s", "lower"),
       ("split.contract_s", "s", "lower")]
    + [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("trace.unattributed_s", "s", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace_overhead", "ratio", "lower")])


def install(tracer, pkg) -> None:
    """Wrap the package's public functions; ``pkg`` maps module names to the
    imported modules (analysis, checks, cli, foliation, geometry, models)."""
    geo, fol, chk = pkg["geometry"], pkg["foliation"], pkg["checks"]
    ana, cli, mod = pkg["analysis"], pkg["cli"], pkg["models"]

    def patch(owner, attr, name, group=None, span=False):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, group, span))

    poly = geo.Polynomial
    raw_mul = poly.__mul__

    def mul(self, other):
        out = raw_mul(self, other)
        tracer.count("geometry.mul.terms_out", out.keys.size)
        return out

    traced_mul = tracer.wrap(mul, "geometry.mul")
    poly.__mul__ = poly.__rmul__ = traced_mul
    patch(geo, "_dedup", "geometry.dedup")
    patch(poly, "partial", "geometry.partial")
    patch(poly, "evaluate", "geometry.evaluate", group="evaluate")
    patch(geo.PolyField, "evaluate", "geometry.evaluate", group="evaluate")
    patch(geo.MonomialCache, "columns", "geometry.columns")
    traced = tracer.wrap(geo.integrate_sphere, "geometry.integrate_sphere")
    geo.integrate_sphere = ana.integrate_sphere = traced
    patch(fol, "gram_schmidt_at", "geometry.gram_schmidt")

    patch(fol.FoliationModel, "frame_batch", "foliation.frame_batch", span=True)
    for t in ENTRY_TABLES:
        patch(fol.FoliationModel, f"{t}_entry", f"foliation.entry.{t}",
              group="tables")

    raw_eval_entry = fol.FrameBatch.eval_entry

    def eval_entry(self, name, key, builder, antisym=None):
        # count the builder calls eval_entry makes itself: those are the
        # lookups that had to construct and evaluate a symbolic entry
        if not getattr(builder, "_perfbench_counted", False):
            inner = builder

            def counted(*key):
                tracer.count("foliation.eval_entry.builds")
                return inner(*key)
            counted._perfbench_counted = True
            builder = counted
        return raw_eval_entry(self, name, key, builder, antisym)

    fol.FrameBatch.eval_entry = tracer.wrap(eval_entry, "foliation.eval_entry")
    for fn in ("_contract2", "_contract3"):
        traced = tracer.wrap(getattr(fol, fn), "foliation.contract")
        setattr(fol, fn, traced)
        if hasattr(chk, fn):
            setattr(chk, fn, traced)
    patch(fol.FrameBatch, "components", "foliation.contract")

    for span_name in CHECK_SPANS.values():
        patch(chk, span_name.split(".", 1)[1], span_name, span=True)
    patch(cli, "ricci_horizontal", "checks.ricci_horizontal", span=True)
    patch(ana, "check_cd_inequality", "analysis.cd", span=True)
    patch(ana, "rayleigh_ritz", "analysis.rayleigh_ritz", span=True)
    patch(ana, "sub_laplacian_poly", "analysis.sub_laplacian_poly")
    patch(cli, "run_checks", "cli.run_checks", span=True)
    patch(cli, "_emit", "cli.emit", span=True)
    patch(mod, "get_model", "models.build", span=True)


def _terms(value) -> int:
    if hasattr(value, "components"):                    # PolyField
        return sum(c.keys.size for c in value.components)
    return sum(_terms(part) for part in (value.h, value.v) if part is not None)


def symbolic_terms(model) -> int:
    """Polynomial terms held in the model's symbolic tables."""
    return sum(_terms(v) for name, table in model._tables.items()
               if name != "frame_batches" for v in table.values())


def values_mb(model) -> float:
    """MiB in the model's FrameBatch._values caches, computed from array
    sizes."""
    return sum(arr.nbytes
               for fb in model._tables.get("frame_batches", {}).values()
               for store in fb._values.values()
               for arr in store.values()) / 2 ** 20


def metrics(tracer, wall_s: float, terms: int, mb: float) -> dict[str, float]:
    """Per-layer metrics of one traced part of an iteration (all but
    models.build_s and trace_overhead, which need the set-up and the
    untraced run).  ``terms`` and ``mb`` are symbolic_terms and values_mb
    summed over the part's models, each taken when its work was done."""
    calls, own = tracer.calls, tracer.self_s
    out = {}
    for short in ("mul", "dedup", "partial", "evaluate", "columns",
                  "integrate_sphere"):
        out[f"geometry.{short}.calls"] = calls[f"geometry.{short}"]
        out[f"geometry.{short}.self_s"] = own[f"geometry.{short}"]
    out["geometry.mul.terms_out"] = tracer.counts["geometry.mul.terms_out"]
    out["geometry.gram_schmidt.calls"] = calls["geometry.gram_schmidt"]
    out["foliation.frame_batch.self_s"] = own["foliation.frame_batch"]
    for t in ENTRY_TABLES:
        out[f"foliation.entry.{t}.calls"] = calls[f"foliation.entry.{t}"]
        out[f"foliation.entry.{t}.self_s"] = own[f"foliation.entry.{t}"]
    out["foliation.symbolic_terms"] = terms
    out["foliation.eval_entry.calls"] = calls["foliation.eval_entry"]
    out["foliation.eval_entry.builds"] = tracer.counts["foliation.eval_entry.builds"]
    out["foliation.eval_entry.hit_ratio"] = _hit_ratio(out)
    out["foliation.values_mb"] = mb
    out["foliation.contract.calls"] = calls["foliation.contract"]
    out["foliation.contract.self_s"] = own["foliation.contract"]
    for label, span_name in CHECK_SPANS.items():
        out[f"checks.{label}.s"] = tracer.span_time(span_name, "cli.run_checks")
    out["checks.cd.s"] = sum(tracer.span_time(s, "cli.run_checks")
                             for s in CD_SPANS)
    out["analysis.rayleigh_ritz.s"] = tracer.span_time("analysis.rayleigh_ritz")
    out["analysis.sub_laplacian_poly.calls"] = calls["analysis.sub_laplacian_poly"]
    out["analysis.cd.s"] = tracer.span_time("analysis.cd")
    out["cli.run_checks.s"] = tracer.span_time("cli.run_checks")
    out["cli.emit.s"] = tracer.span_time("cli.emit")
    out["split.table_build_s"] = tracer.group_s["tables"]
    out["split.evaluate_s"] = tracer.group_s["evaluate"]
    out["split.contract_s"] = own["foliation.contract"]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            s for name, s in own.items() if name.startswith(layer + "."))
    out["trace.unattributed_s"] = wall_s - sum(own.values())
    out["trace.wall_s"] = wall_s
    return out


def _hit_ratio(out: dict) -> float:
    lookups = out["foliation.eval_entry.calls"]
    return 1 - out["foliation.eval_entry.builds"] / lookups if lookups else 0.0


def combine(parts: list[dict], wall_s: float) -> dict[str, float]:
    """Metrics of a whole iteration from those of its parts: sums, except
    the hit ratio, recomputed from the summed counts, and the wall time,
    which also covers the moments between parts."""
    out = {name: sum(p[name] for p in parts) for name in parts[0]}
    out["foliation.eval_entry.hit_ratio"] = _hit_ratio(out)
    out["trace.unattributed_s"] += wall_s - out["trace.wall_s"]
    out["trace.wall_s"] = wall_s
    return out


def by_parent(tracer) -> dict[str, dict[str, float]]:
    """Self time of each traced function, split by the span it ran under."""
    out: dict[str, dict[str, float]] = {}
    for (name, parent), s in sorted(tracer.parent_self_s.items()):
        out.setdefault(name, {})[parent] = s
    return out
