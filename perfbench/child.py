"""One benchmark iteration in a fresh process.

Started by run.py from the root of a checkout with one JSON argument
{"workload": [part, ...], "seed": int, "trace": bool, "setup_only": bool,
"t_spawn": float}.  It imports the package from the checkout's ``src``,
builds every part's models, runs the parts through the package's entry
points and prints one JSON line with its timings, the report of each part
and, when traced, the per-layer metrics of the iteration and of each part.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import layers
from tracer import Tracer
from workloads import Part


def run_part(cli, analysis, part: Part, models: list, seed: int, done) -> str:
    """What ``htfoliation verify MODELS --points P --seed S --checks C
    --format json`` (or ``spectrum MODEL --degree D --format json`` per
    model) does once its models are loaded.  Like the CLI, it drops each
    model once its work is done, after passing it to ``done``."""
    cfg = cli.RunConfig(points=part.points, seed=seed, heavy_points=part.points)
    payload = []
    for i in range(len(models)):
        model, models[i] = models[i], None
        if part.kind == "verify":
            spec = cli._spec_for(model.name)
            payload += cli.run_checks(model, list(part.checks), cfg,
                                      expected_class=spec.expected_class,
                                      expected_kappa=spec.expected_kappa)
        else:
            payload.append(analysis.rayleigh_ritz(model, part.degrees[i]).to_json())
        done(model)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload, "json", None, None)
    return out.getvalue()


def main() -> None:
    req = json.loads(sys.argv[1])
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import numpy
    from htfoliation import analysis, checks, cli, foliation, geometry, models
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"htfoliation imported from {cli.__file__}, not {src}")
    parts = [Part.from_json(p) for p in req["workload"]]
    tracer = None
    if req["trace"]:
        tracer = Tracer()
        layers.install(tracer, {"analysis": analysis, "checks": checks,
                                "cli": cli, "foliation": foliation,
                                "geometry": geometry, "models": models})
    built = [[models.get_model(name) for name in part.models] for part in parts]
    setup_s = time.monotonic() - req["t_spawn"]
    result = {"setup_s": setup_s, "numpy": numpy.__version__}
    if req["setup_only"]:
        print(json.dumps(result))
        return
    build_s = tracer.span_time("models.build") if tracer else None
    reports, part_wall, part_layers = [], [], []
    tables = {}

    def done(model):
        if tracer:
            tables["terms"] += layers.symbolic_terms(model)
            tables["mb"] += layers.values_mb(model)

    t0 = time.perf_counter()
    for part, models_of_part in zip(parts, built):
        tables.update(terms=0, mb=0.0)
        if tracer:
            tracer.clear()
        t_part = time.perf_counter()
        reports.append(run_part(cli, analysis, part, models_of_part,
                                req["seed"], done))
        part_wall.append(time.perf_counter() - t_part)
        if tracer:
            part_layers.append({
                "metrics": layers.metrics(tracer, part_wall[-1],
                                          tables["terms"], tables["mb"]),
                "by_parent": layers.by_parent(tracer)})
    wall = time.perf_counter() - t0
    result.update(wall_s=wall, part_wall_s=part_wall, reports=reports)
    if tracer:
        result["layers"] = layers.combine(
            [p["metrics"] for p in part_layers], wall)
        result["layers"]["models.build_s"] = build_s
        result["part_layers"] = part_layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
