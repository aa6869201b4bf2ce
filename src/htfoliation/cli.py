"""Command-line front end: catalog, verification suites, spectra, bounds.

Exit codes: 0 all requested checks pass; 1 at least one check failed or a
model violated a precondition; 2 usage error (an option out of range or
not a finite number, an empty check list, a spectrum degree beyond the
size limits, or a model file that cannot be read as a valid model); 3
unknown model; 4 operation unsupported on the backend; 5 invalid bound
inputs.  JSON output is the source of truth and is byte-stable for a fixed
(configuration, seed).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import analysis, checks, models
from .errors import (BoundNotApplicableError, DegenerateFrameError,
                     InvalidModelError, NotApplicableError, SizeLimitError,
                     UnsupportedBackendError)
from .foliation import ricci_horizontal

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNKNOWN_MODEL = 3
EXIT_UNSUPPORTED = 4
EXIT_BAD_BOUNDS = 5


class FiniteFloatRange(click.FloatRange):
    """A float range that also rejects nan and +-inf: nan compares false
    against every bound, and a range open at the top admits inf."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv

    def _describe_range(self) -> str:
        if self.min is None and self.max is None:
            return "finite"
        return super()._describe_range()


# numeric option ranges: values outside them are usage errors (exit 2)
POINTS = click.IntRange(min=1)
SEED = click.IntRange(0, 2 ** 128 - 1)   # the keys numpy's Philox accepts
DEGREE = click.IntRange(min=1)      # degree 0 holds no nonzero eigenvalue
TOLERANCE = FiniteFloatRange(min=0.0, min_open=True)
FINITE = FiniteFloatRange()


@dataclass
class RunConfig:
    points: int = 64
    seed: int = 42
    tol: float = checks.TOL_CURVATURE
    heavy_points: int = 32   # curvature-pipeline checks sample fewer points


def _load_named_model(name: str, model_file: str | None):
    if model_file is not None:
        try:
            with open(model_file) as fh:
                return models.load_model(fh.read())
        except KeyError as exc:
            reason = f"missing field {exc}"
        except (OSError, ValueError, TypeError) as exc:
            reason = str(exc)
        click.echo(f"error: model file {model_file}: {reason}", err=True)
        sys.exit(EXIT_USAGE)
    try:
        return models.get_model(name)
    except KeyError:
        click.echo(f"error: unknown model {name!r}; see `catalog`", err=True)
        sys.exit(EXIT_UNKNOWN_MODEL)


def _spec_for(name: str):
    try:
        return models.get_spec(name)
    except KeyError:
        return None


def _emit(payload, fmt: str, out: str | None, text_renderer):
    if fmt == "json":
        blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        blob = text_renderer(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(blob)
    click.echo(blob, nl=False)


def _spectrum(model, degree: int):
    """``rayleigh_ritz``, with a degree beyond its size limits a usage error."""
    try:
        return analysis.rayleigh_ritz(model, degree)
    except SizeLimitError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


@dataclass
class ModelRun:
    """What the checks on one model share: the catalog's expected torsion
    class and kappa, and the kappa fitted by the vertical Clifford check."""
    expected_class: str | None
    expected_kappa: float | None
    fitted_kappa: float | None = None


def _parallel_clifford(model, cfg: RunConfig, run: ModelRun):
    rep = checks.check_parallel_clifford(model, cfg.heavy_points, cfg.seed,
                                         cfg.tol)
    run.fitted_kappa = rep.details.get("kappa")
    return rep


def _curvature_constancy(model, cfg: RunConfig, run: ModelRun):
    kappa = run.fitted_kappa or run.expected_kappa
    if not kappa:
        raise NotApplicableError("no nonzero structure constant kappa")
    return checks.check_curvature_constancy(model, kappa, cfg.heavy_points,
                                            cfg.seed, cfg.tol)


def _cd(model, cfg: RunConfig, run: ModelRun):
    # K just below the sampled minimum of Ric_H
    fb = checks.frame_batch_for(model, cfg.heavy_points, cfg.seed)
    K = float(np.linalg.eigvalsh(ricci_horizontal(fb)).min()) - 1e-9
    return analysis.check_cd_inequality(model, K, fs=10,
                                        points=cfg.heavy_points,
                                        seed=cfg.seed, tol=cfg.tol)


#: check name -> f(model, cfg, run), giving a report or a list of reports,
#: in the order ``verify`` runs them.  Entries look up the package function
#: when they run, so a replaced module attribute is what gets called.
CHECKS = {
    "axioms": lambda model, cfg, run: checks.check_foliation_axioms(
        model, cfg.points, cfg.seed, cfg.tol),
    "h-type": lambda model, cfg, run: checks.check_h_type(
        model, cfg.points, cfg.seed, cfg.tol),
    "torsion-class": lambda model, cfg, run: checks.check_torsion_class(
        model, run.expected_class, cfg.heavy_points, cfg.seed, cfg.tol),
    "yang-mills": lambda model, cfg, run: checks.check_yang_mills(
        model, cfg.points, cfg.seed, cfg.tol),
    "parallel-clifford": _parallel_clifford,
    "lemma-identities": lambda model, cfg, run: checks.check_lemma_identities(
        model, cfg.heavy_points, cfg.seed, cfg.tol,
        kappa=(run.expected_kappa if run.fitted_kappa is None
               else run.fitted_kappa)),
    "einstein": lambda model, cfg, run: checks.check_einstein(
        model, cfg.heavy_points, cfg.seed, cfg.tol, kappa=run.fitted_kappa),
    "curvature-constancy": _curvature_constancy,
    "cd": _cd,
}
DEFAULT_CHECKS = list(CHECKS)


def run_checks(model, selected: list[str], cfg: RunConfig,
               expected_class: str | None = None,
               expected_kappa: float | None = None) -> list[dict]:
    """Run the selected verification suite on one model.

    Rows carry status pass/fail/skipped/error; precondition violations are
    errors (they fail the run), theorem hypotheses not met are skips.
    """
    run = ModelRun(expected_class, expected_kappa)
    rows: list[dict] = []
    for name in selected:
        try:
            out = CHECKS[name](model, cfg, run)
            found = [r.to_json() for r in (out if isinstance(out, list)
                                           else [out])]
        except NotApplicableError as exc:
            found = [{"check": name, "status": "skipped", "reason": str(exc)}]
        except (InvalidModelError, DegenerateFrameError,
                UnsupportedBackendError) as exc:
            found = [{"check": name, "status": "error", "reason": str(exc)}]
        rows += [{**row, "model": model.name} for row in found]
    return rows


def _render_rows(rows) -> str:
    lines = [f"{'model':<26} {'check':<26} {'status':<8} "
             f"{'max_residual':>13} {'tolerance':>10}"]
    for r in rows:
        res = f"{r['max_residual']:.3e}" if "max_residual" in r else "-"
        tol = f"{r['tolerance']:.1e}" if "tolerance" in r else "-"
        lines.append(f"{r['model']:<26} {r['check']:<26} {r['status']:<8} "
                     f"{res:>13} {tol:>10}")
        if r.get("status") in ("skipped", "error"):
            lines.append(f"{'':<26}   reason: {r.get('reason', '')}")
    return "\n".join(lines) + "\n"


@click.group()
def main():
    """Model spaces of foliated sub-Riemannian geometry: build, verify,
    and compute spectra and curvature bounds."""


@main.command("catalog")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text")
def cmd_catalog(fmt):
    """List built-in models with ranks, torsion class, and kappa."""
    specs = models.catalog()
    payload = [s.to_json() for s in specs]

    def render(payload):
        lines = [f"{'name':<26} {'kind':<18} {'n':>3} {'m':>3} {'eps':>5} "
                 f"{'class':<22} {'kappa':>6}"]
        for s in payload:
            kap = "-" if s["expected_kappa"] is None else f"{s['expected_kappa']:g}"
            lines.append(f"{s['name']:<26} {s['kind']:<18} {s['n']:>3} "
                         f"{s['m']:>3} {s['epsilon']:>5g} "
                         f"{s['expected_class']:<22} {kap:>6}")
        return "\n".join(lines) + "\n"

    _emit(payload, fmt, None, render)


@main.command("verify")
@click.argument("model_names", nargs=-1)
@click.option("--all", "run_all", is_flag=True,
              help="verify every catalog model expected to pass as built")
@click.option("--checks", "check_list", default=",".join(CHECKS),
              show_default=False,
              help="comma-separated subset of: " + ", ".join(CHECKS))
@click.option("--points", type=POINTS, default=64, show_default=True)
@click.option("--seed", type=SEED, default=42, show_default=True)
@click.option("--tol", type=TOLERANCE, default=checks.TOL_CURVATURE,
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text")
@click.option("--out", type=click.Path(), default=None,
              help="also write the report to this path")
@click.option("--model-file", type=click.Path(exists=True), default=None,
              help="verify a model loaded from a JSON file instead")
def cmd_verify(model_names, run_all, check_list, points, seed, tol, fmt, out,
               model_file):
    """Run verification suites; exit 0 only if every check passes."""
    # one point batch per model: every check then shares evaluated tables
    cfg = RunConfig(points=points, seed=seed, tol=tol, heavy_points=points)
    selected = [c.strip() for c in check_list.split(",") if c.strip()]
    if not selected:
        raise click.UsageError("no checks selected")
    for c in selected:
        if c not in CHECKS:
            raise click.UsageError(f"unknown check {c!r}")
    if run_all:
        names = [s.name for s in models.catalog() if s.strict_htype]
    else:
        names = list(model_names)
    if model_file is not None and not names:
        names = ["<file>"]
    if not names:
        raise click.UsageError("name at least one model, or pass --all")
    rows = []
    for name in names:
        model = _load_named_model(name, model_file)
        spec = _spec_for(model.name)
        rows += run_checks(model, selected, cfg,
                           expected_class=spec.expected_class if spec else None,
                           expected_kappa=spec.expected_kappa if spec else None)
    _emit(rows, fmt, out, _render_rows)
    bad = [r for r in rows if r["status"] in ("fail", "error")]
    sys.exit(EXIT_CHECK_FAILED if bad else 0)


@main.command("spectrum")
@click.argument("model_name")
@click.option("--degree", type=DEGREE, default=2, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text")
@click.option("--out", type=click.Path(), default=None)
def cmd_spectrum(model_name, degree, fmt, out):
    """Sub-Laplacian spectrum on polynomials of bounded degree, with the
    measured first nonzero eigenvalue against the closed-form bound."""
    model = _load_named_model(model_name, None)
    spec = models.get_spec(model.name)
    try:
        result = _spectrum(model, degree)
    except UnsupportedBackendError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_UNSUPPORTED)
    lam1 = result.smallest_nonzero()
    bound = None
    if spec.expected_kappa and model.m >= 2:
        quaternionic = spec.kind == "quaternionic-hopf"
        bound = analysis.bounds_clifford(model.n, model.m, spec.expected_kappa,
                                         quaternionic=quaternionic).lambda1_bound
    payload = result.to_json()
    payload["lambda1"] = lam1
    payload["lambda1_bound"] = bound
    payload["gap"] = None if bound is None else lam1 - bound

    def render(payload):
        if fmt == "csv":
            return result.to_csv()
        lines = [f"model {payload['model']}, degree {payload['degree']}",
                 "eigenvalues: " + ", ".join(f"{v:.9g}"
                                             for v in payload["eigenvalues"])]
        if bound is None:
            lines.append(f"measured lambda_1 = {lam1:.9g} (no closed-form bound)")
        else:
            lines.append(f"measured lambda_1 = {lam1:.9g} vs bound {bound:.9g} "
                         f"(gap {lam1 - bound:.3e})")
        return "\n".join(lines) + "\n"

    _emit(payload, fmt, out, render)


@main.command("bounds")
@click.option("--n", "n", type=int, required=True)
@click.option("--m", "m", type=int, required=True)
@click.option("--K", "K", type=FINITE, default=None,
              help="horizontal Ricci lower bound")
@click.option("--kappa", type=FINITE, default=None,
              help="vertical Clifford structure constant")
@click.option("--quaternionic", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text")
def cmd_bounds(n, m, K, kappa, quaternionic, fmt):
    """Evaluate the closed-form diameter and first-eigenvalue bounds."""
    if (K is None) == (kappa is None):
        click.echo("error: pass exactly one of --K or --kappa", err=True)
        sys.exit(EXIT_BAD_BOUNDS)
    try:
        if K is not None:
            result = analysis.bounds_general(n, m, K)
        else:
            result = analysis.bounds_clifford(n, m, kappa, quaternionic)
    except BoundNotApplicableError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_BAD_BOUNDS)

    def render(payload):
        return (f"lambda_1 >= {payload['lambda1_bound']:.9g}\n"
                f"diameter <= {payload['diameter_bound']:.9g}\n"
                f"formula: {payload['formula']}\n")

    _emit(result.to_json(), fmt, None, render)


@main.command("cd")
@click.argument("model_name")
@click.option("--K", "K", type=FINITE, required=True)
@click.option("--trials", type=click.IntRange(min=1), default=20,
              show_default=True)
@click.option("--points", type=POINTS, default=32, show_default=True)
@click.option("--seed", type=SEED, default=42, show_default=True)
@click.option("--tol", type=TOLERANCE, default=1e-9, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text")
def cmd_cd(model_name, K, trials, points, seed, tol, fmt):
    """Check the curvature-dimension inequality with random polynomials."""
    model = _load_named_model(model_name, None)
    try:
        report = analysis.check_cd_inequality(model, K, fs=trials,
                                              points=points, seed=seed, tol=tol)
    except InvalidModelError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_BAD_BOUNDS)
    row = report.to_json()
    row["model"] = model.name
    _emit([row], fmt, None, _render_rows)
    sys.exit(0 if report.status == "pass" else EXIT_CHECK_FAILED)


@main.command("report")
@click.argument("model_name")
@click.option("--points", type=POINTS, default=64, show_default=True)
@click.option("--seed", type=SEED, default=42, show_default=True)
@click.option("--degree", type=DEGREE, default=2, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_report(model_name, points, seed, degree, out):
    """Full machine-readable report: all checks plus spectrum where defined."""
    model = _load_named_model(model_name, None)
    spec = _spec_for(model.name)
    cfg = RunConfig(points=points, seed=seed, heavy_points=points)
    # the spectrum first, so that a refused degree costs no checks
    result = _spectrum(model, degree) if model.backend == "sphere" else None
    rows = run_checks(model, DEFAULT_CHECKS, cfg,
                      expected_class=spec.expected_class if spec else None,
                      expected_kappa=spec.expected_kappa if spec else None)
    payload = {"model": model.name, "n": model.n, "m": model.m,
               "epsilon": model.epsilon, "checks": rows}
    if result is not None:
        payload["spectrum"] = result.to_json()
        payload["spectrum"]["lambda1"] = result.smallest_nonzero()
    _emit(payload, "json", out, None)
    bad = [r for r in rows if r["status"] in ("fail", "error")]
    sys.exit(EXIT_CHECK_FAILED if bad else 0)


if __name__ == "__main__":
    main()
