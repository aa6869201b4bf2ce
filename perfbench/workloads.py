"""Benchmark workloads and the expectations their outputs are checked against.

The expectations are written out here rather than read from the program, so
that a change to the catalog or to a check cannot quietly relax the gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import oracle

#: Every ``max_residual`` in a verify report must stay below this ceiling.
#: The identities hold exactly, so residuals are rounding errors: the largest
#: one over the strict catalog at 32 points is about 2.5e-12 (8 to 128 points
#: give 1e-15 .. 3e-14).  1e-11 leaves a factor 4 above that and sits two
#: orders below the checks' own 1e-9 tolerance, so a residual that grows to
#: discretization level fails here even while the check still passes.
RESIDUAL_CEILING = 1e-11

#: Largest allowed distance between a computed eigenvalue and the closed form.
SPECTRUM_TOL = 1e-9

#: (backend, m) of the models that verify parts use; decides the expected skips.
MODEL_FACTS = {
    "heisenberg": ("group", 1),
    "heisenberg-quat": ("group", 3),
    "heisenberg-quat-mixed": ("group", 3),
    "heisenberg-oct": ("group", 7),
    "quaternionic-hopf-s7": ("sphere", 3),
    "quaternionic-hopf-s11": ("sphere", 3),
    "round-s7-unnormalized": ("sphere", 3),
}

DEFAULT_CHECKS = ("axioms", "h-type", "torsion-class", "yang-mills",
                  "parallel-clifford", "lemma-identities", "einstein",
                  "curvature-constancy", "cd")


@dataclass(frozen=True)
class Part:
    """One command of a workload: ``htfoliation verify MODELS --points P
    --checks C``, or ``htfoliation spectrum MODEL --degree D`` per model."""

    kind: str                         # "verify" or "spectrum"
    models: tuple[str, ...]
    points: int = 0                   # verify: sample points per model
    checks: tuple[str, ...] = DEFAULT_CHECKS
    degrees: tuple[int, ...] = ()     # spectrum: degree per model

    def to_json(self) -> dict:
        return {"kind": self.kind, "models": list(self.models),
                "points": self.points, "checks": list(self.checks),
                "degrees": list(self.degrees)}

    @classmethod
    def from_json(cls, obj: dict) -> "Part":
        return cls(obj["kind"], tuple(obj["models"]), obj["points"],
                   tuple(obj["checks"]), tuple(obj["degrees"]))


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[Part, ...]
    why: str = ""


# Two workloads, not more: the host drifts by about +-20% over tens of
# seconds, so a run has to measure close to a minute to average that out,
# and a comparison of two commits (22 runs per workload) has to fit in under
# an hour.  README.md gives the measurements.
WORKLOADS = {w.name: w for w in [
    Workload("spheres", (
        # symbolic polynomial arithmetic and table building dominate;
        # point-proportional work is small at 8 points
        Part("verify", ("quaternionic-hopf-s7",), points=8),
        # the only N >= 10 path, where three-index entries are rebuilt per
        # point batch instead of kept
        Part("verify", ("quaternionic-hopf-s11",), points=8,
             checks=("h-type", "yang-mills", "torsion-class")),
        # the only part that runs rayleigh_ritz and the moment integrals
        Part("spectrum", ("complex-hopf-s3", "complex-hopf-s5",
                          "quaternionic-hopf-s7", "quaternionic-hopf-s11"),
             degrees=(6, 4, 3, 2))),
        why="sphere backend: S^7 full suite (polynomial engine, tables), "
            "S^11 torsion checks (N >= 10 tables rebuilt, not kept) and the "
            "spectra (rayleigh_ritz, moment integrals)"),
    Workload("groups-dense", (
        Part("verify", ("heisenberg", "heisenberg-quat",
                        "heisenberg-quat-mixed", "heisenberg-oct"),
             points=128),),
        why="group backend at 128 points: einsum contraction and the "
            "evaluated-value cache do most of the work, the polynomial engine "
            "about a fifth"),
]}


# ---------------------------------------------------------------------------
# verify reports

_LEMMA_ROWS = ("nablaJ-skew", "curvature-decomposition", "commutator-covariant",
               "commutator-kappa", "vertical-sectional-norm", "ym-helper-trace")
_ROW_NAMES = {"axioms": "foliation-axioms", "einstein": "einstein-horizontal",
              "cd": "cd-inequality"}


def expected_rows(part: Part) -> list[tuple[str, str, str]]:
    """(model, row check name, status) of every row the report must hold.

    Strict models pass everything except the documented skips: ``einstein``
    needs m >= 2, and ``curvature-constancy`` needs kappa != 0, which the
    groups do not have.  The kappa form of the commutator identity is
    reported only when m >= 2.
    """
    rows = []
    for model in part.models:
        backend, m = MODEL_FACTS[model]
        for check in part.checks:
            if check == "lemma-identities":
                rows += [(model, r, "pass") for r in _LEMMA_ROWS
                         if r != "commutator-kappa" or m >= 2]
            elif check == "einstein" and m == 1:
                rows.append((model, "einstein", "skipped"))
            elif check == "curvature-constancy" and backend == "group":
                rows.append((model, "curvature-constancy", "skipped"))
            else:
                rows.append((model, _ROW_NAMES.get(check, check), "pass"))
    return rows


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _same_as_first(ops: list, first_ops: list | None, i: int) -> bool:
    if first_ops is None:
        return True
    return i < len(first_ops) and _canonical(ops[i]) == _canonical(first_ops[i])


def judge_verify(part: Part, report: str, first: str | None
                 ) -> tuple[int, int, list[str]]:
    """Count (attempted, failed) report rows and say why each failure failed.

    ``first`` is the first iteration's report; a row that differs from its
    counterpart there fails, because the report must be byte-stable for a
    fixed configuration and seed.
    """
    rows = json.loads(report)
    first_rows = None if first is None else json.loads(first)
    want = expected_rows(part)
    problems = []
    for i in range(max(len(rows), len(want))):
        if i >= len(rows):
            problems.append(f"row {i} missing: expected {want[i]}")
            continue
        row = rows[i]
        got = (row.get("model"), row.get("check"), row.get("status"))
        if i >= len(want) or got != want[i]:
            problems.append(f"row {i} is {got}, expected "
                            f"{want[i] if i < len(want) else 'no row'}")
        elif not row.get("max_residual", 0.0) <= RESIDUAL_CEILING:  # or NaN
            problems.append(f"row {i} {got[:2]} residual "
                            f"{row['max_residual']:.3e} above ceiling "
                            f"{RESIDUAL_CEILING:.0e}")
        elif not _same_as_first(rows, first_rows, i):
            problems.append(f"row {i} {got[:2]} differs from the first "
                            f"iteration's report")
    if first is not None and report != first and not problems:
        problems.append("report bytes differ from the first iteration's")
    return max(len(rows), len(want)), len(problems), problems


# ---------------------------------------------------------------------------
# spectra

def expected_spectrum(model: str, degree: int) -> list[int]:
    family, sphere_dim = model.rsplit("-s", 1)
    dim = int(sphere_dim)
    if family == "complex-hopf":
        return oracle.complex_hopf_spectrum((dim - 1) // 2, degree)
    if family == "quaternionic-hopf":
        return oracle.quaternionic_hopf_spectrum((dim - 3) // 4, degree)
    raise ValueError(f"no closed-form spectrum for {model!r}")


def judge_spectra(part: Part, report: str, first: str | None
                  ) -> tuple[int, int, list[str]]:
    """One operation per spectrum: it fails when its eigenvalues (with
    multiplicity) miss the closed form by more than SPECTRUM_TOL, or when it
    differs from the first iteration's report."""
    spectra = json.loads(report)
    first_spectra = None if first is None else json.loads(first)
    problems = []
    for i, (model, degree) in enumerate(zip(part.models, part.degrees)):
        if i >= len(spectra):
            problems.append(f"spectrum {i} ({model}) missing")
            continue
        got = sorted(spectra[i]["eigenvalues"])
        want = expected_spectrum(model, degree)
        if spectra[i].get("model") != model or len(got) != len(want):
            problems.append(f"spectrum {i}: {len(got)} eigenvalues for "
                            f"{spectra[i].get('model')}, expected {len(want)} "
                            f"for {model}")
            continue
        err = max(abs(g - w) for g, w in zip(got, want))
        if not err <= SPECTRUM_TOL:                     # also catches NaN
            problems.append(f"spectrum {i} ({model}) misses the closed form "
                            f"by {err:.3e}")
        elif not _same_as_first(spectra, first_spectra, i):
            problems.append(f"spectrum {i} ({model}) differs from the first "
                            f"iteration's report")
    extra = max(0, len(spectra) - len(part.models))
    problems += [f"unexpected spectrum {len(part.models) + j}"
                 for j in range(extra)]
    return len(part.models) + extra, len(problems), problems


def judge(wl: Workload, reports: list[str], first: list[str] | None
          ) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over the reports of every part."""
    attempted = failed = 0
    problems = []
    for i, part in enumerate(wl.parts):
        check = judge_verify if part.kind == "verify" else judge_spectra
        a, f, why = check(part, reports[i], None if first is None else first[i])
        attempted, failed = attempted + a, failed + f
        problems += why
    return attempted, failed, problems
