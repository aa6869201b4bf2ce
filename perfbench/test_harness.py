"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
from math import comb

import pytest

import layers
import oracle
import run
from tracer import Tracer
from workloads import (RESIDUAL_CEILING, WORKLOADS, Part, Workload,
                       expected_rows, expected_spectrum, judge, judge_spectra,
                       judge_verify)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def harmonic_dimension(n_vars: int, k: int) -> int:
    """dim H_k(R^N): degree-k monomials minus |x|^2 times degree k - 2."""
    lower = comb(k + n_vars - 3, n_vars - 1) if k >= 2 else 0
    return comb(k + n_vars - 1, n_vars - 1) - lower


def spectrum_size(n_vars: int, degree: int) -> int:
    return sum(harmonic_dimension(n_vars, k) for k in range(degree + 1))


# ---------------------------------------------------------------------------
# closed-form spectra

def test_complex_hopf_oracle():
    s3 = oracle.complex_hopf_spectrum(1, 6)
    assert len(s3) == 140 == spectrum_size(4, 6)
    assert oracle.complex_hopf_spectrum(1, 1) == [0, 2, 2, 2, 2]
    assert len(oracle.complex_hopf_spectrum(2, 4)) == spectrum_size(6, 4)
    # S^5: H_{1,0} and H_{0,1} at 2n = 4, H_{1,1} at 4 + 2n * 2 = 12
    assert oracle.complex_hopf_spectrum(2, 2).count(12) == 8


def test_quaternionic_hopf_oracle():
    s7 = oracle.quaternionic_hopf_spectrum(1, 3)
    s11 = oracle.quaternionic_hopf_spectrum(2, 2)
    assert sorted(set(s7)) == [0, 4, 8, 12, 16, 24]
    assert sorted(set(s11)) == [0, 8, 16, 24]
    assert len(s7) == spectrum_size(8, 3)
    assert len(s11) == spectrum_size(12, 2)
    # first eigenvalue: 4 on S^7 and 8 on S^11, on the 4(n+1)-dimensional H_1
    assert s7.count(4) == 8 and s11.count(8) == 12
    for n in (1, 2, 3):
        for degree in range(7):
            assert len(oracle.quaternionic_hopf_spectrum(n, degree)) \
                == spectrum_size(4 * n + 4, degree)


def test_sp_dimension():
    assert oracle.sp_dimension((1, 0)) == 4
    assert oracle.sp_dimension((1, 1)) == 5
    assert oracle.sp_dimension((2, 0)) == 10
    assert oracle.sp_dimension((1, 0, 0)) == 6


# ---------------------------------------------------------------------------
# tracing

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def work(seconds, *inner):
        clock.now += seconds
        for fn in inner:
            fn()

    leaf = tr.wrap(lambda: work(2.0), "geometry.leaf")
    mid = tr.wrap(lambda: work(1.0, leaf, leaf), "foliation.mid", span=True)
    top = tr.wrap(lambda: work(0.5, mid, leaf), "checks.top", span=True)
    top()
    # top: 0.5 own + mid (1 + 2 * 2) + leaf 2 = 7.5 in total
    assert tr.span_time("checks.top") == 7.5
    assert tr.span_time("foliation.mid", "checks.top") == 5.0
    assert tr.span_time("foliation.mid", "other") == 0.0
    assert tr.self_s["checks.top"] == 0.5
    assert tr.self_s["foliation.mid"] == 1.0
    assert tr.self_s["geometry.leaf"] == 6.0
    assert tr.calls["geometry.leaf"] == 3
    assert tr.parent_self_s[("geometry.leaf", "foliation.mid")] == 4.0
    assert tr.parent_self_s[("geometry.leaf", "checks.top")] == 2.0
    assert [s["parent"] for s in tr.spans] == [None, 0]


def test_group_time_counts_outermost_calls_once():
    clock = FakeClock()
    tr = Tracer(clock)

    def rec(depth):
        clock.now += 1.0
        if depth:
            traced(depth - 1)

    traced = tr.wrap(rec, "foliation.entry.x", group="tables")
    traced(2)
    traced(0)
    assert tr.group_s["tables"] == 4.0
    assert tr.self_s["foliation.entry.x"] == 4.0


def test_self_times_account_for_wall():
    clock = FakeClock()
    tr = Tracer(clock)
    leaf = tr.wrap(lambda: setattr(clock, "now", clock.now + 3.0),
                   "geometry.evaluate", group="evaluate")
    tr.wrap(leaf, "cli.run_checks", span=True)()
    out = layers.metrics(tr, 3.5, 0, 0.0)
    assert out["layer.geometry.self_s"] == 3.0
    assert out["trace.unattributed_s"] == 0.5
    assert out["split.evaluate_s"] == 3.0


def test_combine_parts():
    parts = []
    for lookups, builds, own in ((10, 5, 1.0), (30, 5, 2.0)):
        tr = Tracer(FakeClock())
        out = layers.metrics(tr, own + 0.5, 7, 1.5)
        out.update({"foliation.eval_entry.calls": lookups,
                    "foliation.eval_entry.builds": builds,
                    "layer.geometry.self_s": own,
                    "trace.unattributed_s": 0.5})
        parts.append(out)
    total = layers.combine(parts, 4.5)
    assert total["foliation.eval_entry.hit_ratio"] == 0.75
    assert total["foliation.symbolic_terms"] == 14
    assert total["trace.wall_s"] == 4.5
    # 0.5 unattributed in each part, and 0.5 between the parts
    assert total["trace.unattributed_s"] == 1.5


# ---------------------------------------------------------------------------
# correctness gates

S7 = Part("verify", ("quaternionic-hopf-s7",), points=4,
          checks=("h-type", "einstein", "curvature-constancy"))
HEIS = Part("verify", ("heisenberg",), points=4,
            checks=("einstein", "curvature-constancy", "lemma-identities"))


def _rows(wl, residual=1e-15):
    return [{"model": m, "check": c, "status": s, "max_residual": residual}
            for m, c, s in expected_rows(wl)]


def test_expected_rows_hold_documented_skips():
    assert [r[1:] for r in expected_rows(HEIS)][:2] == [
        ("einstein", "skipped"), ("curvature-constancy", "skipped")]
    assert len(expected_rows(HEIS)) == 2 + 5          # no commutator-kappa at m = 1
    assert [r[2] for r in expected_rows(S7)] == ["pass"] * 3


def test_judge_verify_counts_each_gate():
    good = json.dumps(_rows(S7))
    assert judge_verify(S7, good, None) == (3, 0, [])
    assert judge_verify(S7, good, good)[1] == 0

    high = json.dumps(_rows(S7, residual=10 * RESIDUAL_CEILING))
    assert judge_verify(S7, high, None)[:2] == (3, 3)

    wrong = _rows(S7)
    wrong[0]["status"] = "fail"
    assert judge_verify(S7, json.dumps(wrong), None)[:2] == (3, 1)

    drifted = _rows(S7)
    drifted[1]["max_residual"] = 2e-15
    assert judge_verify(S7, json.dumps(drifted), good)[:2] == (3, 1)

    assert judge_verify(S7, json.dumps(_rows(S7)[:1]), None)[:2] == (3, 2)


def test_judge_spectra_against_closed_form():
    wl = Part("spectrum", ("complex-hopf-s3", "quaternionic-hopf-s7"),
              degrees=(2, 1))
    spectra = [{"model": m, "degree": d,
                "eigenvalues": [float(v) for v in expected_spectrum(m, d)]}
               for m, d in zip(wl.models, wl.degrees)]
    good = json.dumps(spectra)
    assert judge_spectra(wl, good, good) == (2, 0, [])
    spectra[1]["eigenvalues"][-1] += 1e-8
    assert judge_spectra(wl, json.dumps(spectra), None)[:2] == (2, 1)
    assert judge_spectra(wl, json.dumps(spectra[:1]), None)[:2] == (2, 1)


def test_judge_sums_over_parts():
    wl = Workload("both", (S7, HEIS))
    good = [json.dumps(_rows(S7)), json.dumps(_rows(HEIS))]
    assert judge(wl, good, good) == (10, 0, [])
    bad = [good[0], json.dumps(_rows(HEIS, residual=1.0))]
    assert judge(wl, bad, good)[:2] == (10, 7)


# ---------------------------------------------------------------------------
# the harness end to end, on small workloads

@pytest.mark.parametrize("part, failing", [
    (Part("verify", ("round-s7-unnormalized",), points=4,
          checks=("axioms", "h-type")), True),
    (Part("verify", ("quaternionic-hopf-s7",), points=4,
          checks=("axioms", "h-type")), False),
    (Part("spectrum", ("complex-hopf-s3",), degrees=(2,)), False),
])
def test_fail_ratio_of_small_workloads(part, failing):
    result = run.measure(ROOT, Workload("small", (part,)), seed=42, seconds=0,
                         trace=False)
    assert result["attempted"] >= 1
    assert (result["fail_ratio"] > 0) == failing
    if failing:
        assert any("h-type" in p for p in result["problems"])


def test_traced_run_reports_every_per_layer_metric():
    wl = Workload("tiny", (Part("verify", ("heisenberg",), points=4,
                                checks=("h-type", "lemma-identities", "cd")),
                           Part("spectrum", ("complex-hopf-s3",), degrees=(1,))))
    result = run.measure(ROOT, wl, seed=3, seconds=0, trace=True)
    assert result["failed"] == 0
    per_layer = result["per_layer"]
    assert list(per_layer) == [name for name, _, _ in layers.PER_LAYER]
    assert per_layer["foliation.entry.curvature.calls"]["median"] > 0
    assert per_layer["checks.lemma-identities.s"]["median"] > 0
    assert per_layer["analysis.rayleigh_ritz.s"]["median"] > 0
    assert per_layer["foliation.symbolic_terms"]["median"] > 0
    assert per_layer["trace_overhead"]["median"] > 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] \
        == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(m) for m in layers.PER_LAYER]
