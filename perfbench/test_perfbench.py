"""Tests of the benchmark itself: oracles, inputs, tracer and metric names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

import calibration
import run

run.load_program()

import oracles  # noqa: E402
import workloads  # noqa: E402
from rbshuffle.freerb import Tensor  # noqa: E402
from rbshuffle.hurwitz import Series  # noqa: E402
from rbshuffle.reports import LawReport  # noqa: E402
from tracer import COUNTED, TIMED, Tracer  # noqa: E402

LAM = Fraction(1, 2)
A = (("a0",), ("a1",))
B = (("b0",), ("b1",), ("b2",))


# --------------------------------------------------------------------------
# Oracles against hand-worked cases


def delannoy(m: int, n: int) -> int:
    return sum(comb(m, k) * comb(n, k) * 2 ** k for k in range(min(m, n) + 1))


def test_shuffle_oracle_two_by_two():
    got = oracles.shuffle_product((("a0",), ("a1",)), (("b0",), ("b1",)), LAM, Fraction(1))
    head = ("a0", "b0")
    assert got == {(head, ("a1",), ("b1",)): 1,
                   (head, ("b1",), ("a1",)): 1,
                   (head, ("a1", "b1")): LAM}


def test_shuffle_oracle_worked_example():
    # the pinned five-term product of the law suite worked_example
    got = oracles.shuffle_product(A, B, LAM, Fraction(3))
    head = ("a0", "b0")
    assert got == {(head, ("a1",), ("b1",), ("b2",)): 3,
                   (head, ("b1",), ("a1",), ("b2",)): 3,
                   (head, ("b1",), ("b2",), ("a1",)): 3,
                   (head, ("b1",), ("a1", "b2")): 3 * LAM,
                   (head, ("a1", "b1"), ("b2",)): 3 * LAM}
    assert oracles.check_shuffle_summary(got, A, B, LAM, Fraction(3))


def test_shuffle_counts():
    assert oracles.stratum_counts(1, 1, Fraction(1)) == {3: 2, 2: 1}
    assert oracles.stratum_counts(1, 2, Fraction(0)) == {4: 3}
    assert sum(oracles.stratum_counts(6, 6, Fraction(1)).values()) == 8989
    assert delannoy(8, 8) == 265729
    for m, n in [(2, 3), (4, 4), (3, 5)]:
        assert sum(oracles.stratum_counts(m, n, LAM).values()) == delannoy(m, n)
        assert len(oracles.shuffle_product(
            tuple((f"a{k}",) for k in range(m + 1)),
            tuple((f"b{k}",) for k in range(n + 1)), LAM, Fraction(1))) == delannoy(m, n)


def test_hurwitz_oracle_low_orders():
    lam = Fraction(3)
    f = [{(0, 0): Fraction(v)} for v in (2, 5, 7)]
    g = [{(0, 0): Fraction(v)} for v in (11, 13, 17)]
    (p0, p1, p2) = [p[(0, 0)] for p in oracles.hurwitz_product(f, g, lam)]
    assert p0 == 2 * 11
    assert p1 == 5 * 11 + 2 * 13 + lam * 5 * 13
    assert p2 == (2 * 17 + 2 * 5 * 13 + 7 * 11
                  + 2 * lam * (5 * 17 + 7 * 13) + lam ** 2 * 7 * 17)


def test_hurwitz_oracle_takes_smaller_precision():
    one = {(0, 0): Fraction(1)}
    assert len(oracles.hurwitz_product([one] * 5, [one] * 3, Fraction(0))) == 3


def test_iterated_derivative_oracle():
    x = {(1, 0): Fraction(1)}
    assert oracles.iterated_derivative_of_product(x, x, Fraction(0), 1) == {(1, 0): 2}
    assert oracles.iterated_derivative_of_product(x, x, Fraction(1), 1) == {(1, 0): 2, (0, 0): 1}
    assert oracles.iterated_derivative_of_product(x, x, LAM, 1) == {(1, 0): 2, (0, 0): LAM}
    assert oracles.iterated_derivative_of_product(x, x, Fraction(1), 2) == {(0, 0): 2}
    assert oracles.iterated_derivative_of_product(x, x, Fraction(1), 3) == {}


# --------------------------------------------------------------------------
# Checks accept the program's outputs and reject perturbed ones


def _ops(builder, pick):
    return [op for op in builder(7) if pick(op.label)]


def _perturbations(terms: dict):
    """One coefficient changed, and one term dropped."""
    key = next(iter(terms))
    changed = dict(terms)
    changed[key] = changed[key] + changed[key]
    dropped = dict(terms)
    del dropped[key]
    return changed, dropped


@pytest.mark.parametrize("label", ["shuffle 3x3 lam=1/2", "shuffle 5x6 lam=1",
                                   "shuffle 4x4 lam=0"])
def test_shuffle_check(label):
    (op,) = _ops(workloads.shuffle_round, lambda s: s == label)
    out = op.run()
    assert op.check(out)
    for terms in _perturbations(out.terms):
        assert not op.check(Tensor(out.handle, terms))


def test_series_checks():
    ops = _ops(workloads.series_round, lambda s: s.endswith("N=12 lam=1/2") or s.endswith("n=3 lam=1/2"))
    mul = ops[0]
    hl = next(op for op in ops[1::2] if not op.run().is_zero)
    out = mul.run()
    assert mul.check(out)
    for terms in _perturbations(out.values[3].terms):
        values = list(out.values)
        values[3] = type(values[3])(values[3].handle, terms)
        assert not mul.check(Series(out.handle, values))
    out = hl.run()
    assert hl.check(out)
    for terms in _perturbations(out.terms):
        assert not hl.check(type(out)(out.handle, terms))


def test_check_op_requires_pass_and_sample_count():
    (op,) = _ops(workloads.check_round, lambda s: s == "suite worked_example")
    report = op.run()
    assert op.check(report)
    assert not op.check(LawReport(report.law, report.samples - 1, report.seed, True))
    assert not op.check(LawReport(report.law, report.samples, report.seed, False))


def test_every_workload_op_passes_its_check_on_a_small_round():
    cheap = workloads.shuffle_round(1)[:6] + workloads.series_round(1)[:8]
    assert all(op.check(op.run()) for op in cheap)


# --------------------------------------------------------------------------
# Inputs


def test_same_seed_same_inputs():
    assert workloads.shuffle_inputs(4) == workloads.shuffle_inputs(4)
    assert workloads.series_inputs(4) == workloads.series_inputs(4)
    assert workloads.shuffle_inputs(4) != workloads.shuffle_inputs(5)
    assert workloads.series_inputs(4) != workloads.series_inputs(5)
    a = [str(op.run()) for op in workloads.series_round(4)[:4]]
    b = [str(op.run()) for op in workloads.series_round(4)[:4]]
    assert a == b


def test_shuffle_inputs_use_distinct_symbols():
    for a, b, lam, ca, cb in workloads.shuffle_inputs(2):
        assert len(set(a + b)) == len(a) + len(b)
        assert ca and cb


def test_rounds_follow_from_seconds():
    # the table in README.md, at the run length BENCHMARK.json sets
    assert [workloads.rounds_for(w, 25) for w in ("shuffle", "series", "check")] == [3, 25, 1]
    assert workloads.rounds_for("check", 1) == 1


# --------------------------------------------------------------------------
# Tracer


def _render(out) -> str:
    return json.dumps(out.to_json(), sort_keys=True)


def _attributes():
    return [vars(owner)[attr] for owner, attr, *_ in COUNTED + TIMED]


def test_tracer_keeps_outputs_and_restores_attributes():
    ops = (workloads.shuffle_round(3)[12:15] + workloads.series_round(3)[:2]
           + _ops(workloads.check_round, lambda s: s == "suite worked_example"))
    before = _attributes()
    plain = [_render(op.run()) for op in ops]
    counts = []
    for _ in range(2):
        with Tracer() as t:
            traced = [_render(t.op(op.label, op.run)) for op in ops]
        assert traced == plain
        assert all(a is b for a, b in zip(_attributes(), before))
        counts.append((t.counts, {k: s.calls for k, s in t.stats.items()}))
    assert counts[0] == counts[1]
    assert t.counts["coeffs.scalar_mul"] > 0
    assert t.stats["freerb.tensor_mul"].calls >= 3
    assert t.stats["hurwitz.series_mul"].calls == 1
    assert t.stats["laws.run_suite[worked_example]"].calls == 1


def test_tracer_self_time_excludes_children():
    (op,) = _ops(workloads.shuffle_round, lambda s: s == "shuffle 4x4 lam=1")
    with Tracer() as t:
        t.op(op.label, op.run)
    mul = t.stats["freerb.tensor_mul"]
    root = t.stats[f"op[{op.label}]"]
    assert 0 <= mul.self_s <= mul.total_s <= root.total_s
    assert mul.out_terms == delannoy(3, 3)
    (span,) = t.spans
    assert span[1] == f"op[{op.label}]" and span[2] is None and span[3] == 0


def test_tracer_restores_after_error():
    before = _attributes()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(a is b for a, b in zip(_attributes(), before))


# --------------------------------------------------------------------------
# Calibration


def test_calibration_kernel_is_the_mixable_shuffle():
    words = tuple((f"{x}{i}",) for x in "ab" for i in range(4))
    assert calibration.kernel() == oracles.mixable_shuffle(words[:4], words[4:], Fraction(1, 2))


def test_scale_averages_speed_not_duration():
    ref = calibration.REFERENCE_S
    # half the time at reference speed, half at twice it
    assert calibration.scale(2.0, [ref, ref / 2]) == pytest.approx(3.0)


def test_meter_samples_only_inside_operations_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    meter = calibration.Meter(every=0.02)
    with meter:
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        with meter.running():
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                pass
            t1 = time.perf_counter()
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        inside = meter.paused(t0, t1)
        assert len(meter.pauses) >= 3
        assert inside == pytest.approx(sum(s for _, s in meter.pauses))
        meter.add(t1 - t0 - inside)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(meter.samples) >= calibration.SEGMENT_SAMPLES
    assert meter.reference_s == pytest.approx(calibration.scale(t1 - t0 - inside, meter.samples))


# --------------------------------------------------------------------------
# The command and BENCHMARK.json


def test_benchmark_json_names_match_the_metrics():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    res = run.Pass(calibration.Meter())
    with res.meter:
        res.meter.add(1.5)
    res.latencies = [0.5, 1.0]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(res, [0.1]))
    with Tracer() as t:
        pass
    names = list(run.per_layer(t, res, res))
    assert [m["name"] for m in spec["per_layer"]] == names


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "series",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
