"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload shuffle --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Each run does a fixed number of rounds of its workload's operations (the
count follows from --seconds alone), checks every output against an
independent computation, and prints a summary followed by one JSON line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
End-to-end times are scaled to a reference machine speed by a calibration
kernel timed between operations (see calibration.py).
Results and traces are also written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# set-up is measured this many times per run, in fresh interpreters
SETUP_PROBES = 9
# a set-up probe samples the calibration kernel this often, in seconds
SETUP_SAMPLE_EVERY_S = 0.02
# the op_tail_ms percentile keeps this many samples beyond it
TAIL_BEYOND = 10

# per-layer metrics from the traced run: stat key -> fields reported
TRACED_FIELDS = {
    "algebra.poly_mul": ("calls", "self_s"),
    "freerb.tensor_mul": ("calls", "self_s", "total_s", "out_terms"),
    "freerb.free_derivation_apply": ("self_s",),
    "freerb.induced_rb_hom": ("self_s",),
    "freerb.sha_map": ("self_s",),
    "hurwitz.series_mul": ("calls", "self_s", "total_s"),
    "hurwitz.higher_leibniz": ("self_s",),
    "distlaw.beta": ("calls", "self_s", "total_s"),
}
COUNTED_KEYS = ("coeffs.scalar_mul", "coeffs.scalar_add", "algebra.poly_add",
                "freerb.from_factors")


class ProgramMissing(RuntimeError):
    """The checkout holds no rbshuffle sources to benchmark."""


def load_program() -> None:
    """Put the checkout's src/ first on the path and import rbshuffle from it."""
    if not (SRC / "rbshuffle" / "__init__.py").is_file():
        raise ProgramMissing(f"no rbshuffle package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rbshuffle
    if Path(rbshuffle.__file__).resolve().parent != SRC / "rbshuffle":
        raise ProgramMissing(f"rbshuffle was imported from {rbshuffle.__file__}, not {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("shuffle", "series", "check"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, run the warm-up operation, print the monotonic "
                        "clock and the calibration samples as JSON and exit "
                        "(used to time set-up in a fresh process)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def set_up(workload: str, seed: int):
    """Build one round of operations and run the first as the warm-up."""
    import workloads
    ops = workloads.WORKLOADS[workload][0](seed)
    ops[0].run()
    return ops


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the point where it could
    time its first operation, at reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    started = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    probe = json.loads(done.stdout.splitlines()[-1])
    return calibration.scale(probe["end"] - started - probe["paused_s"], probe["samples"])


def setup_probe(args) -> int:
    """The child side of probe_setup: set up under the calibration timer, and
    print when set-up ended, the kernel time to take out and the samples.
    The samples are taken in this process, since it may run on another CPU
    than the parent, in another phase of the host's speed."""
    meter = calibration.Meter(SETUP_SAMPLE_EVERY_S)
    with meter:
        with meter.running():
            load_program()
            set_up(args.workload, args.seed)
        end = time.monotonic()
    print(json.dumps({"end": end, "paused_s": sum(s for _, s in meter.pauses),
                      "samples": meter.samples}))
    return 0


class Pass:
    """Latencies and outcomes of one pass over the rounds."""

    def __init__(self, meter: calibration.Meter | None = None) -> None:
        self.meter = meter
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.terms = 0
        self.has_terms = False

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def attempt(op, res: Pass, tracer=None) -> None:
    """Time one operation, under the tracer if given; check it untimed."""
    res.attempted += 1
    running = contextlib.nullcontext() if res.meter is None else res.meter.running()
    try:
        with tracer or contextlib.nullcontext(), running:
            t0 = time.perf_counter()
            out = op.run() if tracer is None else tracer.op(op.label, op.run)
            t1 = time.perf_counter()
    except Exception as e:  # an operation that raises counts as failed
        res.failed += 1
        print(f"failed: {op.label}: {e!r}", file=sys.stderr)
        return
    latency = t1 - t0
    if res.meter is not None:
        latency -= res.meter.paused(t0, t1)
        res.meter.add(latency)
    res.latencies.append(latency)
    if not op.check(out):
        res.wrong += 1
        res.failed += 1
        print(f"wrong output: {op.label}", file=sys.stderr)
    elif op.terms is not None:
        res.has_terms = True
        res.terms += op.terms(out)


def run_passes(ops, rounds: int, tracer=None) -> list[Pass]:
    """Every operation of every round, untraced and calibrated; with a
    tracer, each instead runs untraced and traced, in alternating order, so
    that drift in machine speed falls evenly on both passes.  Returns the
    untraced pass, then the traced one."""
    passes = [Pass(calibration.Meter())] if tracer is None else [Pass(), Pass()]
    modes = list(zip(passes, [None, tracer]))
    gc.collect()
    with passes[0].meter or contextlib.nullcontext():
        for _ in range(rounds):
            for op in ops:
                for res, t in modes:
                    attempt(op, res, t)
                modes.reverse()
    return passes


def end_to_end(res: Pass, setup_samples: list[float]) -> dict:
    return {
        "wall_ref_s": (res.meter.reference_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def ungated(res: Pass) -> dict:
    """Figures printed but not in the JSON line: the raw times, which
    follow the host's drift, and the calibration they were scaled by.  A
    run's operations differ in size by up to a thousandfold, so its median
    and tail latencies sit on gaps between operation kinds and jump when
    machine speed shifts; terms_per_s exists only where outputs have terms."""
    out = {
        "wall_s": (res.wall_s, "s"),
        "ops_per_s": (len(res.latencies) / res.wall_s, "1/s"),
        "kernel_ms(median of {})".format(len(res.meter.samples)):
            (statistics.median(res.meter.samples) * 1e3, "ms"),
        "op_p50_ms": (statistics.median(res.latencies) * 1e3, "ms"),
    }
    if res.has_terms:
        out["terms_per_s"] = (res.terms / res.wall_s, "1/s")
    n = len(res.latencies)
    if n >= 4 * TAIL_BEYOND:
        pct = 100 * (n - TAIL_BEYOND) / n
        out[f"op_tail_ms(p{pct:.1f} of {n})"] = (sorted(res.latencies)[n - TAIL_BEYOND - 1] * 1e3, "ms")
    return out


def per_layer(tracer, traced: Pass, untraced: Pass) -> dict:
    import workloads
    out = {}
    for key in COUNTED_KEYS:
        out[f"{key}.calls"] = (tracer.counts.get(key, 0), "count")
    for key, fields in TRACED_FIELDS.items():
        st = tracer.stats.get(key)
        for f in fields:
            v = getattr(st, f) if st is not None else 0
            out[f"{key}.{f}"] = (v, "count" if f in ("calls", "out_terms") else "s")
    for suite in workloads.CHECK_SUITES:
        st = tracer.stats.get(f"laws.run_suite[{suite}]")
        out[f"laws.suite_s.{suite}"] = (st.total_s if st is not None else 0.0, "s")
    out["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    return out


def write_json(path: Path, obj) -> None:
    RESULTS.mkdir(exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    try:
        load_program()
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    import workloads
    rounds = workloads.rounds_for(args.workload, args.seconds)
    if args.trace:
        from tracer import SPAN_FIELDS, Tracer
        tracer = Tracer()
        passes = run_passes(set_up(args.workload, args.seed), rounds, tracer)
        metrics, extra = per_layer(tracer, passes[1], passes[0]), {}
    else:
        setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
        passes = run_passes(set_up(args.workload, args.seed), rounds)
        metrics, extra = end_to_end(passes[0], setup_samples), ungated(passes[0])

    print(f"perfbench {args.workload}: seed {args.seed}, {rounds} round(s) of "
          f"{passes[0].attempted // rounds} operations, trace {'on' if args.trace else 'off'}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    result = {
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_json(RESULTS / f"{tag}.json", result)
    if args.trace:
        write_json(RESULTS / f"trace-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "metrics": result["metrics"],
            "stats": {k: vars(v) for k, v in sorted(tracer.stats.items())},
            "counts": tracer.counts,
            "span_fields": SPAN_FIELDS, "spans": tracer.spans,
        })
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
