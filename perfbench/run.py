"""ddiqkd benchmark: drive the CLI in-process on one workload and check every output.

    python3 perfbench/run.py --workload rate_curve --seed 1 --seconds 25 --trace 0

Workloads: session_0km, session_100km, rate_curve, appendix (see workloads.py).
The run repeats whole cycles of operations until ``--seconds`` would be
exceeded (at least two cycles).  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json, latencies scaled to a reference host
speed (see hostspeed.py); with ``--trace 1`` it alternates untraced and
traced cycles and reports the per-layer metrics, per operation, plus the
tracing overhead.  The last line of standard output is one JSON object; the
lines before it repeat the metrics for a reader.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9

sys.path.insert(0, str(SRC))
try:
    import ddiqkd
    from hostspeed import REFERENCE_S, python_floats, time_probe
    from tracing import Tracer
    from workloads import WORKLOADS, call_cli
except ModuleNotFoundError:  # no sources in this checkout; main() says so
    ddiqkd = None


def setup_seconds() -> float:
    """Median set-up time over fresh processes, at the reference host speed.

    Each process times ``import ddiqkd`` and a loaded config (setup_probe.py)
    and scales it like an operation, by a probe run in the same process.
    Interpreter start and the numpy import are left out: on the host where
    this was written they switched between two levels 50% apart, unrelated
    to the program and to every probe.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    subprocess.run(probe, check=True, capture_output=True, timeout=60)  # untimed: fills caches
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, check=True, capture_output=True, text=True, timeout=60)
        seconds, before, after = (float(x) for x in done.stdout.split())
        samples.append(seconds * 2.0 * REFERENCE_S[python_floats] / (before + after))
    return statistics.median(samples)


class Run:
    """Runs operations, checks each output and keeps the run's tallies.

    Each operation's latency is kept twice, by whether it was traced: as
    measured, and scaled to the reference host speed by the workload's probe,
    timed just before and just after the operation.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies: dict[bool, list[float]] = {False: [], True: []}
        self.scaled: dict[bool, list[float]] = {False: [], True: []}
        self._probe_s = None  # the last probe time, taken right after an operation
        self.traced_results = []
        self.failures: list[str] = []
        self.attempted = 0
        self._first_output: dict[str, bytes] = {}
        self.last_good = None

    def op(self, op, traced: bool = False):
        probe = self.workload.probe
        before = self._probe_s or time_probe(probe)
        if traced:
            with self.tracer.operation(self.attempted):
                seconds, res = call_cli(op.argv, op.out)
        else:
            seconds, res = call_cli(op.argv, op.out)
        self._probe_s = time_probe(probe)
        self.attempted += 1
        self.latencies[traced].append(seconds)
        self.scaled[traced].append(seconds * 2.0 * REFERENCE_S[probe] / (before + self._probe_s))
        reason = self.workload.check(op, res)
        first = self._first_output.setdefault(op.key, res.output_bytes())
        if reason is None and first != res.output_bytes():
            reason = "output differs from the first run of the same config and seed"
        if reason is None:
            self.last_good = (op, res)
        else:
            self.failures.append(f"{op.key}: {reason}")
        if traced:
            self.traced_results.append(res)

    def cycles(self, seconds: float, min_cycles: int, cycle):
        """Repeat ``cycle`` until one more would end past ``seconds``."""
        start = time.perf_counter()
        done = 0
        while True:
            cycle()
            done += 1
            elapsed = time.perf_counter() - start
            if done >= min_cycles and elapsed * (done + 1) / done > seconds:
                return


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles' inclusive method."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, setup_s: float) -> dict[str, tuple[float, str]]:
    ms = [s * 1000.0 for s in run.scaled[False]]
    return {
        "op_ref_ms_p50": (statistics.median(ms), "ms"),
        "op_ref_ms_p75": (percentile(ms, 75), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def bases(run: Run, workload_name: str) -> dict[str, int]:
    """The denominators of the per-layer ratios, over the traced operations."""
    out = {"traced operations": len(run.traced_results), "curve points": 0,
           "sifted bits": 0, "pulses": 0}
    for res in run.traced_results:
        if workload_name == "rate_curve":
            out["curve points"] += len(res.file.splitlines()) - 1
        elif workload_name.startswith("session"):
            report = json.loads(res.file)
            out["sifted bits"] += report["sifted_length"]
            out["pulses"] += report["config"]["n_pulses"]
    return out


def per_layer(run: Run, workload_name: str) -> dict[str, tuple[float, str]]:
    summary = run.tracer.summary()
    base = bases(run, workload_name)
    ops, points = base["traced operations"], base["curve points"]

    def calls(name):
        return summary.get(name, (0, 0))[0] / ops

    def self_ms(name):
        return summary.get(name, (0, 0))[1] / ops / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    untraced, traced = sum(run.scaled[False]), sum(run.scaled[True])
    optimize_calls = summary.get("rates.optimize_mu", (0, 0))[0]
    metrics = {
        "cli.main.self_ms": (self_ms("cli.main"), "ms/op"),
        "session.run_session.self_s": (self_ms("session.run_session") / 1000.0, "s/op"),
        "session.shards": (run.tracer.counts["session.shards"] / ops, "calls/op"),
        "session.sift_yield": (ratio(base["sifted bits"], base["pulses"]), "bit/pulse"),
        "session.to_dict.self_ms": (self_ms("session.to_dict"), "ms/op"),
        "rates.key_rate.calls": (calls("rates.key_rate"), "calls/op"),
        "rates.key_rate.self_ms": (self_ms("rates.key_rate"), "ms/op"),
        "rates.bb84_reference_rate.calls": (calls("rates.bb84_reference_rate"), "calls/op"),
        "rates.bb84_reference_rate.self_ms": (self_ms("rates.bb84_reference_rate"), "ms/op"),
        "rates.optimize_mu.calls_per_point": (ratio(optimize_calls, points), "ratio"),
        "rates.optimize_mu_bb84.calls_per_point": (
            ratio(summary.get("rates.optimize_mu_bb84", (0, 0))[0], points), "ratio"),
        "rates.key_rate.calls_per_optimize": (
            ratio(summary.get("rates.key_rate", (0, 0))[0], optimize_calls), "ratio"),
    }
    for check in ("check_receiver_state_fixed", "check_basis_independence",
                  "check_bsm_equivalence", "check_flip_table"):
        metrics[f"verify.{check}.self_ms"] = (self_ms(f"verify.{check}"), "ms/op")
    metrics.update({
        "encoding.rho_bob.calls": (calls("encoding.rho_bob"), "calls/op"),
        "encoding.rho_bob.self_ms": (self_ms("encoding.rho_bob"), "ms/op"),
        "qstate.reduce_density.self_ms": (self_ms("qstate.reduce_density"), "ms/op"),
        "qstate.trace_distance.calls": (calls("qstate.trace_distance"), "calls/op"),
        "qstate.trace_distance.self_ms": (self_ms("qstate.trace_distance"), "ms/op"),
        "bsm.mode_network_distribution.self_ms": (self_ms("bsm.mode_network_distribution"), "ms/op"),
        "bsm.ideal_bsm_distribution.calls": (calls("bsm.ideal_bsm_distribution"), "calls/op"),
        "trace.overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
    })
    return metrics


def describe(run: Run, workload_name: str, metrics: dict, trace: bool):
    """Lines for a reader, with the usual names of the metrics as aliases."""
    ms = run.latencies[False]
    print(f"workload {workload_name}: {run.attempted} operations, {len(run.failures)} failed "
          f"(ops_failed_frac {len(run.failures) / run.attempted:g})")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if trace:
        print(f"  tracing overhead: traced ops took {metrics['trace.overhead_pct'][0]:+.1f}% "
              f"against untraced ops ({len(run.latencies[True])} traced, {len(ms)} untraced)")
        summary = run.tracer.summary()
        print("  ratio bases: " + ", ".join(f"{v} {k}" for k, v in bases(run, workload_name).items())
              + f", {summary.get('rates.optimize_mu', (0, 0))[0]} optimize_mu calls")
        return
    ms = sorted(x * 1000.0 for x in ms)
    p50, p75 = statistics.median(ms), percentile(ms, 75)
    ref50, ref75 = metrics["op_ref_ms_p50"][0], metrics["op_ref_ms_p75"][0]
    print(f"  as measured: op_ms_p50 = {p50:.6g} ms, op_ms_p75 = {p75:.6g} ms "
          f"({len(ms)} samples, {sum(x > p75 for x in ms)} beyond p75)")
    if workload_name.startswith("session"):
        print(f"  session_mpulse_per_s = {10_000.0 / p50:.4g} Mpulse/s as measured, "
              f"{10_000.0 / ref50:.4g} at the reference speed (10^7 pulses / p50)")
    else:
        prefix = "curve" if workload_name == "rate_curve" else "appendix"
        print(f"  {prefix}_ms_p50 = {ref50:.6g} ms, {prefix}_ms_p75 = {ref75:.6g} ms "
              f"at the reference speed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("session_0km", "session_100km", "rate_curve", "appendix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if ddiqkd is None or not Path(ddiqkd.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark: needs the ddiqkd sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = setup_seconds() if not args.trace else 0.0

    workload = WORKLOADS[args.workload]()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    try:
        ops = workload.ops(args.seed, workdir)
        run = Run(workload, Tracer() if args.trace else None)
        call_cli(workload.warmup_argv(ops[0]), ops[0].out)

        def untraced():
            for op in ops:
                run.op(op)

        if args.trace:
            def pair():
                untraced()
                run.tracer.install()
                try:
                    for op in ops:
                        run.op(op, traced=True)
                finally:
                    run.tracer.uninstall()

            run.cycles(args.seconds, 1, pair)
            metrics = per_layer(run, args.workload)
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            run.tracer.write(out / f"{args.workload}.spans.tsv")
        else:
            run.cycles(args.seconds, 2, untraced)
            metrics = end_to_end(run, setup_s)

        correct = not run.failures
        if run.last_good is not None:
            label, bad = workload.corrupted(*run.last_good)
            reason = workload.check(run.last_good[0], bad)
            print(f"self-test ({label}): " + (f"rejected: {reason}" if reason else "NOT REJECTED"))
            correct &= reason is not None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    describe(run, args.workload, metrics, bool(args.trace))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
