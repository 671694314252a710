#!/usr/bin/env python3
"""Benchmark of both qstab engines through the real CLI entry point.

    python3 bench/run.py --workload certify-mix --seed 3 --seconds 20 --trace 0
    python3 bench/run.py                     # every workload, one table

A run measures one workload for ``--seconds`` seconds as a closed loop from
a single process: one CLI operation (``qstab.cli.run(argv)``, stdout
captured) at a time, repeated in passes over the workload's operation list.
Every report is checked (checks.py). With ``--trace 0`` the run prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics from spans
around qstab's public functions (tracing.py). Times are in reference
seconds (hostspeed.py). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
SETUP_SAMPLES = 5
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "certify_latency_s.p50": "s",
    "certify_latency_s.p90": "s", "trial_steps_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "netmodel.load_spec_s": "s", "netmodel.actions": "count",
    "certify.drift_matrix_s": "s", "certify.family_alpha_s": "s", "certify.certify_s": "s",
    "certify.search_s": "s", "exactla.rank_s": "s", "exactla.null_space_s": "s",
    "exactla.entries": "count", "simulate.policy_s": "s", "simulate.policy_calls": "count",
    "simulate.policy_rows": "count", "simulate.actions_per_step": "count",
    "simulate.rng_s": "s", "simulate.engine_self_s": "s", "simulate.trial_steps": "count",
    "jsonio.render_s": "s", "cli.self_s": "s", "ops_failed": "ratio", "trace.overhead_s": "s",
}
# span name -> metric summing the spans' whole durations / their self times / their counts
SPAN_TOTALS = {
    "netmodel.load_spec": "netmodel.load_spec_s", "certify.drift_matrix": "certify.drift_matrix_s",
    "certify.family_alpha": "certify.family_alpha_s", "certify.certify": "certify.certify_s",
    "exactla.rank": "exactla.rank_s", "exactla.null_space": "exactla.null_space_s",
    "jsonio.render": "jsonio.render_s",
}
SPAN_SELF = {"certify.certify": "certify.search_s", "cli.op": "cli.self_s",
             "simulate.verb": "simulate.engine_self_s"}
SPAN_COUNTS = {"netmodel.load_spec": "netmodel.actions", "exactla.rank": "exactla.entries",
               "exactla.null_space": "exactla.entries"}


def import_program() -> None:
    """Import qstab from this checkout's sources, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qstab
    except ImportError as exc:
        sys.exit(f"error: cannot import qstab from {src}: {exc}")
    if Path(qstab.__file__).resolve().parent != src / "qstab":
        sys.exit(f"error: qstab was imported from {qstab.__file__}, not from {src}")


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Execution:
    op: int          # index into the workload's operation list
    oid: int         # run-wide operation id, shared with spans
    t0: float
    t1: float
    rc: int | None
    digest: str
    seconds: float = 0.0   # reference seconds, set once the run is measured


@dataclass
class Pass:
    traced: bool
    runs: list[Execution] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.runs)


class Runner:
    def __init__(self, wl, paths: dict[str, Path]):
        from qstab import cli

        self.cli = cli
        self.wl = wl
        self.argvs = [self.bind(op, paths) for op in wl.ops]
        self.speed = HostSpeed()
        self.first_out: dict[int, tuple[int | None, str, str]] = {}
        self.next_oid = 0
        self.tracer = None
        self.op_info: dict[int, dict] = {}

    @staticmethod
    def bind(op, paths) -> list[str]:
        return [op.argv[0], str(paths[op.spec]), *op.argv[2:]]

    def call(self, argv) -> tuple[int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.run(argv)
            except Exception as exc:  # an escaped exception is a failed operation
                rc, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        return rc, out.getvalue(), err.getvalue()

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(traced)
        for i, argv in enumerate(self.argvs):
            oid = self.next_oid
            self.next_oid += 1
            if traced:
                self.tracer.op = oid
                with self.tracer.installed(), self.tracer.span("cli.op"):
                    t0 = perf_counter()
                    rc, out, err = self.call(argv)
                    t1 = perf_counter()
            else:
                t0 = perf_counter()
                rc, out, err = self.call(argv)
                t1 = perf_counter()
            digest = hashlib.sha256(out.encode()).hexdigest()
            self.first_out.setdefault(i, (rc, out, err))
            p.runs.append(Execution(i, oid, t0, t1, rc, digest))
            if traced:
                self.after_traced_op(oid, i, rc, out)
        return p

    def after_traced_op(self, oid: int, i: int, rc, out: str) -> None:
        """Replay the operation's uniforms and collect its policy counters."""
        from checks import argv_int, trial_steps

        op = self.wl.ops[i]
        argv = self.argvs[i]
        info = {"name": op.name, "rng": None, "trial_steps": 0}
        try:
            steps = trial_steps(argv, json.loads(out)) if op.is_sim and rc == 0 else 0
        except (ValueError, KeyError, TypeError):  # a broken report fails its check later
            steps = 0
        if steps:
            from qstab.simulate import trial_rng

            trials, seed = argv_int(argv, "--trials"), argv_int(argv, "--seed")
            t0 = perf_counter()
            for t in range(trials):
                trial_rng(seed, t).random(steps // trials + (t < steps % trials))
            info.update(rng=[t0, perf_counter()], trial_steps=steps)
        stats = self.tracer.policy.pop(oid, None)
        if stats is not None:
            decisions, distinct = stats.distinct_per_step(argv_int(argv, "--trials"))
            info.update(policy_s=stats.seconds, policy_calls=stats.calls,
                        policy_rows=stats.rows, decisions=decisions, distinct=distinct)
        self.op_info[oid] = info

    def measure(self, seconds: float, trace: bool) -> list[Pass]:
        """Passes until ``seconds`` would be exceeded; untraced and traced alternate
        when tracing, so both see the same host conditions."""
        passes: list[Pass] = []
        start = perf_counter()
        with self.speed.sampling():
            while True:
                p = self.run_pass(traced=trace and len(passes) % 2 == 1)
                passes.append(p)
                elapsed = perf_counter() - start
                if len(passes) >= MIN_PASSES and elapsed + p.runs[-1].t1 - p.runs[0].t0 > seconds:
                    break
        for p in passes:
            for r in p.runs:
                r.seconds = self.speed.reference(r.t0, r.t1)
        return passes


# ---------------------------------------------------------------------------
# checks


def check_reports(runner: Runner, passes: list[Pass], seed: int):
    """(attempted, failed, messages, indices of failed operations). An execution
    fails on a wrong or unstable exit code or report, an exception, or a failed
    report check."""
    from checks import check_certificate, check_sim_report, expand

    wl = runner.wl
    golden = {}
    if seed == GOLDEN_SEED and GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text())["sha256"].get(wl.name, {})
    bad_ops: dict[int, list[str]] = {}
    for i, (rc, out, err) in runner.first_out.items():
        op = wl.ops[i]
        spec = wl.spec(op.spec)
        try:
            if rc is None:
                errors = [f"raised {err}"]
            elif op.verb == "certify":
                errors = check_certificate(spec.doc, spec.expect, out, rc)
            else:
                errors = check_sim_report(runner.argvs[i], expand(spec.doc)[0], out, rc)
                want = golden.get(op.name)
                if want is not None and hashlib.sha256(out.encode()).hexdigest() != want:
                    errors.append("report bytes differ from the recorded golden digest")
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            errors = [f"report has an unexpected shape: {exc!r}"]
        if errors:
            bad_ops[i] = errors
    first_digest = {i: hashlib.sha256(out.encode()).hexdigest()
                    for i, (_, out, _) in runner.first_out.items()}
    attempted = failed = 0
    unstable: set[str] = set()
    for p in passes:
        for r in p.runs:
            attempted += 1
            same = r.digest == first_digest[r.op] and r.rc == runner.first_out[r.op][0]
            if not same:
                unstable.add(wl.ops[r.op].name)
            if r.op in bad_ops or not same:
                failed += 1
    messages = [f"{wl.ops[i].name}: {'; '.join(e)}" for i, e in bad_ops.items()]
    messages += [f"{name}: report bytes differ between repeats (traced or not)"
                 for name in sorted(unstable)]
    return attempted, failed, messages, set(bad_ops)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(runner: Runner, passes: list[Pass], setup: list[float],
               bad_ops: set[int]) -> dict[str, float]:
    from checks import trial_steps

    ops = runner.wl.ops
    steps = {i: trial_steps(runner.argvs[i], json.loads(out))
             for i, (rc, out, _) in runner.first_out.items()
             if ops[i].is_sim and i not in bad_ops}
    latencies = [r.seconds for p in passes for r in p.runs if ops[r.op].verb == "certify"]
    throughput = []
    for p in passes:
        sim = [r for r in p.runs if r.op in steps]
        if sim:
            throughput.append(sum(steps[r.op] for r in sim) / sum(r.seconds for r in sim))
    return {
        "setup_s": median(setup),
        "wall_s": median(p.seconds for p in passes),
        "certify_latency_s.p50": median(latencies),
        "certify_latency_s.p90": statistics.quantiles(latencies, n=10)[8],
        "trial_steps_per_s": median(throughput),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(span_file: Path, passes: list[Pass], attempted: int, failed: int) -> dict:
    """Per-layer metrics from the span file: totals per traced pass, median over
    traced passes. Span times exclude the host-speed samples taken inside them."""
    from tracing import self_times

    doc = json.loads(span_file.read_text())
    speed = HostSpeed()
    speed.samples = [tuple(s) for s in doc["samples"]]
    ops = {int(k): v for k, v in doc["ops"].items()}
    spans = [[name, start, start + speed.reference(start, end), parent, oid, n]
             for name, start, end, parent, oid, n in doc["spans"]]
    acc_by_pass: dict[int, dict[str, float]] = {}
    for (name, start, end, _, oid, n), self_t in zip(spans, self_times(spans)):
        acc = acc_by_pass.setdefault(ops[oid]["pass"], dict.fromkeys(PER_LAYER, 0.0))
        if name in SPAN_TOTALS:
            acc[SPAN_TOTALS[name]] += end - start
        if name in SPAN_SELF:
            acc[SPAN_SELF[name]] += self_t
        if name in SPAN_COUNTS:
            acc[SPAN_COUNTS[name]] += n
    decisions: dict[int, list[int]] = {}
    for op in ops.values():
        acc = acc_by_pass[op["pass"]]
        factor = speed.factor(*op["span"])
        policy_s = op.get("policy_s", 0.0) * factor
        rng_s = speed.reference(*op["rng"]) if op["rng"] else 0.0
        acc["simulate.policy_s"] += policy_s
        acc["simulate.rng_s"] += rng_s
        acc["simulate.engine_self_s"] -= policy_s + rng_s
        acc["simulate.policy_calls"] += op.get("policy_calls", 0)
        acc["simulate.policy_rows"] += op.get("policy_rows", 0)
        acc["simulate.trial_steps"] += op["trial_steps"]
        d = decisions.setdefault(op["pass"], [0, 0])
        d[0] += op.get("decisions", 0)
        d[1] += op.get("distinct", 0)
    for k, (n_decisions, n_distinct) in decisions.items():
        acc_by_pass[k]["simulate.actions_per_step"] = (n_distinct / n_decisions
                                                       if n_decisions else 0.0)
    metrics = {name: median(acc[name] for acc in acc_by_pass.values()) for name in PER_LAYER}
    metrics["ops_failed"] = failed / attempted
    metrics["trace.overhead_s"] = (median(p.seconds for p in passes if p.traced)
                                   - median(p.seconds for p in passes if not p.traced))
    return metrics


# ---------------------------------------------------------------------------
# entry points


def setup(name: str, seed: int, work: Path) -> Runner:
    """Imports, spec generation and one untimed warm-up operation."""
    import_program()
    import workloads

    wl = workloads.build(name, seed)
    paths = wl.write_specs(work / "specs")
    runner = Runner(wl, paths)
    runner.call(Runner.bind(wl.warmup, paths))
    return runner


def measure_setup(args) -> list[float]:
    """Set-up times of SETUP_SAMPLES fresh processes, each measured by itself."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", repr(time.time())]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=170)
        if proc.returncode != 0:
            sys.exit(f"error: set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout))
    return samples


def setup_only(args) -> int:
    """Set up, then print the reference seconds since the parent spawned this process.

    The host speed is sampled here, on whichever core this process ran."""
    speed = HostSpeed()
    work = OUT / f"work-{os.getpid()}"
    t0 = perf_counter()
    with speed.sampling():
        try:
            setup(args.workload, args.seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    wall = time.time() - args.setup_only
    t1 = perf_counter()
    print((wall - speed.inside(t0, t1)) * speed.factor(t0, t1))
    return 0


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__}


def run_workload(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    load_before = os.getloadavg()
    work = OUT / f"work-{os.getpid()}"
    try:
        runner = setup(args.workload, args.seed, work)
        # Sampled after this process's own set-up, so compiled bytecode and
        # the page cache are as warm for every sample as they are for it.
        setup_samples = [] if args.trace else measure_setup(args)
        if args.trace:
            from tracing import Tracer

            runner.tracer = Tracer()
        passes = runner.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, messages, bad_ops = check_reports(runner, passes, args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        for k, p in enumerate(passes):
            for r in p.runs:
                if r.oid in runner.op_info:
                    runner.op_info[r.oid].update({"pass": k, "span": [r.t0, r.t1]})
        span_file = OUT / f"spans-{tag}.json"
        runner.tracer.write(span_file, {"workload": args.workload, "seed": args.seed,
                                        "ops": runner.op_info,
                                        "samples": runner.speed.samples})
        metrics, units = per_layer(span_file, passes, attempted, failed), PER_LAYER
    else:
        metrics, units = end_to_end(runner, passes, setup_samples, bad_ops), END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(), "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "setup_samples_s": setup_samples, "passes": len(passes),
        "pass_s": [p.seconds for p in passes],
        "pass_raw_s": [sum(r.t1 - r.t0 for r in p.runs) for p in passes],
        "host_sample_median_s": runner.speed.median_sample_s(),
        "failures": messages, "metrics": metrics,
        "raw": {"samples": runner.speed.samples,
                "executions": [[p.traced, r.op, r.t0, r.t1] for p in passes for r in p.runs]},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{tag}-trace{args.trace}.json").write_text(json.dumps(record))
    for msg in messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"ops={attempted} failed={failed} machine={record['machine']} "
          f"load={load_before[0]:.2f}->{record['loadavg_after'][0]:.2f}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not messages, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table and one summary line."""
    from workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        summary[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return 0


def record_golden() -> int:
    """Write sha256 digests of every simulation report at the golden seed."""
    from workloads import WORKLOADS

    digests = {}
    work = OUT / f"work-{os.getpid()}"
    try:
        for name in WORKLOADS:
            runner = setup(name, GOLDEN_SEED, work / name)
            digests[name] = {}
            for op, argv in zip(runner.wl.ops, runner.argvs):
                if op.is_sim:
                    rc, out, err = runner.call(argv)
                    if rc != 0:
                        sys.exit(f"error: {op.name} exited {rc}: {err}")
                    digests[name][op.name] = hashlib.sha256(out.encode()).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps({"seed": GOLDEN_SEED, "sha256": digests}, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=float, metavar="SPAWN_TIME", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current program")
    args = parser.parse_args(argv)
    if args.record_golden:
        return record_golden()
    if args.setup_only is not None:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
