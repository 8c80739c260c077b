"""Benchmark of the multistrain simulator and optimal-mitigation solver.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

One closed-loop client in one process: it sends the next op only when the
previous one has returned, checks every output, and prints a manifest line
and then, as the last line, a JSON result.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` wraps the program's layer entry points and
reports per-layer metrics.  See perfbench/README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS_AT_START = 5
SETUP_PROBE_PERIOD_S = 1.0
HOST_REF_ITERS = 16000
HOST_SAMPLE_ITERS = 2000
HOST_SAMPLE_PERIOD_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "op_ref_ratio_p50": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "integrate.simulate_ms": "ms",
    "integrate.simulate_calls": "count",
    "integrate.ns_per_strain_step": "ns",
    "integrate.self_share": "ratio",
    "control.backward_sweep_ms": "ms",
    "control.backward_sweep_calls": "count",
    "control.ns_per_strain_step_adjoint": "ns",
    "control.fbsm_self_ms": "ms",
    "control.fbsm_iterations": "count",
    "control.passes_per_iteration": "ratio",
    "runner.self_ms": "ms",
    "runner.trajectory_csv_ms": "ms",
    "runner.trajectory_csv_bytes": "bytes",
    "runner.summary_csv_ms": "ms",
    "svgchart.line_chart_ms": "ms",
    "svgchart.bytes": "bytes",
    "analysis.summarize_ms": "ms",
    "config.parse_ms": "ms",
    "trace.op_ms": "ms",
    "trace_overhead_ratio": "ratio",
    "host_ref_ms": "ms",
}
# Reported in the manifest only, without a regression bound: raw seconds
# follow the host's drift (op_ref_ratio_p50 is their gated form), and the
# others can be 0 or exist on some workloads only.
MANIFEST_ONLY = {
    "op_s_p50": "s",
    "op_s_p90": "s",
    "failed_ops_ratio": "ratio",
    "ref_max_rel_err": "ratio",
    "fbsm_true_residual": "u",
}


def host_ref_s(iters: int = HOST_REF_ITERS) -> float:
    """A fixed pure-Python float loop, timed; tracks how fast the host is now.

    The result is scaled to ``HOST_REF_ITERS`` iterations whatever ``iters`` is.
    """
    xs = [0.5 + 1e-3 * j for j in range(8)]
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(iters):
        ys = [x * 0.999 + 1e-3 * x * x for x in xs]
        acc += sum(ys) - ys[0] * ys[-1]
        xs = [y - 1e-4 * acc * 1e-6 for y in ys]
    return (time.perf_counter() - t0) * HOST_REF_ITERS / iters


class HostSampler:
    """Times a short host loop every ``HOST_SAMPLE_PERIOD_S`` while an op runs.

    Host speed drifts within a long op, so loops before and after it are not
    enough.  The loop runs in a SIGALRM handler, between the op's bytecodes;
    the handler's own time is summed in ``stolen`` and taken off the op.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(host_ref_s(HOST_SAMPLE_ITERS))
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, HOST_SAMPLE_PERIOD_S, HOST_SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def quartiles(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "p50": med, "q3": q3}


class SetupClock:
    """Times the program's set-up: a fresh import of every program module plus
    parsing and building the run's cases.

    The first import compiles bytecode and is not timed.  Host speed changes
    from one second to the next, so besides the reps at start one more rep
    runs between ops, at most once per ``SETUP_PROBE_PERIOD_S``, and the
    median covers the whole run.  Those later reps drop their modules again,
    so the running ops keep the ones they started with.
    """

    def __init__(self, workload, texts: list[str]):
        self.workload = workload
        self.texts = texts
        self.seconds: list[float] = []
        self.parse_s: list[float] = []
        self._last = 0.0

    def _rep(self):
        from workloads import build_case, import_program

        t0 = time.perf_counter()
        prog = import_program()
        cases = [build_case(prog, text, self.workload) for text in self.texts]
        self.seconds.append(time.perf_counter() - t0)
        self.parse_s.append(sum(c.parse_s for c in cases) / len(cases))
        self._last = time.perf_counter()
        return prog, cases

    def start(self):
        """Return the program modules and cases the ops will use."""
        from workloads import import_program

        import_program()
        for _ in range(SETUP_REPS_AT_START):
            prog, cases = self._rep()
        return prog, cases

    def between_ops(self) -> bool:
        """Run one more timed rep when it is due; return whether one ran."""
        from workloads import program_modules

        if time.perf_counter() - self._last < SETUP_PROBE_PERIOD_S:
            return False
        saved = program_modules()
        try:
            self._rep()
        finally:
            for name in program_modules():
                del sys.modules[name]
            sys.modules.update(saved)
            gc.collect()  # the dropped modules are cycles; free them before the next op
        return True


def measure(
    prog, workload, cases, seconds: float, out_dir: str, recorder=None, between=None
) -> list[dict]:
    """Run ops until ``seconds`` have passed and every case ran once.

    Each op's time is divided by the host loop's mean over the loops before
    and after it and, when untraced, the samples taken while it ran.  A
    raised exception or a failed check marks the op failed; neither stops
    the run.  ``between`` is called after each op, outside its timing.
    """
    records = []
    deadline = time.perf_counter() + seconds
    ref_before = host_ref_s()
    i = 0
    while i < len(cases) or time.perf_counter() < deadline:
        case = cases[i % len(cases)]
        rec = {"case": i % len(cases), "errors": []}
        span = recorder.open("op") if recorder is not None else None
        sampler = HostSampler()
        t0 = time.perf_counter()
        try:
            if recorder is None:
                with sampler:
                    result = workload.op(prog, case, out_dir)
            else:
                result = workload.op(prog, case, out_dir)
        except Exception as exc:  # a failing op is counted, not fatal
            result = None
            rec["errors"].append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0 - sampler.stolen
        if span is not None:
            recorder.close(span)
        ref_after = host_ref_s()
        rec["host_ref_s"] = ref_after
        host = [ref_before, ref_after, *sampler.samples]
        if result is not None:
            rec["seconds"] = elapsed
            rec["ratio"] = elapsed / (sum(host) / len(host))
            try:
                rec["outcome"] = workload.check(prog, case, result, out_dir)
                rec["errors"] += rec["outcome"].errors
            except Exception as exc:  # a check that cannot run fails the op
                rec["errors"].append(f"check raised {type(exc).__name__}: {exc}")
        result = None
        records.append(rec)
        i += 1
        ref_before = host_ref_s() if between is not None and between() else ref_after
    return records


def compare_with_reference(prog, workload, cases, records) -> float | None:
    """Check each op's terminal state against the DOP853 reference of its case."""
    from oracles import max_rel_err, reference_terminal
    from workloads import REF_TOLERANCE

    refs = {}
    worst = None
    for rec in records:
        outcome = rec.get("outcome")
        if outcome is None or outcome.terminal is None:
            continue
        cfg = cases[rec["case"]].config
        if rec["case"] not in refs:
            refs[rec["case"]] = reference_terminal(prog["dynamics"], cfg, cfg.control_value)
        err = max_rel_err(outcome.terminal, refs[rec["case"]], cfg.population)
        worst = err if worst is None else max(worst, err)
        if not err <= REF_TOLERANCE:
            rec["errors"].append(f"terminal state off the reference by {err:.3e} of P(0)")
    return worst


def layer_metrics(cases, records, spans, parse_s, span_cost) -> dict:
    """Per-layer metrics of a traced run; times are self times per op."""
    from tracing import totals_by_name

    tot = totals_by_name(spans)
    n_ops = max(len(records), 1)
    op_total = sum(s.duration for s in spans if s.name == "op")

    def entry(name):
        return tot.get(name, {"calls": 0, "self_s": 0.0, "work": 0.0})

    def per_op_ms(name):
        return entry(name)["self_s"] * 1e3 / n_ops

    def ns_per_step(name):
        e = entry(name)
        return e["self_s"] * 1e9 / e["work"] if e["work"] else 0.0

    outcomes = [r["outcome"] for r in records if "outcome" in r]
    first_pass = [r["outcome"].iterations for r in records[: len(cases)] if "outcome" in r]
    iterations = sum(o.iterations for o in outcomes)
    fbsm_ids = {k for k, s in enumerate(spans) if s.name == "control.fbsm_solve"}
    fbsm_passes = sum(
        1 for s in spans if s.name == "integrate.simulate" and s.parent in fbsm_ids
    )
    refs = [r["host_ref_s"] for r in records]
    return {
        "integrate.simulate_ms": per_op_ms("integrate.simulate"),
        "integrate.simulate_calls": entry("integrate.simulate")["calls"] / n_ops,
        "integrate.ns_per_strain_step": ns_per_step("integrate.simulate"),
        "integrate.self_share": (
            entry("integrate.simulate")["self_s"] / op_total if op_total else 0.0
        ),
        "control.backward_sweep_ms": per_op_ms("control.backward_sweep"),
        "control.backward_sweep_calls": entry("control.backward_sweep")["calls"] / n_ops,
        "control.ns_per_strain_step_adjoint": ns_per_step("control.backward_sweep"),
        "control.fbsm_self_ms": per_op_ms("control.fbsm_solve"),
        "control.fbsm_iterations": sum(first_pass) / len(first_pass) if first_pass else 0.0,
        "control.passes_per_iteration": iterations / fbsm_passes if fbsm_passes else 0.0,
        "runner.self_ms": per_op_ms("op"),
        "runner.trajectory_csv_ms": per_op_ms("runner.write_trajectory_csv"),
        "runner.trajectory_csv_bytes": sum(o.csv_bytes for o in outcomes) / n_ops,
        "runner.summary_csv_ms": per_op_ms("runner.write_summary_csv"),
        "svgchart.line_chart_ms": per_op_ms("svgchart.line_chart"),
        "svgchart.bytes": sum(o.svg_bytes for o in outcomes) / n_ops,
        "analysis.summarize_ms": per_op_ms("analysis.summarize"),
        "config.parse_ms": statistics.median(parse_s) * 1e3,
        "trace.op_ms": op_total * 1e3 / n_ops,
        "trace_overhead_ratio": (
            1.0 + (len(spans) - n_ops) * span_cost / op_total if op_total else 1.0
        ),
        "host_ref_ms": statistics.median(refs) * 1e3,
    }


def git_commit() -> str | None:
    """Commit of the checkout when it is a git work tree, read without git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def source_digest() -> str:
    """SHA-256 over the program's source files, so runs of a tree are traceable."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "multistrain")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, out_dir: str):
    """Do one run; return (manifest, result) dictionaries."""
    from tracing import Patched, Recorder, require_called, span_cost_s
    from workloads import HOOKS, WORKLOADS, draw_pool

    workload = WORKLOADS[workload_name]
    texts = draw_pool(workload, seed)
    setup = SetupClock(workload, texts)
    prog, cases = setup.start()

    recorder = None
    if trace:
        recorder = Recorder()
        with Patched(prog, HOOKS, recorder):
            records = measure(
                prog, workload, cases, seconds, out_dir, recorder, setup.between_ops
            )
        require_called(recorder.spans, list(workload.expect))
    else:
        records = measure(prog, workload, cases, seconds, out_dir, None, setup.between_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref_err = compare_with_reference(prog, workload, cases, records) if workload.oracle else None
    failed = sum(1 for r in records if r["errors"])
    op_s = [r["seconds"] for r in records if "seconds" in r]
    ratios = [r["ratio"] for r in records if "ratio" in r]
    residuals = [
        r["outcome"].residual for r in records
        if "outcome" in r and r["outcome"].residual is not None
    ]

    end_to_end = {
        "setup_s": statistics.median(setup.seconds),
        "op_ref_ratio_p50": statistics.median(ratios) if ratios else None,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "op_s_p50": statistics.median(op_s) if op_s else None,
        "failed_ops_ratio": failed / len(records),
    }
    if len(op_s) >= 100:
        extra["op_s_p90"] = statistics.quantiles(op_s, n=10)[-1]
    if ref_err is not None:
        extra["ref_max_rel_err"] = ref_err
    if residuals:
        extra["fbsm_true_residual"] = max(residuals)

    if trace:
        units = PER_LAYER
        values = layer_metrics(cases, records, recorder.spans, setup.parse_s, span_cost_s())
    else:
        units = END_TO_END
        values = end_to_end

    manifest = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        **versions(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "inputs_sha256": [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts],
        "ops": {
            "attempted": len(records),
            "failed": failed,
            "per_case": [sum(1 for r in records if r["case"] == k) for k in range(len(cases))],
            "errors": [e for r in records for e in r["errors"]][:10],
        },
        "samples": {
            "setup_s": quartiles(setup.seconds),
            "op_s": quartiles(op_s),
            "op_ref_ratio": quartiles(ratios),
            "host_ref_s": quartiles([r["host_ref_s"] for r in records]),
        },
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()},
        "manifest_only": {k: {"value": v, "unit": MANIFEST_ONLY[k]} for k, v in extra.items()},
        "op_s_p90_note": None if len(op_s) >= 100 else f"omitted: {len(op_s)} ops, needs 100",
    }
    if trace:
        manifest["spans"] = [
            [s.name, s.parent, round((s.start - recorder.spans[0].start) * 1e3, 3),
             round(s.duration * 1e3, 3)]
            for s in recorder.spans
        ]
    result = {
        "correct": failed == 0 and all(v is not None for v in values.values()),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return manifest, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "multistrain", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        manifest, result = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
