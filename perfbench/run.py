"""Benchmark of the effectprob CLI pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Run from the repository root. One process, one thread, one caller in a
closed loop: the workload's command sequence is driven through
``effectprob.cli.main(argv)`` again and again until ``--seconds`` have
passed, after one untimed warm-up pass whose outputs every later pass
must reproduce byte for byte. Every command's outputs are checked
(checks.py). Untraced passes are timed on a clock that runs at the
host's reference speed (refclock.py). ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics derived from spans (spans.py). The
last stdout line is one JSON object; a fuller result file goes to
``.perfbench/results/``. ``--smoke`` runs
every workload and every check once at a tiny scale.
"""

from __future__ import annotations

import os

# Hold numpy's thread pools to one thread; must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import refclock
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 9

# Import time on the reference clock, in a fresh interpreter.
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import refclock
sampler = refclock.Sampler()
with sampler.sampling():
    start = time.perf_counter_ns()
    import effectprob
    end = time.perf_counter_ns()
print(sampler.clock().reference_s(start, end), effectprob.__file__)
"""

# Per-layer time metrics and the spans they sum. A span nested inside
# another timed span of the same layer counts only there (the grid-point
# probability queries inside ccdf count in summary.ccdf_s, not in
# summary.prob_s).
TIMED = {
    "regress.fit_s": ("regress.fit",),
    "regress.simulate_s": ("regress.simulate_experiment",),
    "io.read_draws_s": ("io.read_draws",),
    "io.write_draws_s": ("io.write_draws",),
    "io.read_dataset_s": ("io.read_dataset",),
    "io.write_dataset_s": ("io.write_dataset",),
    "draws.validate_s": ("draws.validate",),
    "summary.summarize_s": ("summary.summarize",),
    "summary.ccdf_s": ("summary.ccdf",),
    "summary.kde_s": ("summary.kde",),
    "summary.prob_s": ("summary.prob_exceeds", "summary.prob_below", "summary.prob_between"),
    "diagnostics.split_rhat_s": ("diagnostics.split_rhat",),
    "diagnostics.ess_s": ("diagnostics.ess",),
    "render.render_ccdf_s": ("render.render_ccdf",),
    "render.render_density_s": ("render.render_density",),
}
CLI_COMMANDS = ("fit", "simulate", "ccdf", "density", "diagnose")
END_TO_END_UNITS = {"pipeline_ref_s": "s", "summarize_cmd_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    **{m: "s" for m in TIMED},
    "regress.kernel_us_per_iter": "us",
    "regress.slice_evals_per_iter": "count",
    "regress.stepouts_per_iter": "count",
    "io.read_draws_ns_per_cell": "ns",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "render.svg_bytes": "bytes",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
    "cli.pipeline_wall_s": "s",
    **{f"cli.{kind}_cmd_ref_s": "s" for kind in CLI_COMMANDS},
}


def _import_effectprob():
    if not (SRC / "effectprob" / "__init__.py").is_file():
        raise SystemExit(f"error: no effectprob sources under {SRC.relative_to(ROOT)}/")
    sys.path.insert(0, str(SRC))
    import effectprob.cli

    if Path(effectprob.__file__).resolve().parent != SRC / "effectprob":
        raise SystemExit(f"error: imported effectprob from {effectprob.__file__}")
    return effectprob


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((SRC / "effectprob").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
    }


def _git_sha() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One workload in one process: set-up, passes, checks, metrics."""

    def __init__(self, workload: str, seed: int, scale: workloads.Scale, work: Path) -> None:
        self.name = workload
        self.run_id = f"{workload}-seed{seed}-pid{os.getpid()}"
        self.scale = scale
        self.seeds = workloads.seeds(seed)
        self.work = work
        self.setup_dir = work / "setup"
        self.checker = checks.Checker()
        self.attempted = 0
        self.failures: list[str] = []
        self.passes = 0

    def set_up(self) -> float:
        """Median import time plus median input-generation time, in reference s."""
        imports = []
        for _ in range(SETUP_REPEATS):
            out = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
            ).stdout.split()
            if Path(out[1]).resolve().parent != SRC / "effectprob":
                raise SystemExit(f"error: probe imported effectprob from {out[1]}")
            imports.append(float(out[0]))
        generation = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.setup_dir, ignore_errors=True)
            self.setup_dir.mkdir(parents=True)
            sampler = refclock.Sampler()
            with sampler.sampling():
                start = time.perf_counter_ns()
                workloads.prepare(self.name, self.scale, self.seeds, self.setup_dir)
                end = time.perf_counter_ns()
            generation.append(sampler.clock().reference_s(start, end))
        return statistics.median(imports) + statistics.median(generation)

    def one_pass(self, main, tracer: spans.Tracer | None = None) -> dict[str, float]:
        """Run the command sequence once.

        Returns seconds per command kind and for the whole sequence
        (``pipeline``): on the reference clock for an untraced pass, in
        wall time for a traced one. ``pipeline_wall`` is wall time either
        way, and ``slowdown`` the host's median slow-down (1 when traced).
        """
        outdir = self.work / f"pass{self.passes:04d}"
        self.passes += 1
        outdir.mkdir(parents=True)
        commands = workloads.WORKLOADS[self.name](self.scale, self.seeds, self.setup_dir, outdir)
        results = []
        sampler = None if tracer else refclock.Sampler()
        with tracer.installed() if tracer else sampler.sampling():
            for cmd in commands:
                out, err = io.StringIO(), io.StringIO()
                # Each command starts from a collected heap, as it would in
                # a fresh process, and pays for no earlier command's garbage.
                gc.collect()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    start = time.perf_counter_ns()
                    if tracer:
                        tracer.begin_command(cmd.kind, start)
                    try:
                        code = main(cmd.argv)
                    except Exception:  # noqa: BLE001 - a crash is a failed operation
                        code = "raised:\n" + traceback.format_exc()
                    end = time.perf_counter_ns()
                    if tracer:
                        tracer.end_command(end)
                results.append((cmd, code, out.getvalue(), err.getvalue(), start, end))

        clock = sampler.clock() if sampler else None
        times = {"pipeline": 0.0, "pipeline_wall": 0.0}
        for index, (cmd, code, stdout, stderr, start, end) in enumerate(results):
            wall = clock.wall_s(start, end) if clock else (end - start) / 1e9
            seconds = clock.reference_s(start, end) if clock else wall
            times[cmd.kind] = times.get(cmd.kind, 0.0) + seconds
            times["pipeline"] += seconds
            times["pipeline_wall"] += wall
            self.attempted += 1
            if code != cmd.expected_exit:
                self.failures.append(f"{' '.join(cmd.argv)}: exit {code}; stderr {stderr[-500:]!r}")
            for check, ok, detail in self.checker.check(index, cmd, code, stdout, stderr, str(outdir)):
                self.attempted += 1
                if not ok:
                    self.failures.append(f"{cmd.argv[0]} {check}: {detail}")
        times["slowdown"] = clock.median_slowdown() if clock else 1.0
        shutil.rmtree(outdir)
        return times

    def check_trace(self, breakdown: list[dict]) -> None:
        for command in breakdown:
            self.attempted += 1
            if not command["adds_up"]:
                self.failures.append(f"{command['command']}: layer self times do not add up")


def layer_metrics(recorded: list[spans.Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    by_id = {s.id: s for s in recorded}
    name_metric = {n: m for m, names in TIMED.items() for n in names}

    def counted(s: spans.Span) -> bool:
        parent = s.parent
        while parent is not None:
            p = by_id[parent]
            if p.layer == s.layer and p.name in name_metric:
                return False
            parent = p.parent
        return True

    metrics = {m: 0.0 for m in TIMED}
    for s in recorded:
        if s.name in name_metric and counted(s):
            metrics[name_metric[s.name]] += s.duration_ns / 1e9

    def total(key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in recorded)

    own = spans.self_times(recorded)
    fit_iterations = total("chain_iterations")
    fit_self_ns = sum(own[s.id] for s in recorded if s.name == "regress.fit")
    cells = total("cells")
    per_iter = (lambda x: x / fit_iterations) if fit_iterations else (lambda x: 0.0)
    metrics.update({
        "regress.kernel_us_per_iter": per_iter(fit_self_ns / 1e3),
        "regress.slice_evals_per_iter": per_iter(total("slice_evals")),
        "regress.stepouts_per_iter": per_iter(total("stepouts")),
        "io.read_draws_ns_per_cell": metrics["io.read_draws_s"] * 1e9 / cells if cells else 0.0,
        "io.bytes_read": total("bytes_read"),
        "io.bytes_written": total("bytes_written"),
        "render.svg_bytes": total("svg_bytes"),
        "cli.other_s": sum(own[s.id] for s in recorded if s.parent is None) / 1e9,
    })
    return metrics


def _median_of(passes: list[dict], key: str) -> dict:
    return _quartiles([p.get(key, 0.0) for p in passes])


def measure(run: Run, main, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Timed closed loop. Returns (metric summaries, detail for the result file)."""
    run.one_pass(main)  # warm-up; its outputs are the byte-identity reference
    plain, traced_passes, breakdowns, spans_out = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if traced and len(plain) > len(traced_passes):
            tracer = spans.Tracer()
            walls = run.one_pass(main, tracer)
            breakdown = spans.command_breakdown(tracer.spans)
            run.check_trace(breakdown)
            traced_passes.append((walls, layer_metrics(tracer.spans)))
            breakdowns.append(breakdown)
            spans_out.append(tracer.spans)
        else:
            plain.append(run.one_pass(main))
        if time.perf_counter() >= deadline and (not traced or len(traced_passes) == len(plain)):
            break

    kinds = sorted({k for p in plain for k in p} - {"pipeline_wall", "slowdown"})
    detail = {
        "commands_ref_s": {k: _median_of(plain, k) for k in kinds},
        "pipeline_ref_s_per_pass": [p["pipeline"] for p in plain],
        "pipeline_wall_s_per_pass": [p["pipeline_wall"] for p in plain],
        "host_slowdown_per_pass": [p["slowdown"] for p in plain],
    }
    if not traced:
        summaries = {
            "pipeline_ref_s": _median_of(plain, "pipeline"),
            "summarize_cmd_ref_s": _median_of(plain, "summarize"),
            "peak_rss_mb": {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "n": 1},
        }
        return summaries, detail

    layer_passes = [m for _, m in traced_passes]
    summaries = {m: _median_of(layer_passes, m) for m in layer_passes[0]}
    overhead = (statistics.median(w["pipeline_wall"] for w, _ in traced_passes)
                - statistics.median(p["pipeline_wall"] for p in plain))
    summaries["trace.overhead_s"] = {"median": overhead, "n": len(traced_passes)}
    summaries["cli.pipeline_wall_s"] = _median_of(plain, "pipeline_wall")
    for kind in CLI_COMMANDS:
        summaries[f"cli.{kind}_cmd_ref_s"] = _median_of(plain, kind)
    detail["layer_self_s"] = _layer_self_medians(breakdowns)
    detail["spans"] = [
        {"workload": run.name, "run": run.run_id, "pass": i, "command": s.command,
         "id": s.id, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
         "parent": s.parent, **s.attrs}
        for i, recorded in enumerate(spans_out) for s in recorded
    ]
    return summaries, detail


def _layer_self_medians(breakdowns: list[list[dict]]) -> list[dict]:
    """Per command position: median wall, cli.other and layer self times, in s."""
    out = []
    for position in range(len(breakdowns[0])):
        rows = [b[position] for b in breakdowns]
        layers = sorted({layer for r in rows for layer in r["layer_self_ns"]})
        out.append({
            "command": rows[0]["command"],
            "wall_s": statistics.median(r["wall_ns"] for r in rows) / 1e9,
            "cli.other_s": statistics.median(r["other_ns"] for r in rows) / 1e9,
            **{f"{layer}_self_s": statistics.median(r["layer_self_ns"].get(layer, 0) for r in rows) / 1e9
               for layer in layers},
        })
    return out


def _write_result(stem: str, payload: dict) -> Path:
    path = STATE / "results" / f"{stem}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def run_workload(args, main) -> int:
    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, workloads.FULL, work)
        setup_s = run.set_up()
        summaries, detail = measure(run, main, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        summaries["setup_s"] = {"median": setup_s, "n": SETUP_REPEATS}

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = len(run.failures)
    for name, s in summaries.items():
        spread = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}" if "q1" in s else ""
        print(f"{name:32s} {s['median']:.6g} {units[name]}{spread}  n={s['n']}")
    print(f"failed_ratio {failed}/{run.attempted} = {failed / run.attempted:.6g}")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    path = _write_result(stem, {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(),
        "metrics": {m: {**s, "unit": units[m]} for m, s in summaries.items()},
        "attempted": run.attempted, "failed": failed,
        "failed_ratio": failed / run.attempted, "failures": run.failures,
        "reference_sha256": run.checker.reference, **detail,
    })
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m: {"value": s["median"], "unit": units[m]} for m, s in summaries.items()},
    }))
    return 0


def _declared_metrics() -> list[str]:
    """Differences between the metrics BENCHMARK.json declares and those run.py reports."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} {sorted(listed.items() ^ units.items())}")
    return problems


def smoke(args, main) -> int:
    """Every workload and every check once, at a tiny scale."""
    problems = _declared_metrics()
    for problem in problems:
        print(f"FAILED {problem} differs from run.py")
    total_failed = len(problems)
    for name in workloads.WORKLOADS:
        work = STATE / "work" / f"smoke-{name}-{os.getpid()}"
        try:
            run = Run(name, args.seed, workloads.SMOKE, work)
            shutil.rmtree(run.setup_dir, ignore_errors=True)
            run.setup_dir.mkdir(parents=True)
            workloads.prepare(name, run.scale, run.seeds, run.setup_dir)
            start = time.perf_counter()
            run.one_pass(main)
            run.one_pass(main)
            tracer = spans.Tracer()
            run.one_pass(main, tracer)
            run.check_trace(spans.command_breakdown(tracer.spans))
            metrics = layer_metrics(tracer.spans)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        total_failed += len(run.failures)
        print(f"{name:12s} {time.perf_counter() - start:6.2f} s  "
              f"{len(run.failures)}/{run.attempted} failed  {len(metrics)} layer metrics")
        for failure in run.failures:
            print(f"FAILED {failure}")
    return 1 if total_failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-scale check of every workload")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    effectprob = _import_effectprob()
    cli_main = effectprob.cli.main
    return smoke(args, cli_main) if args.smoke else run_workload(args, cli_main)


if __name__ == "__main__":
    sys.exit(main())
