"""motionkit benchmark: seeded inputs, every CLI command run in-process, checked outputs.

    python3 perfbench/run.py --workload corpus-label --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the run sets the inputs up several times (each in a fresh
process, timed), then a fresh process runs the workload's command chain at
``--jobs 1`` and ``--jobs nproc`` in rounds for ``--seconds`` and reports the
end-to-end metrics. With ``--trace 1`` a fresh process alternates untraced and
traced ``--jobs 1`` invocations and reports the per-layer metrics. Either way
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it print
every metric with its unit, the environment and the sha256 of each output.
The exit code is 1 when any invocation fails or any output check fails.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("corpus-label", "scene-dense", "eval-6mode")
SETUP_REPEATS = 5
DEADLINE_S = 170.0

# End-to-end metrics reported with --trace 0: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("pipeline_j1_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-command throughput names printed for each workload (the end-to-end view
# of one command), with their units.
THROUGHPUT_UNITS = {
    "synth_sps": "scen/s",
    "extract_sps_j1": "scen/s",
    "extract_sps_jN": "scen/s",
    "feasibility_sps_j1": "scen/s",
    "feasibility_sps_jN": "scen/s",
    "gen_instructions_sps_j1": "scen/s",
    "gen_instructions_sps_jN": "scen/s",
    "evaluate_rows_per_s_j1": "rows/s",
    "evaluate_rows_per_s_jN": "rows/s",
    "stats_rows_per_s": "rows/s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
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
    return "unknown"


def _loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    """Seed and machine stamp of one run; numpy's version comes from the measuring process."""
    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "loadavg_before": _loadavg(),
    }


def _child(mode: str, args, inputs: Path, deadline: float, **extra) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(HERE / "child.py"), mode]
    argv += ["--workload", args.workload, "--seed", str(args.seed), "--inputs", str(inputs)]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S

    if not (ROOT / "src" / "motionkit" / "cli.py").is_file():
        return _fail(f"no motionkit source under {ROOT / 'src'}; run from a checkout of the repository")

    env = environment(args.seed)
    # Relative to the checkout (the children run there), so that reports which
    # echo their input paths have the same bytes in every checkout and mode.
    run_dir = (WORK / f"{args.workload}-seed{args.seed}").relative_to(ROOT)
    inputs = run_dir / "inputs"
    shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            t0 = time.perf_counter()
            proc = _child("setup", args, inputs, deadline)
            setup_times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                return _fail(f"input set-up failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        result_file = run_dir / "result.json"
        results = (WORK / "results").relative_to(ROOT)
        (ROOT / results).mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        extra = {"spans": results / f"{stem}-spans.jsonl.gz"} if args.trace else {}
        mode = "traced" if args.trace else "timed"
        proc = _child(
            mode, args, inputs, deadline,
            out=run_dir / "out", seconds=args.seconds, nproc=nproc(), result=result_file, **extra,
        )
        if proc.returncode != 0 or not (ROOT / result_file).is_file():
            return _fail(f"{mode} run failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        result = json.loads((ROOT / result_file).read_text())
    except subprocess.TimeoutExpired:
        return _fail(f"run exceeded {DEADLINE_S:.0f} s")
    finally:
        shutil.rmtree(ROOT / run_dir, ignore_errors=True)

    env["numpy"] = result["numpy"]
    env["loadavg_after"] = _loadavg()
    if args.trace:
        from tracing import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": result["metrics"][name], "unit": units[name]} for name in units}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": result["pipeline_s"],
            "pipeline_j1_s": result["pipeline_j1_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    report(args, env, result, metrics, setup_times)
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        **summary,
        "rounds": result["rounds"],
        "throughput": result.get("throughput", {}),
        "samples": result.get("samples", {}),
        "setup_s_samples": setup_times,
        "sha256": result["sha256"],
        "errors": result["errors"],
        "missing_targets": result.get("missing_targets", []),
        **{k: str(v) for k, v in extra.items()},
    }
    (ROOT / results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def report(args, env: dict, result: dict, metrics: dict, setup_times: list[float]) -> None:
    """Human-readable lines: environment, every metric with its unit, checks, output hashes."""
    print(f"motionkit benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={result['rounds']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    load = max(env["loadavg_before"][:1] + env["loadavg_after"][:1], default=0.0)
    if load > env["nproc"]:
        print(f"WARNING: load average {load:.2f} exceeds nproc={env['nproc']}; timings are suspect")
    for name, m in metrics.items():
        print(f"  {name:<50} {m['value']:>14.6g} {m['unit']}")
    for name, value in result.get("throughput", {}).items():
        print(f"  {name:<50} {value:>14.6g} {THROUGHPUT_UNITS.get(name, '')}")
    if args.trace == 0:
        print(f"  {'setup_s samples':<50} " + " ".join(f"{t:.4f}" for t in setup_times))
    attempted, failed = result["attempted"], result["failed"]
    error_frac = failed / attempted if attempted else 1.0
    print(f"  {'error_frac':<50} {error_frac:>14.6g} ({failed} failed / {attempted} attempted)")
    for error in result["errors"][:20]:
        print(f"  FAILED: {error}")
    for missing in result.get("missing_targets", []):
        print(f"  not traced (absent): {missing}")
    for command, digests in sorted(result["sha256"].items()):
        print(f"  sha256 {command:<18} {' '.join(digests)}")


if __name__ == "__main__":
    sys.exit(main())
