"""Worker process of the benchmark: input set-up, the timed run, or the traced run.

``run.py`` starts one of these per phase so that import time, peak RSS and
tracing each belong to a fresh process:

    python3 perfbench/child.py setup  --workload W --seed S --inputs DIR
    python3 perfbench/child.py timed  --workload W --seed S --inputs DIR --out DIR --seconds N --nproc K --result FILE
    python3 perfbench/child.py traced --workload W --seed S --inputs DIR --out DIR --seconds N --nproc K --result FILE --spans FILE

The package is imported from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import Command, chain, checker, make_inputs, sha256  # noqa: E402


class Gate:
    """Runs CLI invocations in-process and checks every output.

    An invocation fails when ``main`` does not return 0 or raises, when its
    output fails the workload's semantic check (made on the first output of
    each command and jobs setting), or when its bytes differ from the first
    output of the same command at any jobs setting or round.
    """

    def __init__(self, workload: str, inputs: Path, outdir: Path) -> None:
        self.workload, self.inputs, self.outdir = workload, inputs, outdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.sha: dict[str, list[str]] = {}
        self._checked: set[tuple[str, int]] = set()

    def run(self, cmd: Command, jobs: int, around=contextlib.nullcontext) -> float:
        """Seconds spent in ``main`` (inside the ``around()`` context) for one invocation."""
        from motionkit import cli

        argv = cmd.run_argv(self.inputs, self.outdir, jobs)
        self.attempted += 1
        errors: list[str] = []
        t0 = time.perf_counter()
        try:
            with around():
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        except Exception:  # keep measuring; the failure is counted and reported
            rc = "exception: " + traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if rc != 0:
            errors.append(f"{cmd.name} --jobs {jobs}: exit {rc}")
        else:
            errors += self.check(cmd, jobs)
        if errors:
            self.failed += 1
            self.errors += errors[:5]
        return elapsed

    def check(self, cmd: Command, jobs: int) -> list[str]:
        paths = cmd.output_paths(self.outdir, jobs)
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            return [f"{cmd.name} --jobs {jobs}: no output {missing}"]
        errors = []
        if (cmd.name, jobs) not in self._checked:
            self._checked.add((cmd.name, jobs))
            errors += checker(self.workload, cmd.name)(paths, self.inputs)
        digests = [sha256(p) for p in paths]
        first = self.sha.setdefault(cmd.name, digests)
        if digests != first:
            errors.append(f"{cmd.name} --jobs {jobs}: output bytes differ from the first {cmd.name} output")
        return errors


def _jobs(cmd: Command, nproc: int, rnd: int) -> tuple[int, ...]:
    if not cmd.sharded:
        return (1,)
    # Alternate which jobs setting runs first so neither always sees a warmer cache.
    return (1, nproc) if rnd % 2 == 0 else (nproc, 1)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed(args) -> dict:
    """Warm-up round, then rounds of the whole chain until ``--seconds`` have passed."""
    cmds = chain(args.workload, args.seed)
    gate = Gate(args.workload, args.inputs, args.out)
    samples: dict[str, list[float]] = {}
    pipeline: dict[int, list[float]] = {1: [], args.nproc: []}
    start = None
    rnd = 0
    while True:
        sums = {1: 0.0, args.nproc: 0.0}
        for cmd in cmds:
            for jobs in _jobs(cmd, args.nproc, rnd):
                elapsed = gate.run(cmd, jobs)
                key = cmd.metric if not cmd.sharded else f"{cmd.metric}_j{'1' if jobs == 1 else 'N'}"
                samples.setdefault(key, []).append(cmd.units / elapsed)
                if cmd.sharded:
                    sums[jobs] += elapsed
                else:
                    sums[1] += elapsed
                    sums[args.nproc] += elapsed
        if start is None:  # round 0 warms caches and runs the semantic checks
            start = time.perf_counter()
            samples = {}
        else:
            for jobs, total in sums.items():
                pipeline[jobs].append(total)
            if time.perf_counter() - start >= args.seconds:
                break
        rnd += 1
    return {
        "rounds": rnd,
        "throughput": {k: statistics.median(v) for k, v in samples.items()},
        "pipeline_s": statistics.median(pipeline[args.nproc]),
        "pipeline_j1_s": statistics.median(pipeline[1]),
        "samples": {"pipeline_s": pipeline[args.nproc], "pipeline_j1_s": pipeline[1], **samples},
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "errors": gate.errors,
        "sha256": dict(gate.sha),
    }


def traced(args) -> dict:
    """Untraced and traced invocations of each command at jobs 1, alternated,
    until ``--seconds`` have passed; then the per-layer metrics."""
    import tracing as tr

    cmds = chain(args.workload, args.seed)
    gate = Gate(args.workload, args.inputs, args.out)
    tracer = tr.Tracer()
    with tracer.installed():
        tracer.request = "setup"
        make_inputs(args.workload, args.seed, args.out / "setup-inputs")
        tracer.request = None
    walls: dict[str, int] = {}
    untraced: dict[str, list[float]] = {}
    shard: dict[int, float] = {1: 0.0, args.nproc: 0.0}
    start = time.perf_counter()
    rnd = 0
    while True:
        for cmd in cmds:
            for jobs in _jobs(cmd, args.nproc, rnd):
                elapsed = gate.run(cmd, jobs)
                if jobs == 1:
                    untraced.setdefault(cmd.name, []).append(elapsed)
                if cmd.sharded:
                    shard[jobs] += elapsed
            request = f"{cmd.name}#{rnd}"
            with tracer.installed():
                elapsed = gate.run(cmd, 1, lambda: tracer.root(f"cli.{cmd.name}", request))
            walls[request] = round(elapsed * 1e9)
        rnd += 1
        if time.perf_counter() - start >= args.seconds:
            break

    extra: dict = {"untraced_s": untraced, "items": {c.name: c.units * rnd for c in cmds}}
    extra["speedup_jN"] = shard[1] / shard[args.nproc] if shard[args.nproc] else 0.0
    lines = moved = items = 0
    decode_us = []
    for cmd in cmds:
        for pattern in cmd.input_files:
            text = Path(pattern.format(IN=str(args.inputs))).read_text(encoding="utf-8").splitlines()
            if cmd.name == "evaluate":
                lines += len(text) * rnd
            if cmd.sharded:
                moved += sum(len(t.encode()) for t in text)
            if pattern.endswith("corpus.jsonl") and not decode_us:
                for t in text:
                    t0 = time.perf_counter_ns()
                    json.loads(t)
                    decode_us.append((time.perf_counter_ns() - t0) / 1e3)
        if cmd.sharded:
            moved += sum(p.stat().st_size for p in cmd.output_paths(args.out, 1))
            items += cmd.units
    extra.update(lines=lines, json_decode_us=decode_us, bytes_moved_per_item=moved / items if items else 0.0)
    metrics = tr.layer_metrics(tracer.spans, walls, extra)
    with gzip.open(args.spans, "wt", encoding="utf-8") as fp:
        fp.writelines(json.dumps(rec, separators=(",", ":")) + "\n" for rec in tracer.spans)
    return {
        "rounds": rnd,
        "metrics": metrics,
        "missing_targets": tracer.missing,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "errors": gate.errors,
        "sha256": dict(gate.sha),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--nproc", type=int, default=1)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path, help="traced mode: gzipped JSON lines, one span per line")
    args = parser.parse_args(argv)

    import motionkit

    if not Path(motionkit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"motionkit imported from {motionkit.__file__}, not from this checkout", file=sys.stderr)
        return 3
    if args.mode == "setup":
        make_inputs(args.workload, args.seed, args.inputs)
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    result = timed(args) if args.mode == "timed" else traced(args)
    result["numpy"] = sys.modules["numpy"].__version__
    args.result.write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
