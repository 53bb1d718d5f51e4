"""bandflow benchmark: drive the CLI in-process on one seeded workload.

    python3 perfbench/run.py --workload chern_sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports ``src/bandflow``).  One
round is one pass over the workload's command list through
``bandflow.cli.main(argv)``, each round in a fresh output directory; rounds
repeat until ``--seconds`` of round time is measured.  Round times are
scaled to the machine's reference speed by a fixed kernel timed around every
command (see ``calibrate.py``), and set-up time is corrected by a reference
import timed next to it (see ``measure_setup``); the raw wall times go on
the info line.  Every output is checked against independent oracles outside
the timed phase, and the checkers are proven on corrupted copies of the
first round's outputs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures half
the time untraced in a child process and half traced in this one, and
reports the per-layer metrics.  The last stdout line is the JSON result;
the line before it describes the run and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from spans import COUNTERS, Tracer  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 170
# Metric names and units, in the order BENCHMARK.json declares them.
DECLARED = {kind: {m["name"]: m["unit"] for m in metrics} for kind, metrics in
            json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            .items() if kind in ("end_to_end", "per_layer")}


def _run_child(argv: list[str]) -> str:
    """Run a Python child to completion and return its stdout."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def measure_setup(args, work: Path) -> tuple[float, float, float]:
    """Set-up time with the dependency imports taken at reference speed.

    Fresh processes alternate: one imports only what bandflow's import
    rests on (``setup_probe.py --reference``), the next sets bandflow up.
    The machine's slow spells stretch the dependency imports (numpy's
    shared libraries) by up to 2.4x while bandflow's own modules and
    configs move by far less, so the difference within each pair reads
    bandflow's own set-up.  setup_s adds the dependencies' import time at
    reference speed to the median difference.  Also returns the raw
    medians of the full set-up and of the dependency imports.
    """
    own, full, deps = [], [], []
    for i in range(args.setup_repeats + 1):
        pair = []
        for flags in (["--reference"], []):
            out = _run_child([str(HERE / "setup_probe.py"), "--workload",
                              args.workload, "--seed", str(args.seed),
                              "--dir", str(work / f"setup{i}"), *flags])
            pair.append(float(out.strip().splitlines()[-1]))
        if i:  # the first pair compiles bytecode and warms the file cache
            deps.append(pair[0])
            full.append(pair[1])
            own.append(pair[1] - pair[0])
    return (calibrate.REFERENCE_IMPORT_S + statistics.median(own),
            statistics.median(full), statistics.median(deps))


def machine() -> dict:
    import numpy as np
    info = {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in
                        ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        info["blas"] = "unknown"
    return info


def invoke(main, cmd, config: Path, out: Path, tracer):
    """Run one CLI command; return (exit code or None, captured stderr)."""
    argv = [cmd.command, "--config", str(config), "--out", str(out)]
    stderr = io.StringIO()
    if tracer:
        tracer.enter("cli")
    try:
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # any escape from cli.main is a failed command
        code = None
        stderr.write(traceback.format_exc())
    finally:
        if tracer:
            tracer.exit()
    return code, stderr.getvalue()


def run_rounds(args, work: Path, tracer):
    """Timed rounds with per-round checks; returns the run's record."""
    sys.path.insert(0, str(ROOT / "src"))
    from bandflow import cli

    wl = workloads.build(args.workload, args.seed)
    configs = workloads.write_configs(wl, work / "configs")
    ref_path = work / "oracle.json"
    _run_child([str(HERE / "oracles.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--out", str(ref_path)])
    refs = None
    absent = sorted(tracer.install()) if tracer else []

    durations, scaled, problems, attempted, failed = [], [], [], 0, 0
    kernels = [calibrate.kernel_seconds()]

    def at_reference(wall: float) -> float:
        """``wall`` at reference speed, from the kernel before and after it."""
        kernels.append(calibrate.kernel_seconds())
        return calibrate.scale(wall, *kernels[-2:])

    while not durations or sum(durations) < args.seconds:
        rdir = work / "rounds" / str(len(durations))
        if tracer:
            tracer.enter("round")
        results, wall, round_at_reference = [], 0.0, 0.0
        for cmd in wl.commands:
            start = time.perf_counter()
            results.append(invoke(cli.main, cmd, configs[cmd.label],
                                  rdir / cmd.label, tracer))
            elapsed = time.perf_counter() - start
            wall += elapsed
            if not tracer:
                round_at_reference += at_reference(elapsed)
        if tracer:
            tracer.exit()
            # The kernel runs outside every span, once per traced round.
            round_at_reference = at_reference(wall)
        durations.append(wall)
        scaled.append(round_at_reference)
        if refs is None:
            # Every round does the same work, so the high-water mark after
            # the first one is the run's.  Read before any check runs or the
            # references are loaded, it holds only the harness and bandflow.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            refs = json.loads(ref_path.read_text(encoding="utf-8"))
        for cmd, (code, stderr) in zip(wl.commands, results):
            attempted += 1
            errors = checks.check(cmd, rdir / cmd.label, code, refs[cmd.label])
            if errors:
                failed += 1
                problems.append({"round": len(durations) - 1,
                                 "label": cmd.label, "errors": errors[:3],
                                 "stderr": stderr[-2000:]})
        if len(durations) == 1:
            first_results = results
        else:
            shutil.rmtree(rdir)

    first = work / "rounds" / "0"
    missed = []
    for cmd, (code, _) in zip(wl.commands, first_results):
        if not checks.check(cmd, first / cmd.label, code, refs[cmd.label]):
            missed += checks.self_test(cmd, first / cmd.label, code,
                                       refs[cmd.label], work)
    return {"workload": wl, "durations": durations, "scaled": scaled,
            "kernel_s": statistics.median(kernels),
            "attempted": attempted,
            "failed": failed, "problems": problems, "selftest_missed": missed,
            "peak_rss_mb": peak_rss_mb, "absent": absent}


def per_layer(tracer: Tracer, rec: dict, untraced_round_s: float) -> dict:
    """Per-round means over the traced rounds, keyed by metric name.

    The self times plus trace.unaccounted_s (the harness's own time between
    commands) add up to trace.round_s, the mean traced round.  Only
    trace.overhead_s compares two processes, so only it is taken at
    reference speed.
    """
    rounds = len(rec["durations"])
    values = {
        "trace.round_s": statistics.fmean(rec["durations"]),
        "trace.overhead_s": statistics.median(rec["scaled"])
        - untraced_round_s,
        "trace.unaccounted_s": tracer.self_s["round"] / rounds,
    }
    for name in DECLARED["per_layer"]:
        if name in values:
            continue
        span, _, kind = name.rpartition(".")
        spans = COUNTERS[name][0] if name in COUNTERS else (span,)
        if all(s in rec["absent"] for s in spans):
            continue
        if kind == "self_s":
            total = tracer.self_s[span]
        elif kind == "calls":
            total = tracer.calls[span]
        else:
            total = tracer.counts[name]
        values[name] = total / rounds
    return values


def run(args, work: Path):
    child = None
    if args.trace:
        # Untraced half in its own process, so tracing never shares it.
        out = _run_child([str(HERE / "run.py"), "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds",
                          str(args.seconds / 2), "--trace", "0",
                          "--setup-repeats", "0"])
        child = json.loads(out.strip().splitlines()[-1])
        args.seconds /= 2
    setup_s, wall_setup_s, deps_import_s = measure_setup(args, work) \
        if args.setup_repeats and not args.trace else (None, None, None)

    tracer = Tracer() if args.trace else None
    rec = run_rounds(args, work, tracer)
    attempted, failed = rec["attempted"], rec["failed"]
    correct = failed == 0 and not rec["selftest_missed"]
    if child:
        attempted += child["attempted"]
        failed += child["failed"]
        correct = correct and child["correct"]
        values = per_layer(tracer, rec, child["metrics"]["round_s"]["value"])
        declared = DECLARED["per_layer"]
    else:
        values = {"round_s": statistics.median(rec["scaled"]),
                  "ok_ratio": (attempted - failed) / attempted,
                  "peak_rss_mb": rec["peak_rss_mb"], "setup_s": setup_s}
        declared = DECLARED["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()
               if values.get(name) is not None}
    wl = rec["workload"]
    info = {"workload": wl.name, "why": wl.why, "seed": args.seed,
            "rounds": len(rec["durations"]),
            "wall_round_s": statistics.median(rec["durations"]),
            "wall_setup_s": wall_setup_s, "deps_import_s": deps_import_s,
            "kernel_s": rec["kernel_s"],
            "wall_round_s_quartiles":
            statistics.quantiles(rec["durations"], n=4)
            if len(rec["durations"]) > 1 else rec["durations"],
            "work_per_round": wl.work,
            "commands_per_round": len(wl.commands),
            "fail_ratio": failed / attempted, "absent": rec["absent"],
            "selftest_missed": rec["selftest_missed"],
            "problems": rec["problems"][:5], "machine": machine()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="round time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-repeats", type=int, default=10,
                        help="fresh-process set-up pairs for setup_s "
                        "(0 skips)")
    args = parser.parse_args()
    if not (ROOT / "src" / "bandflow" / "__init__.py").is_file():
        print(f"no bandflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("BANDFLOW_THREADS", None)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        info, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
