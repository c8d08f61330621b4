"""The repository benchmark: one command, four workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``pipeline-eager``: pretrain TURL eagerly, then fine-tune an
  ``EntityImputer`` (``training.py``);
- ``pretrain-replay``: the same pretraining through compiled replay;
- ``serve-hot`` / ``serve-cold``: ``repro serve`` over loopback HTTP
  with repeated / never-repeating tables (``serving.py``); serve-cold
  runs the same way but is not gated (see ``layers.py``).

``--trace 0`` measures with nothing installed and prints the
end-to-end metrics.  ``--trace 1`` repeats that measurement, then runs
the workload again with span wrappers around the program's layers and
prints the per-layer metrics (``layers.py``), the unattributed
remainder and the tracing overhead (traced minus untraced).

Every run checks the program's outputs outside the timed region.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report, and the full result (machine fingerprint, commit,
seed, units, directions, sample counts, per-rung serving figures) is
written to ``.perfbench/results/``.  The exit code is 0 when every
check passed, 1 when one failed, 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

# One BLAS thread per process, set before numpy loads here or in a
# served replica (children inherit the environment).  The matrices are
# small, so a second OpenBLAS thread buys no speed (same step time,
# measured), but its spin-waits burn the other vCPU, and on a shared
# 2-vCPU host every step then waits on whichever thread the scheduler
# delays.  Serving runs a parent and two replicas on the same two cores.
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import common
import layers
from common import BenchError, Outcome


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=layers.WORKLOADS + layers.UNGATED_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _run_workload(args: argparse.Namespace, workdir) -> Outcome:
    traced = bool(args.trace)
    if args.workload in layers.TRAINING:
        import training

        return training.run(args.seed, workdir, args.seconds,
                            replay=args.workload == "pretrain-replay",
                            traced=traced)
    import serving

    return serving.run(args.seed, workdir, args.seconds,
                       cold=args.workload == "serve-cold", traced=traced)


def _metrics_line(args, outcome: Outcome) -> dict:
    if args.trace:
        measured = outcome.details.get("layers", {})
        metrics = {name: {"value": float(measured.get(name, (0.0,))[0]),
                          "unit": layers.PER_LAYER_UNITS[name]}
                   for name in layers.PER_LAYER_NAMES}
    else:
        metrics = {name: {"value": outcome.metrics[name].value,
                          "unit": unit}
                   for name, unit, _, _ in layers.END_TO_END}
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def _report(args, outcome: Outcome, elapsed: float) -> dict:
    kind = "training" if args.workload in layers.TRAINING else "serving"
    end_to_end = {}
    for name, metric in outcome.metrics.items():
        entry = metric.as_dict()
        entry["meaning"] = layers.MEANING[name][kind]
        entry["gated"] = name in layers.END_TO_END_NAMES
        if name.startswith("latency_"):
            # The highest percentile with >= 10 samples beyond it.
            entry["highest_supported_percentile"] = common.highest_supported(
                metric.samples)
        end_to_end[name] = entry
    per_layer = {name: {"value": value, "unit": layers.PER_LAYER_UNITS[name],
                        "samples": samples}
                 for name, (value, samples)
                 in outcome.details.get("layers", {}).items()}
    details = {key: value for key, value in outcome.details.items()
               if key != "layers"}
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "elapsed_s": elapsed,
        "commit": common.git_commit(), "source_sha256": common.source_digest(),
        "machine": common.machine_fingerprint(),
        "correct": outcome.correct, "problems": outcome.problems,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failed_share": (outcome.failed / outcome.attempted
                         if outcome.attempted else 0.0),
        "end_to_end": end_to_end, "per_layer": per_layer,
        "details": details,
    }


def _print_report(report: dict) -> None:
    print(f"== perfbench {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} ({report['elapsed_s']:.1f} s)")
    print(f"   commit {report['commit']}  machine {report['machine']}")
    for name, entry in report["end_to_end"].items():
        print(f"   {name:<16} {entry['value']:>12.4f} {entry['unit']:<5} "
              f"{entry['better']:<6} n={entry['samples']:<4} "
              f"{entry['meaning']}")
    for key in ("named", "shares", "counts", "client_layers"):
        if key in report["details"]:
            pairs = ", ".join(f"{k}={v:.4g}" for k, v
                              in report["details"][key].items())
            print(f"   {key}: {pairs}")
    for rung in report["details"].get("rungs", []):
        print("   rung " + " ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in rung.items()))
    for name, entry in report["per_layer"].items():
        print(f"   layer {name:<44} {entry['value']:>10.4f} "
              f"{entry['unit']:<8} n={entry['samples']}")
    print(f"   attempted={report['attempted']} failed={report['failed']} "
          f"correct={report['correct']} {'; '.join(report['problems'])}")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    try:
        common.require_program()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    scratch = common.ROOT / ".perfbench"
    workdir = scratch / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        outcome = _run_workload(args, workdir)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = _report(args, outcome, time.perf_counter() - started)
    results = scratch / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    _print_report(report)
    print(json.dumps(_metrics_line(args, outcome)), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
