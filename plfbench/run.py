"""Layered PLF benchmark: run one workload and print its metrics.

Usage, from the root of a checkout of the repository::

    python3 plfbench/run.py --workload fulltrav --seed 1 --seconds 8 --trace 0

Workloads: ``fulltrav``, ``spr``, ``smooth_zlib`` (see plfbench/README.md).
Every invocation runs the workload untraced, replays it traced and in-core,
and applies the correctness gate. ``--trace 0`` puts the end-to-end metrics
in the result, ``--trace 1`` the per-layer ones. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the full report. The
exit code is 0 only if the correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("fulltrav", "spr", "smooth_zlib"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _summary(report: dict, units: dict) -> str:
    lines = [f"plfbench {report['workload']} seed={report['seed']} "
             f"ops={report['detail']['ops']} correct={report['correct']}"]
    rows = [(name, value, units[name]) for name, value in report["end_to_end"].items()]
    rows.append(("fail_rate", report["fail_rate"], "ratio"))
    for name, value, unit in rows:
        lines.append(f"  {name:<14} {value:>14.6g} {unit}")
    d = report["detail"]
    lines.append(f"  (op_tail_ms is p{d['op_tail_percentile']:.2f} of "
                 f"{d['op_tail_samples']} ops)")
    for failure in report["failures"]:
        lines.append(f"  FAILED: {failure}")
    return "\n".join(lines)


def result_line(report: dict, trace: int) -> dict:
    """The last output line: end-to-end metrics, or per-layer with ``trace``."""
    from plfbench import bench

    kind, units = (("per_layer", bench.PER_LAYER) if trace
                   else ("end_to_end", bench.END_TO_END))
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in report[kind].items()}}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"plfbench: no src/repro under {ROOT}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from plfbench import bench, sysinfo

    try:
        report = bench.run_workload(args.workload, args.seed, args.seconds, ROOT)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    report["environment"] = sysinfo.environment(ROOT)
    print(_summary(report, bench.END_TO_END))
    print(json.dumps({"report": report}))
    print(json.dumps(result_line(report, args.trace)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    # Pin BLAS to one thread before numpy loads: one compute thread per run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
