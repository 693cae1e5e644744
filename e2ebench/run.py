"""End-to-end and per-layer benchmark of the sweep and serve paths.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload sweep-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the workload's end-to-end metrics; ``--trace 1``
patches spans around each layer's public functions and prints the
per-layer metrics instead. The last line of standard output is the
result object; the line before it is the run record (raw and normalised
medians, host probes, set-up samples, check failures). See README.md in
this directory for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-paper", "sweep-opt", "serve-cluster")

#: The end-to-end metrics every workload prints, each with one meaning
#: on all of them; BENCHMARK.json lists the same names. The
#: workload-specific figures (cold and warm sweep rates, serve latency
#: percentiles) stay in the run record.
END_TO_END = ("setup_s", "items_per_s", "peak_rss_mb")


def _load_spec() -> "dict[str, object]":
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "small"),
        default="full",
        help="small shrinks every input (for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"e2ebench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = _load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}

    if args.workload == "serve-cluster":
        from serve import run_serve as run
    else:
        import sweeps

        run = sweeps.run_paper if args.workload == "sweep-paper" else sweeps.run_opt

    work_root = ROOT / ".e2ebench-work"
    work_root.mkdir(exist_ok=True)
    try:
        result = run(
            args.seed, args.seconds, bool(args.trace), args.size, work_root, SRC
        )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    unknown = sorted(set(result.metrics) - set(units))
    if unknown:
        raise SystemExit(f"e2ebench: metrics missing from BENCHMARK.json: {unknown}")
    if args.trace:
        # Every layer is listed on every workload; one the workload never
        # reaches did zero work.
        metrics = {name: result.metrics.get(name, 0.0) for name in units}
    else:
        metrics = {name: result.metrics[name] for name in END_TO_END}
    print(json.dumps({"record": result.record}, default=float))
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
