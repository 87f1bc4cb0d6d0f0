"""Benchmark entry point.

    python3 perfbench/run.py --workload cell-day --seed 1 --seconds 15 --trace 0

Run from the repository root. Prints one line per metric (name, value,
unit), then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones and
writes the recorded spans under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import UNITS, run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds,
                          trace=bool(args.trace))

    ratio = result.failed / result.attempted if result.attempted else 0.0
    labels = result.detail.pop("labels", {})
    seconds = result.detail.pop("seconds", {})
    print(f"{result.workload} seed={result.seed} "
          + " ".join(f"{key}={value}" for key, value in result.detail.items()))
    for name, value in {**result.metrics, **seconds}.items():
        alias = next((own + name[len(generic):]
                      for generic, own in labels.items()
                      if name.startswith(generic)), None)
        shown = f"  ({alias})" if alias else ""
        print(f"  {name:34s} {value:14.6g} {UNITS[name]}{shown}")
    print(f"  {'failed_ratio':34s} {ratio:14.6g} ratio"
          f"  ({result.failed}/{result.attempted})")
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
