"""Record the driver references that checks.py compares results.csv against.

    python3 perfbench/make_reference.py --workload order-exp --seeds 0 32 --trials 4

For each seed in [first, last) the driver runs once at the given trial count
through ``hetsgd.cli.main``; the per-row mean and per-trial standard deviation
(stderr * sqrt(trials)) go to ``perfbench/reference/<workload>.json``. Run it
again only when the drivers are meant to compute something different.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.DRIVERS))
    p.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    p.add_argument("--trials", type=int, required=True)
    args = p.parse_args(argv)
    driver = workloads.DRIVERS[args.workload]
    record = {"workload": args.workload, "config": driver.config, "trials": args.trials,
              "rows": None, "seeds": {}}
    tmp_parent = ROOT / ".bench_build"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-ref-", dir=tmp_parent))
    try:
        for seed in range(*args.seeds):
            argv_ = driver.argv(ROOT / driver.config, seed, tmp / str(seed))
            argv_[argv_.index("--trials") + 1] = str(args.trials)
            driver.call(argv_)
            rows = checks.parse_results((tmp / str(seed) / "results.csv").read_bytes())
            keys = [[r[0], r[1]] for r in rows]
            if record["rows"] is None:
                record["rows"] = keys
            elif keys != record["rows"]:
                raise SystemExit(f"seed {seed} gives a different row set")
            record["seeds"][str(seed)] = {
                "mean": [r[2] for r in rows],
                "sd": [r[3] * math.sqrt(args.trials) for r in rows]}
            print(f"seed {seed} done", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out = checks.REFERENCE_DIR / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
