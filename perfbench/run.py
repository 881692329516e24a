"""hetsgd benchmark runner.

    python3 perfbench/run.py --workload order-exp --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads: order-exp, c2-sweep, strategy-cmp (the experiment drivers at their
shipped configs, trials reduced) and rate-plan (planning settings drawn from
the seed). One run is one fresh single-threaded process. It imports hetsgd
from ``src/`` of the checkout it lives in, calls the workload in-process for
``--seconds`` seconds and checks every output it times. With ``--trace 0`` it
reports the end-to-end metrics: trials per second (over all timed calls),
set-up time (median over fresh set-up processes) and peak RSS. Both timings
are given at reference machine speed: each is divided by the calibration
reading (calibration.py) taken around it; the raw figures are printed too. With
``--trace 1`` it then makes one more call with every layer's public entry
points wrapped and reports per-layer counts and self times. ``--workload all``
runs every workload in turn, each in its own process, and prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the machine and code facts, the failed fraction and each metric with
its unit.
"""
from __future__ import annotations

import os

# One thread per process: set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("order-exp", "c2-sweep", "strategy-cmp", "rate-plan")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MiB"}


class SetupError(RuntimeError):
    pass


def import_program():
    """Import hetsgd from this checkout's src/ and nowhere else."""
    if not (SRC / "hetsgd" / "__init__.py").is_file():
        raise SetupError(f"no hetsgd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hetsgd
    if Path(hetsgd.__file__).resolve().parent != (SRC / "hetsgd").resolve():
        raise SetupError(f"hetsgd imported from {hetsgd.__file__}, not from {SRC}")
    return hetsgd


def git_hash(package_dir: Path) -> str:
    """Commit of the repository holding the measured package, or 'unknown'."""
    for root in (package_dir, *package_dir.parents):
        git = root / ".git"
        if not git.is_dir():
            continue
        try:
            head = (git / "HEAD").read_text(encoding="utf-8").strip()
            if not head.startswith("ref:"):
                return head
            ref = head.split(":", 1)[1].strip()
            if (git / ref).is_file():
                return (git / ref).read_text(encoding="utf-8").strip()
            packed = git / "packed-refs"
            if packed.is_file():
                for line in packed.read_text(encoding="utf-8").splitlines():
                    if line.endswith(" " + ref):
                        return line.split()[0]
        except OSError:
            pass
        return "unknown"
    return "unknown"


class Workload:
    """Set-up, one timed call and its checks, for one named workload."""

    def __init__(self, name: str, seed: int, tiny: bool, tmp: Path):
        import workloads
        self.name, self.seed, self.tiny, self.tmp = name, seed, tiny, tmp
        self.first = None
        self.first_problems = None
        self.calls = 0
        if name == "rate-plan":
            count = workloads.PLAN_TINY_SETTINGS if tiny else workloads.PLAN_SETTINGS_PER_CALL
            self.settings = workloads.plan_settings(seed, count)
            self.trials = len(self.settings)
        else:
            self.driver = workloads.DRIVERS[name]
            config = self.driver.load_config(tiny)
            self.trials = self.driver.trials
            self.config_path = ROOT / self.driver.config
            if tiny:
                self.config_path = tmp / "config.json"
                self.config_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")

    def prepare_checks(self) -> None:
        """Reference outputs, loaded or computed before timing starts."""
        import checks
        if self.name == "rate-plan":
            self.plan_refs = [checks.plan_reference(s) for s in self.settings]
        else:
            self.reference = None if self.tiny else checks.DriverReference.load(self.name)
            self.expected_rows = self.reference.rows if self.reference else None

    def run_once(self):
        """Run one call; return its raw output. Timing is the caller's."""
        import workloads
        if self.name == "rate-plan":
            return [workloads.plan_one(s) for s in self.settings]
        out_dir = self.tmp / f"call{self.calls}"
        self.calls += 1
        self.driver.call(self.driver.argv(self.config_path, self.seed, out_dir))
        data = (out_dir / "results.csv").read_bytes()
        shutil.rmtree(out_dir)
        return data

    def expected_count(self) -> int:
        if self.name == "rate-plan":
            return self.trials
        return len(self.expected_rows) if self.expected_rows is not None else 1

    def check(self, output) -> list:
        """One failure message (or None) per output of one call."""
        import checks
        import workloads
        if self.name == "rate-plan":
            blobs = [workloads.canonical(o) for o in output]
            if self.first is None:
                self.first = blobs
                self.first_problems = [checks.check_plan_output(o, r, s["lam"]) for o, r, s
                                       in zip(output, self.plan_refs, self.settings)]
            problems = []
            for i, blob in enumerate(blobs):
                if blob == self.first[i]:
                    problems.append(self.first_problems[i])
                else:
                    problems.append(f"setting {i} differs from the first call at the same seed")
            return problems
        if self.first is None:
            self.first = output
            if self.expected_rows is None:     # tiny mode: the first call fixes the row set
                try:
                    self.expected_rows = [(r[0], r[1]) for r in checks.parse_results(output)]
                except checks.CheckError as exc:
                    return [str(exc)]
        return checks.check_driver_output(output, self.first, self.expected_rows, self.trials,
                                          self.reference, self.seed)


def setup(args, tmp: Path) -> Workload:
    import_program()
    sys.path.insert(0, str(HERE))
    return Workload(args.workload, args.seed, args.tiny, tmp)


def probe_setup_s(args, calibrate) -> tuple:
    """Set-up times of fresh runner processes, start to config parsed: raw, at reference speed."""
    from calibration import reference_speed
    samples = []
    slowness = [calibrate()]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    for _ in range(1 if args.tiny else SETUP_PROBES):
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - started)
        slowness.append(calibrate())
    return samples, reference_speed(samples, slowness)


class Timed:
    """Calls a workload for a fixed time, checking each output outside the timing."""

    def __init__(self, workload: Workload, calibrate):
        self.w = workload
        self.calibrate = calibrate
        self.durations: list = []
        self.slowness: list = []    # calibration before each call and after the last
        self.problems: list = []

    def call(self):
        t0 = time.perf_counter()
        try:
            output = self.w.run_once()
        except Exception:
            traceback.print_exc()
            self.problems.extend(["call raised"] * self.w.expected_count())
            return None
        dt = time.perf_counter() - t0
        self.durations.append(dt)
        self.problems.extend(self.w.check(output))
        return dt

    def run_for(self, seconds: float) -> bool:
        start = time.monotonic()
        self.slowness.append(self.calibrate())
        while True:
            ok = self.call() is not None
            self.slowness.append(self.calibrate())
            if not ok:
                return False
            if time.monotonic() - start >= seconds:
                return True

    def scaled_durations(self) -> list:
        from calibration import reference_speed
        return reference_speed(self.durations, self.slowness)


def facts(args, hetsgd) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "hetsgd_git": git_hash(Path(hetsgd.__file__).resolve().parent)}


def why_lines(workload: str, m: dict, tracer) -> list:
    """Whether the traced run shows the reason the workload was chosen."""
    wall = m["trace.wall_s"]
    if workload == "order-exp":
        share = (m["oracles.call.self_s"] + m["sgd.run.self_s"] + m["core.project.s"]) / wall
        return [f"oracle call self + sgd run self + projection = {share:.3f} of wall "
                f"({'majority' if share > 0.5 else 'NOT a majority'})"]
    if workload == "c2-sweep":
        largest = max(tracer.stats, key=lambda g: tracer.stats[g].self_s)
        return [f"largest self time: {largest} ({tracer.stats[largest].self_s:.3f} s)"]
    if workload == "rate-plan":
        return [f"oracle calls {m['oracles.call.n']}, SGD steps {m['sgd.steps']}"]
    return [f"oracle constructions {m['oracles.init.n']}, full objectives "
            f"{m['core.full_objective.n']}, SGD runs {m['sgd.run.n']}"]


def unit_of(name: str) -> str:
    if name.endswith((".n", ".rows", ".steps", "missing_entry_points")):
        return "count"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("us"):
        return "us"
    if name.endswith("mb_computed"):
        return "MB"
    return "s"


def run_one(args) -> int:
    tmp_parent = ROOT / ".bench_build"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-", dir=tmp_parent))
    try:
        try:
            w = setup(args, tmp)
        except (SetupError, ImportError, OSError) as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(repr(time.monotonic()))
            return 0
        import hetsgd
        info = facts(args, hetsgd)
        from calibration import Calibration
        calibrate = Calibration()
        if not args.trace:
            setup_raw, setup_scaled = probe_setup_s(args, calibrate)
        w.prepare_checks()

        timed = Timed(w, calibrate)
        ok = timed.run_for(args.seconds)
        metrics = {}
        lines = []
        if args.trace:
            import tracer as tracing
            traced = Timed(w, calibrate)
            tr = tracing.Tracer()
            if ok:
                traced.slowness.append(calibrate())
                with tr:
                    t0 = time.perf_counter()
                    dt = traced.call()
                    wall = time.perf_counter() - t0
                traced.slowness.append(calibrate())
                ok = dt is not None
            timed.problems.extend(traced.problems)
            if ok:
                # The mean untraced call at the speed the traced call ran at.
                untraced = statistics.mean(timed.scaled_durations()) \
                    * statistics.mean(traced.slowness)
                m = tr.metrics(wall, untraced)
                metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in m.items()}
                parts = sum(m[f"{mod}.self_s"] for mod in tracing.MODULES) \
                    + m["bench.self_s"] + m["trace.hook_s"]
                lines.append(f"# trace: module self times + bench + hooks = {parts:.6f} s, "
                             f"wall {wall:.6f} s")
                lines += [f"# why {args.workload}: {line}" for line in why_lines(args.workload, m, tr)]
        else:
            trials = w.trials * len(timed.durations)
            if trials:
                metrics["trials_per_s"] = trials / sum(timed.scaled_durations())
                lines.append(f"# raw (unscaled): trials_per_s {trials / sum(timed.durations)!r}, "
                             f"setup_s {statistics.median(setup_raw)!r}")
            metrics["setup_s"] = statistics.median(setup_scaled)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        info.update(calls=len(timed.durations), trials_per_call=w.trials,
                    slowness=statistics.median(timed.slowness))
        failures = [p for p in timed.problems if p is not None]
        attempted = max(len(timed.problems), 1)
        print("# facts " + json.dumps(info, sort_keys=True))
        for problem in sorted(set(failures))[:20]:
            print(f"# FAILED {problem}")
        print(f"failed_frac {len(failures) / attempted!r} ratio")
        for k, v in metrics.items():
            print(f"{k} {v['value']!r} {v['unit']}")
        for line in lines:
            print(line)
        print(json.dumps({"correct": ok and not failures and bool(metrics),
                          "attempted": attempted, "failed": len(failures), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, in turn; then one table."""
    table = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        frac = next(l.split()[1] for l in lines if l.startswith("failed_frac "))
        table.append((name, "failed_frac", float(frac), "ratio"))
        table += [(name, k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    print("== summary")
    for name, metric, value, unit in table:
        print(f"{name:<13} {metric:<30} {value:>14.6g} {unit}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken inputs and no reference check, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
