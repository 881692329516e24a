"""Output checks behind the benchmark's ``failed`` count.

Driver outputs are checked row by row: ``results.csv`` must parse under the
fixed header with the expected rows, finite positive means (objectives and
noise gaps are never exactly 0), finite non-negative stderrs and the
requested trial count; every call at one seed must write the same bytes; and
each row's mean must lie within a stderr-scaled tolerance of the reference
recorded for that seed (``reference/<workload>.json``, written by
``make_reference.py``). The tolerance is statistical, so an engine that draws
different but correctly distributed noise still passes, while one that
computes a different quantity does not.

Planning outputs are checked setting by setting against an independent
implementation of the paper's formulas: the selected order exactly, rates to
a tight relative tolerance, bound values and deviations tighter still.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CSV_HEADER = ["strategy", "sweep_param", "mean", "stderr", "trials", "seconds"]

# A driver row passes when |mean - reference| <= TOL_SIGMAS * (its standard error).
TOL_SIGMAS = 6.0
SWEEP_RTOL = 1e-6

RATE_RTOL = 1e-5        # minimiser outputs: two correct minimisers agree this far
VALUE_RTOL = 1e-9       # bound values at the minimum and closed-form deviations
FORMULA_RTOL = 1e-12    # closed-form noise levels and rate brackets
REF_GRID_POINTS = 20001
C_DOMAIN = (1e-6, 1e3)  # rate search domain in units of 1/lam, as the paper's selector uses


class CheckError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Driver outputs


def parse_results(data: bytes) -> list:
    """(strategy, sweep_param, mean, stderr, trials) per row of a results.csv."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise CheckError(f"unexpected header {header}")
    rows = []
    for rec in reader:
        if len(rec) != len(CSV_HEADER):
            raise CheckError(f"row has {len(rec)} fields: {rec}")
        try:
            rows.append((rec[0], float(rec[1]), float(rec[2]), float(rec[3]), int(rec[4])))
        except ValueError as exc:
            raise CheckError(f"unparseable row {rec}: {exc}") from None
    return rows


class DriverReference:
    """Per-seed row means recorded at a fixed trial count, with pooled spreads.

    For a seed in the table the centre is that seed's mean and the spread is
    the within-seed standard deviation. For any other seed the centre is the
    mean over the recorded seeds and the spread adds the between-seed part.
    """

    def __init__(self, data: dict):
        self.trials = int(data["trials"])
        self.rows = [(s, float(p)) for s, p in data["rows"]]
        self.seeds = data["seeds"]
        means = np.array([v["mean"] for v in self.seeds.values()])
        sds = np.array([v["sd"] for v in self.seeds.values()])
        k = len(means)
        self.var_within = np.mean(sds ** 2, axis=0)
        var_means = np.var(means, axis=0, ddof=1) if k > 1 else np.zeros(len(self.rows))
        self.var_between = np.maximum(var_means - self.var_within / self.trials, 0.0)
        self.pooled_mean = means.mean(axis=0)
        self.k = k

    @classmethod
    def load(cls, workload: str) -> "DriverReference":
        path = REFERENCE_DIR / f"{workload}.json"
        return cls(json.loads(path.read_text(encoding="utf-8")))

    def centre_and_tol(self, seed: int, trials: int):
        n = self.trials
        entry = self.seeds.get(str(seed))
        if entry is not None:
            centre = np.asarray(entry["mean"])
            sd = np.sqrt(self.var_within * (1.0 / trials + 1.0 / n))
        else:
            centre = self.pooled_mean
            sd = np.sqrt(self.var_between * (1.0 + 1.0 / self.k)
                         + self.var_within * (1.0 / trials + 1.0 / (self.k * n)))
        return centre, TOL_SIGMAS * sd + 1e-12 * np.abs(centre)


def check_driver_output(data: bytes, first: bytes, expected_rows: list, trials: int,
                        reference, seed: int) -> list:
    """One failure message (or None) per expected row of one driver call."""
    n = len(expected_rows)
    try:
        rows = parse_results(data)
    except CheckError as exc:
        return [str(exc)] * n
    if len(rows) != n:
        return [f"{len(rows)} rows, expected {n}"] * n
    if reference is not None:
        centre, tol = reference.centre_and_tol(seed, trials)
    lines, first_lines = data.splitlines(), first.splitlines()
    same_shape = len(lines) == len(first_lines)
    out = []
    for i, ((strategy, param, mean, stderr, got_trials), (exp_s, exp_p)) in \
            enumerate(zip(rows, expected_rows)):
        problem = None
        if strategy != exp_s or not math.isclose(param, exp_p, rel_tol=SWEEP_RTOL, abs_tol=1e-12):
            problem = f"row {i} is ({strategy}, {param}), expected ({exp_s}, {exp_p})"
        elif not (math.isfinite(mean) and mean > 0.0 and math.isfinite(stderr) and stderr >= 0.0):
            problem = f"row {i} has mean {mean}, stderr {stderr}"
        elif got_trials != trials:
            problem = f"row {i} has trials {got_trials}, requested {trials}"
        elif not same_shape or lines[i + 1] != first_lines[i + 1]:
            problem = f"row {i} differs from the first call at the same seed"
        elif reference is not None and abs(mean - centre[i]) > tol[i]:
            problem = (f"row {i} ({strategy}, {param}) mean {mean} is outside "
                       f"{centre[i]} +- {tol[i]}")
        out.append(problem)
    return out


# ---------------------------------------------------------------------------
# Planning outputs: an independent implementation of the paper's formulas


def ref_noise(epsilon: float, d: int, b: int) -> tuple:
    noise = 4.0 * (d * d + d) / (epsilon * epsilon * b)
    return 4.0 + noise, noise


def ref_bound(g1: float, g2: float, beta1: float, lam: float, c1, c2):
    """B(c1, c2) at T=1, with its limit where 2*lam*c2 = 1."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    e2 = 2.0 * lam * c2 - 1.0
    log_b = math.log(beta1)
    near = np.abs(e2) <= 1e-9
    first = 4.0 * g1 * np.exp(np.where(near, 0.0, e2) * log_b) * c1 ** 2 / (2.0 * lam * c1 - 1.0)
    ratio = np.where(near, -log_b, -np.expm1(e2 * log_b) / np.where(near, 1.0, e2))
    return first + 4.0 * g2 * c2 ** 2 * ratio


def ref_minimize(f, lo: float, hi: float) -> tuple:
    """Global minimum of f on [lo, hi]: dense log grid, then bounded Brent."""
    grid = np.geomspace(lo, hi, REF_GRID_POINTS)
    values = f(grid)
    i = int(np.argmin(values))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    res = minimize_scalar(lambda x: float(f(x)), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12 * grid[i]})
    if res.fun < values[i]:
        return float(res.x), float(res.fun)
    return float(grid[i]), float(values[i])


def ref_deviations(c: float, lam: float, t_clean: int, pattern_noisy: np.ndarray,
                   v_clean: float, v_noisy: float) -> tuple:
    """Closed-form noise-gap deviations by a direct suffix product."""
    T = len(pattern_noisy)
    s = np.arange(1, T + 1, dtype=np.float64)
    factors = 1.0 - c * lam / s
    suffix = np.ones(T)
    suffix[:-1] = np.cumprod(factors[::-1])[::-1][1:]
    w2 = (c / s * suffix) ** 2
    cf = np.where(s > t_clean, v_noisy, v_clean)
    nf = np.where(s <= T - t_clean, v_noisy, v_clean)
    ao = np.where(pattern_noisy, v_noisy, v_clean)
    return float(w2 @ cf), float(w2 @ nf), float(w2 @ ao)


def _verdict(cf: float, nf: float) -> str:
    if abs(cf - nf) <= VALUE_RTOL * max(abs(cf), abs(nf)):
        return "tie"
    return "clean_first" if cf < nf else "noisy_first"


def plan_reference(s: dict) -> dict:
    lam, beta_c = s["lam"], s["beta_c"]
    gc, gc_lo = ref_noise(s["epsilon_clean"], s["d"], s["b"])
    gn, gn_lo = ref_noise(s["epsilon_noisy"], s["d"], s["b"])
    lo, hi = C_DOMAIN[0] / lam, C_DOMAIN[1] / lam
    cf = ref_minimize(lambda c: ref_bound(gc, gn, beta_c, lam, 1.0 / lam, c), lo, hi)
    nf = ref_minimize(lambda c: ref_bound(gn, gc, 1.0 - beta_c, lam, 1.0 / lam, c), lo, hi)
    single_lo = (1.0 + 1e-9) / (2.0 * lam)
    single_cf = ref_minimize(lambda c: ref_bound(gc, gn, beta_c, lam, c, c), single_lo, hi)
    single_nf = ref_minimize(lambda c: ref_bound(gn, gc, 1.0 - beta_c, lam, c, c), single_lo, hi)
    r = math.sqrt(gn / gc)
    log_inv = math.log(1.0 / (1.0 - beta_c))
    intervals = {
        "noisy_first": (1.0 + (2.0 * math.log(r) + math.log(log_inv)) / log_inv,
                        1.0 + (2.0 * math.log(4.0 * r) + math.log(log_inv)) / log_inv),
        "clean_first": (gc / gn, 8.0 * gc / gn / beta_c),
    }
    compare = []
    for c in s["c_values"]:
        devs = ref_deviations(c, lam, s["T_clean"], s["pattern"], gc_lo, gn_lo)
        compare.append({"best": _verdict(devs[0], devs[1]), "devs": devs})
    return {"noise": (gc, gn, gc_lo, gn_lo), "clean_first": cf, "noisy_first": nf,
            "single_clean_first": single_cf, "single_noisy_first": single_nf,
            "intervals": intervals, "compare": compare}


def _close(a, b, rtol) -> bool:
    return all(math.isclose(x, y, rel_tol=rtol, abs_tol=0.0) for x, y in zip(a, b))


def check_plan_output(out: dict, ref: dict, lam: float) -> str | None:
    """Failure message for one planning setting at regularisation lam, or None."""
    if not _close((out["gamma_c_sq"], out["gamma_n_sq"], out["gamma_c_sq_lower"],
                   out["gamma_n_sq_lower"]), ref["noise"], FORMULA_RTOL):
        return "noise levels differ from the closed form"
    sel = out["selection"]
    for order in ("clean_first", "noisy_first"):
        rate, value = ref[order]
        if not (math.isclose(sel[f"{order}_rate"], rate, rel_tol=RATE_RTOL)
                and math.isclose(sel[f"{order}_value"], value, rel_tol=VALUE_RTOL)):
            return (f"{order} minimum ({sel[f'{order}_rate']}, {sel[f'{order}_value']}) "
                    f"differs from reference ({rate}, {value})")
    v_cf, v_nf = ref["clean_first"][1], ref["noisy_first"][1]
    if not math.isclose(v_cf, v_nf, rel_tol=VALUE_RTOL):
        expected = "clean_first" if v_cf < v_nf else "noisy_first"
        if sel["order"] != expected:
            return f"order {sel['order']}, expected {expected}"
    chosen = sel["order"]
    if not (math.isclose(sel["c1"] * lam, 1.0, rel_tol=FORMULA_RTOL)
            and sel["c2"] == sel[f"{chosen}_rate"] and sel["bound_value"] == sel[f"{chosen}_value"]):
        return "selection does not match its chosen order"
    for key in ("single_clean_first", "single_noisy_first"):
        if not (math.isclose(out[key][0], ref[key][0], rel_tol=RATE_RTOL)
                and math.isclose(out[key][1], ref[key][1], rel_tol=VALUE_RTOL)):
            return f"{key} {out[key]} differs from reference {ref[key]}"
    lo, hi, regime = out["interval"]
    if regime != chosen or not _close((lo, hi), ref["intervals"][chosen], FORMULA_RTOL):
        return f"interval {out['interval']} differs from reference {ref['intervals'][chosen]}"
    for got, want in zip(out["compare"], ref["compare"]):
        if got["best"] != want["best"] or \
                not _close((got["cf"], got["nf"], got["ao"]), want["devs"], VALUE_RTOL):
            return f"order comparison {got} differs from reference {want}"
    return None
