"""fwcsim benchmark: cold CLI sweeps, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload case_study --seed 1 --seconds 30 --trace 0

Every sample launches fresh interpreters through ``bench/child.py``, each of
which runs ``fwcsim.cli.main`` once, so every sample pays the import and
first-call costs a user pays. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
samples and reports the per-layer metrics named in ``BENCHMARK.json``. The
last line of standard output is the JSON result; the lines before it are a
readable summary and a ``report`` line with the machine record, per-sample
values and computed kernel counts.

Every sample's CSVs are checked: the exit code, byte equality with the
run's first sample, the sha256 recorded in ``bench/expected.json`` when the
seed is the recorded one (``planning`` ignores the seed, so it is checked at
every seed), and on the first sample the row counts, finiteness and signs.
The meta sidecar must be JSON without NaN or infinities.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
EXPECTED = BENCH_DIR / "expected.json"
CHILD = BENCH_DIR / "child.py"

WORKLOADS = ("case_study", "dense_m1024", "planning")
LAYERS = ("geometry", "wireless", "optics", "power", "beamform", "tables", "config", "sweeps")
MIN_SAMPLES = 3
TAIL_POOL_SAMPLES = 2  # a traced run has at least this many traced samples
RUN_LIMIT_S = 165.0  # a run must end within 180 s, set-up included

# The shared VM this benchmark was tuned on runs each CPU at a pace that
# drifts by up to 1.6x over seconds to minutes. A fixed pure-Python loop
# slows about as much as fwcsim does, so it is timed on every CPU just
# before and after every child, and the child's times are divided by the
# pace: the loop's time over CAL_REF_S, about its time on that VM at full
# speed (2-core Xeon at 2.1 GHz, Python 3.11). CAL_REF_S only sets the
# scale; the report keeps the raw times and the paces.
CAL_LOOPS = 40_000
CAL_REPEATS = 5
CAL_REF_S = 2.2e-3

DENSE_DROPS = 20
DENSE_BUDGET_W = 1e5  # all three schemes feasible at M = 1024
CASE_STUDY_M = (16, 32, 64, 128, 256)  # defaults of the CLI config


@dataclass(frozen=True)
class CsvSpec:
    columns: tuple[str, ...]
    rows: int
    numeric: frozenset[str]
    nonnegative: frozenset[str] = frozenset()


@dataclass
class Step:
    """One CLI call of a sample; ``outputs`` maps CSV file names to specs."""

    command: str
    config: dict | None
    extra_args: tuple[str, ...]
    outputs: dict[str, CsvSpec]


THROUGHPUT_COLUMNS = ("arch", "scheme", "M", "J", "drops", "p_tx_w", "mean_sumrate_bps", "ci95_bps")


def _throughput_spec(m_count: int) -> CsvSpec:
    return CsvSpec(THROUGHPUT_COLUMNS, 2 * 3 * m_count,
                   frozenset(THROUGHPUT_COLUMNS[2:]), frozenset(THROUGHPUT_COLUMNS[2:]))


def planning_params(reduced: bool) -> dict:
    if reduced:
        return {"fiber_points": 101, "carriers": 3, "elements": 8, "band_points": 3,
                "theta_step_deg": 1.0}
    return {"fiber_points": 5001, "carriers": 7, "elements": 64, "band_points": 21,
            "theta_step_deg": 0.05}


def workload_steps(name: str, seed: int, reduced: bool = False) -> list[Step]:
    """The CLI calls of one sample of ``name``; inputs depend only on ``seed``."""
    if name == "case_study":
        drops = 3 if reduced else 100
        return [Step("throughput-sweep", None, ("--seed", str(seed), "--drops", str(drops)),
                     {"throughput.csv": _throughput_spec(len(CASE_STUDY_M))})]
    if name == "dense_m1024":
        config = {"sweep": {"m_values": [1024], "association_mode": "ue_nearest"},
                  "budget_w": DENSE_BUDGET_W,
                  "monte_carlo_drops": 2 if reduced else DENSE_DROPS}
        return [Step("throughput-sweep", config, ("--seed", str(seed)),
                     {"throughput.csv": _throughput_spec(1)})]
    if name == "planning":
        p = planning_params(reduced)
        n_fiber = p["fiber_points"]
        step_km = 25.0 / (n_fiber - 1)
        carriers = [10e9 + 30e9 * i / (p["carriers"] - 1) for i in range(p["carriers"])]
        n_theta = int(round(180.0 / p["theta_step_deg"])) + 1
        config = {"sweep": {
            "fiber_km": [round(step_km * i, 6) for i in range(n_fiber)],
            "frequencies_hz": carriers,
            "array_elements": p["elements"],
            "num_band_points": p["band_points"],
            "theta_grid_deg": [-90.0, 90.0, p["theta_step_deg"]],
        }}
        curves = 2 + len(carriers)  # bbof, ifof, one rfof curve per carrier
        dispersion = CsvSpec(("scheme", "f_hz", "fiber_km", "fading_db"), curves * n_fiber,
                             frozenset({"f_hz", "fiber_km", "fading_db"}),
                             frozenset({"f_hz", "fiber_km", "fading_db"}))
        power_cols = ("scheme", "f_rf_hz", "fiber_km", "p_tx_w", "cu_w", "rap_w",
                      "fiber_comp_w", "total_w")
        power = CsvSpec(power_cols, curves * n_fiber, frozenset(power_cols[1:]),
                        frozenset(power_cols[1:]))
        crossovers = CsvSpec(("scheme_a", "scheme_b", "f_rf_hz", "crossover_km", "found"),
                             len(carriers), frozenset({"f_rf_hz", "crossover_km"}),
                             frozenset({"f_rf_hz", "crossover_km"}))
        beam_cols = ("mode", "f_hz", "theta_deg", "af_mag", "af_phase_rad")
        beam = CsvSpec(beam_cols, 2 * p["band_points"] * n_theta, frozenset(beam_cols[1:]),
                       frozenset({"f_hz", "af_mag"}))
        return [
            Step("dispersion-sweep", config, (), {"dispersion.csv": dispersion}),
            Step("power-sweep", config, (), {"power.csv": power,
                                             "power_crossovers.csv": crossovers}),
            Step("beam-pattern", config, (), {"beam.csv": beam}),
        ]
    raise ValueError(f"unknown workload {name!r}")


def _reject_constant(token: str):
    raise ValueError(f"non-finite constant {token} in meta JSON")


def check_csv(data: bytes, spec: CsvSpec) -> list[str]:
    """Invariants of one CSV: header, row count, finite and signed values."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    errors = []
    if not rows or tuple(rows[0]) != spec.columns:
        return [f"header {rows[0] if rows else None} != {list(spec.columns)}"]
    body = rows[1:]
    if len(body) != spec.rows:
        errors.append(f"{len(body)} rows, expected {spec.rows}")
    index = {c: i for i, c in enumerate(spec.columns)}
    for n, row in enumerate(body, start=1):
        if len(row) != len(spec.columns):
            errors.append(f"row {n} has {len(row)} cells")
            break
        if "found" in index and row[index["found"]] == "false" and row[index["crossover_km"]] == "":
            continue
        for col in spec.numeric:
            try:
                value = float(row[index[col]])
            except ValueError:
                errors.append(f"row {n} {col}={row[index[col]]!r} is not a number")
                break
            if not math.isfinite(value) or (col in spec.nonnegative and value < 0):
                errors.append(f"row {n} {col}={value!r} is not finite and in range")
                break
        if len(errors) > 5:
            break
    return errors


def check_meta(path: Path) -> list[str]:
    try:
        meta = json.loads(path.read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    return [] if isinstance(meta, dict) else [f"{path.name}: not a JSON object"]


@dataclass
class Sample:
    """One repetition of a workload. Raw times come with the host's pace
    (calibration time over CAL_REF_S) measured around the same child."""

    mode: str
    timed: bool = True
    setups_s: list[float] = field(default_factory=list)
    setup_paces: list[float] = field(default_factory=list)
    step_walls_s: list[float] = field(default_factory=list)
    step_paces: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    traces: list[dict] = field(default_factory=list)
    machine: dict = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Wall time summed over the steps, at the reference pace."""
        return sum(w / p for w, p in zip(self.step_walls_s, self.step_paces))

    @property
    def scaled_setups_s(self) -> list[float]:
        return [t / p for t, p in zip(self.setups_s, self.setup_paces)]


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def calibrate() -> float:
    """Time of a fixed pure-Python loop, the median of a few runs on each
    CPU this process may use, averaged over the CPUs."""
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(CAL_REPEATS):
                t0 = time.perf_counter()
                x = 0
                for k in range(CAL_LOOPS):
                    x += k * k
                times.append(time.perf_counter() - t0)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


def launch(args: list[str], report: Path, mode: str, env: dict, timeout_s: float):
    """Run one child.

    Returns (launch time, host pace, report dict or None, error or None);
    the pace is the mean calibration time around the child over CAL_REF_S.
    """
    cal_before = calibrate()
    t_launch = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(report), mode, *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        return t_launch, 1.0, None, f"timed out after {timeout_s:.0f} s"
    pace = (cal_before + calibrate()) / 2 / CAL_REF_S
    try:
        data = json.loads(report.read_text())
    except (OSError, ValueError):
        data = None
    if proc.returncode != 0 or data is None:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return t_launch, pace, data, f"exit {proc.returncode}: {tail[0]}"
    if not Path(data["fwcsim_file"]).resolve().is_relative_to(SRC.resolve()):
        return t_launch, pace, data, f"imported fwcsim from {data['fwcsim_file']}, not {SRC}"
    return t_launch, pace, data, None


def step_args(step: Step, index: int, workdir: Path) -> list[str]:
    args = [step.command, "--out", str(workdir / next(iter(step.outputs))), *step.extra_args]
    if step.config is not None:
        cfg_path = workdir / f"config_{index}.json"
        if not cfg_path.exists():
            cfg_path.write_text(json.dumps(step.config))
        args += ["--config", str(cfg_path)]
    return args


def run_sample(steps: list[Step], workdir: Path, mode: str, env: dict,
               timeout_s: float) -> Sample:
    sample = Sample(mode)
    report = workdir / "child.json"
    for i, step in enumerate(steps):
        out = workdir / next(iter(step.outputs))
        for name in step.outputs:
            (workdir / name).unlink(missing_ok=True)
        out.with_suffix(".meta.json").unlink(missing_ok=True)
        report.unlink(missing_ok=True)
        t_launch, pace, data, error = launch(step_args(step, i, workdir), report, mode, env,
                                             timeout_s)
        if error:
            sample.errors.append(f"{step.command}: {error}")
            return sample
        sample.setups_s.append(data["t_config"] - t_launch)
        sample.setup_paces.append(pace)
        sample.step_walls_s.append(data["t_end"] - data["t_config"])
        sample.step_paces.append(pace)
        sample.rss_mb = max(sample.rss_mb, data["maxrss_kb"] / 1024.0)
        sample.machine = data["machine"]
        if "trace" in data:
            sample.traces.append(data["trace"])
        sample.errors += check_meta(out.with_suffix(".meta.json"))
    return sample


def run_setups(sample: Sample, steps: list[Step], workdir: Path, env: dict,
               timeout_s: float) -> None:
    """Launch each step once more, stopping once its config is resolved."""
    report = workdir / "child.json"
    for i, step in enumerate(steps):
        report.unlink(missing_ok=True)
        t_launch, pace, data, error = launch(step_args(step, i, workdir), report, "setup", env,
                                             timeout_s)
        if error:
            sample.errors.append(f"{step.command} (set-up only): {error}")
            return
        sample.setups_s.append(data["t_config"] - t_launch)
        sample.setup_paces.append(pace)


def verify(sample: Sample, steps: list[Step], workdir: Path, state: dict) -> None:
    """Digest the CSVs and fold the verdict into ``sample.errors``.

    ``state`` carries the run's first digests and their verdict; a later
    sample with the same bytes shares that verdict.
    """
    for step in steps:
        for name in step.outputs:
            try:
                sample.digests[name] = hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            except OSError as exc:
                sample.errors.append(f"{name}: {exc}")
    if sample.errors:
        return
    if "digests" not in state:
        errors = []
        for step in steps:
            for name, spec in step.outputs.items():
                errors += [f"{name}: {e}" for e in check_csv((workdir / name).read_bytes(), spec)]
        expected = state.get("expected")
        if expected is not None and expected != sample.digests:
            errors.append(f"CSV sha256 {sample.digests} != recorded {expected}")
        state["digests"], state["errors"] = dict(sample.digests), errors
    elif sample.digests != state["digests"]:
        sample.errors.append("CSV bytes differ from the first sample of this seed")
        return
    sample.errors += state["errors"]


def expected_digests(name: str, seed: int, reduced: bool) -> dict | None:
    if reduced:
        return None
    recorded = json.loads(EXPECTED.read_text())
    entry = recorded["workloads"][name]
    if entry["seed"] is None or entry["seed"] == seed:
        return entry["sha256"]
    return None


def _tail_level(n: float) -> int:
    """Highest whole percentile with at least ten of ``n`` values above it."""
    for q in range(99, 49, -1):
        if n - math.ceil(q / 100 * n) >= 10:
            return q
    return 50


def _nearest_rank(ordered: list[float], q: int) -> float:
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def layer_metrics(traced: list[Sample], untraced: list[Sample]) -> tuple[dict, dict]:
    """Per-layer metric values (medians over traced samples) and extra detail.

    Span times are scaled to the reference pace like the samples' wall times.
    """
    per_sample = []
    drops_ms: list[float] = []
    drops_per_sample = []
    wrapped: set[str] = set()
    probe_errors: dict[str, str] = {}
    for sample in traced:
        stats: dict[str, dict] = {}
        counters: dict[str, float] = {}
        for trace, pace in zip(sample.traces, sample.step_paces):
            wrapped.update(trace["wrapped"])
            probe_errors.update(trace["probe_errors"])
            for name in trace["wrapped"]:  # wrapped but never called reads 0
                stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for name, s in trace["stats"].items():
                agg = stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                agg["calls"] += s["calls"]
                agg["incl_s"] += s["incl_s"] / pace
                agg["self_s"] += s["self_s"] / pace
            for name, v in trace["counters"].items():
                counters[name] = counters.get(name, 0) + v
            drops_ms += [1e3 * d / pace for d in trace["drops_s"]]
        drops_per_sample.append(sum(len(t["drops_s"]) for t in sample.traces))
        values = {}
        for name, s in stats.items():
            values[f"{name}.calls"] = s["calls"]
            values[f"{name}.self_s"] = s["self_s"]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(s["self_s"] for n, s in stats.items()
                                            if n.startswith(layer + "."))
        values["tables.write_csv.rows"] = counters.get("tables.write_csv.rows", 0)
        values["tables.write_csv.bytes"] = counters.get("tables.write_csv.bytes", 0)
        flops = counters.get("wireless.cellfree_gram.flops", 0)
        cf_self = stats.get("wireless.cellfree_sinr_components", {}).get("self_s", 0.0)
        values["computed.cellfree_gram_flops"] = flops
        values["computed.cellfree_gram_gflop_per_s"] = flops / cf_self / 1e9 if cf_self else 0.0
        values["computed.array_factor_evals"] = counters.get(
            "beamform.array_factor_pattern.evals", 0)
        load = stats.get("config.load_config", {}).get("incl_s", 0.0)
        accounted = sum(s["self_s"] for s in stats.values()) - load
        values["trace.accounted_share"] = accounted / sample.wall_s
        values["trace.layer_share"] = (accounted - values["sweeps.self_s"]) / sample.wall_s
        per_sample.append(values)

    names = sorted({k for v in per_sample for k in v})
    metrics = {k: statistics.median(v.get(k, 0) for v in per_sample) for k in names}
    traced_wall = statistics.median(s.wall_s for s in traced)
    untraced_wall = statistics.median(s.wall_s for s in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    # The tail level depends only on the drops per sample, so it does not
    # move with the number of samples that fit in a run.
    per_sample_drops = statistics.median(drops_per_sample)
    tail_pct = _tail_level(TAIL_POOL_SAMPLES * per_sample_drops)
    ordered = sorted(drops_ms)
    metrics["drop_ms_p50"] = statistics.median(ordered) if ordered else 0.0
    metrics["drop_ms_tail"] = _nearest_rank(ordered, tail_pct) if ordered else 0.0
    detail = {"wrapped": sorted(wrapped), "probe_errors": probe_errors,
              "drops_per_sample": per_sample_drops, "drop_ms_tail_pct": tail_pct}
    return metrics, detail


def machine_record(child: dict, threads: int, loadavg: tuple) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "blas_threads_requested": threads,
        "cal_ref_s": CAL_REF_S,
        "loadavg_at_start": [round(x, 2) for x in loadavg],
    }
    record.update(child)
    return record


def run_workload(name: str, seed: int, seconds: float, trace: bool, reduced: bool = False,
                 expected: dict | None = None, tamper=None) -> dict:
    """Measure ``name`` for about ``seconds`` and return the result with details.

    ``expected`` overrides the recorded digests; ``tamper(index, workdir)``
    runs after a sample's CLI calls and before its check (used by the
    self-test to corrupt output).
    """
    loadavg = os.getloadavg()
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    steps = workload_steps(name, seed, reduced)
    state = {"expected": expected if expected is not None
             else expected_digests(name, seed, reduced)}
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    t_begin = time.monotonic()
    samples: list[Sample] = []
    try:
        modes = ("plain", "traced") if trace else ("plain",)

        def measure(mode: str, timed: bool = True) -> None:
            remaining = RUN_LIMIT_S - (time.monotonic() - t_begin)
            sample = run_sample(steps, workdir, mode, env, remaining)
            sample.timed = timed
            if tamper is not None:
                tamper(len(samples), workdir)
            verify(sample, steps, workdir, state)
            if timed and not trace and not sample.errors:
                run_setups(sample, steps, workdir, env, remaining)
            samples.append(sample)

        # The first sample after idle runs up to twice as slow on a shared
        # host; it is checked but not timed.
        measure("plain", timed=False)
        t_measure = time.monotonic()
        while True:
            timed = len(samples) - 1
            measure(modes[timed % len(modes)])
            timed += 1
            elapsed = time.monotonic() - t_measure
            per_sample = elapsed / timed
            enough = timed >= max(MIN_SAMPLES, TAIL_POOL_SAMPLES * len(modes))
            if (enough and elapsed + per_sample > seconds) or \
                    time.monotonic() - t_begin + per_sample > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [s for s in samples if not s.errors]
    plain = [s for s in good if s.mode == "plain" and s.timed]
    traced = [s for s in good if s.mode == "traced"]
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "reduced": reduced,
        "attempted": len(samples), "failed": len(samples) - len(good),
        "errors": sorted({e for s in samples for e in s.errors}),
        "machine": machine_record(samples[0].machine, threads, loadavg),
        "digests": state.get("digests", {}),
        "checked_against_recorded_sha256": state["expected"] is not None,
        "samples": [{"mode": s.mode, "timed": s.timed, "step_walls_s": s.step_walls_s,
                     "step_paces": s.step_paces, "setups_s": s.setups_s,
                     "setup_paces": s.setup_paces, "peak_rss_mb": s.rss_mb,
                     "ok": not s.errors} for s in samples],
    }
    if not plain or (trace and not traced):
        result["metrics"] = None
        return result
    if trace:
        metrics, detail = layer_metrics(traced, plain)
        result.update(detail)
    else:
        metrics = {
            "wall_s": statistics.median(s.wall_s for s in plain),
            "setup_s": statistics.median(t for s in plain for t in s.scaled_setups_s),
            "peak_rss_mb": statistics.median(s.rss_mb for s in plain),
        }
    result["metrics"] = metrics
    return result


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "fwcsim" / "cli.py").is_file():
        print(f"fwcsim source not found under {SRC}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    for error in result["errors"]:
        print(f"sample error: {error}", file=sys.stderr)
    if result["metrics"] is None:
        print("no sample succeeded; no metrics to report", file=sys.stderr)
        return 1

    declared = declared_metrics(trace)
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    attempted, failed = result["attempted"], result["failed"]
    n_plain = sum(1 for s in result["samples"] if s["mode"] == "plain" and s["timed"] and s["ok"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {attempted} ({n_plain} untraced ok)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    paces = [p for s in result["samples"] for p in s["step_paces"] + s["setup_paces"]]
    print(f"  host pace: median {statistics.median(paces):.3g}, range {min(paces):.3g}-"
          f"{max(paces):.3g} (1 = reference; times above are divided by it)")
    if trace:
        funcs = {m["name"].rsplit(".", 1)[0] for m in declared
                 if m["name"].split(".", 1)[0] in LAYERS and m["name"].count(".") == 2}
        result["absent"] = sorted(funcs - set(result["wrapped"]))
        for fn in result["absent"]:
            print(f"  absent: {fn} (not found in fwcsim; its metrics read 0)")
        for fn, error in result["probe_errors"].items():
            print(f"  counter of {fn} not recorded: {error}")
        if result["drops_per_sample"]:
            print(f"  drop_ms_tail is p{result['drop_ms_tail_pct']} of the drops pooled over "
                  f"the traced samples, {result['drops_per_sample']:g} drops each")
    print("report " + json.dumps(result, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
