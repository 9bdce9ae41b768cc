"""Run one workload: set-up, timed passes, checks, metrics, environment block."""
from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import os
import platform
import resource
import statistics
from time import perf_counter

import numpy as np

from checks import Ledger
from probe import UNITS as LAYER_UNITS, run_probe
from reference import NOMINAL_S, Reference
from spans import SpanRecorder
from workloads import WORKLOADS, PassResult

MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "inst_per_ref": "1/ref",
    "req_p50_ref": "ref", "req_p90_ref": "ref", "peak_rss_mb": "MB",
}


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(root) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((root / "src" / "arrangerank").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root), "src_sha256": src.hexdigest(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _metric(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def run_workload(name, seed, seconds, trace, size, workdir, root, out_dir):
    rec, ref = SpanRecorder(False), Reference()
    wl = WORKLOADS[name](seed, size, workdir, rec, ref)
    ledger = Ledger()
    setup_raw, setup_windows = [], []

    def timed_setup():
        ref.sample()
        spent, t0 = ref.spent, perf_counter()
        wl.setup()
        t1 = perf_counter()
        ref.sample()
        raw = t1 - t0 - (ref.spent - spent)
        setup_raw.append(raw)
        setup_windows.append((t0, t1))

    if wl.setup_repeats:
        timed_setup()
    passes: list[PassResult] = []
    traced: list[bool] = []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline or not wl.enough(passes):
        rec.enabled = trace and len(passes) % 2 == 1
        gc.collect()  # every pass starts from the same collector state
        ref.sample()
        spent, start = ref.spent, perf_counter()
        p = wl.run_pass(len(passes))
        end = perf_counter()
        ref.sample()
        p.wall_s -= ref.spent - spent
        p.wall_ref = p.wall_s / ref.window_mean(start, end)
        p.rate_ref = p.rate * ref.window_mean(*p.rate_window)
        p.requests_ref = ref.take_requests()
        if p.setup_s is not None:
            setup_raw.append(p.setup_s)
            setup_windows.append(p.setup_window)
        passes.append(p)
        traced.append(rec.enabled)
        rec.enabled = False
        wl.check(ledger, len(passes) - 1)
        if len(setup_raw) < wl.setup_repeats:
            timed_setup()  # repeats spread over the run, like the passes

    # normalised once the run is over, so that each window has the samples after it
    setup_times = [raw / ref.around(*window) * NOMINAL_S
                   for raw, window in zip(setup_raw, setup_windows)]
    latencies = np.array([t for p in passes for t in p.latencies])
    requests = np.array([t for p in passes for t in p.requests_ref])
    values = {
        "setup_s": _median(setup_times),
        "wall_ref": _median(p.wall_ref for p in passes),
        "inst_per_ref": _median(p.rate_ref for p in passes),
        "req_p50_ref": float(np.percentile(requests, 50)),
        "req_p90_ref": float(np.percentile(requests, 90)),
    }
    extras = {key: _median(p.extras[key] for p in passes) for key in passes[0].extras}
    extras.update({"setup_s_raw": _median(setup_raw),
                   "wall_s": _median(p.wall_s for p in passes),
                   wl.rate_name: _median(p.rate for p in passes),
                   "req_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
                   "req_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
                   # tail per pass, median over passes: one burst of host stalls moves one pass
                   "req_p99_ref": _median(np.percentile(p.requests_ref, 99) for p in passes)})
    report = {
        "environment": environment(root),
        "workload": {"name": name, "seed": seed, "size": size, "seconds": seconds,
                     "trace": int(trace), "passes": len(passes),
                     "setup_repeats": len(setup_times), "request_samples": int(latencies.size),
                     "reference_ms": 1e3 * _median(ref.samples),
                     "reference_samples": len(ref.samples)},
        "figures": {**extras, "fail_frac": ledger.fail_frac,
                          "int64_overflow_failures": ledger.known_defect},
        "fingerprints": wl.report,
    }
    if ledger.wrong:
        report["wrong_outputs"] = ledger.wrong

    if trace:
        wall = {flag: _median(p.wall_s for p, t in zip(passes, traced) if t == flag)
                for flag in (False, True)}
        wall_ref = {flag: _median(p.wall_ref for p, t in zip(passes, traced) if t == flag)
                    for flag in (False, True)}
        self_times = rec.self_times()
        rec.enabled = True
        layer = run_probe(rec, ledger, seed, size, workdir)
        rec.enabled = False
        # traced minus untraced pass time, as a share of the untraced one
        layer["trace.overhead_frac"] = wall_ref[True] / wall_ref[False] - 1.0
        spans_path = out_dir / f"trace-{name}-seed{seed}.jsonl"
        rec.write(spans_path)
        report["trace"] = {"spans": len(rec.spans), "spans_file": spans_path.name,
                           "untraced_pass_s": wall[False], "traced_pass_s": wall[True],
                           "self_times": self_times}
        metrics = _metric(layer, LAYER_UNITS)
    else:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = _metric(values, END_TO_END_UNITS)
    result = {"correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return result, report
