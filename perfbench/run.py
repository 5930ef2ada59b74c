"""fedvid benchmark harness.

    python3 perfbench/run.py --workload world --seed 1 --seconds 20 --trace 0

Run from the root of a fedvid checkout; the harness imports the package from
that checkout's `src/`. It alternates the workload's setup and its timed unit
until `--seconds` have passed, checks every repetition's outputs against the
first, and prints as its last line one JSON
object: `correct`, `attempted`, `failed` and the metrics that
`BENCHMARK.json` lists (`end_to_end` with `--trace 0`, `per_layer` with
`--trace 1`). A traced run alternates untraced and traced repetitions, takes
the per-layer metrics from the traced ones, reports the tracing overhead,
and writes its spans to `.bench_out/`.
"""

from __future__ import annotations

import os

# One BLAS thread: the fed workload already runs three Python threads on a
# small machine, and the thread count must not vary between runs.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 3
MIN_UNITS = 3          # untraced repetitions, and traced ones in a traced run
SPAN_FIELDS = ["id", "parent", "name", "start", "end", "thread", "run"]


def _load_fedvid():
    src = ROOT / "src"
    if not (src / "fedvid" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fedvid package under {src}; run from a fedvid checkout")
    sys.path.insert(0, str(src))
    import fedvid
    if Path(fedvid.__file__).resolve().parent != (src / "fedvid").resolve():
        sys.exit(f"perfbench: imported fedvid from {fedvid.__file__}, not from {src}")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself
    through numpy's core extension, which links it."""
    import ctypes
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(), "blas_threads_env": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
    }


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def run(workload_name: str, seed: int, seconds: int, trace: bool):
    """Set up, then alternate timed repetitions and further setups until
    `seconds` have passed. Spreading the setups over the run exposes them to
    the same machine noise as the repetitions, instead of to one moment."""
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    tally = Tally()
    tracer = Tracer() if trace else None
    setup_s: list[float] = []
    first_setup = None
    units: list[tuple[bool, float, object]] = []   # (traced, wall_s, UnitResult)
    layer_values: list[dict] = []

    def set_up() -> None:
        nonlocal first_setup
        t0 = time.perf_counter()
        out = workload.setup()
        setup_s.append(time.perf_counter() - t0)
        if first_setup is None:
            first_setup = out
        else:
            tally.check(out == first_setup,
                        f"setup {len(setup_s)} built different inputs than setup 1")

    def enough() -> bool:
        n_traced = sum(1 for traced, _, _ in units if traced)
        return (len(setup_s) >= MIN_SETUPS and len(units) - n_traced >= MIN_UNITS
                and (not trace or n_traced >= MIN_UNITS))

    set_up()
    deadline = time.perf_counter() + seconds
    for i in range(1, 1000):
        traced = trace and i % 2 == 0
        mark = None
        try:
            if traced:
                tracer.install()
                mark = tracer.begin_unit(f"{workload_name}-{seed}-{i}")
            t0 = time.perf_counter()
            result = workload.unit()
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            tally.attempted += workload.ops
            tally.failed += workload.ops
            tally.problems.append(f"repetition {i} raised")
            result = None
        finally:
            if traced:
                tracer.restore()
        if result is not None:
            tally.attempted += workload.ops
            tally.failed += result.dropped
            for what, ok in result.checks.items():
                tally.check(ok, f"repetition {i}: {what}")
            if units:
                tally.check(result.outputs == units[0][2].outputs,
                            f"repetition {i} outputs differ from repetition 1")
            units.append((traced, wall, result))
            if traced:
                values = tracer.unit_metrics(mark)
                layer_values.append(values)
                for problem in tracer.missing_calls(workload_name, values):
                    tally.check(False, f"repetition {i}: {problem}")
        if time.perf_counter() >= deadline and (enough() or not units):
            break
        set_up()
    if trace:
        for problem in sorted(tracer.problems):
            tally.check(False, problem)
    return workload, tally, setup_s, units, layer_values, tracer


def end_to_end(setup_s, units) -> dict[str, float]:
    plain = [(wall, r) for traced, wall, r in units if not traced]
    first = plain[0][1]
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(wall for wall, _ in plain),
        "items_per_s": statistics.median(r.items / r.core_s for _, r in plain),
        "cr_total": first.quality["cr_total"],
        "heldout_loss": first.quality["heldout_loss"],
        "autopair_rate": first.quality["autopair_rate"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names, units, layer_values) -> dict[str, float]:
    out = {name: statistics.median(v.get(name, 0.0) for v in layer_values) for name in names
           if name != "trace.overhead_s"}
    # each traced repetition against the untraced one just before it, so that
    # machine noise slower than two repetitions cancels
    overheads = [wall - units[k - 1][1] for k, (traced, wall, _) in enumerate(units)
                 if traced and k > 0 and not units[k - 1][0]]
    if overheads:
        out["trace.overhead_s"] = statistics.median(overheads)
    return out


def write_spans(path: Path, prov: dict, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(json.dumps({"provenance": prov, "counts": tracer.counts,
                            "span_fields": SPAN_FIELDS}) + "\n")
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    _load_fedvid()

    prov = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    print("provenance " + json.dumps(prov), flush=True)
    workload, tally, setup_s, units, layer_values, tracer = run(
        args.workload, args.seed, args.seconds, bool(args.trace))

    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    values: dict[str, float] = {}
    if units and (layer_values or not args.trace):
        if args.trace:
            values = per_layer([m["name"] for m in metric_specs], units, layer_values)
        else:
            values = end_to_end(setup_s, units)
    if args.trace:
        out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(out, prov, tracer)
        print(f"spans written to {out.relative_to(ROOT)}")

    walls = [wall for _, wall, _ in units]
    print(f"{len(units)} repetitions, wall_s " + " ".join(f"{w:.3f}" for w in walls)
          + f"; {len(setup_s)} setups, setup_s " + " ".join(f"{s:.3f}" for s in setup_s))
    metrics_out = {}
    for m in metric_specs:
        value = values.get(m["name"])
        if value is None:
            tally.check(False, f"metric {m['name']} not measured")
            value = 0.0
        metrics_out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {workload.item + '_per_s':<40} {values.get('items_per_s', 0.0):>14.6g} 1/s"
              "  (this workload's items_per_s)")
        print(f"  {'fail_ratio':<40} {tally.failed / max(1, tally.attempted):>14.6g}"
              f"  ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
