"""Benchmark of the mlf forecaster: closed-loop training, evaluation and forecasting.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Run from the repository root. The workloads are in `workloads.py`, the metric
names and units in `BENCHMARK.json`. `--trace 0` measures the end-to-end
metrics; `--trace 1` runs the same workload with spans around every layer and
reports the per-layer metrics. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. The lines before it
give the environment and, in a traced run, the per-layer table. The same
record, with sample counts, tail percentiles and the measurements that carry
no bound (medians, tails, test MSE), is written to `bench/results/`.

Exit codes: 0 measured; 2 the program or BENCHMARK.json is missing, or a
traced entry point of `tracer.py` is gone or never ran; 3 an output was wrong
(the correctness gate failed). Nothing is reported unless the code is 0.
"""

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

# One BLAS thread, set before numpy is imported: on 2 cores it was both
# faster and steadier than the default for every workload.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def report(outcome, spec: dict, trace: bool) -> dict:
    """The result line: every metric BENCHMARK.json names for this mode."""
    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in names:
        name, unit = entry["name"], entry["unit"]
        if name not in outcome.metrics:
            raise KeyError(f"metric {name!r} of BENCHMARK.json was not measured")
        value, measured_unit = outcome.metrics[name]
        if measured_unit != unit:
            raise ValueError(f"metric {name!r} is measured in {measured_unit!r}, BENCHMARK.json says {unit!r}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def format_table(table: dict) -> list[str]:
    lines = [f"{'phase':<10} {'span':<20} {'calls':>7} {'self_ms':>11} {'total_ms':>11} {'nodes':>8} {'bwd_ms':>10}"]
    for (phase, name), r in sorted(table.items()):
        lines.append(
            f"{phase:<10} {name:<20} {r['calls']:>7} {r['self_ms']:>11.2f} {r['total_ms']:>11.2f} "
            f"{r['nodes']:>8} {r['bwd_ms']:>10.2f}"
        )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mlf" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout with src/mlf and BENCHMARK.json ({ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        outcome = workloads.run_workload(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    except workloads.GateError as exc:
        print(f"error: correctness gate failed: {exc}", file=sys.stderr)
        return 3
    except workloads.LayerMapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(outcome, spec, bool(args.trace))

    print(json.dumps({"env": env, **outcome.info}))
    if outcome.table is not None:
        print("\n".join(format_table(outcome.table)))
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record = {
        "env": env,
        "seconds": args.seconds,
        "trace": args.trace,
        **outcome.info,
        "result": result,
    }
    if outcome.table is not None:
        record["trace_table"] = [{"phase": ph, "span": name, **r} for (ph, name), r in sorted(outcome.table.items())]
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
