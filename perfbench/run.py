"""Run one qforage benchmark workload; the last line of stdout is the result.

    python3 perfbench/run.py --workload toy-bandit --seed 1 --seconds 40 --trace 0

Run it from anywhere: it benchmarks the sources in ``src/`` next to this
directory and exits with code 2, printing no result, when they are missing.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
The line before the result holds what is recorded about the run but is not a
metric (versions, thread settings, the checkpoint SHA-256, sample quartiles).
The full run record, with every timed operation, and a traced run's spans are
written under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

# BLAS and OpenMP size their thread pools when NumPy loads, so these are set
# before anything imports it: one caller on one core per run.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_sha() -> str | None:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def source_sha256() -> str:
    """Hash of every file under src/qforage, so runs outside git are identified too."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qforage").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ[name] for name in THREAD_ENV},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "qforage" / "__init__.py").is_file():
        print(f"error: no qforage sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    runs = BENCH_DIR / "runs"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs) as workdir:
        outcome = harness.run(workload, args.seed, args.seconds, bool(args.trace), Path(workdir))
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **environment(), **outcome.info}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (runs / f"{stem}.json").write_text(json.dumps({"info": info, "result": outcome.result}, indent=1))
    if outcome.spans:
        (runs / f"{stem}-spans.json").write_text(json.dumps(outcome.spans))
    print(json.dumps({"info": {k: v for k, v in info.items() if k != "operations"}}))
    print(json.dumps(outcome.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
