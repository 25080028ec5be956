"""Repository benchmark: one run of one workload, reported as one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload audio-batched --seed 1 --seconds 40 --trace 0

Workloads are defined in ``perfbench/workload.py`` and described in
``perfbench/README.md``.  A run

1. trains the tiny-preset checkpoints into ``.bench_build/repro_cache``
   once per source tree (untimed; never the repository's ``.repro_cache``);
2. empties the result store, so no run hits cells of an earlier run;
3. starts four set-up-only processes and then the measured process, all
   with BLAS and OpenMP pinned to one thread, and reports the median of
   the five set-up times as ``setup_s``;
4. prints an environment and diagnostics record, then, as the last line,
   ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A run fails (non-zero exit, no result line) if the repository's sources
are missing, a process fails or overruns, a model trains during the run,
or a metric is not a finite number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "repro_cache"
STAMP = CACHE / "prepared.json"
#: Set-up-only processes started before the measured one.
SETUP_PROBES = 4
PREPARE_TIMEOUT_S = 600.0
#: Wall-clock budget of one run after preparation.
RUN_DEADLINE_S = 170.0
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

sys.path.insert(0, str(HERE))
from workload import READY, RESULT, WORKLOADS  # noqa: E402


class RunFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["REPRO_CACHE_DIR"] = str(CACHE)
    return env


class Child:
    """A ``workload.py`` process whose stdout lines arrive on a queue."""

    def __init__(self, args, env):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            start_new_session=True,
        )
        self.lines: "queue.Queue" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str, deadline: float):
        """The first stdout line starting with ``prefix`` and its arrival."""
        while True:
            try:
                line = self.lines.get(timeout=max(deadline - time.monotonic(), 0))
            except queue.Empty:
                raise RunFailed(f"timed out waiting for {prefix.strip()!r}")
            if line is None:
                raise RunFailed(
                    f"workload process exited ({self.proc.wait()}) before "
                    f"{prefix.strip()!r}"
                )
            if line.startswith(prefix):
                return line[len(prefix):], time.perf_counter()
            print(line, file=sys.stderr)

    def finish(self, deadline: float) -> None:
        try:
            code = self.proc.wait(timeout=max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            raise RunFailed("workload process did not exit in time")
        self.reader.join()
        if code != 0:
            raise RunFailed(f"workload process exited with {code}")

    def kill(self) -> None:
        """Kill what is left of the process group, a daemon included."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group has already exited
        self.proc.wait()
        self.reader.join(timeout=5)


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def prepare(env: dict) -> None:
    """Train the checkpoints once per source tree (untimed)."""
    fingerprint = source_fingerprint()
    if STAMP.is_file() and json.loads(STAMP.read_text()) == fingerprint:
        return
    CACHE.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "prepare"],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        timeout=PREPARE_TIMEOUT_S,
    )
    STAMP.write_text(json.dumps(fingerprint))


def checkpoints() -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in CACHE.glob("*.npz")}


def environment_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pinned_env": THREAD_PINS,
    }


def measure(args):
    """One run; returns the record and the result objects."""
    env = child_env()
    prepare(env)
    for stale in ("store", "campaigns"):
        shutil.rmtree(CACHE / stale, ignore_errors=True)
    models_before = checkpoints()
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setup_samples = []
    for _ in range(SETUP_PROBES):
        child = Child(["setup", *common], env)
        try:
            _, ready = child.expect(READY, deadline)
            setup_samples.append(ready - child.start)
            child.finish(deadline)
        finally:
            child.kill()
    child = Child(["run", *common, "--trace", str(args.trace)], env)
    try:
        _, ready = child.expect(READY, deadline)
        setup_samples.append(ready - child.start)
        line, _ = child.expect(RESULT, deadline)
        child.finish(deadline)
    finally:
        child.kill()
    if checkpoints() != models_before:
        raise RunFailed("a model was trained or rewritten during the run")
    result = json.loads(line)
    metrics = result.pop("metrics")
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setup_samples), "s"),
                   **metrics}
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise RunFailed(f"metric {name} is {value}")
    record = environment_record(args)
    record["setup_samples_s"] = setup_samples
    record.update(result.pop("record"))
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record, result = measure(args)
    except (RunFailed, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
