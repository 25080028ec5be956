"""One run of one benchmark workload, in a fresh process.

``perfbench/run.py`` spawns this script; it is not meant to be run by
hand, though it can be (with ``PYTHONPATH=src`` and ``REPRO_CACHE_DIR``
pointing at a cache the ``prepare`` mode has filled):

``python perfbench/workload.py MODE --workload NAME --seed N --seconds S --trace 0|1``

Modes:

* ``prepare`` trains every checkpoint the workloads use, once, untimed.
* ``setup`` sets up, prints the ready line and tears down again: one
  extra ``setup_s`` sample.
* ``run`` sets up, prints the ready line, warms up, then times a closed
  loop of requests from one client for at least ``--seconds`` (and at
  least :data:`MIN_FRESH` fresh requests), checks the replies against the
  store-free engine, and prints one result line.

Every request is generated from ``--seed``.  A *fresh* request sweeps
level 0 plus faulty bit-flip levels never used before in the run, so its
faulty cells are new work; a *served* request repeats an earlier request
verbatim, so the result store answers it.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import json
import math
import os
import resource
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from tracing import (
    Tracer,
    local_layers,
    unattributed_seconds,
    service_layers,
)

PRESET = "tiny"
#: Fresh timed requests a run needs so that p75 has >= 10 samples above it.
MIN_FRESH = 40
#: A service request still unanswered after this counts as failed.
REQUEST_TIMEOUT_S = 30.0
DAEMON_START_TIMEOUT_S = 60.0
SERVICE_WORKERS = 2
#: Wall time a request's layer self times may leave unaccounted: a share
#: of the request plus a fixed allowance for the tracer's own calls.
RECONCILE_SHARE = 0.02
RECONCILE_FIXED_S = 50e-6
#: Share of the fastest and of the slowest served requests left out of
#: ``served_mean_s``.  An in-process served request is ~0.5 ms of pure
#: Python, and a shared VM can run pure Python at two speeds that alternate
#: every second or so (1.8x apart on a 2-vCPU Xeon VM).  A percentile of
#: such a two-mode sample jumps between the modes from run to run; a mean
#: moves only in proportion to the time spent in each.
SERVED_TRIM = 0.1
#: Share of each request class (fresh, served) the output check recomputes.
CHECK_SHARE = 0.25
READY = "perfbench:ready"
RESULT = "perfbench:result "
#: Table-I methods per task, with the task's conventional normalization.
CONVENTIONAL_NORM = {"co2": "batch", "audio": "batch"}


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: Tuple[str, ...]  # fresh requests cycle through these
    levels: int  # fresh faulty levels per request, swept after level 0
    chips: int  # Monte Carlo chip instances per faulty level
    served_every: int  # every n-th request repeats an earlier one
    executor: Optional[str]  # in-process executor; None = the service
    warmup: int  # untimed requests before the loop


#: An in-process ``co2-serial`` workload (co2/LSTM on the serial executor)
#: was measured and left out: its interpreter-bound requests moved by up to
#: 1.5x between quarter-hours on a shared 2-vCPU host, beyond the 25%
#: regression bounds used here.  Its layers are still measured on these two.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("audio-batched", ("audio",), levels=4, chips=4,
                 served_every=2, executor="batched", warmup=3),
        # Two audio requests per co2 one: co2 requests take ~1.5x longer,
        # and with an even mix the median would sit in the gap between
        # the two latency clusters and jump between them from run to run.
        Workload("service-mixed", ("audio", "audio", "co2"), levels=3,
                 chips=3, served_every=3, executor=None, warmup=5),
    )
}


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass
class Request:
    index: int
    task: str
    levels: Tuple[float, ...]  # faulty levels; level 0 is always first
    served: bool
    specs: list = field(default_factory=list)
    latency: float = math.nan
    cells: int = 0
    curves: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    stats: Optional[dict] = None
    error: Optional[str] = None


class RequestStream:
    """Seeded request generator; the same seed gives the same requests."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self.used = {task: set() for task in workload.tasks}
        self.fresh: List[Request] = []
        self.count = 0

    def new_levels(self, task: str, n: int) -> Tuple[float, ...]:
        levels = []
        while len(levels) < n:
            level = round(float(self.rng.uniform(0.01, 0.2)), 5)
            if f"{level:g}" not in self.used[task]:
                self.used[task].add(f"{level:g}")
                levels.append(level)
        return tuple(sorted(levels))

    def next(self) -> Request:
        w = self.workload
        index = self.count
        self.count += 1
        if self.fresh and index % w.served_every == w.served_every - 1:
            source = self.fresh[int(self.rng.integers(len(self.fresh)))]
            return Request(index, source.task, source.levels, served=True,
                           specs=source.specs)
        task = w.tasks[len(self.fresh) % len(w.tasks)]
        levels = self.new_levels(task, w.levels)
        request = Request(index, task, levels, served=False,
                          specs=specs_for(levels))
        self.fresh.append(request)
        return request


def specs_for(levels):
    from repro.faults import bitflip_sweep

    return bitflip_sweep((0.0,) + tuple(levels))


@functools.lru_cache(maxsize=None)
def methods_for(task: str):
    from repro.models import all_methods

    return tuple(all_methods(conventional_norm=CONVENTIONAL_NORM[task]))


def curves_of(sweep) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    return {name: (c.means, c.stds) for name, c in sweep.curves.items()}


def cells_of(workload: Workload, request: Request) -> int:
    per_method = 1 + len(request.levels) * workload.chips
    return per_method * len(methods_for(request.task))


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
class LocalClient:
    """In-process sweeps through ``repro.eval.run_robustness_sweep``."""

    def __init__(self, workload: Workload, tracer: Optional[Tracer]):
        from repro.eval import build_task, trained_model

        self.workload = workload
        self.tasks = {}
        self.models = []
        for name in workload.tasks:
            with _span(tracer, "data.build_task"):
                task = build_task(name, preset=PRESET)
            self.tasks[name] = task
            for method in methods_for(name):
                with _span(tracer, "eval.trained_model"):
                    self.models.append(trained_model(task, method, PRESET))

    def sweep(self, request: Request):
        from repro.eval import run_robustness_sweep

        sweep = run_robustness_sweep(
            self.tasks[request.task],
            methods_for(request.task),
            request.specs,
            preset=PRESET,
            n_runs=self.workload.chips,
            executor=self.workload.executor,
        )
        return curves_of(sweep), None

    def peak_rss_mb(self) -> float:
        return 0.0  # no process besides the client

    def close(self) -> None:
        pass


class ServiceRun:
    """A ``python -m repro.serve`` child and one client connection."""

    def __init__(self, workload: Workload, traced: bool):
        from repro.serve import ServiceClient

        self.workload = workload
        here = os.path.dirname(os.path.abspath(__file__))
        daemon = (
            [os.path.join(here, "daemon_traced.py")] if traced
            else ["-m", "repro.serve"]
        )
        self.proc = subprocess.Popen(
            [sys.executable, *daemon, "--workers", str(SERVICE_WORKERS)],
            stdout=subprocess.PIPE, text=True,
        )
        self.client = None
        try:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], DAEMON_START_TIMEOUT_S
            )
            line = self.proc.stdout.readline() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            # No retries: a transport error or timeout fails the request.
            self.client = ServiceClient(
                line.split()[-1], request_timeout=REQUEST_TIMEOUT_S, retries=0
            )
            self.client.ping()
        except BaseException:
            self.close()
            raise

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set size so far (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("daemon status has no VmHWM")

    def sweep(self, request: Request):
        sweep, stats = self.client.sweep(
            request.task,
            methods_for(request.task),
            request.specs,
            preset=PRESET,
            n_runs=self.workload.chips,
        )
        return curves_of(sweep), stats

    def close(self) -> None:
        if self.client is not None:
            try:
                self.client.shutdown()
            except (ConnectionError, OSError):
                pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
# Host drift probe
# ----------------------------------------------------------------------
def host_probe() -> float:
    """Median of 3 runs of a fixed pure-Python + numpy loop (seconds)."""
    a = np.linspace(0.0, 1.0, 192 * 192).reshape(192, 192)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        b = a
        for _ in range(6):
            b = np.tanh(b @ a)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


# ----------------------------------------------------------------------
# Output check: the store-free engine
# ----------------------------------------------------------------------
class Reference:
    """Recomputes sweeps with ``MonteCarloCampaign(executor="batched")``.

    Uses private deep copies of the trained models, never touches the
    result store (so a stale or wrong store entry cannot leak into it) and
    runs interpreted (``plan=False``), so plan replay is checked against
    the path it replaces.
    """

    def __init__(self, workload: Workload):
        from repro.eval import (
            build_task,
            campaign_eval_cap,
            make_evaluator,
            trained_model,
        )
        from repro.eval.tasks import mc_samples

        self.workload = workload
        self.pairs = {}
        for name in dict.fromkeys(workload.tasks):
            task = build_task(name, preset=PRESET)
            for method in methods_for(name):
                model = copy.deepcopy(trained_model(task, method, PRESET))
                evaluator = make_evaluator(
                    task.name, task.test_set, method,
                    mc_samples=mc_samples(PRESET),
                    max_samples=campaign_eval_cap(PRESET),
                )
                self.pairs[(name, method.name)] = (model, evaluator)
        self.memo: Dict[tuple, dict] = {}

    def curves(self, task: str, levels) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        from repro.faults import MonteCarloCampaign

        key = (task, tuple(levels))
        if key not in self.memo:
            out = {}
            for method in methods_for(task):
                model, evaluator = self.pairs[(task, method.name)]
                results = MonteCarloCampaign(
                    model, evaluator, n_runs=self.workload.chips,
                    base_seed=0, executor="batched", plan=False,
                ).sweep(specs_for(levels))
                out[method.name] = (
                    np.array([r.mean for r in results]),
                    np.array([r.std for r in results]),
                )
            self.memo[key] = out
        return self.memo[key]


def same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def mismatched_methods(got, want) -> List[str]:
    """Methods whose means or stds differ from ``want`` in any bit."""
    return [
        name for name, curve in want.items()
        if name not in got
        or not all(same_bits(a, b) for a, b in zip(got[name], curve))
    ]


def check_outputs(requests: List[Request], reference: Reference,
                  seed: int) -> int:
    """Check a seeded sample (:data:`CHECK_SHARE` of each class) bit for bit.

    Served repeats of a sampled fresh request come first in the served
    sample (in seeded order), since their reference is already computed.
    A mismatch or an exception marks the request failed.  Returns the
    number of requests checked.
    """
    rng = np.random.default_rng([seed, 1])
    fresh = [r for r in requests if not r.served and not r.error]
    served = [r for r in requests if r.served and not r.error]
    picked = [fresh[i] for i in
              rng.permutation(len(fresh))[:math.ceil(len(fresh) * CHECK_SHARE)]]
    covered = {(r.task, r.levels) for r in picked}
    order = sorted(rng.permutation(len(served)),
                   key=lambda i: (served[i].task, served[i].levels) not in covered)
    picked += [served[i] for i in order[:math.ceil(len(served) * CHECK_SHARE)]]
    for request in picked:
        try:
            bad = mismatched_methods(
                request.curves, reference.curves(request.task, request.levels)
            )
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            request.error = f"output check raised {exc!r}"
            continue
        if bad:
            request.error = f"output mismatch in {bad}"
    return len(picked)


def inserted_level_probe(client: ServiceRun, stream: RequestStream,
                         requests: List[Request], reference: Reference) -> dict:
    """Re-issue an earlier co2 sweep with one new level inserted before it.

    The scenario index of every later level shifts by one, so a store that
    keys cells without their scenario index serves values computed for
    another index.  Reported, never routed around.
    """
    source = next(r for r in requests if r.task == "co2" and not r.served)
    levels = stream.new_levels("co2", 1) + source.levels
    probe = Request(-1, "co2", levels, served=False,
                    specs=specs_for(levels))
    try:
        probe.curves, _ = client.sweep(probe)
        bad = mismatched_methods(probe.curves, reference.curves("co2", levels))
    except Exception as exc:  # noqa: BLE001 - reported as the probe's failure
        return {"levels": list(levels), "passed": False, "error": repr(exc)}
    return {"levels": list(levels), "passed": not bad, "mismatched": bad}


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class LayerTotals:
    """Per-layer sums over the traced timed requests."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.requests = 0
        self.unreconciled = 0  # requests outside the reconcile tolerance
        self.balance: List[float] = []

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + float(value)

    def get(self, name: str) -> float:
        return self.values.get(name, 0.0)


def counters_local(client: LocalClient) -> Dict[str, float]:
    from repro.eval import result_store
    from repro.faults import program_stats
    from repro.tensor.plan import plan_stats

    out = {k: float(v) for k, v in result_store().snapshot().items()}
    for model in client.models:
        plans = plan_stats(model)
        programs = program_stats(model)
        for name, value in (("traces", plans.traces),
                            ("replays", plans.replays),
                            ("attached", programs.attached),
                            ("skipped", programs.skipped)):
            out[name] = out.get(name, 0.0) + value
    return out


def run_request(client, request: Request, tracer: Optional[Tracer],
                totals: Optional[LayerTotals], workload: Workload) -> None:
    """Send one request and time it; traced runs also attribute layers."""
    from repro.tensor import plan

    local = isinstance(client, LocalClient)
    with contextlib.ExitStack() as stack:
        stages = None
        if tracer is not None:
            tracer.request = request.index
            if local:
                stages = stack.enter_context(plan.profiled())
                tracer.stages = stages
                before = counters_local(client)
        root = "eval.driver_self" if local else "serve.client_sweep"
        start = time.perf_counter()
        try:
            with _span(tracer, root):
                request.curves, request.stats = client.sweep(request)
        except Exception as exc:  # noqa: BLE001 - a failed request
            request.error = repr(exc)
        request.latency = time.perf_counter() - start
    request.cells = cells_of(workload, request)
    if tracer is None or request.error:
        return
    if local:
        layers = local_layers(tracer, request.index, stages)
        after = counters_local(client)
        for name in ("hits", "misses", "puts", "merges"):
            totals.add(f"store.{name}", after[name] - before[name])
        for name, key in (("plan.traces", "traces"),
                          ("plan.replays", "replays"),
                          ("faults.attached", "attached"),
                          ("faults.skipped", "skipped")):
            totals.add(name, after[key] - before[key])
        totals.add("plan.steps_traced", stages.get("opt.steps_before", 0.0))
        totals.add("plan.steps_kept", stages.get("opt.steps_after", 0.0))
    else:
        stats = request.stats
        layers = service_layers(tracer, request.index, stats)
        store = stats.get("store", {})
        for name in ("hits", "misses", "puts", "merges"):
            totals.add(f"store.{name}", store.get(name, 0))
        totals.add("store.get", store.get("get_s", 0.0))
        totals.add("store.put", store.get("put_s", 0.0))
        for name in ("computed_cells", "served_cells", "redundant_cells",
                     "rounds"):
            totals.add(f"serve.{name}", stats.get(name, 0))
        if not request.served and stats.get("computed_cells", 0):
            cells = {row["worker"]: row["cells"] for row in stats["workers"]}
            per_worker = [cells.get(w, 0) for w in range(SERVICE_WORKERS)]
            totals.balance.append(min(per_worker) / max(per_worker))
    for name, seconds in layers.items():
        totals.add(name, seconds)
    totals.requests += 1
    missed = unattributed_seconds(layers, request.latency)
    totals.add("trace.unattributed", missed)
    if missed > RECONCILE_SHARE * request.latency + RECONCILE_FIXED_S:
        totals.unreconciled += 1


def total_peak_rss_mb(client) -> float:
    """Peak RSS of this process plus the client's daemon, if any."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return own + client.peak_rss_mb()


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else math.nan


def trimmed_mean(values: List[float], share: float = SERVED_TRIM) -> float:
    """Mean of ``values`` without the lowest and highest ``share`` of them."""
    values = sorted(values)
    cut = int(len(values) * share)
    kept = values[cut:len(values) - cut]
    return float(np.mean(kept)) if kept else math.nan


def per_layer_metrics(totals: LayerTotals, tracer: Tracer, setup: dict,
                      host: List[float], fresh_p50: float,
                      probe: Optional[dict]) -> Dict[str, Tuple[float, str]]:
    n = max(totals.requests, 1)

    def mean(name):
        return totals.get(name) / n

    def ratio(num, den):
        den = totals.get(num) + totals.get(den)
        return totals.get(num) / den if den else 0.0

    metrics = {
        "import.s": (setup["import"], "s"),
        "data.build_task_s": (setup["build_task"], "s"),
        "eval.trained_model_s": (setup["trained_model"], "s"),
        "serve.start_s": (setup["serve_start"], "s"),
    }
    for name in ("plan.trace", "plan.compile", "plan.replay", "faults.attach",
                 "faults.program", "faults.campaign_sweep", "eval.metric_self",
                 "eval.driver_self", "eval.model_fetch", "eval.make_evaluator",
                 "store.get", "store.put", "serve.compute", "serve.store",
                 "serve.overhead", "trace.unattributed"):
        metrics[name + "_s"] = (mean(name), "s")
    for name in ("plan.traces", "plan.replays", "plan.steps_traced",
                 "plan.steps_kept", "faults.attached", "faults.skipped",
                 "faults.cells", "store.hits", "store.misses", "store.puts",
                 "store.merges", "serve.computed_cells", "serve.served_cells",
                 "serve.redundant_cells", "serve.rounds"):
        metrics[name] = (mean(name), "count")
    metrics.update({
        "plan.replay_ratio": (ratio("plan.replays", "plan.traces"), "ratio"),
        "faults.program_hit_ratio": (
            ratio("faults.skipped", "faults.attached"), "ratio"),
        "store.hit_ratio": (ratio("store.hits", "store.misses"), "ratio"),
        "serve.worker_balance": (
            float(np.mean(totals.balance)) if totals.balance else 0.0,
            "ratio"),
        "host.probe_s": (float(np.median(host)), "s"),
        "host.probe_drift": (host[1] / host[0], "ratio"),
        "trace.fresh_p50_s": (fresh_p50, "s"),
        "trace.unreconciled": (float(totals.unreconciled), "count"),
        "trace.spans": (float(len(tracer.spans)), "count"),
        "check.probe_failed": (
            0.0 if probe is None or probe["passed"] else 1.0, "count"),
    })
    return metrics


def set_up(workload: Workload, tracer: Optional[Tracer]):
    """Import, build tasks, load models (and start the service)."""
    setup = {"build_task": 0.0, "trained_model": 0.0, "serve_start": 0.0}
    start = time.perf_counter()
    import repro.eval  # noqa: F401
    import repro.faults  # noqa: F401

    if workload.executor is None:
        import repro.serve  # noqa: F401
    setup["import"] = time.perf_counter() - start
    if tracer is not None:
        tracer.active = True
    if workload.executor is not None:
        client = LocalClient(workload, tracer)
    else:
        start = time.perf_counter()
        client = ServiceRun(workload, traced=tracer is not None)
        setup["serve_start"] = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
        for span in tracer.spans:
            key = span.name.split(".", 1)[1]
            setup[key] += span.seconds
    return client, setup


def run(args) -> None:
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    client, setup = set_up(workload, tracer)
    print(READY, flush=True)
    try:
        if args.mode == "setup":
            return
        stream = RequestStream(workload, args.seed)
        for _ in range(workload.warmup):
            warm = stream.next()
            run_request(client, warm, None, None, workload)
            if warm.error:
                raise RuntimeError(f"warm-up request failed: {warm.error}")
        host = [host_probe()]
        totals = None
        if tracer is not None:
            totals = LayerTotals()
            if workload.executor is not None:
                tracer.instrument_local()
            tracer.active = True
        requests: List[Request] = []
        fresh = 0
        peak_rss_mb = math.nan
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= 1.5 * args.seconds or (
                elapsed >= args.seconds and fresh >= MIN_FRESH
            ):
                break
            request = stream.next()
            run_request(client, request, tracer, totals, workload)
            requests.append(request)
            if not request.served:
                fresh += 1
                if fresh == MIN_FRESH:
                    # The engine's caches grow with every fresh request, so
                    # memory is sampled after a fixed amount of work.
                    peak_rss_mb = total_peak_rss_mb(client)
        timed = time.perf_counter() - start
        if math.isnan(peak_rss_mb):  # fewer than MIN_FRESH fresh requests
            peak_rss_mb = total_peak_rss_mb(client)
        if tracer is not None:
            tracer.active = False
            tracer.stages = None
            tracer.restore()
            totals.add("faults.cells", tracer.cells)
        host.append(host_probe())
        check_start = time.perf_counter()
        reference = Reference(workload)
        checked = check_outputs(requests, reference, args.seed)
        probe = None
        if workload.executor is None:
            probe = inserted_level_probe(client, stream, requests, reference)
        check_s = time.perf_counter() - check_start
    finally:
        client.close()

    ok = [r for r in requests if not r.error]
    fresh = [r.latency for r in ok if not r.served]
    served = [r.latency for r in ok if r.served]
    failed = len(requests) - len(ok)
    result = {
        "attempted": len(requests),
        "failed": failed,
        "correct": failed == 0 and checked > 0,
        "record": {
            "fresh_requests": len(fresh),
            "served_requests": len(served),
            "checked_requests": checked,
            "check_s": check_s,
            "timed_s": timed,
            "host_probe_s": host,
            "inserted_level_probe": probe,
            "errors": sorted({r.error for r in requests if r.error})[:5],
        },
    }
    if failed:
        print(f"perfbench: {failed} of {len(requests)} timed requests "
              f"failed: {result['record']['errors']}", file=sys.stderr)
    if probe is not None and not probe["passed"]:
        print(f"perfbench: inserted-level probe FAILED: {probe}",
              file=sys.stderr)
    fresh_p50 = percentile(fresh, 50)
    if tracer is None:
        result["metrics"] = {
            "fresh_p50_s": (fresh_p50, "s"),
            "fresh_p75_s": (percentile(fresh, 75), "s"),
            "served_mean_s": (trimmed_mean(served), "s"),
            "cells_per_s": (sum(r.cells for r in ok) / timed, "cells/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        result["metrics"] = per_layer_metrics(
            totals, tracer, setup, host, fresh_p50, probe
        )
        if totals.unreconciled:
            print(f"perfbench: {totals.unreconciled} traced requests have "
                  f"layer self times off their wall time by more than "
                  f"{RECONCILE_SHARE:.0%} + {RECONCILE_FIXED_S * 1e6:.0f} us",
                  file=sys.stderr)
    print(RESULT + json.dumps(result), flush=True)


def prepare() -> None:
    """Train (or load) every checkpoint the workloads use."""
    from repro.eval import build_task, trained_model

    import repro.serve  # noqa: F401  (compiles the daemon's modules)

    for name in sorted({t for w in WORKLOADS.values() for t in w.tasks}):
        task = build_task(name, preset=PRESET)
        for method in methods_for(name):
            trained_model(task, method, PRESET)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "prepare":
        prepare()
        return
    if args.workload is None:
        parser.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
