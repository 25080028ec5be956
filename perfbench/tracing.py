"""In-memory spans and per-request layer attribution for traced runs.

A traced run records one span around each call the benchmark makes into a
layer of the program, and around the program's own public entry points by
wrapping them in place (:meth:`Tracer.instrument_local`).  Spans stay in memory
until the run ends.  Inside the campaign engine the existing stage
collector (:func:`repro.tensor.plan.profiled`) supplies the attach,
program, trace, replay and metric split, which the runner opens once per
request; plan compilation is timed by wrapping ``Plan.__init__`` and added
to the same per-request stage dict under ``compile``.

A layer's self time is its span's duration minus the time its child spans
(or nested stages) cover.  :func:`local_layers` and :func:`service_layers`
turn one request's spans and stages into ``{layer: self seconds}``; the
values sum to the request's root span, so comparing that sum with the
wall time the runner measured outside the call reconciles the trace.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[int] = None
    children: List[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one single-threaded client.

    Spans are recorded only while ``active`` is true, so setup, timed
    requests and nothing else (warm-up, output checks) land in the trace.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.by_request: Dict[Optional[int], List[int]] = {}
        self.active = False
        self.request: Optional[int] = None
        self.stages: Optional[Dict[str, float]] = None
        self.cells = 0  # cells handed to campaign sweeps while active
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent=parent,
                      request=self.request)
        self.spans.append(record)
        self.by_request.setdefault(self.request, []).append(index)
        if parent is not None:
            self.spans[parent].children.append(index)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def self_seconds(self, index: int) -> float:
        span = self.spans[index]
        return span.seconds - sum(self.spans[c].seconds for c in span.children)

    def request_spans(self, request: int) -> List[int]:
        return self.by_request.get(request, [])

    # -- wrapping the program's public entry points --------------------
    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def time_into_stage(self, owner, attr: str, stage: str) -> None:
        """Add the call's wall time to the current request's stage dict."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                stages = self.stages
                if self.active and stages is not None:
                    stages[stage] = (
                        stages.get(stage, 0.0) + time.perf_counter() - start
                    )

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def instrument_local(self) -> None:
        """Wrap the layers ``run_robustness_sweep`` calls into."""
        from repro.eval import cache, campaigns
        from repro.faults import campaign
        from repro.tensor import plan

        self.wrap(campaigns, "trained_model", "eval.model_fetch")
        self.wrap(campaigns, "make_evaluator", "eval.make_evaluator")
        self._wrap_campaign_sweep(campaign.MonteCarloCampaign)
        self.wrap(cache.ResultStore, "get", "store.get")
        self.wrap(cache.ResultStore, "put", "store.put")
        self.time_into_stage(plan.Plan, "__init__", "compile")

    def _wrap_campaign_sweep(self, cls) -> None:
        original = cls.sweep

        @functools.wraps(original)
        def sweep(campaign, specs, *args, **kwargs):
            if self.active:
                self.cells += sum(
                    1 if s.kind == "none" or s.level == 0.0 else campaign.n_runs
                    for s in specs
                )
            with self.span("faults.campaign_sweep"):
                return original(campaign, specs, *args, **kwargs)

        cls.sweep = sweep
        self._restore.append((cls, "sweep", original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def local_layers(
    tracer: Tracer, request: int, stages: Dict[str, float]
) -> Dict[str, float]:
    """Self seconds per layer for one in-process request.

    The campaign-sweep span's children are the engine stages: attach and
    program (fault injection) and metric (the evaluator), which itself
    nests trace, compile and replay.
    """
    layers: Dict[str, float] = {}
    for index in tracer.request_spans(request):
        name = tracer.spans[index].name
        layers[name] = layers.get(name, 0.0) + tracer.self_seconds(index)
    attach = stages.get("attach", 0.0)
    program = stages.get("program", 0.0)
    metric = stages.get("metric", 0.0)
    trace = stages.get("trace", 0.0)
    compile_ = stages.get("compile", 0.0)
    replay = stages.get("replay", 0.0)
    if "faults.campaign_sweep" in layers:
        layers["faults.campaign_sweep"] -= attach + program + metric
    layers.update({
        "faults.attach": attach,
        "faults.program": program,
        "plan.trace": trace,
        "plan.compile": compile_,
        "plan.replay": replay,
        "eval.metric_self": metric - trace - compile_ - replay,
    })
    return layers


def service_layers(
    tracer: Tracer, request: int, stats: Dict
) -> Dict[str, float]:
    """Self seconds per layer for one service request.

    The daemon reports its compute and store seconds per request; the rest
    of the client's wall time is transport, scheduling and framing.
    Compute seconds are summed over workers, so a request whose shard
    units ran in parallel shows a negative overhead, which the
    reconciliation reports.
    """
    (root,) = [
        i for i in tracer.request_spans(request)
        if tracer.spans[i].parent is None
    ]
    compute = float(stats.get("compute_seconds", 0.0))
    store = float(stats.get("store_seconds", 0.0))
    return {
        "serve.compute": compute,
        "serve.store": store,
        "serve.overhead": tracer.spans[root].seconds - compute - store,
    }


def unattributed_seconds(layers: Dict[str, float], wall: float) -> float:
    """Wall time the layer self times fail to account for.

    Counts both the gap between their sum and the wall time and any
    negative self time (time a child claimed outside its parent).
    """
    total = sum(layers.values())
    negative = sum(-v for v in layers.values() if v < 0)
    return abs(wall - total) + negative
