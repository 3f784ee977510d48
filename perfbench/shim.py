"""Traced entry point: wrap each layer's public functions in spans,
then run ``repro.cli.main`` with this script's arguments.

    PERFBENCH_TRACE_DIR=DIR python3 perfbench/shim.py serve Berlin ...

Spans live in memory — name, start, end, parent, request id — and
every process writes its own to ``DIR/spans-<pid>-<n>.json`` when it
ends: the CLI process after ``main`` returns, each forked worker when
its main function returns (which is how SIGTERM drain ends it).

Each function is wrapped where its caller looks it up.  A module that
did ``from x import f`` holds its own reference to ``f``, so ``f`` is
replaced in that module's namespace too; a method is replaced on its
class.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, List, Optional

REQUEST_ID_HEADER = "X-Request-Id"


class Tracer:
    """Per-process span buffer with a per-thread stack of open spans."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List[list] = []
        self.services: List[Any] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._dumps = itertools.count()
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        """A forked child starts with an empty buffer of its own."""
        self.spans = []
        self.services = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: Optional[str]) -> None:
        self._local.request_id = request_id

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs: Optional[Callable] = None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic_ns()
            stack.pop()
            extra = None
            if attrs is not None:
                try:
                    extra = attrs(args, kwargs, result)
                except Exception as exc:  # never break the call
                    extra = {"attr_error": repr(exc)}
            self.spans.append([
                span_id, parent, name, start, end,
                getattr(self._local, "request_id", None), extra,
            ])

    def dump(self) -> None:
        """Write this process's spans and service counters."""
        services = []
        for service in self.services:
            planner = service.planner
            stats = getattr(planner, "stats", None)
            services.append({
                "role": ("worker" if service.scoreboard is not None
                         else "writer" if service.journal is not None
                         else "single"),
                "live_stats": (stats.snapshot()
                               if hasattr(stats, "fast_path") else None),
            })
        path = os.path.join(
            self.out_dir, f"spans-{os.getpid()}-{next(self._dumps)}.json")
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "services": services}, fh)
        self.spans = []


TRACER: Optional[Tracer] = None


def wrap(owner, attr: str, name: str, attrs: Optional[Callable] = None):
    """Replace ``owner.attr`` with a function that records a span."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return TRACER.call(name, fn, args, kwargs, attrs)

    setattr(owner, attr, traced)


def wrap_main(owner, attr: str, name: str) -> None:
    """Wrap a forked child's main function so the child writes its
    spans before ``multiprocessing`` ends it with ``os._exit``."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        try:
            return TRACER.call(name, fn, args, kwargs)
        finally:
            TRACER.dump()

    setattr(owner, attr, traced)


def wrap_handler(owner, attr: str, name: str) -> None:
    """Wrap a handler-class factory: each request (``do_GET`` /
    ``do_POST``) becomes a span tagged with the request id header, and
    ``_send`` (encode + write) a child span."""
    factory = getattr(owner, attr)

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        cls = factory(*args, **kwargs)
        for method in ("do_GET", "do_POST"):
            original = getattr(cls, method)

            def handle(self, _original=original):
                TRACER.set_request(self.headers.get(REQUEST_ID_HEADER))
                try:
                    return TRACER.call(name, _original, (self,), {})
                finally:
                    TRACER.set_request(None)

            setattr(cls, method, handle)
        if hasattr(cls, "_send"):
            wrap(cls, "_send", name + ".send")
        return cls

    setattr(owner, attr, traced_factory)


def _kind(args, kwargs, result):
    return {"kind": args[1].query_type}


def _fed_kind(args, kwargs, result):
    planner, request = args[0], args[1]
    cross = planner.region(request.source) != planner.region(
        request.destination)
    return {"kind": request.query_type, "cls": "cross" if cross else "intra"}


def _batch_kind(args, kwargs, result):
    return {"kind": args[1][0].kind}


def _labels(args, kwargs, result):
    return {"labels": result.num_labels}


def _seq_result(args, kwargs, result):
    return {"seq": result}


def _seq_record(args, kwargs, result):
    return {"seq": args[1].get("seq")}


def _cache_hit(args, kwargs, result):
    return {"hit": result is not None}


def install(out_dir: str) -> None:
    """Wrap every layer's entry points (imports the whole package)."""
    global TRACER
    TRACER = Tracer(out_dir)

    import repro.buildfarm
    import repro.cli
    import repro.core.kernels
    import repro.core.queries
    import repro.datasets
    import repro.federation
    import repro.federation.build
    import repro.federation.serve
    import repro.federation.stitch
    import repro.live.engine
    import repro.resilience.executor
    import repro.service
    import repro.serving.supervisor
    import repro.serving.worker
    from repro.core.queries import TTLPlanner
    from repro.federation.serve import FederationSupervisor
    from repro.federation.stitch import FederatedPlanner
    from repro.live.engine import LiveOverlayEngine
    from repro.serving.cache import AnswerCache
    from repro.serving.journal import LiveJournal

    # service: the HTTP handlers (worker and federation router).
    wrap_handler(repro.service, "_make_handler", "service.request")
    wrap_handler(repro.federation.serve, "_make_router_handler",
                 "federation.router")
    service_cls = repro.service.PlannerService
    original_init = service_cls.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        TRACER.services.append(self)

    service_cls.__init__ = init
    wrap(service_cls, "apply_journal_record", "journal.apply", _seq_record)
    wrap(service_cls, "publish_counters", "worker.publish")

    # resilience
    wrap(repro.resilience.executor.ResilientExecutor, "run",
         "resilience.run")

    # serving.cache
    wrap(AnswerCache, "get", "cache.get", _cache_hit)
    wrap(AnswerCache, "put", "cache.put")
    wrap(AnswerCache, "revalidate", "cache.revalidate")

    # serving.supervisor / serving.worker: forked children's mains.
    wrap_main(repro.serving.supervisor, "worker_main", "worker.main")
    wrap_main(repro.federation.serve, "_federation_worker_main",
              "worker.main")

    # serving.journal
    wrap(LiveJournal, "append", "journal.append", _seq_result)

    # core.queries / core.sketch / core.unfold
    wrap(TTLPlanner, "plan", "queries.plan", _kind)
    wrap(LiveOverlayEngine, "plan", "queries.plan", _kind)
    for module in (repro.core.queries, repro.live.engine):
        for fn in ("best_eap_sketch", "best_ldp_sketch", "best_sdp_sketch"):
            if hasattr(module, fn):
                wrap(module, fn, "sketch.best")
        wrap(module, "sketch_to_journey", "unfold.journey")

    # core.batch / core.kernels
    wrap(repro.service, "batch_plan", "batch.plan", _batch_kind)
    for fn in ("eap_sketch", "ldp_sketch", "sdp_sketch", "profile_pairs",
               "one_to_many_values"):
        wrap(repro.core.kernels, fn, "kernels.entry")

    # live
    wrap(LiveOverlayEngine, "apply_event", "live.apply_event")

    # core.build / buildfarm
    wrap(repro.cli, "build_index", "build.index", _labels)
    wrap(repro.core.queries, "build_index", "build.index", _labels)
    wrap(repro.buildfarm, "build_index_parallel", "build.index", _labels)
    wrap(repro.federation.build, "build_index_parallel", "build.index",
         _labels)

    # core.serialize / core.store
    for module in (repro.cli, repro.federation.build):
        wrap(module, "save_index", "serialize.save")
    for module in (repro.cli, repro.serving.worker, repro.federation.stitch):
        wrap(module, "load_index", "serialize.load")

    # datasets
    wrap(repro.cli, "load_dataset", "datasets.load")
    wrap(repro.datasets, "load_dataset", "datasets.load")

    # federation
    wrap(FederatedPlanner, "plan", "federation.plan", _fed_kind)
    for fn in ("cross_eap", "cross_ldp", "cross_sdp", "cross_profile"):
        wrap(FederationSupervisor, fn, "federation.plan",
             lambda a, k, r, _kind=fn[6:]: {"kind": _kind, "cls": "cross"})
    wrap(FederationSupervisor, "proxy", "federation.proxy",
         lambda a, k, r: {"cls": "intra"})
    wrap(repro.federation, "build_federation", "federation.build")


def main(argv: List[str]) -> int:
    out_dir = os.environ["PERFBENCH_TRACE_DIR"]
    install(out_dir)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        TRACER.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
