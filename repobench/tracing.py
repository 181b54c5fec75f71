"""Wrappers around the program's entry points, and the per-layer metrics
derived from what they record.

Campaign hooks run inside the driver (which hosts the campaign through
its public API); the pool is forked from the driver, so hooks installed
before a design starts are inherited by its workers.  Server hooks run
inside ``launch.py``, which installs them and then calls the program's
own CLI ``main``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from .common import declared, median, quantile
from .ledger import Ledger


def per_layer_zeroes() -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json at 0.  A workload that
    does not exercise a layer reports 0 for it: serve workloads run no
    simulation, the campaign serves no requests, only the fleet has a
    router."""
    return {name: (0, unit) for name, unit in declared("per_layer").items()}


# ----------------------------------------------------------------------
# campaign: pooled pass
def _host_timed(fn: Callable) -> Callable:
    """Run one cell and note its host seconds on the returned record (the
    attribute rides back from pool workers with the pickled record)."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        record = fn(*args, **kwargs)
        record._bench_host_s = time.perf_counter() - start
        return record

    return wrapper


def _pooled(calls: List[Dict[str, float]]) -> Callable:
    """Time each pooled design call: when it started, when the first cell
    came back and that cell's host time, when it ended, the workers it
    could use and the cells' summed host time."""

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            workers = kwargs.get("workers") or 1
            if workers <= 1:
                return fn(*args, **kwargs)
            call = {"start": time.monotonic(), "first": 0.0, "first_host": 0.0,
                    "busy": 0.0, "workers": float(min(workers, len(args[0])))}
            user_progress = kwargs.get("progress")

            def progress(done: int, total: int, record: Any) -> None:
                host = getattr(record, "_bench_host_s", 0.0)
                if not call["first"]:
                    call["first"] = time.monotonic()
                    call["first_host"] = host
                call["busy"] += host
                if user_progress is not None:
                    user_progress(done, total, record)

            kwargs["progress"] = progress
            try:
                return fn(*args, **kwargs)
            finally:
                call["end"] = time.monotonic()
                calls.append(call)

        return wrapper

    return wrap


def install_pool_hooks(ledger: Ledger) -> List[Dict[str, float]]:
    """Light hooks for pooled studies: design calls, cache I/O, fits and
    predictions.  Undo with ``ledger.unpatch_all()``."""
    import repro.experiments.campaign as opal_campaign
    import repro.experiments.parallel as parallel
    import repro.experiments.runner as runner
    import repro.workloads.campaign as wl_campaign
    from repro.experiments.cache import ResultCache

    calls: List[Dict[str, float]] = []
    ledger.patch(parallel, "run_design_parallel", _pooled(calls))
    ledger.patch(wl_campaign, "run_workload_design", _pooled(calls))
    ledger.patch(runner, "measure_case", _host_timed)
    ledger.patch(wl_campaign, "measure_workload_cell", _host_timed)
    ledger.patch(ResultCache, "load", ledger.timed("experiments.cache_io"))
    ledger.patch(ResultCache, "store", ledger.timed("experiments.cache_io"))
    ledger.patch(opal_campaign, "calibrate", ledger.timed("core.calibrate"))
    ledger.patch(wl_campaign, "calibrate_terms", ledger.timed("core.calibrate"))
    ledger.patch(opal_campaign, "predict_platforms", ledger.timed("core.predict"))
    ledger.patch(wl_campaign, "terms_breakdown", ledger.timed("core.predict"))
    return calls


# ----------------------------------------------------------------------
# campaign: serial pass, one process
class CellStats:
    """Simulator counters summed over every simulated cell."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self.distinct: set = set()
        self._clusters: List[Any] = []

    def harvest(self) -> None:
        for cluster in self._clusters:
            self.totals["events"] += cluster.engine.events_executed
            self.totals["messages"] += cluster.fabric.messages_transferred
            self.totals["bytes"] += cluster.fabric.bytes_transferred
            counter = cluster.metrics.counters.get("sciddle.rpcs_issued")
            self.totals["sciddle_calls"] += counter.value if counter is not None else 0
        self._clusters.clear()


def install_cell_hooks(ledger: Ledger) -> CellStats:
    """Per-cell hooks for the serial pass: host time of each simulated
    cell and of each closed-form terms call, and the simulator's own
    event, message, byte and RPC counters of every cluster built."""
    import repro.experiments.runner as runner
    from repro.platforms.spec import PlatformSpec
    from repro.workloads.base import WorkloadFamily
    from repro.workloads.opal_family import OpalFamily

    cells = CellStats()

    def capture(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cluster = fn(*args, **kwargs)
            cells._clusters.append(cluster)
            return cluster

        return wrapper

    def simulated(span: str, key: Callable[..., Any]) -> Callable:
        def wrap(fn: Callable) -> Callable:
            timed = ledger.timed(span, rid=lambda *a, **k: str(key(*a, **k)))(fn)

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                out = timed(*args, **kwargs)
                cells.totals["cells"] += 1
                cells.distinct.add(key(*args, **kwargs))
                cells.harvest()
                return out

            return wrapper

        return wrap

    ledger.patch(PlatformSpec, "build_cluster", capture)
    ledger.patch(
        runner, "run_parallel_opal",
        simulated("opal.cell", lambda app, platform, *a, **k: ("opal", platform.name, repr(app))),
    )
    ledger.patch(
        WorkloadFamily, "simulate",
        simulated(
            "workloads.cell",
            lambda self, spec, servers, platform, *a, **k: (
                spec.family, repr(spec.params), servers, platform.name
            ),
        ),
    )
    ledger.patch(WorkloadFamily, "terms", ledger.timed("workloads.terms"))
    ledger.patch(OpalFamily, "terms", ledger.timed("workloads.terms"))
    return cells


def campaign_metrics(
    pooled: Ledger, pool: List[Dict[str, float]], serial: Ledger, cells: CellStats,
    studies: int, fit_mre: float,
) -> Dict[str, Tuple[float, str]]:
    out = per_layer_zeroes()
    host = sum(serial.durations("opal.cell")) + sum(serial.durations("workloads.cell"))
    out["netsim.events"] = (int(cells.totals["events"]), "count")
    out["netsim.events_per_s"] = (cells.totals["events"] / host, "1/s")
    out["pvm.messages"] = (int(cells.totals["messages"]), "count")
    out["pvm.bytes"] = (int(cells.totals["bytes"]), "bytes")
    out["sciddle.calls"] = (int(cells.totals["sciddle_calls"]), "count")
    out["opal.cell_host_ms"] = (median(serial.durations("opal.cell")) * 1e3, "ms")
    out["workloads.cell_host_ms"] = (median(serial.durations("workloads.cell")) * 1e3, "ms")
    out["workloads.terms_us"] = (median(serial.durations("workloads.terms")) * 1e6, "us")
    out["experiments.cells_simulated"] = (int(cells.totals["cells"]), "count")
    out["experiments.useful_ratio"] = (len(cells.distinct) / cells.totals["cells"], "ratio")
    starts = [
        c["first"] - c["start"] - c["first_host"] for c in pool if c["first"]
    ]
    out["experiments.pool_start_s"] = (median(starts), "s")
    capacity = sum(c["workers"] * (c["end"] - c["start"]) for c in pool)
    busy = sum(c["busy"] for c in pool)
    out["experiments.pool_wait_frac"] = (1.0 - busy / capacity, "ratio")
    out["experiments.cache_io_ms"] = (
        sum(pooled.durations("experiments.cache_io")) * 1e3 / studies, "ms"
    )
    out["core.calibrate_ms"] = (median(pooled.durations("core.calibrate")) * 1e3, "ms")
    out["core.predict_ms"] = (sum(pooled.durations("core.predict")) * 1e3 / studies, "ms")
    out["core.fit_mre"] = (fit_mre, "ratio")
    return out


# ----------------------------------------------------------------------
# server processes (installed by launch.py)
class ServerProbe:
    """What a server process reports when it exits."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self.stores: List[Any] = []
        self.routers: List[Any] = []

    def summary(self) -> Dict[str, Any]:
        calib = {"hits": 0, "misses": 0, "fits": 0}
        for store in self.stores:
            calib["hits"] += store.hits
            calib["misses"] += store.misses
            calib["fits"] += store.fits
        routers = [r.report() for r in self.routers]
        return {"calibstore": calib, "routers": routers}


def install_eval_counter(ledger: Ledger) -> None:
    """Count model evaluations (``OpalPerformanceModel.breakdown``,
    ``terms_breakdown`` and ``predict_series`` calls) as the ledger count
    ``core.model_evals``.  Undo with ``ledger.unpatch_all()``."""
    import repro.core.model as model
    import repro.serve.service as service

    def counted(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ledger.count("core.model_evals")
            return fn(*args, **kwargs)

        return wrapper

    ledger.patch(model.OpalPerformanceModel, "breakdown", counted)
    ledger.patch(model, "terms_breakdown", counted)
    ledger.patch(service, "predict_series", counted)


def _rid(envelope: Any = None, *args: Any, **kwargs: Any) -> str:
    return str(envelope.get("id", "")) if isinstance(envelope, dict) else ""


def install_server_hooks(ledger: Ledger, worker_argv: Optional[Callable] = None) -> ServerProbe:
    """Spans around parse, submit and batch compute; capture calibration
    stores and fleet routers; count calibration disk loads and model
    evaluations (``OpalPerformanceModel.breakdown``, ``terms_breakdown``
    and ``predict_series`` calls).
    ``worker_argv(argv, store_dir)`` rewrites how a fleet spawns workers."""
    import repro.serve.api as api
    import repro.serve.service as service
    from repro.serve.calibstore import CalibrationStore
    from repro.serve.fleet import ServeFleet
    from repro.serve.router import FleetRouter

    probe = ServerProbe(ledger)

    def capture(into: List[Any]) -> Callable:
        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
                fn(self, *args, **kwargs)
                into.append(self)

            return wrapper

        return wrap

    def counted(name: str) -> Callable:
        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                ledger.count(name)
                return await fn(*args, **kwargs)

            return wrapper

        return wrap

    method_rid = lambda self, envelope=None, *a, **k: _rid(envelope)  # noqa: E731
    ledger.patch(api, "parse_request", ledger.timed("serve.parse", rid=_rid))
    ledger.patch(
        service.PredictionService, "submit", ledger.timed_async("serve.submit", method_rid)
    )
    ledger.patch(FleetRouter, "submit", ledger.timed_async("router.submit", method_rid))
    ledger.patch(service, "_evaluate_jobs", ledger.timed("serve.compute_batch"))
    install_eval_counter(ledger)
    ledger.patch(CalibrationStore, "__init__", capture(probe.stores))
    ledger.patch(CalibrationStore, "_load_off_loop", counted("calibstore.disk_loads"))
    ledger.patch(FleetRouter, "__init__", capture(probe.routers))
    if worker_argv is not None:
        def rewrite(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(self: Any, store_dir: Optional[str]) -> List[str]:
                return worker_argv(fn(self, store_dir), store_dir)

            return wrapper

        ledger.patch(ServeFleet, "_worker_argv", rewrite)
    return probe


def read_server_ledger(path: Any) -> Tuple[Ledger, Dict[str, Any]]:
    """A launched server's ledger and its exit summary."""
    ledger = Ledger.load(path)
    with open(path) as fh:
        meta = json.loads(fh.readline())
    return ledger, meta.get("summary", {})


def stage_quantiles(
    rows: Dict[str, Any], window: Tuple[float, float]
) -> Dict[str, Tuple[float, str]]:
    """p50/p99 per flight-recorder stage over answered rows in a window."""
    import numpy as np

    keep = (rows["status"] == 0) & (rows["t_admit"] >= window[0]) & (rows["t_admit"] <= window[1])
    out: Dict[str, Tuple[float, str]] = {}
    for stage in ("admit_us", "queue_us", "compute_us", "reply_us"):
        values = np.asarray(rows[stage])[keep].tolist()
        out[f"serve.{stage}.p50"] = (quantile(values, 0.50), "us")
        out[f"serve.{stage}.p99"] = (quantile(values, 0.99), "us")
    return out
