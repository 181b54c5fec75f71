"""Workloads ``serve-points`` and ``fleet-mixed``: the prediction service
over NDJSON/TCP, driven from this process.

Each run boots the program's own CLI (``python -m repro.serve serve`` or
``... fleet --workers 1``) with admission opened wide, connects at most
``NPROC`` pipelined links (``repro.serve.router.TcpWorkerClient``) and
drives two phases from a schedule built by
``repro.serve.loadgen.build_schedule`` before timing starts:

1. paced (open loop): each request is sent at its scheduled arrival
   and timed from that due time, not from when it was sent, so a stall
   of the generator or the server shows in the latency of the requests
   behind it; ``loadgen.lag_ms`` says how late the generator ran;
2. closed loop with ``OUTSTANDING`` requests in flight, for capacity.

Every answer is checked per request id against a reference computed by
an in-process ``PredictionService(max_batch=1)`` over the same
calibration cache.  Answers are pure functions of the query (the
program's batch-size bit-identity guarantee), so the reference serves
each distinct query of the schedule once.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .common import (
    NPROC,
    TRACE_DIR,
    BenchError,
    ProcessGone,
    ProgramProcess,
    Result,
    child_pids,
    make_workdir,
    median,
    proc_cpu_s,
    proc_peak_rss_mb,
    quantile,
    remove_tree,
    wall,
)
from .ledger import Ledger
from .tracing import (
    install_eval_counter,
    per_layer_zeroes,
    read_server_ledger,
    stage_quantiles,
)

#: requests in flight during the closed-loop (capacity) phase
OUTSTANDING = 64
#: admission wide open: the benchmark measures service, not shedding
WIDE_OPEN = ["--admit-rate", "1e9", "--burst", "1000000", "--queue-depth", "1000000"]
#: clients in the schedule (each has its own seeded arrival stream)
CLIENTS = 8
#: set-ups per untraced run; setup_s is their median
SETUPS = 5
#: requests of the warm-up, sent closed-loop and checked, not timed
WARMUP = 256
#: how long a phase may overrun before its stragglers count as failed
GRACE_S = 30.0
#: how long a graceful stop may take (it takes about 0.3 s)
STOP_S = 10.0
#: the paced phase's p99 is the median of the p99s of windows of this
#: many scheduled requests (ten beyond each window's p99), so one hiccup
#: of the shared host moves one window, not the run's figure
P99_WINDOW = 1000
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
PLATFORMS = ("j90", "t3e", "fast-cops")
FAMILIES = ("collective", "hpl")


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    command: str
    #: offered rate of the paced phase (req/s)
    rate: float
    load: Dict[str, Any] = field(default_factory=dict)
    #: prefit every (platform, family) calibration into --cache-dir
    prefit: bool = False


WORKLOADS = {
    "serve-points": ServeWorkload("serve-points", "serve", 1000.0, {"sweep_fraction": 0.0}),
    "fleet-mixed": ServeWorkload(
        "fleet-mixed",
        "fleet",
        150.0,
        {
            "sweep_fraction": 0.5,
            "max_servers": 32,
            "calibrated": True,
            "family_mix": {"opal": 2.0, "collective": 1.0, "hpl": 1.0},
        },
        prefit=True,
    ),
}


# ----------------------------------------------------------------------
def prefit(cache_dir: Path) -> None:
    """Fit all 9 (platform, family) calibrations into ``cache_dir``.

    Without this a served calibrated answer would read key-data or
    calibrated depending on whether a background fit had finished.
    """
    from repro.platforms import get_platform
    from repro.serve.calibstore import CalibrationStore, params_to_dict

    store = CalibrationStore(cache_dir=cache_dir)
    for name in PLATFORMS:
        spec = get_platform(name)
        store.disk.store(store.key_for_platform(spec), params_to_dict(store.fit(spec)))
        for family in FAMILIES:
            store.disk.store(
                store.key_for_family(spec, family),
                params_to_dict(store.fit_family(spec, family)),
            )


def build(workload: ServeWorkload, seed: int, seconds: float) -> List[Dict[str, Any]]:
    """The schedule: enough arrivals to cover a paced phase of ``seconds``."""
    from repro.serve.loadgen import LoadSpec, build_schedule

    per_client_rate = workload.rate / CLIENTS
    per_client = int(per_client_rate * seconds * 1.25) + 50
    spec = LoadSpec(
        clients=CLIENTS,
        requests_per_client=per_client,
        rate=per_client_rate,
        seed=seed,
        **workload.load,
    )
    schedule = build_schedule(spec)
    last = {}
    for envelope in schedule:
        last[envelope["client"]] = envelope["arrival"]
    if min(last.values()) < seconds:
        raise BenchError("schedule too short for the paced phase")
    return schedule


def query_key(envelope: Dict[str, Any]) -> str:
    return envelope["kind"] + json.dumps(envelope["query"], sort_keys=True)


async def reference_answers(
    schedule: List[Dict[str, Any]], cache_dir: Optional[Path], ledger: Ledger
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, float]]:
    """Reference answer (without its id) per distinct query, and the
    model evaluations each query cost, read from the ``core.model_evals``
    count of ``ledger`` (see :func:`tracing.install_eval_counter`)."""
    from repro.serve import api
    from repro.serve.calibstore import CalibrationStore
    from repro.serve.service import PredictionService, ServeConfig

    config = ServeConfig(max_batch=1, rate=1e9, burst=10**6, max_queue_depth=10**6)
    service = PredictionService(
        config=config,
        calibrations=CalibrationStore(cache_dir=cache_dir),
    )
    answers: Dict[str, Dict[str, Any]] = {}
    cost: Dict[str, float] = {}
    async with service:
        for envelope in schedule:
            key = query_key(envelope)
            if key in answers:
                continue
            before = ledger.counters["core.model_evals"]
            response = await service.submit(envelope)
            cost[key] = ledger.counters["core.model_evals"] - before
            answer = json.loads(api.canonical(response))
            answer.pop("id", None)
            answers[key] = answer
    return answers, cost


# ----------------------------------------------------------------------
class Checker:
    """Compares each answer with the reference; tallies per phase."""

    def __init__(self, schedule: List[Dict[str, Any]], answers: Dict[str, Dict[str, Any]],
                 calibrated: bool) -> None:
        self.expected = [answers[query_key(e)] for e in schedule]
        self.calibrated = calibrated

    def classify(self, i: int, envelope: Dict[str, Any], response: Dict[str, Any]) -> str:
        """``ok``, ``shed``, ``error`` or ``wrong``."""
        rid = response.pop("id", None)
        if response == self.expected[i] and rid == envelope["id"]:
            if self.calibrated and response["result"].get("calibration") != "calibrated":
                return "wrong"
            return "ok"
        status = response.get("status")
        if status == 429:
            return "shed"
        if status != 200:
            return "error"
        return "wrong"


@dataclass
class Phase:
    name: str
    sent: int = 0
    outcomes: Dict[str, int] = field(default_factory=lambda: {
        "ok": 0, "shed": 0, "error": 0, "wrong": 0, "lost": 0})
    #: (due time, latency) of every request answered correctly
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    window: Tuple[float, float] = (0.0, 0.0)
    #: requests answered correctly before the window closed
    answered_in_window: int = 0
    #: (schedule index, response) kept for checking once the reference exists
    unchecked: List[Tuple[int, Dict[str, Any]]] = field(default_factory=list)

    def line(self) -> str:
        o = self.outcomes
        return (f"{self.name}: sent {self.sent}, succeeded {o['ok']}, shed {o['shed']}, "
                f"failed {o['error'] + o['wrong'] + o['lost']} "
                f"(errors {o['error']}, wrong {o['wrong']}, unanswered {o['lost']})")


class Driver:
    """The load generator: pipelined links, pacing and the closed loop."""

    def __init__(self, port: int, schedule: List[Dict[str, Any]], checker: Optional[Checker],
                 spans: Optional[Ledger] = None) -> None:
        self.port = port
        self.schedule = schedule
        self.checker = checker
        self.spans = spans
        self.links: List[Any] = []

    async def connect(self) -> None:
        from repro.serve.router import TcpWorkerClient

        for _ in range(NPROC):
            link = TcpWorkerClient("127.0.0.1", self.port)
            await link.connect()
            self.links.append(link)

    async def close(self) -> None:
        for link in self.links:
            await link.close()
        self.links = []

    async def _one(self, phase: Phase, link: Any, i: int, due: float) -> None:
        loop = asyncio.get_running_loop()
        envelope = self.schedule[i]
        sent = loop.time()
        phase.lags.append(sent - due)
        try:
            response = await link.request(envelope)
        except (ConnectionError, OSError):
            phase.outcomes["error"] += 1
            return
        done = loop.time()
        if self.spans is not None:
            self.spans.spans.append(("loadgen.request", sent, done, envelope["id"], ""))
        if self.checker is None:
            phase.unchecked.append((i, response))
            return
        outcome = self.checker.classify(i, envelope, response)
        phase.outcomes[outcome] += 1
        if outcome == "ok":
            phase.latencies.append((due, done - due))
            if done <= phase.window[1]:
                phase.answered_in_window += 1

    def check_later(self, phase: Phase) -> None:
        """Classify the answers a phase kept while no reference existed."""
        assert self.checker is not None
        for i, response in phase.unchecked:
            phase.outcomes[self.checker.classify(i, self.schedule[i], response)] += 1
        phase.unchecked = []

    async def _settle(self, phase: Phase, tasks: List["asyncio.Task[None]"]) -> None:
        if not tasks:
            return
        _, pending = await asyncio.wait(tasks, timeout=GRACE_S)
        for task in pending:
            task.cancel()
        phase.outcomes["lost"] += len(pending)
        await asyncio.gather(*pending, return_exceptions=True)

    async def paced(self, seconds: float) -> Phase:
        """Send each request at its scheduled arrival (up to ``seconds``)."""
        loop = asyncio.get_running_loop()
        phase = Phase("paced")
        base = loop.time() + 0.01
        phase.window = (base, base + seconds)
        tasks = []
        for i, envelope in enumerate(self.schedule):
            if envelope["arrival"] >= seconds:
                break
            due = base + envelope["arrival"]
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(self._one(phase, self.links[i % NPROC], i, due)))
            phase.sent += 1
        await self._settle(phase, tasks)
        return phase

    async def closed(self, seconds: float, start: int = 0) -> Phase:
        """``OUTSTANDING`` requests in flight for ``seconds``, cycling the
        schedule from position ``start``."""
        loop = asyncio.get_running_loop()
        phase = Phase("closed")
        phase.window = (loop.time(), loop.time() + seconds)
        positions = itertools.count(start)
        n = len(self.schedule)

        async def lane(k: int) -> None:
            link = self.links[k % NPROC]
            while loop.time() < phase.window[1]:
                i = next(positions) % n
                phase.sent += 1
                await self._one(phase, link, i, loop.time())

        await self._settle(phase, [loop.create_task(lane(k)) for k in range(OUTSTANDING)])
        return phase

    async def warm(self, count: int) -> Phase:
        """``count`` requests closed-loop, checked but not timed."""
        loop = asyncio.get_running_loop()
        phase = Phase("warm-up")
        phase.window = (loop.time(), math.inf)
        positions = iter(range(count))

        async def lane(k: int) -> None:
            link = self.links[k % NPROC]
            for i in positions:
                phase.sent += 1
                await self._one(phase, link, i % len(self.schedule), loop.time())

        await self._settle(phase, [loop.create_task(lane(k)) for k in range(OUTSTANDING)])
        return phase


# ----------------------------------------------------------------------
class Session:
    """One set-up of the program plus the driver's links to it."""

    def __init__(self, workload: ServeWorkload, seed: int, paced_s: float,
                 traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.paced_s = paced_s
        self.traced = traced
        self.dir = make_workdir(workload.name)
        self.cache_dir: Optional[Path] = self.dir / "calibrations" if workload.prefit else None
        self.store_dir = self.dir / "store"
        self.ledger_path = self.dir / "ledger.jsonl"
        self.program: Optional[ProgramProcess] = None
        self.driver: Optional[Driver] = None
        self.schedule: List[Dict[str, Any]] = []
        self.setup_s = 0.0
        self.warm_phase: Optional[Phase] = None

    def argv(self) -> List[str]:
        cli = [self.workload.command, "--host", "127.0.0.1", "--port", "0", *WIDE_OPEN]
        if self.workload.command == "fleet":
            cli += ["--workers", "1"]
        if self.cache_dir is not None:
            cli += ["--cache-dir", str(self.cache_dir)]
        if self.traced:
            cli += ["--store-out", str(self.store_dir)]
            return [sys.executable, str(LAUNCHER), "--ledger", str(self.ledger_path), *cli]
        return [sys.executable, "-m", "repro.serve", *cli]

    async def start(self, spans: Optional[Ledger] = None) -> None:
        """Prefit, build the schedule, boot, connect and warm up (timed)."""
        start = wall()
        if self.cache_dir is not None:
            prefit(self.cache_dir)
        self.schedule = build(self.workload, self.seed, self.paced_s)
        self.program = ProgramProcess(self.argv(), self.dir / "program.log")
        self.driver = Driver(self.program.port, self.schedule, None, spans)
        await self.driver.connect()
        self.warm_phase = await self.driver.warm(WARMUP)
        self.setup_s = wall() - start

    def program_pids(self) -> Dict[str, List[int]]:
        """Live program processes by role.  A fleet's worker list is
        re-read each call: the router may have replaced its worker."""
        assert self.program is not None
        if self.workload.command == "fleet":
            return {"router": [self.program.pid], "worker": child_pids(self.program.pid)}
        return {"server": [self.program.pid]}

    async def stop(self) -> None:
        if self.driver is not None:
            await self.driver.close()
        if self.program is not None:
            code = self.program.stop(STOP_S)
            if self.program.hung:
                # FleetRouter.stop can wait forever on its heartbeat task,
                # which swallows the cancel when a ping completes in the
                # same loop turn (asyncio.wait_for, Python 3.11): roughly
                # one graceful fleet stop in 50.  Every request was answered
                # before the stop, so only a traced session, whose ledger
                # and stores are written on exit, loses anything.
                message = (f"{self.workload.command} did not exit within {STOP_S:g}s "
                           f"of SIGTERM and was killed")
                if self.traced:
                    raise BenchError(f"{message}; its ledger and stores are lost")
                print(f"note: {message}", file=sys.stderr)
            elif code not in (0, -15):
                raise BenchError(
                    f"program exited with {code}:\n{self.program.log_tail()}"
                )

    def cleanup(self) -> None:
        if self.program is not None:
            self.program.kill()
        remove_tree(self.dir)


def account(result: Result, phases: List[Phase]) -> None:
    for phase in phases:
        print(phase.line())
        result.attempted += phase.sent
        o = phase.outcomes
        result.fail(o["shed"], f"{phase.name}: shed")
        result.fail(o["error"], f"{phase.name}: error responses")
        result.fail(o["wrong"], f"{phase.name}: answers differ from the reference")
        result.fail(o["lost"], f"{phase.name}: unanswered")


class Measured:
    """What one measured session produced."""

    def __init__(self, paced: Phase, closed: Phase, cpu: Dict[str, float],
                 rss_mb: float) -> None:
        self.paced = paced
        self.closed = closed
        self.cpu = cpu
        self.rss_mb = rss_mb

    @property
    def throughput(self) -> float:
        window = self.closed.window[1] - self.closed.window[0]
        return self.closed.answered_in_window / window

    def p50(self) -> float:
        return quantile([lat for _, lat in self.paced.latencies], 0.50)

    def window_p99s(self, rate: float) -> List[float]:
        """p99 of each window of ``P99_WINDOW`` requests at the offered
        ``rate`` (windows by due time)."""
        start, end = self.paced.window
        count = max(1, int((end - start) * rate // P99_WINDOW))
        width = (end - start) / count
        windows: List[List[float]] = [[] for _ in range(count)]
        for due, lat in self.paced.latencies:
            windows[min(int((due - start) // width), count - 1)].append(lat)
        return [quantile(w, 0.99) for w in windows if w]


def split(seconds: float) -> Tuple[float, float]:
    """Paced and closed-loop phase lengths: half each, since the paced
    p50 and the closed-loop throughput are both end-to-end figures."""
    return seconds / 2, seconds / 2


def _cpu_since(pid: int, start: float) -> float:
    try:
        return proc_cpu_s(pid) - start
    except ProcessGone:
        return 0.0


def _peak_rss_mb(pid: int) -> float:
    try:
        return proc_peak_rss_mb(pid)
    except ProcessGone:
        return 0.0


async def measure(session: Session, paced_s: float, closed_s: float) -> Measured:
    """Both phases, with the driver's own garbage collector paused so
    its pauses do not show up as the program's latency.

    Peak memory is read after the paced phase, whose requests are fixed
    by the schedule: a server keeps something for every request a
    connection has carried, so a peak read after the closed loop would
    follow that run's throughput.

    A fleet router replaces a worker it declares dead (after repeated
    forward timeouts, as a long stall of the host causes); the requests
    that fail are counted by the phases, and the processes are read by
    role, so a replaced worker's successor is measured instead."""
    assert session.driver is not None
    roles = session.program_pids()
    if "worker" in roles and len(roles["worker"]) != 1:
        raise BenchError(f"expected one fleet worker, found {roles['worker']}")
    roles["driver"] = [os.getpid()]
    cpu0 = {pid: proc_cpu_s(pid) for pids in roles.values() for pid in pids}
    gc.collect()
    gc.disable()
    try:
        paced = await session.driver.paced(paced_s)
        live = itertools.chain(*session.program_pids().values())
        rss = sum(_peak_rss_mb(pid) for pid in live)
        closed = await session.driver.closed(closed_s, start=paced.sent)
    finally:
        gc.enable()
    now = session.program_pids()
    now["driver"] = [os.getpid()]
    cpu = {role: sum(_cpu_since(pid, cpu0.get(pid, 0.0)) for pid in pids)
           for role, pids in now.items()}
    ended = sorted(set(cpu0) - set(itertools.chain(*now.values())))
    if ended:
        print(f"program processes {ended} ended while measured; "
              f"program log:\n{session.program.log_tail()}", file=sys.stderr)
    return Measured(paced, closed, cpu, rss)


# ----------------------------------------------------------------------
class Run:
    """One benchmark run of a serve workload."""

    def __init__(self, workload: ServeWorkload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        #: reference answer per distinct query, and its model evaluations
        self.answers: Dict[str, Dict[str, Any]] = {}
        self.cost: Dict[str, float] = {}
        self.evals_per_req = 0.0
        self.response_bytes = 0.0

    async def reference(self, session: Session) -> None:
        """Answer the session's new distinct queries in-process (untimed,
        after set-up, while the program idles), then check its warm-up."""
        missing: Dict[str, Dict[str, Any]] = {}
        for envelope in session.schedule:
            key = query_key(envelope)
            if key not in self.answers:
                missing.setdefault(key, envelope)
        if missing:
            ledger = Ledger()
            install_eval_counter(ledger)
            try:
                answers, cost = await reference_answers(
                    list(missing.values()), session.cache_dir, ledger
                )
            finally:
                ledger.unpatch_all()
            self.answers.update(answers)
            self.cost.update(cost)
        keys = [query_key(e) for e in session.schedule]
        self.evals_per_req = sum(self.cost[k] for k in keys) / len(keys)
        from repro.serve import api

        total = 0
        for envelope, key in zip(session.schedule, keys):
            answer = dict(self.answers[key])
            answer["id"] = envelope["id"]
            total += len(api.canonical(answer).encode("utf-8")) + 1
        self.response_bytes = total / len(keys)
        assert session.driver is not None and session.warm_phase is not None
        session.driver.checker = Checker(
            session.schedule, self.answers, self.workload.load.get("calibrated", False)
        )
        session.driver.check_later(session.warm_phase)

    async def session(self, paced_s: float, traced: bool,
                      spans: Optional[Ledger] = None) -> Session:
        """Set up one session (timed) and attach the checked reference."""
        session = Session(self.workload, self.seed, paced_s, traced)
        try:
            await session.start(spans)
            await self.reference(session)
        except BaseException:
            session.cleanup()
            raise
        return session


async def _untraced(run: Run, result: Result) -> None:
    paced_s, closed_s = split(run.seconds)
    setups: List[float] = []
    session = None
    try:
        for k in range(SETUPS):
            session = await run.session(paced_s, traced=False)
            setups.append(session.setup_s)
            account(result, [session.warm_phase])
            if k < SETUPS - 1:
                await session.stop()
                session.cleanup()
                session = None
        m = await measure(session, paced_s, closed_s)
        await session.stop()
    finally:
        if session is not None:
            session.cleanup()
    account(result, [m.paced, m.closed])
    result.metric("setup_s", median(setups), "s")
    result.metric("peak_rss_mb", m.rss_mb, "MiB")
    result.metric("ops_per_s", m.throughput, "1/s")
    result.metric("p50_ms", m.p50() * 1e3, "ms")
    p99s = m.window_p99s(run.workload.rate)
    print(f"paced p99 per window from due time: {' '.join(f'{v * 1e3:.1f}' for v in p99s)} ms")


async def _traced(run: Run, result: Result) -> None:
    paced_s, closed_s = split(run.seconds / 2)
    plain = traced = None
    try:
        plain = await run.session(paced_s, traced=False)
        account(result, [plain.warm_phase])
        m_plain = await measure(plain, paced_s, closed_s)
        await plain.stop()
        account(result, [m_plain.paced, m_plain.closed])

        spans = Ledger()
        traced = await run.session(paced_s, traced=True, spans=spans)
        account(result, [traced.warm_phase])
        m = await measure(traced, paced_s, closed_s)
        await traced.stop()
        account(result, [m.paced, m.closed])
        metrics = serve_layer_metrics(run, traced, m)
        metrics["trace.overhead_frac"] = (m_plain.throughput / m.throughput - 1.0, "ratio")
        metrics["latency.p99_ms"] = (
            median(m_plain.window_p99s(run.workload.rate)) * 1e3, "ms"
        )
        for name, (value, unit) in metrics.items():
            result.metric(name, value, unit)
        spans.dump(TRACE_DIR / f"{run.workload.name}.driver.jsonl", {"workload": run.workload.name})
        for path in traced.dir.glob("ledger*.jsonl"):
            target = TRACE_DIR / f"{run.workload.name}.{path.name}"
            target.parent.mkdir(parents=True, exist_ok=True)
            path.replace(target)
    finally:
        for session in (plain, traced):
            if session is not None:
                session.cleanup()


def serve_layer_metrics(run: Run, session: Session, m: Measured) -> Dict[str, Tuple[float, str]]:
    from repro.obs.store import TelemetryStore

    fleet = run.workload.command == "fleet"
    out = per_layer_zeroes()
    front, summary = read_server_ledger(session.ledger_path)
    windows = [m.paced.window, m.closed.window]
    parses = [d for w in windows for d in front.durations("serve.parse", w)]
    out["serve.parse_us"] = (median(parses) * 1e6, "us")
    out["serve.response_bytes"] = (run.response_bytes, "bytes")
    out["core.model_evals_per_req"] = (run.evals_per_req, "count")

    if fleet:
        # the newest incarnation (``worker-<slot>-g<generation>``): a worker
        # the router replaced was killed before it could write its ledger
        worker_store = max(
            (p for p in session.store_dir.iterdir() if p.name.startswith("worker-")),
            key=lambda p: int(p.name.rsplit("-g", 1)[1]),
        )
        back, back_summary = read_server_ledger(
            session.ledger_path.with_suffix(f".{worker_store.name}.jsonl")
        )
    else:
        worker_store, back, back_summary = session.store_dir, front, summary
    calib = back_summary["calibstore"]
    rows = TelemetryStore(worker_store).scan("serve")
    out.update(stage_quantiles(rows, m.paced.window))
    closed = (rows["t_admit"] >= m.closed.window[0]) & (rows["t_admit"] <= m.closed.window[1])
    batches = float((1.0 / rows["batch"][closed & (rows["batch"] > 0)]).sum())
    out["serve.batches"] = (round(batches), "count")
    out["serve.batch_occupancy"] = (int(closed.sum()) / batches, "count")
    out["calibstore.hits"] = (calib["hits"], "count")
    out["calibstore.misses"] = (calib["misses"], "count")
    out["calibstore.fits"] = (calib["fits"], "count")
    out["calibstore.disk_loads"] = (int(back.counters.get("calibstore.disk_loads", 0)), "count")
    # every request the computing process answered, warm-up included,
    # against every model evaluation it made over its lifetime
    answered = int((rows["status"] == 0).sum())
    out["core.served_evals_per_req"] = (back.counters.get("core.model_evals", 0) / answered, "count")

    if fleet:
        router_rows = TelemetryStore(session.store_dir / "router").scan("fleet")
        paced = m.paced.window

        def p50_in(r: Dict[str, Any]) -> float:
            keep = (r["status"] == 0) & (r["t_admit"] >= paced[0]) & (r["t_admit"] <= paced[1])
            return quantile(r["reply_s"][keep].tolist(), 0.5)

        out["router.hop_us"] = ((p50_in(router_rows) - p50_in(rows)) * 1e6, "us")
        workers = [w for report in summary["routers"] for w in report["workers"].values()]
        out["router.retries"] = (sum(w["retried"] for w in workers), "count")
        out["router.forward_failures"] = (sum(w["failed"] for w in workers), "count")
        out["proc.cpu_s.router"] = (m.cpu["router"], "s")
        out["proc.cpu_s.worker"] = (m.cpu["worker"], "s")
    else:
        out["proc.cpu_s.server"] = (m.cpu["server"], "s")
    out["proc.cpu_s.driver"] = (m.cpu["driver"], "s")
    out["loadgen.lag_ms"] = (quantile(m.paced.lags, 0.99) * 1e3, "ms")
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    workload = WORKLOADS[name]
    bench_run = Run(workload, seed, seconds)
    if trace:
        asyncio.run(_traced(bench_run, result))
        if workload.prefit and result.metrics["calibstore.fits"][0] != 0:
            result.fail(1, "the service fitted a calibration while measured")
    else:
        asyncio.run(_untraced(bench_run, result))
    return result
