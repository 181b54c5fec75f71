"""Workload ``campaign-cold``: the paper's full study, cold, back to back.

One study is what ``python -m repro campaign`` runs, widened to the
whole 84-cell factorial: the reproducibility probe, ``full_design()``
on the simulated J90, the least-squares fit, predictions for every
platform, then the ``collective`` and ``hpl`` family campaigns over
servers 1-7.  Cells are pooled over ``NPROC`` workers and every study
gets a fresh, empty result cache, so each one simulates all 174 cells.

Study ``k`` of a run with workload seed ``s`` uses the program seed
``(s + k) % REFERENCE_SEEDS``; ``reference/campaign.json`` holds the
outputs of every one of those seeds, so each study is checked exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .common import (
    NPROC,
    ROOT,
    TRACE_DIR,
    BenchError,
    Result,
    make_workdir,
    median,
    program_env,
    proc_cpu_s,
    proc_peak_rss_mb,
    quantile,
    remove_tree,
)
from .ledger import Ledger

FAMILIES = ("collective", "hpl")
SERVERS = tuple(range(1, 8))
#: the program seeds a study can use; the reference covers all of them
REFERENCE_SEEDS = 64
REFERENCE = Path(__file__).resolve().parent / "reference" / "campaign.json"
#: studies every run completes, whatever ``--seconds`` says; the
#: reported fit error is their mean, so it is fixed by the seed
MIN_STUDIES = 4
#: set-ups per run (fresh interpreters); setup_s is their median
SETUPS = 7

#: what one set-up does in a fresh interpreter: import the program and
#: simulate its smallest cell once, so lazy imports and first-use costs
#: land here and not in the first study
SETUP_CODE = (
    "from repro.experiments import ExperimentCase, measure_case, run_campaign\n"
    "from repro.workloads.campaign import run_workload_campaign\n"
    "from repro.opal.complexes import SMALL\n"
    "from repro.platforms import get_platform\n"
    "measure_case(get_platform('j90'), ExperimentCase(molecule=SMALL, servers=1,"
    " cutoff=10.0, update_interval=10))\n"
)


def study_seed(seed: int, k: int) -> int:
    return (seed + k) % REFERENCE_SEEDS


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Study:
    """Runs one cold study and condenses its outputs for checking."""

    def __init__(self, workers: Optional[int]) -> None:
        from repro.platforms import ALL_PLATFORMS, get_platform

        self.workers = workers
        self.reference = get_platform("j90")
        self.platforms = list(ALL_PLATFORMS)
        self.candidates = [p for p in ALL_PLATFORMS if p.name != self.reference.name]

    def run(self, seed: int, progress_hook: Optional[Callable] = None) -> Dict[str, Any]:
        """One study; returns its wall time and checked outputs."""
        from repro.experiments import full_design, run_campaign
        from repro.workloads.campaign import run_workload_campaign

        cells: Dict[str, Any] = {}

        def progress(done: int, total: int, record: Any) -> None:
            if hasattr(record, "case"):
                key = "opal:" + json.dumps(record.case.key_data(), sort_keys=True)
            else:
                key = "wl:" + json.dumps(record.cell.key_data(), sort_keys=True)
            cells[key] = [record.breakdown.as_dict(), list(record.wall_stats.values)]
            if progress_hook is not None:
                progress_hook(done, total, record)

        cache = make_workdir("campaign-cache")
        try:
            start = time.monotonic()
            report = run_campaign(
                self.reference,
                self.platforms,
                design=full_design(),
                seed=seed,
                workers=self.workers,
                cache_dir=cache / "opal",
                progress=progress,
            )
            families = [
                run_workload_campaign(
                    name,
                    self.reference,
                    servers=SERVERS,
                    candidates=self.candidates,
                    seed=seed,
                    workers=self.workers,
                    cache_dir=cache / name,
                    progress=progress,
                )
                for name in FAMILIES
            ]
            seconds = time.monotonic() - start
        finally:
            remove_tree(cache)
        return {
            "seconds": seconds,
            "simulations": report.simulations_run
            + sum(f.simulations_run for f in families),
            "outputs": self.outputs(report, families, cells),
        }

    @staticmethod
    def outputs(report: Any, families: List[Any], cells: Dict[str, Any]) -> Dict[str, Any]:
        """What a speed-only change must leave bit-identical."""
        breakdowns = {
            "probe": list(report.probe.values),
            "cells": {key: cells[key] for key in sorted(cells)},
        }
        coefficients = {"opal": dataclasses.asdict(report.calibration.params)}
        predictions: Dict[str, Any] = {
            "opal": {
                label: {
                    name: [list(s.times), list(s.speedups)]
                    for name, s in sorted(series.items())
                }
                for label, series in sorted(report.predictions.items())
            },
            "cost": [
                [row.platform, row.time_cost_product] for row in report.cost_ranking
            ],
        }
        for fam in families:
            coefficients[fam.family] = dataclasses.asdict(fam.calibration.params)
            predictions[fam.family] = {
                "rows": [list(row) for row in fam.rows],
                "series": {
                    platform: {
                        label: [list(s.times), list(s.speedups)]
                        for label, s in sorted(per_spec.items())
                    }
                    for platform, per_spec in sorted(fam.predictions.items())
                },
            }
        return {
            "breakdowns": _digest(breakdowns),
            "coefficients": _digest(coefficients),
            "predictions": _digest(predictions),
            "fit_mre": report.fit_error,
            "cells": len(cells),
        }


# ----------------------------------------------------------------------
def load_reference() -> Dict[str, Any]:
    if not REFERENCE.is_file():
        raise BenchError(f"missing reference outputs {REFERENCE}")
    return json.loads(REFERENCE.read_text())


def check_study(
    result: Result, reference: Dict[str, Any], seed: int, study: Dict[str, Any],
    events: Optional[int] = None,
) -> None:
    """One study is one operation: it fails if any output differs."""
    result.attempted += 1
    want = reference["studies"].get(str(seed))
    if want is None:
        result.fail(1, f"no reference for study seed {seed}")
        return
    got = dict(study["outputs"])
    got["simulations"] = study["simulations"]
    if events is not None:
        got["netsim.events"] = events
    wrong = sorted(k for k in got if got[k] != want.get(k))
    if wrong:
        result.fail(1, f"study seed {seed}: outputs differ from reference in {wrong}")


def timed_setups() -> List[float]:
    """``SETUPS`` fresh-interpreter set-ups (import + first cell)."""
    times = []
    for _ in range(SETUPS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=str(ROOT),
            env=program_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        times.append(time.monotonic() - start)
        if proc.returncode != 0:
            raise BenchError(
                "campaign set-up failed:\n" + proc.stderr.decode("utf-8", "replace")[-2000:]
            )
    return times


def _warm_in_process() -> None:
    namespace: Dict[str, Any] = {}
    exec(compile(SETUP_CODE, "<setup>", "exec"), namespace)


def run_studies(
    study: Study, result: Result, reference: Dict[str, Any], seed: int,
    first: int, seconds: float, minimum: int,
) -> List[Dict[str, Any]]:
    """Studies ``first, first+1, ...`` until ``seconds`` have passed and
    at least ``minimum`` have run; each is checked as it completes."""
    studies: List[Dict[str, Any]] = []
    end = time.monotonic() + seconds
    k = first
    while len(studies) < minimum or time.monotonic() < end:
        s = study_seed(seed, k)
        outcome = study.run(s)
        outcome["seed"] = s
        check_study(result, reference, s, outcome)
        studies.append(outcome)
        k += 1
    return studies


def peak_rss_mb() -> float:
    """The driver (which hosts the program) plus one pool child per
    worker at the largest child's peak."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return proc_peak_rss_mb(os.getpid()) + NPROC * children


# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    reference = load_reference()
    if not trace:
        setups = timed_setups()
        _warm_in_process()
        study = Study(workers=NPROC)
        studies = run_studies(study, result, reference, seed, 0, seconds, MIN_STUDIES)
        walls = [s["seconds"] for s in studies]
        result.metric("setup_s", median(setups), "s")
        result.metric("peak_rss_mb", peak_rss_mb(), "MiB")
        result.metric(
            "ops_per_s", sum(s["simulations"] for s in studies) / sum(walls), "1/s"
        )
        result.metric("p50_ms", median(walls) * 1e3, "ms")
        print(f"study wall time: median {median(walls) * 1e3:.1f} ms, "
              f"slowest {max(walls) * 1e3:.1f} ms over {len(walls)} studies")
        return result

    from . import tracing

    _warm_in_process()
    study = Study(workers=NPROC)
    pid = os.getpid()
    cpu0 = proc_cpu_s(pid)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    plain = run_studies(study, result, reference, seed, 0, seconds / 2, 2)
    ledger = Ledger()
    pool = tracing.install_pool_hooks(ledger)
    try:
        traced = run_studies(
            study, result, reference, seed, len(plain), seconds / 2, 2
        )
    finally:
        ledger.unpatch_all()
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu1 = proc_cpu_s(pid)

    deep = Ledger()
    cells = tracing.install_cell_hooks(deep)
    try:
        serial = Study(workers=None).run(study_seed(seed, 0))
    finally:
        deep.unpatch_all()
    check_study(
        result, reference, study_seed(seed, 0), serial, events=int(cells.totals["events"])
    )

    metrics = tracing.campaign_metrics(
        ledger, pool, deep, cells,
        studies=len(traced),
        fit_mre=sum(s["outputs"]["fit_mre"] for s in plain[:2]) / 2,
    )
    plain_walls = [s["seconds"] for s in plain]
    metrics["latency.p99_ms"] = (quantile(plain_walls, 0.99) * 1e3, "ms")
    metrics["trace.overhead_frac"] = (
        median([s["seconds"] for s in traced]) / median([s["seconds"] for s in plain]) - 1.0,
        "ratio",
    )
    metrics["proc.cpu_s.driver"] = (cpu1 - cpu0, "s")
    metrics["proc.cpu_s.pool"] = (
        (kids1.ru_utime + kids1.ru_stime) - (kids0.ru_utime + kids0.ru_stime), "s"
    )
    for name, (value, unit) in metrics.items():
        result.metric(name, value, unit)
    deep.dump(TRACE_DIR / "campaign-cold.serial.jsonl", {"workload": "campaign-cold"})
    ledger.dump(TRACE_DIR / "campaign-cold.pooled.jsonl", {"workload": "campaign-cold"})
    return result
