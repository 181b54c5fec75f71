"""Shared plumbing of the repository benchmark: paths, statistics, the
result line, and what the driver reads about program processes from
``/proc``.

The benchmark treats the program as a black box.  It imports only the
public APIs of the ``repro`` package under ``src/`` of the checkout it
runs in, or launches the package's own CLIs as subprocesses.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: root of the checkout the benchmark runs in (its parent directory)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for caches, stores and traces; listed in .gitignore
WORK = ROOT / ".benchwork"
#: the last traced run's spans land here, one JSONL file per workload
TRACE_DIR = WORK / "trace"

#: pool workers and driver connections are sized for two cores
NPROC = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here (no result line is printed)."""


def declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit of BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` list, in declared order."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    return {m["name"]: m["unit"] for m in spec[kind]}


def require_program() -> None:
    """Put the checkout's ``src`` on ``sys.path``, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses (imports from ``src``)."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def make_workdir(tag: str) -> Path:
    """A fresh, empty scratch directory under ``.benchwork``."""
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))


def remove_tree(path: Optional[Path]) -> None:
    """Delete a scratch directory (missing is fine)."""
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (mean of the middle pair)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile, the rule ``repro.obs.query.percentile`` uses."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("quantile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


# ----------------------------------------------------------------------
class Result:
    """Operation tallies plus named metrics; prints the result line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        #: name -> (value, unit)
        self.metrics: Dict[str, tuple] = {}
        #: human-readable reasons for failures (first few, to stderr)
        self.problems: List[str] = []

    def fail(self, count: int, reason: str) -> None:
        """Count ``count`` failed operations (and a wrong output)."""
        if count <= 0:
            return
        self.failed += count
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(f"{count} x {reason}")

    def metric(self, name: str, value: float, unit: str) -> None:
        """Record one metric; counts stay integers."""
        self.metrics[name] = (value, unit)

    def emit(self, kind: str) -> None:
        """Print the result line with exactly the ``kind`` metrics of
        BENCHMARK.json (``end_to_end`` or ``per_layer``)."""
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        units = declared(kind)
        names = list(units)
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        wrong = [n for n in names if self.metrics[n][1] != units[n]]
        if wrong:
            raise BenchError(f"metrics measured in undeclared units: {wrong}")
        line = {
            "correct": bool(self.correct and self.failed == 0),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in names
            },
        }
        print(json.dumps(line), flush=True)


# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK")


class ProcessGone(BenchError):
    """A program process ended before the benchmark could read it."""


def _proc_read(pid: int, name: str) -> bytes:
    try:
        with open(f"/proc/{pid}/{name}", "rb") as fh:
            return fh.read()
    except (FileNotFoundError, ProcessLookupError):
        raise ProcessGone(f"process {pid} has ended") from None


def _stat_fields(pid: int) -> List[bytes]:
    """``/proc/PID/stat`` after the command name: state, ppid, ..."""
    return _proc_read(pid, "stat").rsplit(b")", 1)[1].split()


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    for line in _proc_read(pid, "status").decode().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Live (not zombie) children of ``pid``, found by their parent id."""
    out: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (ProcessGone, OSError):
            continue
        if int(fields[1]) == pid and fields[0] != b"Z":
            out.append(int(entry))
    return sorted(out)


class ProgramProcess:
    """One program CLI process in its own session (so its children can
    be reaped as a group), with stderr captured to a log file."""

    def __init__(self, argv: List[str], log: Path, ready_timeout: float = 60.0) -> None:
        self.argv = argv
        self.log = log
        #: the program did not end within the timeout of :meth:`stop`
        self.hung = False
        self._log_fh = open(log, "wb")
        self.proc = subprocess.Popen(
            argv,
            cwd=str(ROOT),
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log_fh,
            start_new_session=True,
        )
        self.banner = self._read_banner(ready_timeout)
        # keep draining stdout so the program never blocks on a full pipe
        self._drain = threading.Thread(target=self._drain_stdout, daemon=True)
        self._drain.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read_banner(self, timeout: float) -> str:
        box: List[bytes] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout)
        if not box or not box[0]:
            self.kill()
            raise BenchError(
                f"{self.argv[1:4]} printed no banner within {timeout}s:\n{self.log_tail()}"
            )
        return box[0].decode("utf-8", "replace").strip()

    def _drain_stdout(self) -> None:
        for _ in iter(self.proc.stdout.readline, b""):
            pass

    @property
    def port(self) -> int:
        """The port from the ``... serving on HOST:PORT ...`` banner."""
        head = self.banner.split(" (", 1)[0]
        return int(head.rsplit(":", 1)[1])

    def log_tail(self, lines: int = 20) -> str:
        if not self._log_fh.closed:
            self._log_fh.flush()
        try:
            return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (the program drains and flushes), then reap the group.
        Sets ``hung`` if the program outlived ``timeout`` and was killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.hung = True
        self.kill()
        return self.proc.returncode

    def kill(self) -> None:
        """SIGKILL the whole process group and wait until it is gone (the
        leader is reaped here, its children by whoever adopts them)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.proc.wait(10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
            pass
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except (ProcessLookupError, PermissionError):
                break
            time.sleep(0.01)
        self._drain_join()
        self._log_fh.close()

    def _drain_join(self) -> None:
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(5.0)


def wall() -> float:
    """The clock every timestamp uses: CLOCK_MONOTONIC, which asyncio's
    loop time and the program's flight recorder share across processes."""
    return time.monotonic()
