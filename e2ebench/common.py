"""Shared helpers: percentiles, /proc accounting, child processes.

Everything here is plain standard library so the benchmark's own tests
can import it without the program under test on the path.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import threading
from typing import Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: the benchmark runs from it and builds nothing else.
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (stores, checkpoints, span dumps, reports).
OUT = os.path.join(ROOT, ".bench_out")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(int(math.ceil(q * len(ordered))), 1)
    return float(ordered[min(rank, len(ordered)) - 1])


#: One BLAS/OpenMP thread per process.  On a host with few vCPUs a second
#: OpenBLAS thread spin-waits between calls and bills that wait as CPU
#: time: on 2 vCPUs a ``train`` job took ~2.4 s of CPU for ~1.2 s of wall
#: time with two threads and ~1.2 s of CPU with one, in the same wall time.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def src_env() -> Dict[str, str]:
    """Environment for a child that imports the program from ``src/``."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONWARNINGS", None)
    return env


def require_program() -> None:
    """Exit non-zero unless the program's sources are in the checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"e2ebench: no program sources at {SRC}/repro; run from a checkout\n"
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- /proc accounting ---------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # comm may hold spaces/parens: split after the last ')'.
    return text[text.rfind(")") + 2 :].split()


def descendants(pid: int) -> List[int]:
    """``pid`` plus every live process below it in the process tree."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is None:
            continue
        children.setdefault(int(fields[1]), []).append(int(name))
    tree, frontier = [pid], [pid]
    while frontier:
        nxt = []
        for parent in frontier:
            nxt.extend(children.get(parent, []))
        tree.extend(nxt)
        frontier = nxt
    return tree


def cpu_seconds(pids: Iterable[int]) -> Dict[int, float]:
    """CPU time of each live pid, summed over its threads, in seconds.

    Per-thread ``schedstat`` run time is in nanoseconds; ``stat``'s
    utime + stime (clock ticks) is the fallback where it is unavailable.
    """
    out = {}
    for pid in pids:
        try:
            total = 0
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            out[pid] = total / 1e9
            continue
        except (OSError, ValueError, IndexError):
            pass
        fields = _stat_fields(pid)
        if fields is not None:
            # fields[11], fields[12] are utime, stime (stat fields 14, 15).
            out[pid] = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return out


def pss_mb(pids: Iterable[int]) -> float:
    """Summed proportional set size: pages shared through mmap count once."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# -- child processes ----------------------------------------------------------


def spawn(argv: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start a child in its own session, stdout piped line-buffered."""
    return subprocess.Popen(
        list(argv),
        cwd=ROOT,
        env=src_env(),
        stdout=subprocess.PIPE,
        stderr=kwargs.pop("stderr", subprocess.DEVNULL),
        stdin=subprocess.DEVNULL,
        text=True,
        bufsize=1,
        start_new_session=True,
        **kwargs,
    )


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def stop(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """SIGTERM, then SIGKILL the whole session; always reap.

    SIGTERM, not SIGINT: a child started from a background shell inherits
    SIGINT ignored.  The tracing launcher turns SIGTERM into a clean exit.
    """
    if proc.poll() is None:
        try:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
    _kill_session(proc.pid)
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def read_line(proc: subprocess.Popen, prefix: str, timeout: float) -> str:
    """The rest of the first child stdout line starting with ``prefix``.

    A watchdog kills the child's session after ``timeout`` seconds, which
    turns a hung child into EOF here instead of a hung benchmark.
    """
    watchdog = threading.Timer(timeout, _kill_session, (proc.pid,))
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith(prefix):
                return line[len(prefix) :].rstrip("\n")
    finally:
        watchdog.cancel()
    raise RuntimeError(
        f"child exited (code {proc.poll()}) or timed out before {prefix!r}"
    )


def read_json_line(proc: subprocess.Popen, prefix: str, timeout: float) -> dict:
    return json.loads(read_line(proc, prefix, timeout))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


#: The end-to-end metrics every workload reports, with their units.  What
#: "request" means per workload is in README.md.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "slo_share": "share",
    "ok_share": "share",
    "cpu_ms_per_op": "ms",
}


def end_to_end(values: Dict[str, float]) -> Dict[str, dict]:
    """Every :data:`END_TO_END` metric with its unit; refuses a gap or extra."""
    if set(values) != set(END_TO_END):
        raise ValueError(
            f"end-to-end metrics {sorted(values)} != {sorted(END_TO_END)}"
        )
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
