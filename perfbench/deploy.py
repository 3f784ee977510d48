"""Build an index with ``repro-ttl build`` and serve it with
``repro-ttl serve``, as subprocesses of the benchmark.

A traced deployment runs the same commands through ``shim.py``, which
wraps each layer's public functions before handing over to the CLI.
"""

from __future__ import annotations

import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

from stats import process_tree, process_tree_pss_kb
from workloads import Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Seconds a build or a server may take before the run is abandoned.
SETUP_TIMEOUT_S = 120.0
_URL = re.compile(r"http://([\d.]+):(\d+)")


class DeployError(RuntimeError):
    """The program under test failed to build or start."""


def child_env(root: str, work: str, trace_dir: Optional[str]) -> dict:
    """Environment for every process the benchmark starts: the
    checkout's sources, temporary files in the run's work directory,
    and bytecode in a cache that later runs reuse, as an installed
    package's would be."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = os.path.join(work, "tmp")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(os.path.dirname(work),
                                              "pycache")
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


class Deployment:
    """One build + serve of a workload's network."""

    def __init__(self, root: str, work: str, workload: Workload,
                 trace_dir: Optional[str] = None) -> None:
        self.root = root
        self.work = work
        self.workload = workload
        self.trace_dir = trace_dir
        self.env = child_env(root, work, trace_dir)
        suffix = ".fed" if workload.federated else ".ttl"
        self.index_path = os.path.join(work, workload.name + suffix)
        self.journal_path = os.path.join(work, workload.name + ".wal")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.control_port = 0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._output: List[str] = []
        self._tree: List[int] = []

    # ------------------------------------------------------------------

    def _command(self, args: List[str]) -> List[str]:
        if self.trace_dir is not None:
            return [sys.executable, "-u",
                    os.path.join(BENCH_DIR, "shim.py"), *args]
        return [sys.executable, "-u", "-m", "repro.cli", *args]

    def _dataset_args(self) -> List[str]:
        return [self.workload.dataset, "--scale", str(self.workload.scale)]

    def build_args(self) -> List[str]:
        return ["build", *self._dataset_args(), self.index_path,
                *self.workload.build_args]

    def serve_args(self) -> List[str]:
        w = self.workload
        args = ["serve", *self._dataset_args(), "--port", "0"]
        if w.federated:
            return args + ["--federation", self.index_path]
        args += ["--index", self.index_path, "--mmap", "--workers", "2"]
        if w.live:
            args += ["--live", "--journal", self.journal_path,
                     "--cache-size", str(w.cache_size)]
        return args

    def setup(self) -> float:
        """Build, serve, and wait until every worker reports ready.

        Returns the seconds from invoking ``build`` until the server's
        banner, which it prints once every worker has reported ready.
        """
        for path in (self.index_path, self.journal_path):
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.unlink(path)
        started = time.monotonic()
        build = subprocess.run(
            self._command(self.build_args()), cwd=self.work, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=SETUP_TIMEOUT_S,
        )
        if build.returncode != 0:
            raise DeployError(
                "build failed:\n" + build.stdout.decode(errors="replace"))
        self.proc = subprocess.Popen(
            self._command(self.serve_args()), cwd=self.work, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        reader = threading.Thread(target=self._read, daemon=True)
        reader.start()
        self.port = self._await_url("serving ")
        setup_s = time.monotonic() - started
        if self.workload.live:
            self.control_port = self._await_url("live mutations via ")
        self._tree = process_tree(self.proc.pid)
        return setup_s

    def _read(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace")
            self._output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _await_url(self, prefix: str) -> int:
        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            try:
                line = self._lines.get(timeout=max(0.01, remaining))
            except queue.Empty:
                line = ""
            if line is None or remaining <= 0:
                self.stop()
                raise DeployError(
                    f"server did not print {prefix!r}:\n"
                    + "".join(self._output))
            if line.startswith(prefix):
                match = _URL.search(line)
                if match is None:
                    raise DeployError(f"no URL in banner: {line!r}")
                return int(match.group(2))

    # ------------------------------------------------------------------

    def pss_mb(self) -> float:
        """Summed Pss of the server's process tree, in MB (10^6 B)."""
        assert self.proc is not None
        return process_tree_pss_kb(self.proc.pid) * 1024 / 1e6

    def index_mb(self) -> float:
        """Bytes on disk of the index file or federation directory."""
        if os.path.isdir(self.index_path):
            total = sum(
                os.path.getsize(os.path.join(self.index_path, name))
                for name in os.listdir(self.index_path))
        else:
            total = os.path.getsize(self.index_path)
        return total / 1e6

    def stop(self, grace_s: float = 30.0) -> bool:
        """SIGTERM-drain the server and wait for its whole process tree
        to end; returns whether it drained cleanly."""
        if self.proc is None:
            return True
        proc, self.proc = self.proc, None
        tree = self._tree or process_tree(proc.pid)
        clean = True
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            clean = False
            proc.kill()
            proc.wait(timeout=grace_s)
        clean = clean and proc.returncode == 0
        for pid in tree[1:]:
            if _alive(pid):
                clean = False
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + grace_s
        while any(_alive(pid) for pid in tree[1:]):
            if time.monotonic() > deadline:
                raise DeployError(f"server processes {tree} did not end")
            time.sleep(0.01)
        return clean


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie counts as ended)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, IndexError):
        return False
    return state not in ("Z", "X")
