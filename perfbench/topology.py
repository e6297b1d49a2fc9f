"""Two ``step serve`` shards behind one ``step route``, all as subprocesses.

Servers run in processes of their own: threads in the load generator would
share its interpreter lock and slow the clients down.  Each fleet lives in
a fresh directory and listens on Unix sockets with fixed names inside it
(``shard0.sock``, ``shard1.sock``, ``router.sock``), read back from each
server's banner; a server a previous run left behind can never be reached.
Fixed names matter: the router's hash ring is built from the shard address
strings, so ephemeral TCP ports would re-split the warm pool between the
shards on every run (from 9/9 to 5/13 circuits), and that moved throughput
by a quarter between runs.  Each shard gets a fresh cache directory and
runs ``--backend thread --jobs 1``; ``run.py`` has already removed
``STEP_CACHE_DIR``, ``STEP_BACKEND`` and ``STEP_PURE_PYTHON`` from the
environment every child inherits.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import inputs

LAUNCHER = os.path.join(inputs.HERE, "launcher.py")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
_ADDRESS = re.compile(r"^(?:serving|routing) on (\S+)")
_KERNEL = re.compile(r"^perfbench kernel: (\w+)")


class TopologyError(RuntimeError):
    pass


class _Server:
    def __init__(self, role: str, argv: List[str], workdir: str, trace: bool) -> None:
        self.role = role
        env = {k: v for k, v in os.environ.items() if k != "PERFBENCH_TRACE_OUT"}
        self.trace_path = os.path.join(workdir, f"{role}.trace.json") if trace else None
        if self.trace_path:
            env["PERFBENCH_TRACE_OUT"] = self.trace_path
        self.log_path = os.path.join(workdir, f"{role}.log")
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, LAUNCHER] + argv,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                cwd=workdir,
                bufsize=0,
            )
        self.workdir = workdir
        self.kernel: Optional[str] = None
        self.address: Optional[str] = None

    def read_banner(self, deadline: float) -> None:
        """Read the kernel line and the bound address (or fail by deadline)."""
        buffer = b""
        stream = self.process.stdout
        while self.address is None:
            left = deadline - time.monotonic()
            if left <= 0 or self.process.poll() is not None:
                raise TopologyError(f"{self.role} did not start: {self.log_tail()}")
            ready, _, _ = select.select([stream], [], [], min(left, 0.05))
            if not ready:
                continue
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                continue
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                text = line.decode("utf-8", "replace")
                if _KERNEL.match(text):
                    self.kernel = _KERNEL.match(text).group(1)
                elif _ADDRESS.match(text):
                    self.address = _ADDRESS.match(text).group(1)

    @property
    def client_address(self) -> str:
        """The socket path as the load generator (another cwd) reaches it."""
        return os.path.relpath(os.path.join(self.workdir, self.address))

    def log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as handle:
                return handle.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


class ServiceTopology:
    """Start, mark, measure and stop one router-plus-two-shards fleet."""

    def __init__(self, workdir: str, trace: bool = False) -> None:
        self.workdir = workdir
        self.trace = trace
        self.shards: List[_Server] = []
        self.router: Optional[_Server] = None

    @property
    def servers(self) -> List[_Server]:
        return self.shards + ([self.router] if self.router else [])

    @property
    def address(self) -> str:
        return self.router.client_address

    def start(self) -> float:
        """Spawn everything; seconds from the first spawn to a router pong."""
        from repro.errors import ReproError
        from repro.service.client import ServiceClient

        os.makedirs(self.workdir, exist_ok=True)
        started = time.monotonic()
        deadline = started + START_TIMEOUT_S
        try:
            for index in range(2):
                self.shards.append(
                    _Server(
                        f"shard{index}",
                        ["serve", "--socket", f"shard{index}.sock", "--backend",
                         "thread", "--jobs", "1", "--cache-dir", f"cache{index}"],
                        self.workdir,
                        self.trace,
                    )
                )
            for shard in self.shards:
                shard.read_banner(deadline)
            argv = ["route", "--listen", "router.sock"]
            for shard in self.shards:
                argv += ["--shard", shard.address]
            self.router = _Server("router", argv, self.workdir, self.trace)
            self.router.read_banner(deadline)
            while True:
                try:
                    with ServiceClient(self.address, timeout=1.0) as client:
                        if client.ping():
                            break
                except (ReproError, OSError):
                    pass
                if time.monotonic() > deadline:
                    raise TopologyError("the router never answered a ping")
                time.sleep(0.001)
        except BaseException:
            self.stop()
            raise
        return time.monotonic() - started

    def kernels(self) -> Dict[str, Optional[str]]:
        return {server.role: server.kernel for server in self.servers}

    def mark(self) -> None:
        """Snapshot every server's span aggregates (traced fleets only).

        The servers are idle when this is called; the short pause lets their
        signal handlers run before the next traffic arrives.
        """
        for server in self.servers:
            server.process.send_signal(signal.SIGUSR1)
        time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return sum(server.peak_rss_mb() for server in self.servers)

    def stop(self) -> None:
        """Stop the router, then the shards, and wait until each has exited."""
        for server in reversed(self.servers):
            server.stop()

    def traces(self) -> Dict[str, dict]:
        found = {}
        for server in self.servers:
            if server.trace_path and os.path.exists(server.trace_path):
                with open(server.trace_path, encoding="utf-8") as handle:
                    found[server.role] = json.load(handle)
        return found
