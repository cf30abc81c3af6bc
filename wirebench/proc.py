"""The server process under test, plain or through the traced launcher."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"


class BenchError(RuntimeError):
    """The run could not be carried out (not an output mismatch)."""


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One server process, plain or through the traced launcher."""

    def __init__(self, args: list[str], log: Path, trace_out: Path | None):
        self.port = free_port()
        server_args = ["--port", str(self.port), "--cars", "50000", *args]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.server", *server_args]
        else:
            cmd = [sys.executable, str(BENCH / "launcher.py"),
                   "--trace-out", str(trace_out), "--", *server_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
        )
        # Same durability and storage policy on every commit: the defaults.
        for name in ("REPRO_WAL_FSYNC", "REPRO_STORAGE", "REPRO_FAULT_PLAN",
                     "REPRO_NO_NUMPY"):
            env.pop(name, None)
        self.trace_out = trace_out
        self.dumps = 0
        self.data_dir: Path | None = None
        self.log = open(log, "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT
        )

    def wait_ready(self, timeout: float = 170.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server exited with {self.proc.returncode} during "
                    f"start-up; see {self.log.name}"
                )
            try:
                socket.create_connection(("127.0.0.1", self.port), 1).close()
                return
            except OSError:
                time.sleep(0.01)
        raise BenchError(f"server not ready after {timeout:.0f}s")

    def client(self) -> Any:
        from repro.server.client import PreferenceClient

        return PreferenceClient(port=self.port, timeout=120.0)

    def rss_peak_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def dump_trace(self) -> dict[str, Any]:
        assert self.trace_out is not None
        path = Path(f"{self.trace_out}.{self.dumps}.json")
        self.dumps += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 60
        while not path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError("traced server wrote no trace dump")
            time.sleep(0.01)
        return json.loads(path.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()
