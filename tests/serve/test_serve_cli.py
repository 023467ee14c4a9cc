"""``python -m repro.serve`` binds, answers and shuts down, in process."""

import asyncio
import queue
import threading

import pytest

import repro.serve.__main__ as serve_cli
from repro.serve.app import ReproServer
from repro.serve.client import request_json

pytestmark = pytest.mark.usefixtures("repro_logging_restored")


def test_main_serves_until_its_task_is_cancelled(tmp_path, monkeypatch):
    started: queue.Queue = queue.Queue()

    class Announcing(ReproServer):
        """Hands the bound server and the CLI's main task to the test."""

        async def start(self) -> "Announcing":
            await super().start()
            started.put((self, asyncio.get_running_loop(), asyncio.current_task()))
            return self

    monkeypatch.setattr(serve_cli, "ReproServer", Announcing)
    argv = ["--port", "0", "--workers", "0", "--store-dir", str(tmp_path), "--quiet"]
    exit_codes: list[int] = []
    thread = threading.Thread(
        target=lambda: exit_codes.append(serve_cli.main(argv)), daemon=True
    )
    thread.start()
    server, loop, task = started.get(timeout=60)
    try:
        status, payload = request_json(server.host, server.port, "GET", "/healthz", timeout=30)
        assert status == 200 and payload["status"] == "ok"
    finally:
        # What asyncio.run does on Ctrl-C: cancel the main task.
        loop.call_soon_threadsafe(task.cancel)
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert exit_codes == [0]
    assert server._server is None  # close() ran
