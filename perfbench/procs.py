"""Forked child processes that hand one JSON result back over a pipe.

The benchmark forks (rather than spawns) so that a child starts with every
layer already imported: a ``compile_grid`` op is a fresh process with cold
caches whose cost is the compile, not the interpreter start-up, which
``setup_s`` measures instead.  Forking is only safe while the parent has a
single thread, so :func:`fork_call` refuses otherwise.
"""

from __future__ import annotations

import json
import os
import selectors
import sys
import threading
import time
import traceback
from typing import Any, Callable, Dict, Tuple


def fork_call(fn: Callable[..., Any], *args: Any) -> Tuple[int, int]:
    """Run ``fn(*args)`` in a forked child; returns ``(pid, read_fd)``.

    The child writes ``{"ok": true, "result": ...}`` (or ``{"ok": false,
    "error": traceback}``) as JSON to the pipe and exits without running
    any of the parent's clean-up handlers.
    """
    if threading.active_count() != 1:
        raise RuntimeError("fork_call needs a single-threaded parent")
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:                                     # child
        os.close(read_fd)
        try:
            try:
                payload = {"ok": True, "result": fn(*args)}
            except Exception:
                payload = {"ok": False, "error": traceback.format_exc()}
            data = json.dumps(payload).encode("utf-8")
            with os.fdopen(write_fd, "wb") as out:
                out.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, read_fd


class Children:
    """Forked children in flight; :meth:`wait_one` returns the next one to
    finish as ``(tag, payload, seconds since it was started)``."""

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._state: Dict[int, Tuple[int, Any, float, bytearray]] = {}

    def __len__(self) -> int:
        return len(self._state)

    def start(self, tag: Any, fn: Callable[..., Any], *args: Any) -> None:
        begin = time.perf_counter()
        pid, fd = fork_call(fn, *args)
        self._state[fd] = (pid, tag, begin, bytearray())
        self._selector.register(fd, selectors.EVENT_READ)

    def wait_one(self) -> Tuple[Any, dict, float]:
        while True:
            for key, _events in self._selector.select():
                fd = key.fd
                chunk = os.read(fd, 1 << 16)
                pid, tag, begin, buffer = self._state[fd]
                if chunk:
                    buffer.extend(chunk)
                    continue
                elapsed = time.perf_counter() - begin
                self._selector.unregister(fd)
                os.close(fd)
                del self._state[fd]
                os.waitpid(pid, 0)
                try:
                    payload = json.loads(buffer.decode("utf-8"))
                except ValueError:
                    payload = {"ok": False, "error": "child died"}
                return tag, payload, elapsed

    def close(self) -> None:
        while self._state:
            self.wait_one()
        self._selector.close()


def call_in_child(fn: Callable[..., Any], *args: Any) -> Any:
    """Run ``fn(*args)`` in one forked child and return its result."""
    children = Children()
    children.start(None, fn, *args)
    _tag, payload, _elapsed = children.wait_one()
    children.close()
    if not payload["ok"]:
        raise RuntimeError(f"child failed:\n{payload['error']}")
    return payload["result"]
