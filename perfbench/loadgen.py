"""The load generator: open loop, closed loop and the live-event
stream, all from one process.

Query traffic uses at most ``connections`` threads, one HTTP
connection each.  ``http.client`` keeps a connection open when the
server allows it and reconnects when the server closes it, so the
client needs no change if the server starts keeping connections
alive.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

#: Header carrying the benchmark's request id; the traced server side
#: reads it to join its spans to the client's timings.
REQUEST_ID_HEADER = "X-Request-Id"

#: One request: method, path and JSON body bytes (None for GET).
Request = Tuple[str, str, Optional[bytes]]

Clock = Callable[[], float]
#: ``send(request, request_id) -> (status, body)``; status 0 means the
#: connection failed.
Sender = Callable[[Request, int], Tuple[int, bytes]]


class Record(NamedTuple):
    """One open-loop request as the client saw it (monotonic seconds)."""

    index: int
    due: float
    picked: float
    sent: float
    done: float
    status: int
    body: bytes


def http_sender(host: str, port: int, timeout_s: float = 30.0) -> Sender:
    """A sender bound to one (reused when possible) HTTP connection."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)

    def send(request: Request, request_id: int) -> Tuple[int, bytes]:
        nonlocal conn
        method, path, body = request
        headers = {REQUEST_ID_HEADER: str(request_id)}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
            return 0, b""

    return send


def get_json(host: str, port: int, path: str, timeout_s: float = 30.0):
    """One GET outside the measured traffic; returns ``(status, json)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None
    finally:
        conn.close()


def post_json(host: str, port: int, path: str, body: dict,
              timeout_s: float = 30.0):
    """One POST outside the measured traffic; returns ``(status, json)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request(
            "POST",
            path,
            body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None
    finally:
        conn.close()


def open_loop(
    make_sender: Callable[[], Sender],
    requests: Sequence[Request],
    rate: float,
    connections: int,
    first_id: int = 0,
    clock: Clock = time.monotonic,
) -> List[Record]:
    """Send ``requests`` on a fixed schedule, ``rate`` per second.

    Request ``i`` is due at ``start + i / rate`` whatever happened to
    earlier requests.  Each of ``connections`` threads takes the next
    request when it is free, sleeps until the request is due, and
    sends it; when every connection is busy the request waits, and
    that wait is part of its due-time latency.
    """
    records: List[Optional[Record]] = [None] * len(requests)
    counter = itertools.count()
    start = clock() + 0.02

    def run() -> None:
        send = make_sender()
        while True:
            i = next(counter)
            if i >= len(requests):
                return
            due = start + i / rate
            picked = clock()
            if picked < due:
                time.sleep(due - picked)
            sent = clock()
            status, body = send(requests[i], first_id + i)
            records[i] = Record(i, due, picked, sent, clock(), status, body)

    _run_threads(run, connections)
    return [r for r in records if r is not None]


class ClosedResult(NamedTuple):
    """Completion times (monotonic s) of the 200 answers, the count of
    failed requests, and the loop's start and end."""

    done: List[float]
    failed: int
    start: float
    end: float


def closed_loop(
    make_sender: Callable[[], Sender],
    requests: Sequence[Request],
    seconds: float,
    connections: int,
    first_id: int = 0,
    clock: Clock = time.monotonic,
) -> ClosedResult:
    """Each of ``connections`` clients sends its next request as soon
    as the previous one is answered, cycling through ``requests``."""
    counter = itertools.count()
    lock = threading.Lock()
    done: List[float] = []
    failures = [0]
    start = clock()
    end = start + seconds

    def run() -> None:
        send = make_sender()
        mine: List[float] = []
        failed = 0
        while clock() < end:
            i = next(counter)
            status, _ = send(requests[i % len(requests)], first_id + i)
            if status == 200:
                mine.append(clock())
            else:
                failed += 1
        with lock:
            done.extend(mine)
            failures[0] += failed

    _run_threads(run, connections)
    return ClosedResult(sorted(done), failures[0], start, clock())


def _run_threads(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")


class EventStream:
    """Posts live events to the supervisor's control port on a fixed
    schedule and times how long each takes to become visible.

    An event is visible when every worker row of the data port's
    ``/v1/healthz`` reports a journal sequence at or past the one the
    control port acknowledged.  One thread posts and polls in turn, so
    the stream holds at most one connection at a time.  After every
    ``window`` events it clears them all, so the overlay stays bounded
    instead of growing all run, at one extra mutation per window.
    """

    def __init__(self, host: str, data_port: int, control_port: int,
                 events: Sequence[dict], rate: float, window: int,
                 poll_s: float = 0.05, clock: Clock = time.monotonic):
        self.host = host
        self.data_port = data_port
        self.control_port = control_port
        self.events = list(events)
        self.rate = rate
        self.window = window
        self.poll_s = poll_s
        self.clock = clock
        #: Events the control port acknowledged.
        self.posted = 0
        #: Seconds from posting until every worker reported the seq.
        self.visible_s: List[float] = []
        self.failed = 0
        self.attempted = 0
        self.last_seq = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[Exception] = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run_guarded,
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=60)
            if self._thread.is_alive():
                raise RuntimeError("event stream did not stop")
        if self._error is not None:
            raise self._error

    def _run_guarded(self) -> None:
        try:
            self._run()
        except Exception as exc:  # re-raised by stop()
            self._error = exc

    def _post(self, path: str, body: dict) -> Optional[dict]:
        self.attempted += 1
        try:
            status, reply = post_json(self.host, self.control_port, path,
                                      body)
        except (OSError, http.client.HTTPException, ValueError):
            status, reply = 0, None
        if status != 200 or not isinstance(reply, dict):
            self.failed += 1
            return None
        return reply["data"]

    def _run(self) -> None:
        start = self.clock()
        pending: List[Tuple[int, float]] = []
        posted = 0
        while not self._stop.is_set():
            now = self.clock()
            due = (start + posted / self.rate if posted < len(self.events)
                   else float("inf"))
            if now >= due:
                sent = self.clock()
                data = self._post("/v1/live/events", self.events[posted])
                posted += 1
                if data is not None:
                    self.posted += 1
                    pending.append((data["seq"], sent))
                    self.last_seq = max(self.last_seq, data["seq"])
                if posted % self.window == 0:
                    cleared = self._post("/v1/live/clear", {})
                    if cleared is not None:
                        self.last_seq = max(self.last_seq, cleared["seq"])
                continue
            if pending:
                seen = self.min_worker_seq()
                at = self.clock()
                still = []
                for seq, sent in pending:
                    if seen >= seq:
                        self.visible_s.append(at - sent)
                    else:
                        still.append((seq, sent))
                pending = still
            self._stop.wait(min(self.poll_s, max(0.0, due - self.clock())))

    def min_worker_seq(self) -> int:
        """The lowest journal sequence any worker reports."""
        status, body = get_json(self.host, self.data_port, "/v1/healthz")
        if status != 200:
            return -1
        return min(row["journal_seq"] for row in body["data"]["workers"])

    def wait_converged(self, timeout_s: float = 30.0) -> bool:
        """Wait until every worker reports the last acknowledged seq."""
        deadline = self.clock() + timeout_s
        while self.clock() < deadline:
            if self.min_worker_seq() >= self.last_seq:
                return True
            time.sleep(0.05)
        return False
