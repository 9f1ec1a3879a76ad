"""The ``plan-http`` workload: planning over the ``repro service``
HTTP server, run as a subprocess.

Each operation sends one plan request on a new connection (as
``PlanningClient`` does) and the same request on one kept-alive
HTTP/1.1 connection, and checks that both bodies are byte-identical.
The server runs with ``--log-json``; its ``service.access`` events
give the server-side latency of every request, matched by trace id,
so the client-minus-server difference is the socket edge.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckError, check_plan
from common import Outcome, peak_rss_mb, rng_for
from planning import WARM_GRIDS, grid_of, query_pool

#: The small grids of ``plan-http`` (all warm grids but the default).
HTTP_GRIDS = WARM_GRIDS[1:]
HTTP_VARIANTS = 2
#: A kept-alive response this slow waited for a delayed ACK.
STALL_MS = 40.0

_READY = re.compile(r"serving on http://([\d.]+):(\d+)")


class Server:
    """One ``python -m repro service`` subprocess."""

    def __init__(self, root: Path, workdir: Path, index: int) -> None:
        self.log_path = workdir / f"server-{index}.jsonl"
        self._err_path = workdir / f"server-{index}.err"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with open(self._err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "service",
                    "--port",
                    "0",
                    "--log-json",
                    str(self.log_path),
                ],
                cwd=root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
        try:
            self.host, self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout_s: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            match = _READY.search(self._err_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            "service did not start: "
            + self._err_path.read_text(errors="replace")[-2000:]
        )

    def post(self, body: bytes, trace_id: str, conn=None):
        """POST ``/v1/plan``; a new connection unless ``conn`` is given.
        Returns ``(status, body, seconds)``."""
        headers = {
            "Content-Type": "application/json",
            "X-Repro-Trace": trace_id,
        }
        fresh = conn is None
        started = time.perf_counter()
        if fresh:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            headers["Connection"] = "close"
        try:
            conn.request("POST", "/v1/plan", body, headers)
            response = conn.getresponse()
            payload = response.read()
        finally:
            if fresh:
                conn.close()
        return response.status, payload, time.perf_counter() - started

    def stop(self) -> None:
        """Interrupt the server (it closes its event log) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def access_latencies(self) -> dict[str, float]:
        """Server-side seconds per trace id (after :meth:`stop`)."""
        out = {}
        with open(self.log_path, encoding="utf-8") as events:
            for line in events:
                if '"service.access"' in line:
                    event = json.loads(line)
                    out[event["trace_id"]] = event["latency_s"]
        return out


def plan_http(
    seed, seconds, speed, root: Path, workdir: Path, log=None, setups=3
):
    """Planning requests over HTTP, on new and kept-alive connections.

    Each set-up starts a fresh server and warms its grids; the run is
    cut into one measured slice per server, so a server process that
    happened to lay its caches out badly weighs a third, not all.
    """
    out = Outcome("plan-http")
    grids = [(fields, grid_of(fields)) for fields in HTTP_GRIDS]
    pool = query_pool(rng_for(seed, "plan-http"), grids, HTTP_VARIANTS)
    grid_by_query = [
        grids[i // (4 * HTTP_VARIANTS)][1] for i in range(len(pool))
    ]
    order = list(range(len(pool)))
    rng_for(seed, "plan-http-order").shuffle(order)
    bodies = [json.dumps(q).encode("utf-8") for q in pool]
    warm = [bodies[i * 4 * HTTP_VARIANTS] for i in range(len(grids))]
    legs: list[tuple[str, str, float, float]] = []  # trace ids, raw s
    server_s: dict[str, float] = {}
    verified: dict[int, tuple[int, bytes]] = {}
    kinds: dict[str, int] = {}
    new_ms: list[float] = []
    keep_ms: list[float] = []
    serial = 0
    rounds = 0

    def start(index: int) -> Server:
        server = Server(root, workdir, index)
        for n, body in enumerate(warm):
            status, _, _ = server.post(body, f"{0xFFFF0000 + n:x}")
            if status != 200:
                server.stop()
                raise RuntimeError(f"set-up query answered {status}")
        return server

    def one_round(server: Server, keep) -> list:
        nonlocal serial
        answers = []
        for i in order:
            serial += 1
            stem = f"{seed & 0xFFFFFF:06x}{serial:08x}"
            ids = (stem + "0", stem + "1")
            try:
                fresh = server.post(bodies[i], ids[0])
                kept = server.post(bodies[i], ids[1], keep)
            except (OSError, http.client.HTTPException):
                keep.close()  # reconnects on the next request
                fresh = kept = None
            answers.append((i, ids, fresh, kept))
        return answers

    def check(i: int, fresh, kept) -> None:
        if fresh[:2] != kept[:2]:
            out.problem(
                f"query {i}: kept-alive answer differs from the "
                "new-connection answer"
            )
            return
        seen = verified.get(i)
        if seen is None:
            try:
                kind = check_plan(
                    pool[i], fresh[0], fresh[1], grid_by_query[i]
                )
            except CheckError as exc:
                out.problem(f"query {i}: {exc}")
                return
            kinds[kind] = kinds.get(kind, 0) + 1
            verified[i] = fresh[:2]
        elif seen != fresh[:2]:
            out.problem(f"query {i}: answer changed between rounds")

    for index in range(setups):
        server, raw_s, scale = speed.bracket(lambda: start(index))
        out.setup_s.append(raw_s * scale)
        keep = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            deadline = time.perf_counter() + seconds / setups
            while True:
                answers, _, scale = speed.bracket(
                    lambda: one_round(server, keep)
                )
                rounds += 1
                for i, ids, fresh, kept in answers:
                    out.attempted += 1
                    if fresh is None:
                        out.failed += 1
                        continue
                    new_ms.append(fresh[2] * scale * 1e3)
                    keep_ms.append(kept[2] * 1e3)
                    out.record(
                        new_ms[-1] + keep_ms[-1], (fresh[2] + kept[2]) * 1e3
                    )
                    legs.append((ids[0], ids[1], fresh[2], kept[2]))
                    check(i, fresh, kept)
                if time.perf_counter() >= deadline:
                    break
        finally:
            keep.close()
            server.stop()
        server_s.update(server.access_latencies())
    out.peak_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    edge_us, keep_edge_ms = [], []
    for fresh_id, keep_id, fresh_s, keep_s in legs:
        if fresh_id in server_s and keep_id in server_s:
            edge_us.append((fresh_s - server_s[fresh_id]) * 1e6)
            keep_edge_ms.append((keep_s - server_s[keep_id]) * 1e3)
    if len(edge_us) != len(legs):
        out.problem(
            f"access logs hold {len(edge_us)} of {len(legs)} request pairs"
        )
    stalls = sum(ms >= STALL_MS for ms in keep_ms)
    out.notes.append(
        f"{rounds} rounds of {len(order)} request pairs on {setups} "
        f"servers, grids of {', '.join(str(len(g)) for _, g in grids)} "
        f"points; each leg (new connection, kept-alive): {out.attempted} "
        f"attempted, {out.failed} failed; distinct answers verified by "
        f"scan: {kinds}; kept-alive stalls >= {STALL_MS:g} ms: {stalls}"
    )
    if log is None:
        quant = statistics.quantiles(new_ms, n=100, method="inclusive")
        out.figures["plan_p50_ms"] = (quant[49], "ms")
        out.figures["plan_p99_ms"] = (quant[98], "ms")
        out.figures["plan_qps"] = (len(new_ms) / (sum(new_ms) / 1e3), "1/s")
        out.figures["keepalive_p50_ms"] = (statistics.median(keep_ms), "ms")
        return out
    out.layers["service.edge_us"] = (statistics.median(edge_us), "us")
    out.layers["service.keepalive_edge_ms"] = (
        statistics.median(keep_edge_ms),
        "ms",
    )
    out.layers["service.keepalive_stalls"] = (stalls / len(keep_ms), "1/op")
    return out
