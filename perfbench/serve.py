"""serve-mix: ``repro serve`` under two closed-loop keep-alive clients."""

from __future__ import annotations

import http.client
import json
import re
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

import numpy as np

from .common import (
    Context, build_table, dataset_specs, python_env, stratified_order,
)
from .stats import median, mid_mean, tail_percentile
from .tracing import Target
from .workload import Pass, Workload

SERVE_DEVICE = "AMD-EPYC-24"
# Callers wait for each reply (closed loop); one client per core.
N_CLIENTS = 2
SELECT_SHARE = 0.9       # of all requests; the rest are /sweep slices
SPEC_SHARE = 0.2         # of /select payloads; the rest send features
N_SWEEP_QUERIES = 48     # distinct slices, drawn with Zipf weights
SWEEP_COLUMNS = "matrix,device,format,gflops,bottleneck"
BOOT_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 30.0
PREDICT_REPS = 200

# Span around each request, for the traced pass's coverage only.
REQUEST_TARGET = Target("service", "perfbench.serve:request",
                        "service.request_s")


# -- the server -----------------------------------------------------------
class Server:
    """``repro serve`` as a child process, booted until /healthz answers."""

    def __init__(self, root: Path, table_path: Path, log_path: Path):
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--table", str(table_path), "--device", SERVE_DEVICE,
             "--port", "0"],
            cwd=root, env=python_env(root),
            stdout=subprocess.PIPE, stderr=self.log,
        )
        try:
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            self.host, self.port = self._await_address(deadline)
            self._await_health(deadline)
        except BaseException:
            self.stop()
            raise

    def _await_address(self, deadline: float) -> Tuple[str, int]:
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if ready:
                line = self.proc.stdout.readline().decode()
                found = re.search(r"http://([0-9.]+):(\d+)", line)
                if found:
                    return found.group(1), int(found.group(2))
                if not line and self.proc.poll() is not None:
                    break
        raise RuntimeError(
            f"repro serve did not report its address "
            f"(exit code {self.proc.poll()}); see {self.log.name}"
        )

    def _await_health(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"repro serve never became healthy; see "
                           f"{self.log.name}")

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# -- requests -------------------------------------------------------------
def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _feature_ranges():
    from repro.core.feature_space import TABLE_I_SPACE as s

    return {
        "mem_footprint_mb": (s.footprint_bins[0][0], s.footprint_bins[-1][1]),
        "avg_nnz_per_row": (min(s.avg_nnz_per_row), max(s.avg_nnz_per_row)),
        "skew_coeff": (min(s.skew_coeff), max(s.skew_coeff)),
        "cross_row_sim": (min(s.cross_row_sim), max(s.cross_row_sim)),
        "avg_num_neigh": (min(s.avg_num_neigh), max(s.avg_num_neigh)),
    }


def select_payload(rng, ranges) -> dict:
    """A /select body over the paper's Table-I feature ranges: mostly
    explicit features, sometimes a MatrixSpec to derive them from."""
    mb = _log_uniform(rng, *ranges["mem_footprint_mb"])
    avg = _log_uniform(rng, *ranges["avg_nnz_per_row"])
    skew = float(rng.uniform(*ranges["skew_coeff"]))
    sim = float(rng.uniform(*ranges["cross_row_sim"]))
    neigh = float(rng.uniform(*ranges["avg_num_neigh"]))
    if rng.random() < SPEC_SHARE:
        return {"spec": {
            "mem_footprint_mb": mb, "avg_nnz_per_row": avg,
            "skew_coeff": skew, "cross_row_sim": sim,
            "avg_num_neigh": neigh,
        }}
    return {"features": {
        "mem_footprint_mb": mb, "avg_nnz_per_row": avg,
        "skew_coeff": skew, "cross_row_similarity": sim,
        "avg_num_neighbours": neigh,
    }}


def payload_features(payload: dict) -> dict:
    """The selector input a /select body stands for."""
    if "features" in payload:
        return payload["features"]
    from repro.core.generator import MatrixSpec

    fields = dict(payload["spec"])
    spec = MatrixSpec.from_footprint(
        fields.pop("mem_footprint_mb"), fields.pop("avg_nnz_per_row"),
        **fields,
    )
    return {
        "mem_footprint_mb": spec.mem_footprint_mb,
        "avg_nnz_per_row": float(spec.avg_nnz_per_row),
        "skew_coeff": float(spec.skew_coeff),
        "cross_row_similarity": float(spec.cross_row_sim),
        "avg_num_neighbours": float(spec.avg_num_neigh),
    }


def sweep_queries(table, rng) -> List[Dict[str, str]]:
    """A small seeded set of /sweep slices, most popular first."""
    queries = [
        {"device": dev, "format": fmt, "columns": SWEEP_COLUMNS,
         "offset": str(offset), "limit": str(limit), "fmt": out}
        for dev in table.unique("device")
        for fmt in table.unique("format")
        for offset, limit in ((0, 5), (0, 25), (10, 10))
        for out in ("json", "csv")
    ]
    order = rng.permutation(len(queries))[:N_SWEEP_QUERIES]
    return [queries[i] for i in order]


def expected_sweep(table, query: Dict[str, str]) -> bytes:
    """The /sweep body for ``query``, taken from the table directly."""
    sliced = table.where(device=query["device"]).where(
        format=query["format"])
    total = len(sliced)
    offset, limit = int(query["offset"]), int(query["limit"])
    stop = min(offset + limit, total)
    if offset or stop != total:
        sliced = sliced.select(np.arange(offset, max(offset, stop)))
    columns = query["columns"].split(",")
    rows = [{c: row[c] for c in columns} for row in sliced.iter_rows()]
    if query["fmt"] == "csv":
        lines = [",".join(columns)] + [
            ",".join(str(row[c]) for c in columns) for row in rows
        ]
        return ("\n".join(lines) + "\n").encode()
    return json.dumps({"total": total, "returned": len(rows),
                       "rows": rows}, sort_keys=True).encode()


@dataclass
class Record:
    kind: str            # "select" or "sweep"
    request: object      # /select payload, or /sweep query index
    status: Optional[int]
    body: bytes
    ms: float
    end: float           # perf_counter() when the reply (or error) came

    @property
    def ok(self) -> bool:
        return self.status == 200


def request(conn, method: str, path: str, body: Optional[bytes]
            ) -> Tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body, headers)
    resp = conn.getresponse()
    return resp.status, resp.read()


def run_client(host: str, port: int, rng, queries, weights, ranges,
               deadline: float, send, out: List[Record]) -> None:
    """One closed-loop keep-alive client until ``deadline``.  A request
    that errors or is refused is recorded with status ``None`` and its
    latency up to the failure, then the connection is reopened."""
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        while time.perf_counter() < deadline:
            if rng.random() < SELECT_SHARE:
                payload = select_payload(rng, ranges)
                kind, req = "select", payload
                args = ("POST", "/select", json.dumps(payload).encode())
            else:
                qi = int(rng.choice(len(queries), p=weights))
                kind, req = "sweep", qi
                args = ("GET", "/sweep?" + urlencode(queries[qi]), None)
            t0 = time.perf_counter()
            try:
                status, body = send(conn, *args)
            except (OSError, http.client.HTTPException) as exc:
                status, body = None, repr(exc).encode()
                conn.close()
                conn = http.client.HTTPConnection(
                    host, port, timeout=REQUEST_TIMEOUT_S)
            end = time.perf_counter()
            out.append(Record(kind, req, status, body,
                              (end - t0) * 1000.0, end))
    finally:
        conn.close()


def closed_loop(host: str, port: int, ctx: Context, stream: int,
                queries, seconds: float, send=request
                ) -> Tuple[List[Record], float]:
    """Run :data:`N_CLIENTS` clients for ``seconds``; returns every
    record and the start time of the load."""
    ranks = np.arange(1, len(queries) + 1, dtype=float)
    weights = (1.0 / ranks) / (1.0 / ranks).sum()
    ranges = _feature_ranges()
    outs: List[List[Record]] = [[] for _ in range(N_CLIENTS)]
    t0 = time.perf_counter()
    threads = [
        threading.Thread(
            target=run_client,
            args=(host, port, ctx.rng(2, stream, i), queries, weights,
                  ranges, t0 + seconds, send, outs[i]),
            daemon=True,
        )
        for i in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 4 * REQUEST_TIMEOUT_S)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a load client did not finish")
    return [r for out in outs for r in out], t0


def window_qps(records: List[Record], t0: float, seconds: float) -> float:
    """Requests completed per whole second of the load, averaged over
    the middle half of the seconds: sustained throughput, not moved by
    a few stalled (or lucky) seconds."""
    counts = np.zeros(max(1, int(seconds)), dtype=np.int64)
    for r in records:
        k = int(r.end - t0)
        if k < len(counts):
            counts[k] += 1
    return mid_mean(counts.tolist())


# -- the workload ---------------------------------------------------------
class ServeMix(Workload):
    name = "serve-mix"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.server: Optional[Server] = None
        self._reps = 0
        self._streams = 0

    def setup(self) -> None:
        self._reps += 1
        specs = dataset_specs(self.ctx.seed)
        self.table = build_table(
            specs, stratified_order(len(specs))
        )
        path = self.ctx.work / f"table-{self._reps}.npz"
        self.table.to_npz(path)
        self.server = Server(self.ctx.root, path,
                             self.ctx.work / "serve.log")
        self.queries = sweep_queries(self.table, self.ctx.rng(3))

    def reset(self) -> None:
        self.close()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def measure(self, seconds: float, replay: Optional[Pass] = None,
                tracer=None) -> Pass:
        send = request if tracer is None else tracer.wrap(
            request, REQUEST_TARGET)
        self._streams += 1
        before = self.server.stats()
        records, t0 = closed_loop(
            self.server.host, self.server.port, self.ctx, self._streams,
            self.queries, seconds, send,
        )
        wall = time.perf_counter() - t0
        after = self.server.stats()
        return Pass(
            wall_s=wall, op_s=[r.ms / 1000.0 for r in records],
            attempted=len(records),
            failed=sum(not r.ok for r in records),
            data={"records": records, "stats": (before, after),
                  "qps": window_qps(records, t0, seconds)},
        )

    def _selector(self):
        from repro.service import train_selector

        # The server's arguments: --device only, defaults otherwise.
        return train_selector(self.table, device=SERVE_DEVICE)

    def check(self, p: Pass) -> int:
        """Every /select answer must equal the library's batch answer
        from a selector trained with the server's arguments; every
        /sweep body must equal the same slice taken from the table."""
        selector = self._selector()
        selects = [r for r in p.data["records"]
                   if r.ok and r.kind == "select"]
        bad = 0
        if selects:
            feats = [payload_features(r.request) for r in selects]
            chosen = selector.select_batch(feats)
            scores = selector.predict_gflops_batch(feats)
            for i, r in enumerate(selects):
                per_format = {f: float(scores[f][i]) for f in scores}
                want = {"format": chosen[i],
                        "predicted_gflops": per_format[chosen[i]],
                        "gflops": per_format}
                bad += int(json.loads(r.body) != want)
        bodies = {}
        for r in p.data["records"]:
            if r.ok and r.kind == "sweep":
                if r.request not in bodies:
                    bodies[r.request] = expected_sweep(
                        self.table, self.queries[r.request])
                bad += int(r.body != bodies[r.request])
        return bad

    def mismatches(self, p0: Pass, p1: Pass) -> int:
        """The traced pass's answers are checked like the first's."""
        return self.check(p1)

    def _latencies(self, p: Pass, kind: str) -> List[float]:
        return [r.ms for r in p.data["records"] if r.kind == kind]

    def end_to_end(self, p: Pass) -> Dict[str, float]:
        return {
            "ops_per_s": p.data["qps"],
            "op_ms": median(self._latencies(p, "select")),
        }

    def child_peak_mb(self) -> float:
        """The server's peak resident set, read before it stops."""
        status = Path(f"/proc/{self.server.proc.pid}/status")
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def named(self, p: Pass) -> Dict[str, float]:
        selects = self._latencies(p, "select")
        pct, p99, n = tail_percentile(selects) or (0.0, 0.0, len(selects))
        return {
            "serve_qps": p.data["qps"],
            "select_p50_ms": median(selects),
            # The percentile reported as p99, and over how many samples.
            "select_p99_ms": p99,
            "select_p99_percentile": pct,
            "select_p99_samples": n,
            "sweep_p50_ms": median(self._latencies(p, "sweep")),
        }

    def traced_extras(self, p0: Pass, p1: Pass, tracer
                      ) -> Dict[str, float]:
        before, after = p1.data["stats"]
        flushes = after["batcher"]["flushes"] - before["batcher"]["flushes"]
        batched = (after["batcher"]["requests"]
                   - before["batcher"]["requests"])
        hits = after["sweep_cache"]["hits"] - before["sweep_cache"]["hits"]
        misses = (after["sweep_cache"]["misses"]
                  - before["sweep_cache"]["misses"])
        server_p50 = after["endpoints"].get("select", {}).get("p50_ms", 0.0)
        mean_batch = batched / flushes if flushes else 0.0

        # The server's start-up fit and `repro experiment`'s held-out
        # scoring, on the served slice of T (ml.fit_s, ml.evaluate_s).
        selector = self._selector()
        selector.evaluate(self.table.where(device=SERVE_DEVICE))
        # Replay the pass's /select inputs straight into the library.
        feats = [payload_features(r.request) for r in p1.data["records"]
                 if r.kind == "select"][:PREDICT_REPS]
        b1, bmean = [], []
        width = max(1, int(round(mean_batch)))
        for i in range(len(feats)):
            t0 = time.perf_counter()
            selector.predict_gflops_batch(feats[i:i + 1])
            b1.append((time.perf_counter() - t0) * 1000.0)
            group = [feats[(i + j) % len(feats)] for j in range(width)]
            t0 = time.perf_counter()
            selector.predict_gflops_batch(group)
            bmean.append((time.perf_counter() - t0) * 1000.0)
        return {
            "service.select_server_p50_ms": server_p50,
            "service.client_overhead_ms": (
                median(self._latencies(p1, "select")) - server_p50),
            "batcher.flushes": flushes,
            "batcher.mean_batch": mean_batch,
            "service.sweep_cache_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0),
            "ml.predict_ms_b1": median(b1),
            "ml.predict_ms_bmean": median(bmean),
        }
