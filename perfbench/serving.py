"""The serve-mixed workload: a ``repro-sart serve`` process under load.

The server runs as a subprocess (``python -m repro serve``, one job
worker, a cache primed during set-up). The load has two phases:

* **open loop** (most of the run): one sender thread posts
  ``tinycore:fib`` SART jobs on a fixed schedule of ``OPEN_RATE``
  requests/s, whatever the server does; an observer thread polls the
  jobs still pending. Latency runs from the time a request was *due*,
  so a stall that delays the sender counts against every request it
  delays, to the job's ``finished_at`` stamp (the same host clock). Half
  of the requests repeat a request sent at least
  ``REPEAT_MIN_AGE`` seconds earlier in the same run, so they meet a
  finished job and measure the deduplicated path.
* **closed loop** (the rest): ``CLOSED_CLIENTS`` clients each post a new
  job and wait for its end on the SSE stream before posting the next;
  distinct jobs completed per second is ``serve_rps``.

Every request of a run has a spec no earlier request had, except the
deliberate repeats, because finished fingerprints deduplicate forever.

A ``hostspeed`` sampler process probes the host's speed once a second
through the open loop, and each latency is also reported at the
reference speed, by the probe nearest its due time. A request that
fails, is refused, or never ends counts as a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from hostspeed import REFERENCE_S, nearest
from repro.serve.loadgen import await_job, get_json, percentile, post_json

HERE = Path(__file__).resolve().parent

# Requests/s, half of them repeats: 3 distinct jobs/s, a quarter of the
# ~12 jobs/s a 2-CPU host serves at full speed, so the server is not
# saturated when the host runs at half speed (at 9/s it was, and
# latencies then spread 2x). Repeats cost the server almost nothing;
# half of the requests are repeats so that warm_s has ~70 samples.
OPEN_RATE = 6.0
REPEAT_SHARE = 0.5
REPEAT_MIN_AGE = 2.0
OPEN_SHARE = 0.9         # of the run's seconds; the rest is the closed loop
CLOSED_CLIENTS = 2
POLL_SECONDS = 0.02
SPOT_CHECKS = 4          # served results re-executed in-process per run
DIGEST_JOBS = 32         # open-loop distinct jobs the reference digest covers
DRAIN_SECONDS = 30.0     # after the last send, for open-loop jobs to end
JOB_TIMEOUT = 30.0
PRIME_SPEC = {"design": "tinycore:fib",
              "sart": {"monolithic": True, "loop_pavf": 0.5}}


def job_spec(loop_pavf: float) -> dict:
    return {"design": "tinycore:fib",
            "sart": {"monolithic": True, "loop_pavf": loop_pavf}}


class Server:
    """One ``repro serve`` subprocess with its own state and cache dirs."""

    def __init__(self, root: Path, work_dir: Path, name: str):
        self.dir = work_dir / name
        self.dir.mkdir(parents=True)
        self.log_path = self.dir / "server.log"
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   PYTHONUNBUFFERED="1")
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--state-dir", str(self.dir / "state"),
                 "--cache-dir", str(self.dir / "cache"),
                 "--job-workers", "1"],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=root,
            )
        self.url = self._await_url(timeout=60.0)

    def _await_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("serving on "):
                    return line.split()[-1]
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server did not start: {self.log_path.read_text()}")

    def run_job(self, spec: dict) -> dict:
        status, doc = post_json(f"{self.url}/jobs", spec)
        if status not in (200, 201):
            raise RuntimeError(f"POST /jobs -> {status}: {doc}")
        return await_job(self.url, doc["id"], timeout=JOB_TIMEOUT,
                         poll=POLL_SECONDS)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start_primed(root: Path, work_dir: Path, name: str) -> tuple[Server, float]:
    """Start a server and run the priming job; returns it and the wall seconds."""
    started = time.perf_counter()
    server = Server(root, work_dir, name)
    try:
        doc = server.run_job(PRIME_SPEC)
    except BaseException:
        server.stop()
        raise
    if doc.get("state") != "done":
        server.stop()
        raise RuntimeError(f"priming job failed: {doc}")
    return server, time.perf_counter() - started


class ServeRun:
    """Requests, latencies and checks of one measured serve run."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._used: set[float] = {PRIME_SPEC["sart"]["loop_pavf"]}
        self.lock = threading.Lock()
        # (due unix time, due->done seconds) per finished request
        self.distinct_latency: list[tuple[float, float]] = []
        self.repeat_latency: list[tuple[float, float]] = []
        self.queue_wait: list[float] = []
        self.exec_time: list[float] = []
        self.lags: list[float] = []
        self.results: dict[float, object] = {}   # loop_pavf -> stable result
        self.cached: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.problems: list[str] = []
        self.open_pavfs: list[float] = []
        self.in_server: list[float] = []   # queue wait + execution, open loop
        self.closed_jobs = 0
        self.closed_seconds = 0.0
        self.speed: list[tuple[float, float]] = []   # (unix time, probe s)
        self.peak_rss_mb = 0.0

    def fresh_pavf(self) -> float:
        while True:
            value = round(self.rng.uniform(0.05, 0.95), 6)
            if value not in self._used:
                self._used.add(value)
                return value

    def fail(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            self.problems.append(message)

    def finish(self, pavf: float, snapshot: dict, repeat: bool = False) -> bool:
        """Record a terminal job snapshot; returns False when it failed."""
        from repro.serve.jobs import stable_result

        if snapshot.get("state") != "done":
            self.fail(f"job for loop_pavf={pavf} ended {snapshot.get('state')}: "
                      f"{snapshot.get('error')}")
            return False
        result = stable_result(snapshot["result"])
        with self.lock:
            known = self.results.setdefault(pavf, result)
            if not repeat:
                self.queue_wait.append(
                    snapshot["started_at"] - snapshot["submitted_at"])
                self.exec_time.append(
                    snapshot["finished_at"] - snapshot["started_at"])
                self.cached.append(bool(snapshot["result"].get("cached_stages")))
        if known != result:
            self.fail(f"loop_pavf={pavf}: result differs from the first one")
            return False
        return True

    # -- open loop ---------------------------------------------------------
    def schedule(self, seconds: float) -> list[tuple[float, float, bool]]:
        """(offset, loop_pavf, is_repeat) for every open-loop request."""
        out = []
        count = int(seconds * OPEN_RATE)
        for k in range(count):
            offset = k / OPEN_RATE
            old = [p for t, p, rep in out if not rep and t <= offset - REPEAT_MIN_AGE]
            if old and self.rng.random() < REPEAT_SHARE:
                out.append((offset, self.rng.choice(old), True))
            else:
                out.append((offset, self.fresh_pavf(), False))
        return out

    def open_loop(self, url: str, seconds: float) -> None:
        plan = self.schedule(seconds)
        self.open_pavfs = [pavf for _, pavf, repeat in plan if not repeat]
        pending: dict[str, list[tuple[float, float, bool]]] = {}
        sending = threading.Event()
        sending.set()
        give_up = threading.Event()

        def settle(snap: dict, waiters) -> None:
            for due, pavf, repeat in waiters:
                if not self.finish(pavf, snap, repeat):
                    continue
                latency = snap["finished_at"] - due
                with self.lock:
                    if repeat:
                        self.repeat_latency.append((due, latency))
                    else:
                        self.distinct_latency.append((due, latency))
                        self.in_server.append(
                            snap["finished_at"] - snap["submitted_at"])

        def observe() -> None:
            while not give_up.is_set():
                with self.lock:
                    jobs = list(pending)
                if not jobs and not sending.is_set():
                    return
                for job_id in jobs:
                    try:
                        _, snap = get_json(f"{url}/jobs/{job_id}")
                    except (OSError, ValueError):
                        continue  # asked again next round; counted at give-up
                    if snap.get("state") not in ("done", "failed"):
                        continue
                    with self.lock:
                        waiters = pending.pop(job_id)
                    settle(snap, waiters)
                time.sleep(POLL_SECONDS)

        observer = threading.Thread(target=observe, name="observer")
        observer.start()
        start = time.time() + 0.05
        try:
            for offset, pavf, repeat in plan:
                due = start + offset
                delay = due - time.time()
                if delay > 0:
                    time.sleep(delay)
                self.lags.append(max(0.0, time.time() - due))
                self.attempted += 1
                try:
                    status, doc = post_json(f"{url}/jobs", job_spec(pavf))
                except (OSError, ValueError) as exc:
                    self.fail(f"request for loop_pavf={pavf}: {exc!r}")
                    continue
                answered = time.time()
                if status == 429:
                    with self.lock:
                        self.rejected += 1
                    self.fail(f"request for loop_pavf={pavf} refused (429)")
                elif status not in (200, 201):
                    self.fail(f"POST /jobs -> {status}: {doc}")
                elif repeat and doc.get("state") in ("done", "failed"):
                    if self.finish(pavf, doc, repeat):
                        with self.lock:
                            self.repeat_latency.append((due, answered - due))
                else:
                    with self.lock:
                        pending.setdefault(doc["id"], []).append(
                            (due, pavf, repeat))
        finally:
            sending.clear()
            observer.join(timeout=DRAIN_SECONDS)
            give_up.set()
            observer.join()
            for job_id, waiters in pending.items():
                for _, pavf, _ in waiters:
                    self.fail(f"job {job_id} for loop_pavf={pavf} did not end "
                              f"within {DRAIN_SECONDS:g} s of the last send")

    # -- closed loop -------------------------------------------------------
    def closed_loop(self, url: str, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        with self.lock:
            specs = [self.fresh_pavf() for _ in range(int(seconds * 100) + 10)]

        def one_job(pavf: float) -> None:
            status, doc = post_json(f"{url}/jobs", job_spec(pavf))
            if status not in (200, 201):
                self.fail(f"closed loop POST -> {status}: {doc}")
            elif self.finish(pavf, _await_end(url, doc)):
                with self.lock:
                    self.closed_jobs += 1

        def client() -> None:
            while time.perf_counter() < deadline:
                with self.lock:
                    if not specs:
                        return
                    pavf = specs.pop()
                    self.attempted += 1
                try:
                    one_job(pavf)
                except Exception as exc:  # a lost job is a failed operation
                    self.fail(f"closed loop job for loop_pavf={pavf}: {exc!r}")

        started = time.perf_counter()
        threads = [threading.Thread(target=client, name=f"client{i}")
                   for i in range(CLOSED_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.closed_seconds = time.perf_counter() - started

    # -- checks ------------------------------------------------------------
    def digest(self) -> str | None:
        """Digest of the first DIGEST_JOBS open-loop results (None: too few).

        The schedule is a seeded sequence, so its prefix, unlike its
        length, does not depend on the run's seconds.
        """
        import hashlib

        if len(self.open_pavfs) < DIGEST_JOBS:
            return None
        first = [(pavf, self.results.get(pavf))
                 for pavf in self.open_pavfs[:DIGEST_JOBS]]
        return hashlib.sha256(repr(first).encode()).hexdigest()[:20]

    def spot_check(self) -> None:
        """Re-execute a few served specs in-process and compare results."""
        from repro.pipeline import execute, spec_from_mapping
        from repro.pipeline.emit import run_summary
        from repro.serve.jobs import stable_result

        chosen = self.rng.sample(sorted(self.results),
                                 min(SPOT_CHECKS, len(self.results)))
        for pavf in chosen:
            self.attempted += 1
            outcome = execute(spec_from_mapping(job_spec(pavf)))
            local = stable_result(run_summary(outcome))
            if local != self.results[pavf]:
                self.fail(f"loop_pavf={pavf}: served result != local execute")


def _await_end(url: str, doc: dict) -> dict:
    """Follow a job's SSE stream to its end; returns the last snapshot."""
    snapshot = doc
    request = urllib.request.Request(f"{url}/jobs/{doc['id']}/events")
    with urllib.request.urlopen(request, timeout=JOB_TIMEOUT) as stream:
        for raw in stream:
            line = raw.decode().rstrip("\n")
            if line.startswith("data: ") and line != "data: {}":
                snapshot = json.loads(line[len("data: "):])
            elif line.startswith("event: end"):
                break
    return snapshot


def measure(seed: int, seconds: float, server: Server) -> tuple[ServeRun, dict]:
    """Drive *server* for *seconds*; stops it and returns run + /stats."""
    run = ServeRun(seed)
    open_seconds = seconds * OPEN_SHARE
    sampler = subprocess.Popen(
        [sys.executable, str(HERE / "hostspeed.py"), "--seconds",
         str(open_seconds)], stdout=subprocess.PIPE, text=True)
    try:
        run.open_loop(server.url, open_seconds)
        run.closed_loop(server.url, seconds * (1 - OPEN_SHARE))
        _, stats = get_json(f"{server.url}/stats")
    finally:
        server.stop()
        try:
            out, _ = sampler.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            sampler.kill()
            out, _ = sampler.communicate()
    run.speed = [tuple(map(float, line.split())) for line in out.splitlines()]
    if not run.speed:
        raise RuntimeError("the host speed sampler printed no probes")
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    run.spot_check()
    return run, stats


def normalised(run: ServeRun, latencies: list[tuple[float, float]]) -> list[float]:
    """Latencies at the reference speed, by the probe nearest each due time."""
    return [seconds * REFERENCE_S / nearest(run.speed, due)
            for due, seconds in latencies]


def summary(run: ServeRun, stats: dict) -> dict:
    counters = stats.get("counters", {})
    distinct = [seconds for _, seconds in run.distinct_latency]
    repeats = [seconds for _, seconds in run.repeat_latency]
    latencies = distinct + repeats
    wall = sum(distinct)
    return {
        "cold_s": statistics.median(normalised(run, run.distinct_latency)),
        "warm_s": statistics.median(normalised(run, run.repeat_latency)),
        "cold_wall_s": statistics.median(distinct),
        "warm_wall_s": statistics.median(repeats),
        "serve.p50_s": percentile(latencies, 0.50),
        "serve.p95_s": percentile(latencies, 0.95),
        "serve.samples": len(latencies),
        "serve.rps": run.closed_jobs / run.closed_seconds,
        "serve.queue_wait_s": statistics.median(run.queue_wait),
        "serve.exec_s": statistics.median(run.exec_time),
        "serve.dedup_hits": counters.get("dedup_hits", 0),
        "serve.cache_hit_rate": sum(run.cached) / len(run.cached),
        "serve.rejected": counters.get("rejected", 0),
        "serve.retries": counters.get("retries", 0),
        "serve.gen_lag_s": max(run.lags),
        # Layer spans of a served job are its queue wait and execution;
        # the rest of due->done is sender lag and the HTTP exchange.
        "unattributed_s": (wall - sum(run.in_server)) / len(distinct),
        "trace.attributed_frac": sum(run.in_server) / wall,
    }
