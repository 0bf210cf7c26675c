#!/usr/bin/env python3
"""LagAlyzer end-to-end benchmark.

    python3 perfbench/run.py --workload {study,serve,follow} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root. The first run configures and builds
`lagd` into .bench_build/cmake; later runs rebuild incrementally. All
inputs, logs and daemon output stay under .bench_build/.

Every workload first has lagd simulate a study, loads it once cold as
the reference answer (checked against the digests committed under
perfbench/) and times warm daemon starts (setup_s); study and serve
also stream one app into a follow-mode daemon and check that it
converges to the reference (stream == batch). It then measures for
S seconds:

  study   cold paper-size study: trace bytes -> .ares -> served answer
  serve   one closed-loop client sending the dashboard query mix
  follow  sessions streamed into a follow-mode daemon at a fixed rate

The last line on stdout is one JSON object: correct, attempted,
failed and the end-to-end metrics (--trace 0) or the per-layer
metrics computed from the daemons' own span exports (--trace 1).
perfbench/README.md describes the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT, "cmake")
LAGD = os.path.join(BUILD_DIR, "src", "serve", "lagd")
LAG_REPLAY = os.path.join(BUILD_DIR, "tools", "lag_replay")

# Engine workers per daemon. Fixed, so a run measures the same
# parallelism on any machine with at least four cores.
JOBS = max(1, min(4, os.cpu_count() or 1))

FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table3")

# Warm daemon starts per run; setup_s is their median.
SETUP_REPEATS = 9

# serve: the endpoint mix a dashboard hits, cycled in this order by
# one closed-loop client, as bench_perf_pipeline's query-latency
# report does ("%s": an app drawn from --seed).
DASHBOARD = ("/healthz", "/v1/apps",
             "/v1/patterns?app=%s&sort=total_lag&limit=10",
             "/v1/cdf?app=%s", "/v1/figures/table3")

# follow: the quick study's sessions (60 s of recorded time each) are
# streamed in rounds at the rate the CI ingest smoke replays at
# (lag_replay --rps 20000). Two settings are assumptions, not taken
# from any real workload: the 10 ms epoch (the CI smoke uses 50 ms,
# whose uniform 0-50 ms wait for the next epoch doubled the run-to-run
# spread of p50), and app k of a round starting k * STAGGER_S after
# the first, so completions land at every phase of the epoch timer.
FOLLOW_SESSION_SECONDS = 60
REPLAY_RPS = 20000
EPOCH_MS = 10
STAGGER_S = 0.08
POLL_S = 0.001
CONVERGE_TIMEOUT_S = 30.0

# Per-layer metrics: name, unit and the span whose mean time it is.
# analyze_ms and ingest_reanalysis are derived in phase_metrics.
LAYER_SPANS = (
    ("decode_ms", "trace.decode"),
    ("session_build_ms", "session.build"),
    ("cache_store_ms", "cache.store"),
    ("cache_load_ms", "cache.load"),
    ("store_load_ms", "serve.store.load"),
    ("aggregate_merge_ms", "cache.aggregate.merge"),
    ("apply_ingest_ms", "serve.store.apply_ingest"),
    ("serve_request_ms", "serve.request"),
    ("ingest_epoch_ms", "ingest.epoch"),
)
PER_LAYER = [(name, "ms") for name, _ in LAYER_SPANS] + [
    ("analyze_ms", "ms"), ("ingest_reanalysis", "ratio")]

# Daemon roles whose spans are kept apart. A per-layer metric comes
# from the first role in this order whose daemons reached the layer,
# so the measured phase wins and one mean never mixes two roles.
PHASES = ("measure", "reference", "warm", "stream")


class BenchError(Exception):
    """A failure that makes the run's numbers meaningless."""


_live = []


def stop_all():
    """Kill and reap every daemon still running (error paths)."""
    for proc in _live:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    _live.clear()


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src", "serve"))):
        raise BenchError("no LagAlyzer sources in " + ROOT)
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        # LAG_WERROR off: a new compiler warning must not stop the
        # benchmark from measuring the code.
        steps.append(["cmake", "-S", ROOT, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DLAG_WERROR=OFF"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(JOBS),
                  "--target", "lagd", "lag_replay"])
    with open(log_path, "w") as log:
        for cmd in steps:
            result = subprocess.run(cmd, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    timeout=850)
            if result.returncode != 0:
                raise BenchError("build failed; see " + log_path)


def http_get(port, target):
    """One GET on its own connection (lagd closes after each reply)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=60) as sock:
        sock.sendall(b"GET " + target.encode() +
                     b" HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     b"Connection: close\r\n\r\n")
        chunks = []
        while True:
            data = sock.recv(1 << 16)
            if not data:
                break
            chunks.append(data)
    head, sep, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not sep:
        raise BenchError("truncated response to " + target)
    return int(head.split(b" ", 2)[1]), body


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args):
        self.trace = args.trace == 1
        self.seed = args.seed
        self.rng = random.Random(args.seed)
        self.work = os.path.join(OUT, "work", args.workload)
        self.daemons = 0
        # phase -> span export files of its daemons (--trace 1).
        self.span_files = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.checks_ok = True

    def record(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, ok, what):
        if not ok:
            self.checks_ok = False
            print("check failed: " + what, file=sys.stderr)


class Lagd:
    """One lagd process on an ephemeral port. With --trace 1 a daemon
    given a @p phase (one of PHASES) exports its spans under it."""

    def __init__(self, run, args, phase=None):
        run.daemons += 1
        stem = os.path.join(run.work, "lagd-%d" % run.daemons)
        self.port_file = stem + ".port"
        cmd = [LAGD, "--port", "0", "--port-file", self.port_file,
               "--jobs", str(JOBS), "--watchdog-ms", "0",
               "--flightrec-path", stem + ".flightrec"] + args
        if run.trace and phase:
            cmd += ["--self-trace", stem + ".trace.json"]
            run.span_files[phase].append(stem + ".trace.json")
        self.log_path = stem + ".log"
        self.log = open(self.log_path, "w")
        self.port = None
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=run.work,
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT)
        _live.append(self.proc)

    def wait_ready(self, timeout=170.0):
        """Wait for the port file; return seconds since the spawn."""
        deadline = self.started + timeout
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None:
                raise BenchError("lagd exited early; see " +
                                 self.log_path)
            if time.perf_counter() > deadline:
                raise BenchError("lagd not listening; see " +
                                 self.log_path)
            time.sleep(0.0005)
        ready = time.perf_counter() - self.started
        with open(self.port_file) as f:
            self.port = int(f.read())
        return ready

    def get(self, target):
        return http_get(self.port, target)

    def stop(self):
        self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("lagd did not drain; see " + self.log_path)
        finally:
            _live.remove(self.proc)
            self.log.close()
        if code != 0:
            raise BenchError("lagd exited with %d; see %s" %
                             (code, self.log_path))


class Study:
    """A study's traces in a lagd cache dir plus its reference answers."""

    def __init__(self, run, quick_seconds=None):
        self.run = run
        self.dir = os.path.join(run.work, "study")
        self.flags = ["--cache-dir", self.dir]
        self.kind = "paper"
        if quick_seconds:
            self.flags += ["--quick", str(quick_seconds)]
            self.kind = "quick"
        self.apps = []
        self.expected = {}
        self.setup_times = []
        # app -> its trace file names, in session order.
        self.sources = {}
        # trace file name -> records, as lag_replay paces them.
        self.records = {}

    def drop_results(self):
        """Remove the .ares result cache; the traces stay."""
        shutil.rmtree(os.path.join(self.dir, "analysis"),
                      ignore_errors=True)

    def answer_targets(self):
        """The whole study answer: every app's patterns and CDF plus
        every figure and the app list."""
        targets = ["/v1/apps"]
        targets += ["/v1/figures/" + f for f in FIGURES]
        for app in self.apps:
            targets.append("/v1/patterns?app=" + app)
            targets.append("/v1/cdf?app=" + app)
        return targets

    def reference_targets(self):
        """The whole study answer plus every dashboard query."""
        targets = set(self.answer_targets())
        for kind in DASHBOARD:
            if "%s" in kind:
                targets.update(kind % app for app in self.apps)
            else:
                targets.add(kind)
        return sorted(targets)

    def load_reference(self, daemon):
        """Fetch every reference target from @p daemon (a cold load)
        and check each body against the committed SHA-256 digest in
        perfbench/digests-<kind>.json. The digests seen are written to
        the work dir; copying that file over the committed one
        re-takes the reference after an intended output change."""
        run = self.run
        committed_path = os.path.join(HERE, "digests-%s.json" % self.kind)
        committed = {}
        if os.path.isfile(committed_path):
            with open(committed_path) as f:
                committed = json.load(f)
        seen = {}
        for target in self.reference_targets():
            status, body = daemon.get(target)
            self.expected[target] = body
            seen[target] = hashlib.sha256(body).hexdigest()
            run.check(status == 200 and
                      committed.get(target) == seen[target],
                      "reference %s differs from %s" %
                      (target, committed_path))
        run.check(set(committed) == set(seen),
                  "reference targets differ from " + committed_path)
        with open(os.path.join(run.work, "digests-%s.json" % self.kind),
                  "w") as f:
            json.dump(seen, f, indent=1, sort_keys=True)
            f.write("\n")

    def prepare(self):
        run = self.run
        # Inputs: lagd simulates the study's sessions into the cache
        # dir (fixed by the program's catalog, not by --seed).
        daemon = Lagd(run, self.flags)
        daemon.wait_ready()
        daemon.stop()

        # Reference: one cold load from the trace files.
        self.drop_results()
        daemon = Lagd(run, self.flags, "reference")
        daemon.wait_ready()
        status, body = daemon.get("/v1/apps")
        run.check(status == 200, "/v1/apps on the reference daemon")
        self.apps = [a["name"] for a in json.loads(body)["apps"]]
        self.load_reference(daemon)
        daemon.stop()

        # Set-up time: warm starts from the result cache; each must
        # serve the cold load's bytes.
        for _ in range(SETUP_REPEATS):
            daemon = Lagd(run, self.flags, "warm")
            self.setup_times.append(daemon.wait_ready())
            for target in self.answer_targets():
                status, body = daemon.get(target)
                run.check(status == 200 and body == self.expected[target],
                          "warm start " + target)
            daemon.stop()

        self.sources = defaultdict(list)
        for name in sorted(os.listdir(self.dir)):
            if name.endswith(".lag"):
                self.sources[name.rsplit("_s", 1)[0]].append(name)
        run.check(sorted(self.sources) == sorted(self.apps),
                  "one trace group per app")

    def count_records(self, apps):
        """Count the records of @p apps' traces with lag_replay (its
        copy is discarded), the unit REPLAY_RPS is defined in."""
        copy = os.path.join(self.run.work, "count.lag")
        for app in apps:
            for name in self.sources[app]:
                result = subprocess.run(
                    [LAG_REPLAY, os.path.join(self.dir, name), copy],
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    universal_newlines=True, timeout=170, check=True)
                match = re.search(r"\((\d+) records\)", result.stdout)
                if not match:
                    raise BenchError("lag_replay printed no record "
                                     "count for " + name)
                self.records[name] = int(match.group(1))

    def trace_size(self, name):
        return os.path.getsize(os.path.join(self.dir, name))

    @staticmethod
    def figure_entry(body, app):
        """@p app's entry in a /v1/figures/<id> body, or None."""
        for entry in json.loads(body)["apps"]:
            if entry["app"] == app:
                return entry
        return None

    def answer_time(self, daemon, app):
        """When @p daemon serves the batch answer for @p app (its
        patterns and CDF bytes, and its entry in every figure; a
        follow-mode daemon lists apps in arrival order), the time the
        first of those replies arrived; otherwise None."""
        first = None
        for target in ("/v1/patterns?app=" + app, "/v1/cdf?app=" + app):
            if daemon.get(target) != (200, self.expected[target]):
                return None
            first = first or time.perf_counter()
        for figure in FIGURES:
            target = "/v1/figures/" + figure
            status, body = daemon.get(target)
            if status != 200 or (self.figure_entry(body, app) !=
                                 self.figure_entry(self.expected[target],
                                                   app)):
                return None
        return first

    def check_stream(self):
        """Stream the smallest app's sessions into a follow-mode
        daemon; its answer must converge to the batch answer."""
        app = min(self.apps, key=lambda a: sum(
            self.trace_size(name) for name in self.sources[a]))
        self.count_records([app])
        lags = stream(self.run, self, [app], 0.0, "stream")
        self.run.check(lags[app] is not None, "stream == batch for " + app)


def measure_study(run, study, deadline):
    """Cold study loads back to back: spawn lagd on the trace files
    with no result cache, until every answer target has been served."""
    latencies = []
    targets = study.answer_targets()
    while not latencies or time.perf_counter() < deadline:
        study.drop_results()
        run.rng.shuffle(targets)
        daemon = Lagd(run, study.flags, "measure")
        daemon.wait_ready()
        ok = True
        for target in targets:
            status, body = daemon.get(target)
            ok = ok and status == 200 and body == study.expected[target]
        latencies.append(time.perf_counter() - daemon.started)
        daemon.stop()
        run.record(ok)
    return latencies


def measure_serve(run, study, deadline):
    """One closed-loop client cycling through DASHBOARD against a
    warm daemon, each query sent when the last reply arrived."""
    daemon = Lagd(run, study.flags, "measure")
    daemon.wait_ready()
    latencies = []
    while not latencies or time.perf_counter() < deadline:
        for kind in DASHBOARD:
            target = kind % run.rng.choice(study.apps) if "%s" in kind \
                else kind
            start = time.perf_counter()
            reply = daemon.get(target)
            latencies.append(time.perf_counter() - start)
            run.record(reply == (200, study.expected[target]))
    daemon.stop()
    return latencies


class Writer:
    """Appends one trace file evenly over [start, start + seconds]."""

    def __init__(self, path, data, start, seconds):
        self.path = path
        self.data = data
        self.start = start
        self.seconds = seconds
        self.written = 0
        self.file = None

    def advance(self, now):
        """Write what is due by @p now; True once the file is whole."""
        if now < self.start:
            return False
        share = min(1.0, (now - self.start) / self.seconds)
        target = int(len(self.data) * share)
        if target > self.written:
            if self.file is None:
                self.file = open(self.path, "wb", buffering=0)
            self.file.write(self.data[self.written:target])
            self.written = target
        if self.written < len(self.data):
            return False
        if self.file is not None:
            self.file.close()
            self.file = None
        return True


def complete_apps(daemon, study):
    """Apps all of whose sessions /v1/ingest reports fully read."""
    status, body = daemon.get("/v1/ingest")
    if status != 200:
        raise BenchError("/v1/ingest answered %d" % status)
    complete = defaultdict(int)
    for source in json.loads(body)["sources"]:
        if source["complete"]:
            complete[source["app"]] += 1
    return {app for app, n in complete.items()
            if n == len(study.sources[app])}


def stream(run, study, apps, stagger_s, phase):
    """Stream the sessions of @p apps into a fresh follow-mode daemon,
    app k starting k * stagger_s after the first, each session written
    evenly at REPLAY_RPS. Returns {app: seconds from its last byte to
    its converged answer, or None when it never converged}.

    Only /v1/ingest is polled (once per POLL_S while an app awaits its
    answer); an app's answer is fetched once all its sessions show
    complete there, and again on later polls until it matches."""
    live = os.path.join(run.work, "live")
    shutil.rmtree(live, ignore_errors=True)
    os.makedirs(live)
    daemon = Lagd(run, ["--follow", live, "--epoch-ms", str(EPOCH_MS),
                        "--cache-dir",
                        os.path.join(run.work, "follow-cache")], phase)
    daemon.wait_ready()

    data = {}
    for app in apps:
        for name in study.sources[app]:
            with open(os.path.join(study.dir, name), "rb") as f:
                data[name] = f.read()
    first = time.perf_counter() + 0.05
    writing = {app: [Writer(os.path.join(live, name), data[name],
                            first + k * stagger_s,
                            study.records[name] / REPLAY_RPS)
                     for name in study.sources[app]]
               for k, app in enumerate(apps)}
    landed = {}
    lags = {}
    while writing or landed:
        now = time.perf_counter()
        for app, group in list(writing.items()):
            # A list, not a generator: every writer must advance.
            if all([w.advance(now) for w in group]):
                landed[app] = time.perf_counter()
                del writing[app]
        if landed:
            complete = complete_apps(daemon, study)
            for app, when in list(landed.items()):
                seen = app in complete and study.answer_time(daemon, app)
                if seen:
                    lags[app] = seen - when
                    del landed[app]
                elif time.perf_counter() - when > CONVERGE_TIMEOUT_S:
                    lags[app] = None
                    del landed[app]
        time.sleep(POLL_S)
    daemon.stop()
    return lags


def measure_follow(run, study, deadline):
    """Rounds of every app streamed in a seeded order, each round into
    a fresh daemon (an app's answer is its four sessions' merge)."""
    latencies = []
    while True:
        order = run.rng.sample(study.apps, len(study.apps))
        for lag in stream(run, study, order, STAGGER_S,
                          "measure").values():
            run.record(lag is not None)
            if lag is not None:
                latencies.append(lag)
        if time.perf_counter() >= deadline:
            return latencies


def phase_metrics(span_files):
    """Per-layer metrics of one phase's daemons from their Chrome trace
    exports: mean time per call at each layer boundary, self time for
    the analysis (the part no child span covers) and the ingest
    re-analysis factor. A layer no daemon reached is left out."""
    incl = defaultdict(list)
    analyze = []
    ingest_events = defaultdict(list)
    for path in span_files:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        by_thread = defaultdict(list)
        for event in events:
            if event.get("ph") == "X":
                by_thread[event["tid"]].append(event)
        for spans in by_thread.values():
            spans.sort(key=lambda e: (e["ts"], -e["dur"]))
            # Frames: [event, child time, has a session.build child].
            stack = []

            def close(frame):
                event, children, builds = frame
                name = event["name"]
                incl[name].append(event["dur"])
                # The span that builds a session then analyzes it:
                # the batch "aggregate" stage or ingest.analyze. Its
                # self time is the analysis.
                if builds:
                    analyze.append(event["dur"] - children)
                if name == "ingest.analyze":
                    args = event.get("args", {})
                    ingest_events[args.get("trace")].append(
                        args.get("events", 0))
                if stack:
                    stack[-1][1] += event["dur"]
                    if name == "session.build":
                        stack[-1][2] = True

            for event in spans:
                while stack and event["ts"] >= (stack[-1][0]["ts"] +
                                                stack[-1][0]["dur"]):
                    close(stack.pop())
                stack.append([event, 0.0, False])
            while stack:
                close(stack.pop())

    metrics = {}
    for name, span in LAYER_SPANS:
        if incl[span]:
            metrics[name] = statistics.fmean(incl[span]) / 1000.0
    if analyze:
        metrics["analyze_ms"] = statistics.fmean(analyze) / 1000.0
    final = sum(max(v) for v in ingest_events.values())
    if final:
        metrics["ingest_reanalysis"] = sum(
            sum(v) for v in ingest_events.values()) / final
    return metrics


def span_metrics(run):
    """Every PER_LAYER metric from the first phase (in PHASES order)
    whose daemons reached its layer."""
    phases = [phase_metrics(run.span_files[phase])
              for phase in PHASES if run.span_files[phase]]
    return {name: (next((m[name] for m in phases if name in m), 0.0),
                   unit)
            for name, unit in PER_LAYER}


def percentile(values, q):
    """The q-quantile (0 < q < 1), interpolated between neighbours."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("study", "serve", "follow"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    run = Run(args)
    shutil.rmtree(run.work, ignore_errors=True)
    os.makedirs(run.work)

    follow = args.workload == "follow"
    study = Study(run, FOLLOW_SESSION_SECONDS if follow else None)
    study.prepare()
    if follow:
        study.count_records(study.apps)
    else:
        study.check_stream()
    # Write the simulated traces back now, not while measuring.
    os.sync()

    deadline = time.perf_counter() + args.seconds
    measure = {"study": measure_study, "serve": measure_serve,
               "follow": measure_follow}[args.workload]
    latencies = measure(run, study, deadline)
    if not latencies:
        raise BenchError("no operation completed")

    if run.trace:
        metrics = span_metrics(run)
    else:
        metrics = {
            "p50_ms": (percentile(latencies, 0.5) * 1000.0, "ms"),
            "p90_ms": (percentile(latencies, 0.9) * 1000.0, "ms"),
            "setup_s": (statistics.median(study.setup_times), "s"),
        }
    print(json.dumps({
        "correct": run.checks_ok and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        sys.exit(1)
    finally:
        stop_all()
