#!/usr/bin/env python3
"""Train-and-serve benchmark for mockskel.

    python3 bench/run.py --workload tasks|hot|wide --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported and run
from ``src/`` of that checkout.  One run:

1. generates a training recording and a replay recording (another seed)
   for the workload, and writes the training one as JSONL;
2. runs ``mockskel train`` on it as a child process (``--jobs 2``)
   several times, timing each run with the peak resident set of its
   process tree;
3. starts ``mockskel serve`` on the skeleton several times, timing each
   start to its first answered request;
4. replays the second recording over HTTP, closed-loop, on two keep-alive
   connections for ``--seconds`` seconds;
5. checks the outputs: skeleton and report bytes repeat for a seed, and
   status accuracy and agreement stay at or above ``floors.json``.

The train runs and serve starts are spread over the whole run and each
metric is their median, because the speed of a shared host drifts.

With ``--trace 1`` it then calls each layer in-process and serially,
records spans around the calls (written to ``.bench_work/<workload>/``)
and prints the per-layer metrics instead of the end-to-end ones.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

JOBS = 2  # train workers; the reference machine has 2 cores
CONNECTIONS = 2
SETUP_STARTS = 7  # serve cold starts per run; setup_s is their median
REQUEST_TIMEOUT_S = 5.0
SERVE_START_TIMEOUT_S = 60.0
TRACE_SERVE_SECONDS = 5.0  # the traced run only needs the HTTP p50
REPLAY_SEED_OFFSET = 7919
RUN_TIME_LIMIT_S = 175


class BenchError(Exception):
    """The run cannot produce a result."""


def _raise_time_limit(signum, frame):
    raise BenchError(f"run exceeded {RUN_TIME_LIMIT_S} s")


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


class Children:
    """Child processes of this run, each in its own process group, so that
    stopping one also stops the pool workers it started."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []

    def start(self, cmd: list[str], log_path: Path) -> subprocess.Popen:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                                    env=env, cwd=ROOT, start_new_session=True)
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen) -> None:
        if proc.returncode is None:
            for sig, wait_s in ((signal.SIGTERM, 5.0), (signal.SIGKILL, None)):
                try:
                    os.killpg(proc.pid, sig)
                except ProcessLookupError:
                    pass
                try:
                    proc.wait(timeout=wait_s)
                    break
                except subprocess.TimeoutExpired:
                    continue
        else:
            # the leader has exited; make sure nothing in its group outlives it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc in self.procs:
            self.procs.remove(proc)

    def stop_all(self) -> None:
        for proc in list(self.procs):
            self.stop(proc)


# ---------------------------------------------------------------------------
# environment and output records


def _tree_digest(*roots: Path) -> str:
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload: str, seed: int, source_digest: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "source_digest": source_digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "train_jobs": JOBS,
        "connections": CONNECTIONS,
        "platform": platform.platform(),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# phases


def run_train(children: Children, recording: Path, learners: str, out: Path) -> dict:
    cmd = [sys.executable, "-m", "mockskel.cli", "train", "--input", str(recording),
           "--learners", learners, "--jobs", str(JOBS),
           "--out-skeleton", str(out / "skeleton.txt"), "--out-report", str(out / "report.json")]
    start = time.perf_counter()
    proc = children.start(cmd, out / "train.log")
    # wait4 reports the largest resident set of the child and of every
    # descendant it reaped, i.e. the pool workers
    _, status, usage = os.wait4(proc.pid, 0)
    train_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    children.stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"mockskel train exited with {proc.returncode}; see {out / 'train.log'}")
    return {"train_s": train_s, "peak_rss_mb": usage.ru_maxrss / 1024}


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _answers(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", "/_mock/stats")
        response = conn.getresponse()
        response.read()
        return response.status == 200
    except ConnectionRefusedError:
        return False
    finally:
        conn.close()


def start_serve(children: Children, skeleton: Path, out: Path):
    """Start ``mockskel serve``; returns (process, port, seconds to first answer)."""
    for _ in range(3):  # another process may take the port between probe and bind
        port = _free_port()
        start = time.perf_counter()
        proc = children.start(
            [sys.executable, "-m", "mockskel.cli", "serve", "--skeleton", str(skeleton),
             "--port", str(port)], out / "serve.log")
        while proc.poll() is None:
            if _answers(port):
                return proc, port, time.perf_counter() - start
            if time.perf_counter() - start > SERVE_START_TIMEOUT_S:
                break
            time.sleep(0.002)
        children.stop(proc)
    raise BenchError(f"mockskel serve did not answer; see {out / 'serve.log'}")


def server_stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", "/_mock/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def status_accuracy(report_path: Path) -> float:
    """Pooled CV accuracy of the statusCode model ``train`` chose: the best
    accuracy among the learners, which is what the choice maximises."""
    report = json.loads(report_path.read_text())
    return max(t["accuracy"] for t in report["targets"] if t["target"] == "statusCode")


def check_repeatable(key: str, record: dict, problems: list[str]) -> None:
    """Outputs for one (workload, seed, source) must repeat exactly."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    previous = known.setdefault(key, record)
    for name, value in record.items():
        if previous.get(name) != value:
            problems.append(f"{name} differs from an earlier run of {key}: "
                            f"{value!r} != {previous.get(name)!r}")
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tasks", "hot", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the HTTP replay")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, children: Children) -> tuple[bool, int, int, dict]:
    import client
    import workloads

    problems: list[str] = []
    out = WORK / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    source_digest = _tree_digest(SRC, BENCH)
    env = environment(args.workload, args.seed, source_digest)
    print("env " + json.dumps(env, sort_keys=True))

    generate = workloads.GENERATORS[args.workload]
    learners = workloads.SIZES[args.workload]["learners"]
    train_runs = workloads.SIZES[args.workload]["train_runs"]
    recording = out / "train.jsonl"
    workloads.write_jsonl(generate(args.seed), recording)
    replays = workloads.replays(generate(args.seed + REPLAY_SEED_OFFSET))

    floors = json.loads((BENCH / "floors.json").read_text())[args.workload]
    skeleton, report = out / "skeleton.txt", out / "report.json"
    setups: list[float] = []
    trains: list[dict] = []
    outputs: dict[str, str] = {}

    def time_train() -> None:
        trains.append(run_train(children, recording, learners, out))
        digests = {"skeleton_sha256": sha256(skeleton), "report_sha256": sha256(report)}
        for name, value in digests.items():
            if outputs.setdefault(name, value) != value:
                problems.append(f"train run {len(trains)} wrote another {name} than run 1")

    def time_start() -> None:
        proc, _, setup_s = start_serve(children, skeleton, out)
        setups.append(setup_s)
        children.stop(proc)

    # Host speed drifts over tens of seconds, so the train runs and serve
    # starts are spread over the whole run rather than taken back to back.
    if args.trace:
        from tracing import traced_run

        # the serial in-process pipeline writes the skeleton the mock serves
        layers = traced_run(recording, learners, JOBS, replays, out)
        problems += layers["problems"]
        if layers["serve"]["agreement"] < floors["serve_status_agreement"]:
            problems.append(f"in-process agreement {layers['serve']['agreement']:.6f} "
                            f"is below the recorded {floors['serve_status_agreement']}")
    else:
        # train, start, train, start, ...: the first half of each before the replay
        for i in range(max((train_runs + 1) // 2, SETUP_STARTS // 2)):
            if i < (train_runs + 1) // 2:
                time_train()
            if i < SETUP_STARTS // 2:
                time_start()
    accuracy = status_accuracy(report)

    proc, port, setup_s = start_serve(children, skeleton, out)
    setups.append(setup_s)
    seconds = args.seconds if not args.trace else min(args.seconds, TRACE_SERVE_SECONDS)
    per_conn, wall = client.replay_http(port, replays, CONNECTIONS, seconds, REQUEST_TIMEOUT_S)
    served = server_stats(port)
    children.stop(proc)

    if not args.trace:
        # and the second half after it: start, train, start, ...
        while len(setups) < SETUP_STARTS or len(trains) < train_runs:
            if len(setups) < SETUP_STARTS:
                time_start()
            if len(trains) < train_runs:
                time_train()

    latencies_ms = [ns / 1e6 for _, ns in sorted(a for c in per_conn for a in c.answered)]
    attempted = sum(c.attempted for c in per_conn)
    failed = sum(c.failed for c in per_conn)
    agreement = sum(c.agreed for c in per_conn) / attempted
    if not latencies_ms:
        raise BenchError("no request was answered")
    if failed == 0 and served["requests"] != attempted:
        problems.append(f"server counted {served['requests']} requests, client sent {attempted}")

    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "serve_rps": ((attempted - failed) / wall, "1/s"),
        "serve_p50_ms": (client.percentile(latencies_ms, 0.50), "ms"),
        "serve_p99_ms": (client.windowed_p99(latencies_ms), "ms"),
        "train_status_accuracy": (accuracy, "share"),
        "serve_status_agreement": (agreement, "share"),
    }
    if not args.trace:
        e2e["train_s"] = (statistics.median(t["train_s"] for t in trains), "s")
        e2e["train_peak_rss_mb"] = (statistics.median(t["peak_rss_mb"] for t in trains), "MB")
        print(f"train runs (s): {[round(t['train_s'], 3) for t in trains]}")
    print(f"serve starts (s): {[round(x, 3) for x in setups]}")
    print(f"serve: {attempted} requests, {failed} failed "
          f"(serve_failed_share {failed / attempted:.6f}), "
          f"cycles per connection {[c.cycles for c in per_conn]}, "
          f"requests per connection {[c.attempted for c in per_conn]}")

    for name in ("train_status_accuracy", "serve_status_agreement"):
        if e2e[name][0] < floors[name]:
            problems.append(f"{name} {e2e[name][0]:.6f} is below the recorded {floors[name]}")
    check_repeatable(f"{args.workload}/{args.seed}/{source_digest}", {
        "skeleton_sha256": sha256(skeleton),
        "report_sha256": sha256(report),
    }, problems)

    metrics = e2e
    if args.trace:
        metrics = layers["metrics"]
        metrics["server.http_overhead_ms"] = (
            e2e["serve_p50_ms"][0] - metrics["server.handle_us_p50"][0] / 1000, "ms")
        print_layers(layers)

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    record = {"env": env, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "setups_s": setups, "trains": trains, "attempted": attempted, "failed": failed,
              "problems": problems}
    (out / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return not problems, attempted, failed, metrics


#: the baseline in ROADMAP.md for a 5k-transaction tasks log (2 cores)
ROADMAP_5K = {"load": 0.20, "extract": 0.48, "prepare": 0.20, "ripper CV": 3.1}


def print_layers(layers: dict) -> None:
    m = layers["metrics"]
    n = layers["transactions"]
    print(f"trace: serial train {layers['traced_train_s']:.3f} s traced, "
          f"{layers['untraced_train_s']:.3f} s untraced")
    print(f"per-transaction rates over {n} transactions, scaled to 5k "
          f"(baseline: ROADMAP.md, tasks at 5k):")
    for label, name in (("load", "traffic.load_s"), ("extract", "features.extract_s"),
                        ("prepare", "prep.prepare_s"), ("ripper CV", "evaluation.cv_s.ripper")):
        value = m[name][0]
        print(f"  {label:10s} {value / n * 1e6:9.2f} us/txn  {value / n * 5000:7.3f} s at 5k"
              f"  (baseline {ROADMAP_5K[label]} s)")
    serve = layers["serve"]
    print(f"  in-process serve {serve['handle_us_mean']:9.2f} us/request over "
          f"{serve['requests']} requests  (baseline about 110 us)")
    print("self time by span (s):")
    for name, value in sorted(layers["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} {value:10.4f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mockskel" / "__init__.py").is_file():
        print(f"error: no mockskel sources in {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the build: byte-compile the checkout once, so no timed start compiles it
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: sources do not compile", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _raise_exit)
    signal.signal(signal.SIGALRM, _raise_time_limit)
    signal.alarm(RUN_TIME_LIMIT_S)
    children = Children()
    try:
        correct, attempted, failed, metrics = run(args, children)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        children.stop_all()
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
