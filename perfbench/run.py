#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload kv-steady --seed 1 --seconds 55 \
        --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. It builds `consensus_sim` and the
benchmark's own binary `pb` with dune, runs one workload, checks the
outputs, prints a table of every metric (name, value, unit, samples) and,
as the last line, one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See README.md in this directory for the workloads and the metric map.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

import benchlib as bl

SIM = os.path.join("_build", "default", "bin", "consensus_sim.exe")
PB = os.path.join("_build", "default", "perfbench", "pb.exe")
WORK = ".perfbench_work"

# Cluster settings of ./dev serve-smoke: delta 20 ms, batch 256, window 64.
DELTA = 0.02
LIMIT_S = 0.5 * DELTA  # the p99 latency limit
LAG_LIMIT_S = 0.5 * LIMIT_S  # generator lag p99 beyond this: sample invalid
N = 3
CONNECTIONS = min(2, os.cpu_count() or 1)
# Boot-time 1a gossip makes the highest initial ballot win, so member
# N-1 usually leads a fresh cluster; the generator connects to the others.
FIRST_LEADER = N - 1
CLIENT_MEMBERS = list(range(CONNECTIONS))
# A kill of FIRST_LEADER that stalls the service for less than this did
# not hit the leader (another member won the boot election): real
# failover takes an election timeout of several delta.
MIN_OUTAGE_S = 0.5 * DELTA


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# build


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(
            os.path.join("bin", "consensus_sim.ml"))):
        raise BenchError("run from the root of the repository checkout "
                         "(dune-project and bin/ not found)")
    if shutil.which("dune") is None:
        raise BenchError("dune not found on PATH")
    subprocess.run(["dune", "build", "--root", ".", "bin/consensus_sim.exe",
                    "perfbench/pb.exe"], check=True, stdout=sys.stderr)


# --------------------------------------------------------------------------
# processes


def free_ports(k):
    socks = [socket.socket() for _ in range(k)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def pb(*args, timeout=120, cpus=None):
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    out = subprocess.run([PB] + [str(a) for a in args], capture_output=True,
                         text=True, timeout=timeout, preexec_fn=pin)
    if out.returncode != 0:
        raise BenchError("pb %s failed: %s" % (args[0], out.stderr.strip()))
    return json.loads(out.stdout.strip().splitlines()[-1])


class Cluster:
    """Three `consensus_sim serve` processes on loopback."""

    def __init__(self, tag, durable):
        self.dir = os.path.join(WORK, tag)
        os.makedirs(self.dir, exist_ok=True)
        self.ports = free_ports(N)
        self.cluster = ",".join("127.0.0.1:%d" % p for p in self.ports)
        self.durable = durable
        self.procs = [None] * N
        self.clients = []  # generators started in the background
        self.logs = [os.path.join(self.dir, "r%d.log" % i) for i in range(N)]

    def snapshot(self, i):
        return os.path.join(self.dir, "r%d.snap" % i)

    def start(self, i):
        argv = [SIM, "serve", "--id", str(i), "--cluster", self.cluster,
                "--delta", str(DELTA), "--batch", "256", "--window", "64"]
        if self.durable:
            argv += ["--snapshot", self.snapshot(i)]
        with open(self.logs[i], "a") as out:
            self.procs[i] = subprocess.Popen(argv, stdout=out,
                                             stderr=subprocess.STDOUT)

    def boot(self):
        """Start every replica; seconds from spawn to the first committed
        reply."""
        t0 = time.time()
        for i in range(N):
            self.start(i)
        reply = pb("probe", "--cluster", self.cluster, "--member", 0,
                   "--key", "boot")
        return reply["reply_at"] - t0

    def alive(self):
        return [i for i in range(N)
                if self.procs[i] is not None and self.procs[i].poll() is None]

    def kill(self, i):
        t = time.time()
        self.procs[i].send_signal(signal.SIGKILL)
        self.procs[i].wait()
        self.procs[i] = None
        return t

    def samples(self):
        return {i: bl.proc_sample(self.procs[i].pid) for i in self.alive()}

    def stop(self):
        """Let followers apply the tail of the chosen log, then SIGTERM
        every live replica and parse its shutdown line."""
        time.sleep(0.2)
        for i in self.alive():
            self.procs[i].send_signal(signal.SIGTERM)
        for i in range(N):
            p = self.procs[i]
            if p is None:
                continue
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            self.procs[i] = None
        stopped = {}
        for i in range(N):
            with open(self.logs[i]) as f:
                lines = [ln for ln in f if " stopped: " in ln]
            if lines:
                stopped[i] = parse_stop_line(lines[-1])
        return stopped

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for p in self.procs + self.clients:
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()
        return False


def parse_stop_line(line):
    """`replica I stopped: R requests, D decrees applied, kv_applied=A
    kv_checksum=C` -> dict."""
    words = line.replace(",", " ").split()
    out = {"decrees": int(words[words.index("decrees") - 1])}
    for w in words:
        if "=" in w:
            k, v = w.split("=", 1)
            out[k] = int(v)
    return out


def gen(cluster, rate, seconds, seed, mix, value_bytes, members, window=0,
        drain=2.0, tag="gen", count=0):
    """Run the open-loop generator to completion; its records."""
    out = os.path.join(WORK, tag + ".bin")
    summary = pb("gen", "--cluster", cluster.cluster, "--members",
                 ",".join(str(m) for m in members), "--rate", rate,
                 "--seconds", seconds, "--seed", seed, "--mix", mix,
                 "--value-bytes", value_bytes, "--window", window,
                 "--drain", drain, "--count", count, "--out", out,
                 timeout=seconds + drain + 60)
    return records(out, summary)


def records(path, summary):
    """The generator's per-request records, with its count of replies to
    requests already answered."""
    recs = bl.read_records(path)
    recs["duplicates"] = summary["duplicates"]
    return recs


def gen_async(cluster, rate, seconds, seed, mix, value_bytes, members,
              drain=3.0, tag="gen"):
    """Start the generator; a function that waits for it and returns its
    records and its summary (resends, reconnects, ...)."""
    out = os.path.join(WORK, tag + ".bin")
    argv = [PB, "gen", "--cluster", cluster.cluster, "--members",
            ",".join(str(m) for m in members), "--rate", str(rate),
            "--seconds", str(seconds), "--seed", str(seed), "--mix", mix,
            "--value-bytes", str(value_bytes), "--drain", str(drain),
            "--out", out]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    cluster.clients.append(proc)

    def finish():
        summary, _ = proc.communicate(timeout=seconds + drain + 60)
        if proc.returncode != 0:
            raise BenchError("pb gen failed")
        summary = json.loads(summary.strip().splitlines()[-1])
        return records(out, summary), summary

    return finish


# --------------------------------------------------------------------------
# checks and statistics of generator runs


class Tally:
    """Attempted/failed operations across the whole benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append("%s: %d of %d failed"
                              % (what, failed, attempted))


def lag_p99(recs):
    return bl.percentile(sorted(s - i for i, s in zip(
        recs["intended"], recs["sent"]) if not math.isnan(s)), 0.99)


def bad_replies(recs):
    """Requests not answered exactly once with a reply of the right type."""
    return sum(1 for s in recs["status"] if s != 1) + recs["duplicates"]


def agree(stopped, who, tally, what):
    """Replicas in `who` must have stopped cleanly with one kv checksum."""
    sums = {stopped[i]["kv_checksum"] for i in who if i in stopped}
    missing = [i for i in who if i not in stopped]
    tally.add(1, int(len(sums) != 1 or bool(missing)),
              what + " checksum agreement")


def first_commit_after(recs, t_kill):
    """Earliest reply to a request sent at or after the kill: no request
    sent after it can have committed before it."""
    return min((c for s, c in zip(recs["sent"], recs["completed"])
                if s >= t_kill and not math.isnan(c)), default=float("inf"))


def cpu_per_cmd(before, after, n):
    """CPU microseconds per command of each replica over the load."""
    return {i: 1e6 * (after[i]["cpu_s"] - before[i]["cpu_s"]) / n
            for i in after}


# --------------------------------------------------------------------------
# the workloads


# Latency lifetimes, the same on both workloads: a fresh volatile cluster
# under LOAD_RATE mixed 16-byte commands for LOAD_LIFE_S, its p50 and p99
# taken per LOAD_WINDOW_S of intended send time, each window one sample.
# 10k/s is about 0.3 of the one-CPU saturated rate. On kv-failover's 1 KiB
# puts, latency could not be made steady on one CPU: the replicas' GC and
# batches held the generator up past LAG_LIMIT_S in most windows, and p99
# swung from 4 to 25 ms between runs; durable clusters add snapshot fsync
# stalls of 15-50 ms that follow the host's disk.
LOAD_RATE = 10000.0
LOAD_LIFE_S = 1.2
LOAD_WINDOW_S = 0.3


class Spec:
    def __init__(self, mix, value_bytes, window, count, durable_kill,
                 kill_rate, kill_life_s, kill_members, rss_from):
        # the workload's own stream, used by its capacity samples and its
        # kill lifetimes
        self.mix = mix
        self.value_bytes = value_bytes
        # capacity samples: `count` requests, `window` outstanding
        self.window = window
        self.count = count
        # kill lifetimes: `kill_rate` for `kill_life_s` over connections to
        # `kill_members`, leader killed half-way
        self.durable_kill = durable_kill
        self.kill_rate = kill_rate
        self.kill_life_s = kill_life_s
        self.kill_members = kill_members
        # kv_rss_mb from the "load" or the "kill" lifetimes
        self.rss_from = rss_from


# The capacity windows keep the p99 of a saturated cluster at about half
# the latency limit, which capacity_sample checks. On one CPU, 16-byte
# commands gave p99 4 ms at window 32 (25k/s), 6 ms at 64 (31k/s) and
# 11 ms at 128 (36k/s); 1 KiB puts 3 ms at 4 (3.5k/s), 5 ms at 8 (4.2k/s)
# and 9 ms at 16 (4.5k/s).
STEADY = Spec(mix="mixed", value_bytes=16, window=48, count=50000,
              durable_kill=False, kill_rate=3333.0, kill_life_s=0.6,
              kill_members=CLIENT_MEMBERS, rss_from="load")
# One connection goes to the member that is killed, so the generator's
# failover runs: it reconnects and resends its outstanding unique puts,
# which are idempotent.
FAILOVER = Spec(mix="unique", value_bytes=1024, window=6, count=8000,
                durable_kill=True, kill_rate=1000.0, kill_life_s=1.5,
                kill_members=[0, FIRST_LEADER], rss_from="kill")

MIN_ROUNDS = 2
# The traced run's in-process layer replays, after its rounds.
TRACE_TAIL_S = 15.0
# how long `pb probe` waits for a committed reply
PROBE_TIMEOUT_S = 10.0


# The reference job's time (`pb ref`) on the 2-vCPU machine the benchmark
# was built on, in that machine's calm phases.
REF_S = 0.135


class Speed:
    """How much slower than REF_S the reference job ran, read between
    measurements. A measurement's timings are divided by the mean of the
    readings just before and just after it (rates multiplied). On the
    shared host the CPU's speed changed within seconds: the job's time
    varied 2x within 7 s, and KV latency and the suite's times moved with
    it. A run's median alone does not cancel that; in a 12-minute trial,
    pairing cut the spread of medians over 5-sample blocks from 0.52 to
    0.26 (p50), 0.33 to 0.19 (p99), 0.21 to 0.08 (capacity) and 0.31 to
    0.10 (fuzz rate). Setup, outage and memory figures are not scaled:
    timers and sizes set them, not the CPU. The validity checks compare
    scaled figures with the limits, which are the calm machine's."""

    def __init__(self, job=lambda: pb("ref")["ref_s"]):
        self.job = job
        self.readings = []

    def read(self):
        self.readings.append(self.job() / REF_S)
        return self.readings[-1]

    def span(self):
        """The slowdown of the measurement since the last reading."""
        before = self.readings[-1]
        return 0.5 * (before + self.read())


class Obs:
    """Everything a run observes, end-to-end and per layer."""

    def __init__(self, speed=None):
        self.speed = speed or Speed()
        self.setup = []
        self.unavail = []
        # latency percentiles of each window; p50 is keyed by "the
        # lifetime's replicas were sampled through /proc"
        self.p50 = {False: [], True: []}
        self.p99 = []
        # generator lag p99 of each latency window, scaled
        self.window_lags = []
        self.rss = {"load": [], "kill": []}
        self.capacity = []
        self.capacity_p99 = []  # send -> reply p99 of each capacity sample
        self.backlog_grew = []  # per latency lifetime
        self.lag = []
        self.resends = []  # generator resends per kill lifetime
        self.cpu = []  # {member: CPU us per command} of sampled lifetimes
        self.ctxsw = []  # leader context switches per 1000 commands
        self.per_decree = []
        self.catchup = []
        self.snapshot_kb = []
        self.sim = []
        self.commands = 0


def window_percentiles(recs, width, q):
    """(q-th latency percentile, generator lag p99) of each window of
    `width` seconds that holds at least ten samples beyond q."""
    return [(bl.percentile(lat, q), bl.percentile(lag, 0.99))
            for lat, lag in bl.latency_windows(
                recs["intended"], recs["sent"], recs["completed"], width)
            if (bl.tail_quantile(len(lat)) or 0.0) >= q]


def judge(share, what, tally):
    """A validity check is judged once per run, and the run fails it when
    more than half of its samples do. Samples are kept in the medians
    either way. One sample can be hit by a stall of the shared host (a
    capacity sample's p99 went from 4 to 11 ms in 1 of 50); a change to
    the program moves most of them."""
    log("  %s: %.0f%% of samples fail it" % (what, 100 * share))
    tally.add(1, int(share > 0.5), what)


def judge_lag(window_lags, tally):
    """Every latency window counts in the percentiles: latency runs from
    the intended send time, so the generator's own lateness is in it. The
    run is invalid when the generator missed its schedule (lag p99 above
    LAG_LIMIT_S) in most of its windows: then the machine, not the
    cluster, set the latency."""
    judge(bl.late_share(window_lags, LAG_LIMIT_S),
          "generator lag p99 within %.0f ms" % (LAG_LIMIT_S * 1e3), tally)


def judge_run(obs, tally):
    judge_lag(obs.window_lags, tally)
    # a backlog that grows through a latency lifetime means LOAD_RATE is
    # beyond capacity, so its latency is not that of a fixed rate
    judge(sum(obs.backlog_grew) / len(obs.backlog_grew),
          "latency lifetimes without a growing backlog", tally)
    # a capacity sample's rate counts only as a rate within the p99 limit
    if obs.capacity_p99:
        judge(bl.late_share(obs.capacity_p99, LIMIT_S),
              "capacity samples within the p99 limit", tally)


def note_lifetime(obs, recs, stopped, before, after, sampled, slow):
    """A lifetime's latency windows, backlog, memory and batching. Its
    times are divided by the machine's slowdown `slow`."""
    obs.lag.append(lag_p99(recs))
    p50 = window_percentiles(recs, LOAD_WINDOW_S, 0.5)
    p99 = window_percentiles(recs, LOAD_WINDOW_S, 0.99)
    if not p99:
        raise BenchError("no window of the lifetime supports a p99")
    series = bl.outstanding_series(recs["intended"], recs["completed"],
                                   recs["intended"][0], recs["intended"][-1],
                                   10)
    grows = bl.backlog_grows(series, LOAD_RATE, LIMIT_S * slow)
    if grows:
        log("  backlog grew at %.0f/s" % LOAD_RATE)
    obs.backlog_grew.append(grows)
    obs.p50[sampled].extend(v / slow for v, _ in p50)
    obs.p99.extend(v / slow for v, _ in p99)
    obs.window_lags.extend(lag / slow for _, lag in p99)
    obs.rss["load"].append(max(s["hwm_kb"] for s in after.values()) / 1024.0)
    s = stopped[CLIENT_MEMBERS[0]]
    obs.per_decree.append(s["kv_applied"] / max(1, s["decrees"]))
    n = len(recs["status"])
    obs.commands = n
    if sampled:
        per = cpu_per_cmd(before, after, n)
        obs.cpu.append(per)
        obs.ctxsw.append(1000.0 * (after[FIRST_LEADER]["ctxsw"]
                                   - before[FIRST_LEADER]["ctxsw"]) / n)


def note_outage(obs, outage):
    if outage < MIN_OUTAGE_S:
        log("  kill left out: member %d was not the leader" % FIRST_LEADER)
    else:
        obs.unavail.append(outage)


def load_lifetime(k, seed, tally, obs, sampled):
    """A fresh volatile cluster loaded at LOAD_RATE for LOAD_LIFE_S."""
    with Cluster("load%d" % k, durable=False) as c:
        obs.setup.append(c.boot())
        before = c.samples() if sampled else None
        recs = gen(c, LOAD_RATE, LOAD_LIFE_S, seed * 100 + k, "mixed", 16,
                   CLIENT_MEMBERS, tag="load")
        after = c.samples()
        stopped = c.stop()
    slow = obs.speed.span()
    tally.add(len(recs["status"]), bad_replies(recs), "load lifetime")
    agree(stopped, range(N), tally, "load lifetime")
    note_lifetime(obs, recs, stopped, before, after, sampled, slow)


def kill_lifetime(k, seed, spec, tally, obs, trace):
    """A fresh cluster (durable if spec.durable_kill) under spec.kill_rate
    loses its leader half-way through spec.kill_life_s of load; the first
    commit of a request sent after the kill ends the unavailability.
    A generator connected to the victim must reconnect. Unique puts are
    then read back through member 0, which was never killed, and the
    survivors' peak RSS is read.

    The traced run restarts the victim (empty, or from its snapshot) and
    times its catch-up. A restarted replica numbers its commands from 0
    again, so the first commands it serves reuse the ids of those it
    served before the kill and are never answered (README.md). Its
    catch-up is therefore timed only in lifetimes where no client was
    connected to it: every other traced lifetime of kv-failover. A
    restarted replica that does not answer counts as PROBE_TIMEOUT_S, and
    its state is left out of the agreement check."""
    members = spec.kill_members
    restart = trace and FIRST_LEADER not in members
    if trace and not restart and k % 2 == 1:
        members, restart = CLIENT_MEMBERS, True
    with Cluster("kill%d" % k, durable=spec.durable_kill) as c:
        obs.setup.append(c.boot())
        finish = gen_async(c, spec.kill_rate, spec.kill_life_s,
                           seed * 100 + 50 + k, spec.mix, spec.value_bytes,
                           members, tag="kill")
        time.sleep(spec.kill_life_s / 2)
        t_kill = c.kill(FIRST_LEADER)
        recs, summary = finish()
        n = len(recs["status"])
        if FIRST_LEADER in members:
            tally.add(1, int(summary["reconnects"] < 1),
                      "generator reconnect after the kill")
            obs.resends.append(summary["resends"])
        log("  kill lifetime: %d lost connections, %d resends"
            % (summary["reconnects"], summary["resends"]))
        survivors = c.samples()
        caught_up = False
        if restart:
            t_restart = time.time()
            c.start(FIRST_LEADER)
            try:
                r = pb("probe", "--cluster", c.cluster, "--member",
                       FIRST_LEADER, "--key", "catchup")
                obs.catchup.append(r["reply_at"] - t_restart)
                caught_up = True
            except BenchError:
                log("  the restarted member did not catch up")
                obs.catchup.append(PROBE_TIMEOUT_S)
        if spec.mix == "unique":
            back = gen(c, 1.0, 0.0, seed * 100 + 50 + k, "readback",
                       spec.value_bytes, CLIENT_MEMBERS[:1], window=256,
                       drain=10.0, tag="readback", count=n)
            tally.add(n, bad_replies(back), "readback")
            # peak RSS is monotone: the survivors' after the read-back
            survivors = {i: bl.proc_sample(c.procs[i].pid)
                         for i in survivors}
        obs.rss["kill"].append(
            max(s["hwm_kb"] for s in survivors.values()) / 1024.0)
        stopped = c.stop()
        if spec.durable_kill:
            obs.snapshot_kb.append(max(
                os.path.getsize(c.snapshot(i)) for i in range(N)
                if os.path.exists(c.snapshot(i))) / 1024.0)
    tally.add(n, bad_replies(recs), "kill lifetime")
    agree(stopped, [i for i in range(N) if i != FIRST_LEADER or caught_up],
          tally, "kill lifetime")
    note_outage(obs, first_commit_after(recs, t_kill) - t_kill)


def capacity_sample(k, seed, spec, tally, obs):
    """kv_max_rate_per_s: a fresh volatile cluster kept saturated with
    spec.window requests outstanding and the rest queued in the generator.
    Completions per second between the 10th and the 90th percentile of
    the completion times, so start-up and the tail are left out. The
    window bounds the cluster's backlog; the p99 from send to reply is
    kept, scaled like the rate, for judge_run."""
    with Cluster("cap%d" % k, durable=False) as c:
        obs.setup.append(c.boot())
        recs = gen(c, 1.0, 0.0, seed * 1000 + k, spec.mix, spec.value_bytes,
                   CLIENT_MEMBERS, window=spec.window, drain=10.0,
                   tag="capacity", count=spec.count)
        stopped = c.stop()
    slow = obs.speed.span()
    tally.add(len(recs["status"]), bad_replies(recs), "capacity")
    agree(stopped, range(N), tally, "capacity")
    rate = bl.completion_rate(recs["completed"])
    p99 = bl.percentile(sorted(c - s for s, c in zip(
        recs["sent"], recs["completed"]) if not math.isnan(c)), 0.99)
    log("  capacity sample: %.0f/s, p99 %.2f ms" % (rate, p99 * 1e3))
    obs.capacity.append(rate * slow)
    obs.capacity_p99.append(p99 / slow)


# The offline verification suite's pinned outputs: the quick-sweep table
# rendering, the totals of the seed-42 fuzz campaign's first FUZZ_RUNS
# runs, and the depth-10 search of the paxos core (as bench/main.ml runs
# them).
TABLES_DIGEST = "aa38f2df278f0c58966f672f97892d8e"
FUZZ_RUNS = 400
FUZZ_TOTALS = {"fuzz_runs": FUZZ_RUNS, "fuzz_failures": 0,
               "fuzz_events": 461860, "fuzz_msgs": 528270,
               "fuzz_decided": 1808}
MCHECK_STATES = 190003
MCHECK_TRANSITIONS = 476977


def sim_rep(tally, obs):
    """One run of the tables, the fuzz campaign and the model checker, in
    a process on one domain. The tables are timed one by one and the
    campaign in chunks of 25 runs. Its times are divided by the machine's
    slowdown."""
    r = pb("sim", timeout=170)
    slow = obs.speed.span()
    for k in ("tables_times", "fuzz_times"):
        r[k] = [t / slow for t in r[k]]
    r["mcheck_s"] /= slow
    tally.add(1, int(r["tables_digest"] != TABLES_DIGEST), "tables digest")
    tally.add(FUZZ_RUNS, r["fuzz_failures"], "fuzz runs")
    tally.add(1, int(any(r[k] != v for k, v in FUZZ_TOTALS.items())),
              "fuzz campaign totals")
    tally.add(1, int(r["mcheck_states"] != MCHECK_STATES
                     or r["mcheck_transitions"] != MCHECK_TRANSITIONS
                     or r["mcheck_violation"]), "mcheck outcome")
    obs.sim.append(r)


def sum_of_medians(rows):
    """Seconds of a job timed in pieces: each piece's median over the
    rounds, summed."""
    return sum(bl.median(piece) for piece in zip(*rows))


def one_round(k, seed, spec, trace, tally, obs):
    kill_lifetime(k, seed, spec, tally, obs, trace)
    obs.speed.read()
    for j in range(2):
        load_lifetime(2 * k + j, seed, tally, obs, sampled=trace and j == 1)
    if not trace:
        capacity_sample(k, seed, spec, tally, obs)
        sim_rep(tally, obs)


def run_workload(spec, seed, seconds, trace):
    """Rounds until `seconds` are used up, each taking one sample of every
    measurement, so that every metric's samples spread over the whole run
    and its median smooths out the machine's slow phases. A round starts
    only while a round of the mean length so far still fits."""
    tally = Tally()
    obs = Obs()
    budget = seconds - (TRACE_TAIL_S if trace else 0.0)
    start = time.time()
    k = 0
    while k < MIN_ROUNDS or (time.time() - start) * (k + 1) / k <= budget:
        one_round(k, seed, spec, trace, tally, obs)
        k += 1
    log("  %d rounds in %.1f s; machine slowdown against the reference: "
        "median %.3f of %d readings" % (k, time.time() - start,
                                        bl.median(obs.speed.readings),
                                        len(obs.speed.readings)))
    judge_run(obs, tally)
    return tally, (layer_metrics(spec, seed, obs) if trace
                   else end_to_end(spec, obs))


class Metrics:
    def __init__(self):
        self.items = {}

    def put(self, name, value, unit, samples):
        self.items[name] = (float(value), unit, int(samples))


def end_to_end(spec, obs):
    m = Metrics()
    med = bl.median
    p50 = obs.p50[False]
    rss = obs.rss[spec.rss_from]
    m.put("setup_s", med(obs.setup), "s", len(obs.setup))
    m.put("kv_p50_ms", med(p50) * 1e3, "ms", len(p50))
    m.put("kv_p99_ms", med(obs.p99) * 1e3, "ms", len(obs.p99))
    m.put("kv_max_rate_per_s", med(obs.capacity), "1/s", len(obs.capacity))
    m.put("kv_unavail_ms", med(obs.unavail) * 1e3, "ms", len(obs.unavail))
    m.put("kv_rss_mb", med(rss), "MB", len(rss))
    k = len(obs.sim)
    m.put("tables_s", sum_of_medians([r["tables_times"] for r in obs.sim]),
          "s", k)
    m.put("fuzz_runs_per_s",
          FUZZ_RUNS / sum_of_medians([r["fuzz_times"] for r in obs.sim]),
          "1/s", k)
    m.put("mcheck_states_per_s",
          med([r["mcheck_states"] / r["mcheck_s"] for r in obs.sim]), "1/s", k)
    m.put("mcheck_mb", obs.sim[0]["mcheck_table_words"] * 8 / 1e6, "MB", k)
    return m


# name, unit, which way is better
PER_LAYER = [
    ("gen.lag_p99_ms", "ms", "lower"),
    ("gen.connections", "count", "lower"),
    ("gen.resends_per_kill", "count", "lower"),
    ("wire.encode_ns_per_frame", "ns", "lower"),
    ("wire.decode_ns_per_frame", "ns", "lower"),
    ("wire.bytes_per_cmd", "B", "lower"),
    ("netio.leader_ctxsw_per_kcmd", "1/kcmd", "lower"),
    ("netio.residual_cpu_us_per_cmd", "us", "lower"),
    ("replica.leader_cpu_us_per_cmd", "us", "lower"),
    ("replica.follower_cpu_us_per_cmd", "us", "lower"),
    ("replica.cmds_per_decree", "count", "higher"),
    ("multi_paxos.handler_us_per_cmd", "us", "lower"),
    ("multi_paxos.msgs_per_cmd", "count", "lower"),
    ("kv_state.apply_ns_per_cmd", "ns", "lower"),
    ("kv_state.live_words_per_cmd", "words", "lower"),
    ("snapshot.kb", "kB", "lower"),
    ("snapshot.encode_ms", "ms", "lower"),
    ("recovery.catchup_ms", "ms", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("engine.handler_frac", "frac", "higher"),
    ("engine.alloc_words_per_event", "words", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("invariants.check_us_per_run", "us", "lower"),
    ("fuzz.generate_us_per_run", "us", "lower"),
    ("fuzz.exec_us_per_run", "us", "lower"),
] + [("tables.%s_s" % i, "s", "lower") for i in (
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
    "a1", "a2", "a3", "a4")] + [
    ("pool.speedup", "x", "higher"),
    ("mcheck.successors_ns_per_state", "ns", "lower"),
    ("mcheck.fingerprint_ns_per_state", "ns", "lower"),
    ("mcheck.properties_ns_per_state", "ns", "lower"),
    ("mcheck.visited_ns_per_edge", "ns", "lower"),
    ("mcheck.new_state_ratio", "frac", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
    ("bench.slowdown", "x", "lower"),
]


def layer_metrics(spec, seed, obs):
    """The traced run: the kv layers replayed over the run's command
    stream, the replicas' /proc counters, and the offline suite's layers
    timed through wrapped calls."""
    med = bl.median
    batch = max(1, round(med(obs.per_decree)))
    replay = pb("replay", "--seed", seed * 100, "--commands", obs.commands,
                "--batch", batch, "--mix", spec.mix, "--value-bytes",
                spec.value_bytes, "--decree-rate", LOAD_RATE / batch,
                timeout=170)
    sim = pb("sim", "--trace", timeout=170, cpus=ALL_CPUS)
    leader, follower = [], []
    for per in obs.cpu:
        leader.append(per[FIRST_LEADER])
        follower.extend(v for i, v in per.items() if i != FIRST_LEADER)
    v = dict(replay)
    v.update(sim)
    v["gen.lag_p99_ms"] = med(obs.lag) * 1e3
    v["gen.connections"] = CONNECTIONS
    v["gen.resends_per_kill"] = med(obs.resends) if obs.resends else 0.0
    v["replica.leader_cpu_us_per_cmd"] = med(leader)
    v["replica.follower_cpu_us_per_cmd"] = med(follower)
    v["replica.cmds_per_decree"] = med(obs.per_decree)
    v["netio.leader_ctxsw_per_kcmd"] = med(obs.ctxsw)
    # the replayed Paxos handler time is not subtracted: under the
    # simulator it is as large as the live leader's whole CPU per command
    # and grows with the replay's length (README.md)
    v["netio.residual_cpu_us_per_cmd"] = (
        med(leader) - (replay["wire.encode_ns_per_frame"]
                       + replay["wire.decode_ns_per_frame"]
                       + replay["kv_state.apply_ns_per_cmd"]) / 1e3)
    if obs.snapshot_kb:
        v["snapshot.kb"] = med(obs.snapshot_kb)
    v["recovery.catchup_ms"] = med(obs.catchup) * 1e3
    v["bench.trace_overhead_frac"] = (med(obs.p50[True])
                                      / med(obs.p50[False]) - 1)
    v["bench.slowdown"] = med(obs.speed.readings)
    m = Metrics()
    for name, unit, _ in PER_LAYER:
        m.put(name, v[name], unit, 1)
    return m


WORKLOADS = {"kv-steady": STEADY, "kv-failover": FAILOVER}


def report(tally, m):
    for name, (value, unit, samples) in sorted(m.items.items()):
        print("%-34s %14.6g %-8s n=%d" % (name, value, unit, samples))
    for note in tally.notes:
        print("FAILED " + note)
        log("FAILED " + note)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in sorted(m.items.items())},
    }


ALL_CPUS = os.sched_getaffinity(0)


def pin_to_one_cpu():
    """Run this process and every process it starts on one CPU. On the
    2-vCPU machine the benchmark was built on, the host stole 20-33% of
    CPU time (the steal column of /proc/stat) whenever both vCPUs were
    busy, which took up to 2x off the KV figures from one run to the
    next; with every process on one vCPU, steal stayed near 1%. Giving
    the generator the other vCPU brought the steal back (16%)."""
    os.sched_setaffinity(0, {min(ALL_CPUS)})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        import selftest
        sys.exit(selftest.main())
    if a.workload is None:
        ap.error("--workload is required")
    # on SIGTERM, unwind so that every cluster's processes are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        spec = WORKLOADS[a.workload]
        pin_to_one_cpu()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        tally, m = run_workload(spec, a.seed, a.seconds, bool(a.trace))
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log("perfbench: %s: %s" % (type(e).__name__, e))
        sys.exit(1)
    print(json.dumps(report(tally, m)))


if __name__ == "__main__":
    main()
