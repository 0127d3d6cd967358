"""Pure helpers of the benchmark: statistics, record files, /proc parsing.

Nothing here starts a process; run.py does. Kept apart so that
selftest.py can check the benchmark's own logic without a cluster.
"""

import array
import math
import os
import sys

# --------------------------------------------------------------------------
# statistics


def percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list, q in [0, 1]."""
    n = len(sorted_vals)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    k = max(0, min(n - 1, math.ceil(q * n) - 1))
    return sorted_vals[k]


TAIL_LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999)


def tail_quantile(n, beyond=10):
    """The highest quantile of TAIL_LADDER that leaves at least `beyond`
    samples above it in a sample of n; None when even the median does not."""
    best = None
    for q in TAIL_LADDER:
        if n * (1.0 - q) >= beyond - 1e-9:
            best = q
    return best


def median(vals):
    s = sorted(vals)
    n = len(s)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def latency_windows(intended, sent, completed, width):
    """Requests grouped by intended send time into consecutive windows of
    `width` seconds: per window, the sorted latencies from the intended
    send time and the sorted generator lags (sent - intended). Unanswered
    requests are left out."""
    wins = {}
    for i, s, c in zip(intended, sent, completed):
        if math.isnan(c):
            continue
        lat, lag = wins.setdefault(int((i - intended[0]) / width), ([], []))
        lat.append(c - i)
        lag.append(s - i)
    return [(sorted(lat), sorted(lag))
            for lat, lag in (wins[k] for k in sorted(wins))]


def late_share(lags, limit):
    """The share of `lags` above `limit`."""
    if not lags:
        raise ValueError("no lag samples")
    return sum(1 for x in lags if x > limit) / len(lags)


def outstanding_series(intended, completed, t_start, t_end, windows):
    """Requests due but not yet answered at the end of each of `windows`
    equal slices of [t_start, t_end]: the backlog an open loop builds."""
    due = sorted(intended)
    done = sorted(c for c in completed if not math.isnan(c))
    out = []
    i = j = 0
    for w in range(1, windows + 1):
        t = t_start + (t_end - t_start) * w / windows
        while i < len(due) and due[i] <= t:
            i += 1
        while j < len(done) and done[j] <= t:
            j += 1
        out.append((t, i - j))
    return out


def completion_rate(completed):
    """Completions per second between the 10th and the 90th percentile of
    the completion times: a saturated run's rate without its start-up and
    its tail."""
    done = sorted(c for c in completed if not math.isnan(c))
    lo, hi = len(done) // 10, 9 * len(done) // 10
    if hi <= lo or done[hi] <= done[lo]:
        raise ValueError("too few completions for a rate")
    return (hi - lo) / (done[hi] - done[lo])


def slope(points):
    """Least-squares slope of (x, y) points."""
    n = len(points)
    if n < 2:
        return 0.0
    mx = sum(p[0] for p in points) / n
    my = sum(p[1] for p in points) / n
    sxx = sum((p[0] - mx) ** 2 for p in points)
    if sxx == 0:
        return 0.0
    return sum((p[0] - mx) * (p[1] - my) for p in points) / sxx


def backlog_grows(series, rate, limit_s):
    """True when the backlog rises through the step: its fitted growth is
    more than 2% of the offered rate and it ends above what the latency
    limit lets the cluster hold (rate x limit)."""
    if len(series) < 2:
        return False
    growth = slope(series)
    return growth > 0.02 * rate and series[-1][1] > rate * limit_s


# --------------------------------------------------------------------------
# generator record files: four little-endian doubles per request


def read_records(path):
    raw = array.array("d")
    with open(path, "rb") as f:
        raw.frombytes(f.read())
    if sys.byteorder != "little":
        raw.byteswap()
    n = len(raw) // 4
    return {
        "intended": raw[0::4][:n],
        "sent": raw[1::4][:n],
        "completed": raw[2::4][:n],
        "status": [int(s) for s in raw[3::4][:n]],
    }


# --------------------------------------------------------------------------
# /proc parsers


def parse_proc_stat(text):
    """(utime, stime) clock ticks from the text of /proc/<pid>/stat; the
    command name may hold spaces and parentheses, so fields are counted
    from the last ')'."""
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15
    return int(rest[11]), int(rest[12])


def parse_proc_status(text):
    """The counters of /proc/<pid>/status this benchmark reads: peak RSS in
    kB and the voluntary/involuntary context-switch counts."""
    want = ("VmHWM", "VmRSS", "voluntary_ctxt_switches",
            "nonvoluntary_ctxt_switches")
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition(":")
        if key in want:
            out[key] = int(val.split()[0])
    return out


CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_sample(pid):
    """CPU seconds, context switches and peak RSS of a live process."""
    with open("/proc/%d/stat" % pid) as f:
        ut, st = parse_proc_stat(f.read())
    with open("/proc/%d/status" % pid) as f:
        status = parse_proc_status(f.read())
    return {
        "cpu_s": (ut + st) / CLOCK_TICKS,
        "ctxsw": status.get("voluntary_ctxt_switches", 0)
        + status.get("nonvoluntary_ctxt_switches", 0),
        "hwm_kb": status.get("VmHWM", 0),
    }
