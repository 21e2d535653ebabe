#!/usr/bin/env python3
"""glqld service and paper-table benchmark.

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 8 --trace 0

Run from the repository root. Builds glqld, experiments and the
reference replayer with dune, runs one workload, checks every reply,
prints every metric by name and unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mixes  # noqa: E402
import service  # noqa: E402
from service import Conn, Daemon, RunFailure  # noqa: E402

BUILD = "_build/default"
GLQLD = f"{BUILD}/bin/glqld.exe"
EXPERIMENTS = f"{BUILD}/bin/experiments.exe"
REPLAY = f"{BUILD}/perfbench/replay/replay.exe"
CALIB = f"{BUILD}/perfbench/calib/calib.exe"
TABLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tables.expected")
WORKDIR = ".perfbench"

SERVICE = ("read_mix", "write_mix", "routed_mix")
# setup_s is the median of this many fresh daemons, half set up before
# the measured daemon and half after its load, so that a few seconds of
# host slowdown cannot cover all of them.
N_SETUPS = 15
N_WARM = 400  # closed-loop warm-up requests after the caches are primed
# Saturation runs closed loop in two bursts of mixes.SAT_BURST requests,
# one before the window and one after it: the host's speed drifts over
# tens of seconds, and two bursts sample it twice.
SAT_OUTSTANDING = 4  # requests in flight per connection during saturation
# Each burst runs in SAT_CHUNKS pieces with a slice of the calibration
# job after each, CALIB_UNITS units (about 0.2 s of CPU), so that the
# job meets the host at the same moments the daemon does.
SAT_CHUNKS = 8
CALIB_UNITS = 150
# The generator, not the daemon, limited the run when its send lag at
# p50 or p99 is this share of p50_ms or p99_ms.
LAG_SHARE = 0.2

# Reply fields that legitimately differ from the in-process reference:
# cache-hit tags and counts (batch coalescing and LRU state), timings,
# the trace itself, and the registry-wide generation counter (its values
# depend on how the two connections interleave).
STRIP = {"plan_cache", "coloring_cache", "cache_hits", "cache_misses", "trace", "generation",
         "uptime_s"}
UNCHECKED = {"STATS", "SAVE", "PING"}  # no reference reply exists (STATS, SAVE) or needed (PING)

E2E_UNITS = {"setup_s": "s", "p50_ms": "ms", "p99_ms": "ms", "predict_p99_ms": "ms",
             "mutate_p99_ms": "ms", "saturation_rps": "req/s", "error_share": "fraction",
             "cpu_ms_per_req": "ms", "ref_cpu_ms_per_req": "ms"}


def log(msg):
    print(msg, flush=True)


def pct(xs, q):
    """q-quantile with linear interpolation (0 for an empty sample)."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    k = (len(xs) - 1) * q
    f = int(k)
    c = min(f + 1, len(xs) - 1)
    return xs[f] + (xs[c] - xs[f]) * (k - f)


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def benchmark_json():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json")) as f:
        return json.load(f)


# --- build --------------------------------------------------------------------

def build():
    if not (os.path.exists("dune-project") and os.path.exists("bin/glqld.ml")):
        sys.exit("perfbench: run from the root of a glql checkout (no dune-project/bin here)")
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/glqld.exe", "./bin/experiments.exe",
                        "./perfbench/replay/replay.exe", "./perfbench/calib/calib.exe"], stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"perfbench: build failed:\n{r.stderr[-3000:]}")


# --- correctness ----------------------------------------------------------------

def normalize(reply):
    if not reply or not reply.startswith("OK "):
        return reply

    def strip(j):
        if isinstance(j, dict):
            return {k: strip(v) for k, v in j.items() if k not in STRIP}
        if isinstance(j, list) and j and isinstance(j[0], (dict, list)):
            return [strip(v) for v in j]
        return j  # a scalar, or a list of scalars (replies' arrays hold one type)

    j = json.loads(reply[3:])
    if isinstance(j, dict) and set(j) == {"value", "trace"}:
        j = j["value"]  # TRACE wraps a reply that is not an object
    return "OK " + json.dumps(strip(j), sort_keys=True)


def check_replies(setup_lines, setup_replies, conns, workdir):
    """Replay every checked request through the in-process reference and
    compare. Each connection owns disjoint graphs and models, so its
    requests replay in its own send order in a reference process of its
    own (the two run in parallel). Returns mismatch messages."""
    jobs = []
    for i, c in enumerate(conns):
        checked = [r for r in c.sent if r.wire.split(" ", 1)[0] not in UNCHECKED]
        lines = [r.wire.removesuffix(" TRACE") for r in checked]
        path = os.path.join(workdir, f"replay{i}")
        with open(path + ".in", "w") as f:
            f.write("\n".join(setup_lines + lines) + "\n")
        with open(path + ".in") as fin, open(path + ".out", "w") as fout:
            # One domain each: the two references share the cores, and
            # kernel outputs are bit-identical across domain counts.
            proc = subprocess.Popen([os.path.abspath(REPLAY)], stdin=fin, stdout=fout,
                                    stderr=subprocess.DEVNULL,
                                    env={**os.environ, "GLQL_DOMAINS": "1"})
        jobs.append((proc, path, checked, lines))
    bad = []
    try:
        statuses = [proc.wait(timeout=90) for proc, _, _, _ in jobs]
    except subprocess.TimeoutExpired:
        raise RunFailure("the reference replay took more than 90 s")
    finally:
        for proc, _, _, _ in jobs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    for n, ((proc, path, checked, lines), status) in enumerate(zip(jobs, statuses)):
        with open(path + ".out") as f:
            want = f.read().split("\n")
        if status != 0 or len(want) < len(setup_lines) + len(lines):
            bad.append(f"reference replay failed (status {status})")
            continue
        ref_setup, ref = want[:len(setup_lines)], want[len(setup_lines):]
        pairs = list(zip(setup_lines, setup_replies, ref_setup)) if n == 0 else []
        pairs += [(r.wire, r.reply, w) for r, w in zip(checked, ref)]
        for line, got, w in pairs:
            if got != w and normalize(got) != normalize(w):
                bad.append(f"{line[:120]}\n    daemon:    {str(got)[:300]}\n    reference: {w[:300]}")
    return bad


def failed_reply(rec):
    """No reply, an ERR, or a MUTATE that rejected an op (the generator
    only sends ops that apply)."""
    reply = rec.reply or ""
    return not reply.startswith("OK ") or (
        rec.req.cmd == "MUTATE" and '"rejected":[]' not in reply)


# --- one service run ---------------------------------------------------------------

def setup_daemon(w, workdir, routed, flags, traced):
    """Spawn a daemon and bring it to the serving state; returns
    (daemon, seconds, setup lines, setup replies)."""
    t = time.perf_counter()
    d = Daemon(os.path.abspath(GLQLD), workdir, routed, flags)
    conn = Conn(d.connect())
    lines, replies = [], []
    for phase in w.setup:
        wire = [l + " TRACE" for l in phase] if traced else phase
        replies += service.call(conn, wire, d)
        lines += phase
    if service.call(conn, ["PING"], d) != ['OK "pong"']:
        raise RunFailure("daemon did not answer PING after setup")
    seconds = time.perf_counter() - t
    conn.sock.close()
    for line, reply in zip(lines, replies):
        if not reply.startswith("OK ") or (line.startswith("MUTATE ")
                                           and '"rejected":[]' not in reply):
            raise RunFailure(f"setup request failed: {line[:100]} -> {reply[:200]}")
    if routed:
        d.note_members()
    return d, seconds, lines, replies


def prime_lines(w, phases):
    """One of each distinct read that fills a cache (colourings, k-WL,
    hom profiles, feature matrices), so the window starts warm."""
    seen, out = set(), []
    for reqs in phases:
        for r in reqs:
            if r.cmd in ("WL", "KWL", "HOM", "FEATURIZE") and r.line not in seen:
                seen.add(r.line)
                out.append(r)
    for model, g, _ in w.models:
        out.append(mixes.Req(0.0, w.conn_of[g], f"PREDICT {model} {g} 0", "PREDICT", g))
    return out


def summed_stats(d, conns_by_path):
    """STATS of the serving processes: the daemon, or each router worker
    (the router's merged STATS keeps integer fields only)."""
    parts = [service.stats(c, d) for c in conns_by_path]
    if len(parts) == 1:
        return parts[0]
    total = {"stages": {}}
    for p in parts:
        for k, v in p.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                total[k] = total.get(k, 0) + v
        for name, s in p.get("stages", {}).items():
            t = total["stages"].setdefault(name, {"count": 0, "total_ms": 0.0})
            t["count"] += s["count"]
            t["total_ms"] += s["total_ms"]
    total["pool_domains"] = parts[0]["pool_domains"]
    total["_requests_by_member"] = [p["requests"] for p in parts]
    return total


def stage_mean(before, after, name):
    a = after["stages"].get(name, {"count": 0, "total_ms": 0.0})
    b = before["stages"].get(name, {"count": 0, "total_ms": 0.0})
    n = a["count"] - b["count"]
    return (a["total_ms"] - b["total_ms"]) / n if n > 0 else 0.0


def stage_count(before, after, name):
    return (after["stages"].get(name, {"count": 0})["count"]
            - before["stages"].get(name, {"count": 0})["count"])


def ratio(a, b):
    return a / b if b else 0.0


def idle_rtt_ms(conn, d, line, n=100):
    out = []
    for _ in range(n):
        t = time.perf_counter()
        reply = service.call(conn, [line], d)[0]
        out.append((time.perf_counter() - t) * 1000.0)
        if not reply.startswith("OK "):
            raise RunFailure(f"{line} failed: {reply[:200]}")
    return statistics.median(out)


def run_service(args):
    w = mixes.Workload(args.workload, args.seed)
    routed = args.workload == "routed_mix"
    traced = bool(args.trace)
    flags = args.daemon_flag or []
    # Generate in send order: write_mix tracks each graph's edges as it goes.
    burst = mixes.SAT_BURST[args.workload]
    warm = w.closed_loop("warm", N_WARM)
    sat_a = [] if traced else w.closed_loop("saturation", burst)
    window = w.open_loop("window", args.seconds)
    tail = (w.open_loop("traced", args.seconds) if traced else
            w.closed_loop("saturation2", burst))
    prime = prime_lines(w, [warm, sat_a, window, tail])
    log(f"workload {args.workload} seed {args.seed} rate {w.rate:g} req/s "
        f"window {args.seconds} s trace {args.trace}")
    log(f"schedule digest {mixes.digest(w.setup, prime + warm + sat_a + window + tail)} "
        f"({len(window)} window requests)")

    base = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    setup_times = []
    d = None
    calib = service.Calibration(os.path.abspath(CALIB))
    problems = []
    attempted = failed = 0

    def fresh_daemon():
        nonlocal d
        if d is not None:
            d.stop()
        d, secs, lines, replies = setup_daemon(w, f"{base}/{len(setup_times)}", routed, flags,
                                               traced)
        setup_times.append(secs)
        return lines, replies

    t_start = time.perf_counter()
    try:
        for _ in range(N_SETUPS // 2 + 1):
            setup_lines, setup_replies = fresh_daemon()
        conns = [Conn(d.connect()) for _ in range(mixes.N_CONNS)]
        stat_conns = [conns[0]] if not routed else [Conn(d.connect(p)) for p in d.worker_sockets()]
        service.fill_ring(d, d.worker_sockets() + ([d.socket] if routed else []))
        recs = service.drive(d, conns, prime, open_loop=False, outstanding=8)
        bad = [r for r in recs if failed_reply(r)]
        recs = service.drive(d, conns, warm, open_loop=False, outstanding=SAT_OUTSTANDING)
        bad += [r for r in recs if failed_reply(r)]
        if bad:
            raise RunFailure(f"warm-up request failed: {bad[0].wire[:100]} -> {bad[0].reply}")

        if not traced:
            sat_runs = [saturate(d, conns, sat_a, calib)]
        before = summed_stats(d, stat_conns)
        win = service.drive(d, conns, window)
        after = summed_stats(d, stat_conns)
        measured = list(win)

        def latency_pct(q, cmd=None):
            return pct([r.latency_ms() for r in win
                        if r.reply and (cmd is None or r.req.cmd == cmd)], q)

        e2e = {
            "p50_ms": latency_pct(0.5),
            "p99_ms": latency_pct(0.99),
            "predict_p99_ms": latency_pct(0.99, "PREDICT"),
        }
        lag = [(r.sent - r.due) * 1000.0 for r in win if r.sent is not None and not r.held]
        lag_p50, lag_p99 = pct(lag, 0.5), pct(lag, 0.99)
        log(f"loadgen.lag_p50_ms {lag_p50:.3f} loadgen.lag_p99_ms {lag_p99:.3f}")
        if lag_p50 > LAG_SHARE * e2e["p50_ms"] or lag_p99 > LAG_SHARE * e2e["p99_ms"]:
            problems.append(f"generator lag p50 {lag_p50:.3f} ms / p99 {lag_p99:.3f} ms is more "
                            f"than {LAG_SHARE:g} of p50_ms / p99_ms: the load generator, not the "
                            "daemon, limited the rate")
        if w.write:
            e2e["mutate_p99_ms"] = latency_pct(0.99, "MUTATE")

        if not traced:
            sat_runs.append(saturate(d, conns, tail, calib))
            for recs, busy, cpu, cal in sat_runs:
                measured += recs
                log(f"saturation burst: {len(recs) / busy:.1f} req/s, "
                    f"{1000 * cpu / len(recs):.3f} daemon CPU ms/req, "
                    f"{1000 * cal / (SAT_CHUNKS * CALIB_UNITS):.4f} calibration ms/unit")
            n = sum(len(recs) for recs, _, _, _ in sat_runs)
            cpu = sum(c for _, _, c, _ in sat_runs)
            unit_ms = 1000.0 * sum(c for *_, c in sat_runs) / (len(sat_runs) * SAT_CHUNKS
                                                                * CALIB_UNITS)
            e2e["saturation_rps"] = n / sum(b for _, b, _, _ in sat_runs)
            e2e["cpu_ms_per_req"] = 1000.0 * cpu / n
            # The same cost on a host that runs one calibration unit in 1 ms.
            e2e["ref_cpu_ms_per_req"] = e2e["cpu_ms_per_req"] / unit_ms
        else:
            tw = service.drive(d, conns, tail, suffix=" TRACE")
            after_traced = summed_stats(d, stat_conns)
            measured += tw
            layers = per_layer(w, d, conns, stat_conns, routed, tw, after, after_traced,
                               setup_lines, setup_replies, lag_p99, e2e["p50_ms"])
        attempted = len(measured)
        failed = sum(1 for r in measured if failed_reply(r))
        e2e["error_share"] = failed / attempted
        if failed:
            first = next(r for r in measured if failed_reply(r))
            problems.append(f"{failed} requests failed, first: {first.wire[:100]} -> {first.reply}")
        rss = d.peak_rss_mb()
        for c in conns + stat_conns:
            c.sock.close()
        while len(setup_times) < N_SETUPS:
            fresh_daemon()
        d.stop()
        d = None
        e2e["setup_s"] = statistics.median(setup_times)
        mismatches = check_replies(setup_lines, setup_replies, conns, base)
        if mismatches:
            problems.append(f"{len(mismatches)} replies differ from the reference; first:\n  "
                            + mismatches[0])
        log(f"checked {sum(len(c.sent) for c in conns) + len(setup_lines)} replies against the "
            f"in-process reference; run took {time.perf_counter() - t_start:.1f} s")
    except RunFailure as e:
        problems.append(f"run failed: {e}")
        attempted = attempted or len(window)
        failed = attempted
    finally:
        if d is not None:
            d.stop()
        calib.stop()
        shutil.rmtree(base, ignore_errors=True)

    if problems:
        for p in problems:
            log(f"INVALID: {p}")
        emit(False, attempted, failed, {})
        return 1
    if traced:
        layers["proc.peak_rss_mb"] = (rss, "MB")
        for name, (value, unit) in sorted(layers.items()):
            log(f"  {name:28s} {value:14.6f} {unit}")
        declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
        emit(True, attempted, failed,
             {k: {"value": v, "unit": u} for k, (v, u) in layers.items() if k in declared})
    else:
        for name, value in e2e.items():
            log(f"  {name:16s} {value:14.6f} {E2E_UNITS[name]}")
        declared = {m["name"] for m in benchmark_json()["end_to_end"]}
        emit(True, attempted, failed, {k: {"value": v, "unit": E2E_UNITS[k]}
                                       for k, v in e2e.items() if k in declared})
    return 0


def saturate(d, conns, reqs, calib):
    """A closed-loop burst in SAT_CHUNKS pieces, each followed by a slice
    of the calibration job. Returns (records, busy seconds, daemon CPU
    seconds, calibration CPU seconds)."""
    recs, busy, cpu, cal = [], 0.0, 0.0, 0.0
    for i in range(SAT_CHUNKS):
        part = reqs[i * len(reqs) // SAT_CHUNKS:(i + 1) * len(reqs) // SAT_CHUNKS]
        c0 = d.cpu_seconds()
        got = service.drive(d, conns, part, open_loop=False, outstanding=SAT_OUTSTANDING)
        cpu += d.cpu_seconds() - c0
        busy += busy_seconds(got)
        cal += calib.run(CALIB_UNITS)
        recs += got
    return recs, busy, cpu, cal


def busy_seconds(recs):
    """From the first send to the last reply of a closed-loop burst."""
    return max(r.done for r in recs) - min(r.sent for r in recs)


def per_layer(w, d, conns, stat_conns, routed, tw, before, after, setup_lines,
              setup_replies, lag_p99, p50_plain):
    """Per-layer metrics of the traced window `tw` (TRACE on every request),
    from its spans, the STATS deltas around it and the client clock."""
    spans = []  # (record, reply json, {span name: [durations ms]}, request span start ms)
    for r in tw:
        if not (r.reply or "").startswith("OK "):
            continue
        j = json.loads(r.reply[3:])
        tr = j.get("trace") if isinstance(j, dict) else None
        if not tr:
            continue
        by = {}
        start = 0.0
        for s in tr:
            by.setdefault(s["name"], []).append(s["dur_us"] / 1000.0)
            if s["name"] == "request":
                start = s["start_us"] / 1000.0
        spans.append((r, j, by, start))
    req_ms = [by["request"][0] for _, _, by, _ in spans if "request" in by]
    wait_ms = [r.latency_ms() - by["request"][0] for r, _, by, _ in spans if "request" in by]
    direct = [sum(by.get("execute", [])) for r, j, by, _ in spans
              if r.req.cmd == "QUERY" and j.get("plan") == "direct"]
    all_exec = sum(sum(by.get("execute", [])) for r, j, by, _ in spans if r.req.cmd == "QUERY")
    mutate_ms = [by["request"][0] for r, _, by, _ in spans if r.req.cmd == "MUTATE"]

    def delta(k):
        return after.get(k, 0) - before.get(k, 0)

    def hit_ratio(kind):
        return ratio(delta(f"{kind}_hits"), delta(f"{kind}_hits") + delta(f"{kind}_misses"))

    incremental = delta("incremental_recolors")
    full = stage_count(before, after, "wl.refine")
    # Whole-life figures for work that happens in setup: LOAD, TRAIN, and
    # the setup MUTATEs when the window has none.
    zero = {"stages": {}}
    if not mutate_ms:
        mutate_ms = [json.loads(reply[3:])["trace"][0]["dur_us"] / 1000.0
                     for line, reply in zip(setup_lines, setup_replies)
                     if line.startswith("MUTATE ")]
    save = service.call(conns[0], ["SAVE bench.glqs"], d)[0]
    if not save.startswith("OK "):
        raise RunFailure(f"SAVE failed: {save[:200]}")
    final = summed_stats(d, stat_conns)
    p50_traced = pct([r.latency_ms() for r in tw if r.reply], 0.5)
    m = {
        "server.request_p50_ms": (pct(req_ms, 0.5), "ms"),
        "server.request_p99_ms": (pct(req_ms, 0.99), "ms"),
        "server.wait_p50_ms": (pct(wait_ms, 0.5), "ms"),
        "server.wait_p99_ms": (pct(wait_ms, 0.99), "ms"),
        "server.coalesced_share": (ratio(delta("batch_coalesced"), delta("requests")), "fraction"),
        "protocol.parse_ms": (mean([s for _, _, _, s in spans]), "ms"),
        "protocol.reply_bytes": (ratio(delta("bytes_out"), delta("requests")), "B"),
        "cache.plan_hit_ratio": (hit_ratio("plan"), "fraction"),
        "cache.coloring_hit_ratio": (hit_ratio("coloring"), "fraction"),
        "cache.feature_hit_ratio": (hit_ratio("feature"), "fraction"),
        "cache.incremental_share": (ratio(incremental, incremental + full), "fraction"),
        "cache.evictions": (delta("plan_evictions") + delta("coloring_evictions")
                            + delta("feature_evictions"), "count"),
        "cache.bytes": (after.get("plan_bytes", 0) + after.get("coloring_bytes", 0)
                        + after.get("feature_bytes", 0), "B"),
        "gel.compile_ms": (stage_mean(before, after, "compile"), "ms"),
        "gel.execute_ms": (stage_mean(before, after, "execute.layered"), "ms"),
        "gel.materialize_ms": (stage_mean(before, after, "materialize"), "ms"),
        "gel.direct_ms": (mean(direct), "ms"),
        "gel.direct_share": (ratio(sum(direct), all_exec), "fraction"),
        "wl.refine_ms": (stage_mean(before, after, "wl.refine"), "ms"),
        "wl.incremental_ms": (stage_mean(before, after, "wl.refine.incremental"), "ms"),
        "wl.rounds": (ratio(stage_count(before, after, "wl.round"), full), "rounds"),
        "kwl.refine_ms": (stage_mean(before, after, "kwl.refine"), "ms"),
        "hom.profile_ms": (stage_mean(before, after, "hom.profile"), "ms"),
        "featurize.build_ms": (stage_mean(before, after, "featurize"), "ms"),
        "models.predict_ms": (stage_mean(before, after, "predict"), "ms"),
        "models.train_ms": (stage_mean(zero, final, "train"), "ms"),
        "registry.mutate_ms": (mean(mutate_ms), "ms"),
        "registry.load_ms": (stage_mean(zero, final, "load.graph"), "ms"),
        "store.save_ms": (stage_mean(zero, final, "store.save"), "ms"),
        # Idle STATS round trips with the ring full (a router's STATS
        # fans out to every worker and returns no trace).
        "metrics.stats_ms": (idle_rtt_ms(conns[0], d, "STATS", 5), "ms"),
        "pool.domains": (float(final["pool_domains"]), "count"),
        "loadgen.lag_p99_ms": (lag_p99, "ms"),
        "trace.overhead_share": (ratio(p50_traced - p50_plain, p50_plain), "fraction"),
    }
    if routed:
        by_member = [a - b for a, b in zip(after["_requests_by_member"],
                                           before["_requests_by_member"])]
        m["router.shard_skew"] = (ratio(max(by_member), mean(by_member)), "ratio")
        m["router.fanout_ms"] = (idle_rtt_ms(conns[0], d, "GRAPHS", 50), "ms")
        # PING is answered by the router itself, so the hop is timed on a
        # forwarded cheap read (a colouring-cache hit) instead.
        g = w.graphs[0].name
        for path in d.worker_sockets():
            direct = Conn(d.connect(path))
            if service.call(direct, [f"WL {g}"], d)[0].startswith("OK "):
                m["router.hop_ms"] = (idle_rtt_ms(conns[0], d, f"WL {g}")
                                      - idle_rtt_ms(direct, d, f"WL {g}"), "ms")
            direct.sock.close()
    return m


# --- paper tables ----------------------------------------------------------------

def run_tables(args):
    """Regenerate every paper table; stdout must equal the seed's tables."""
    with open(TABLES) as f:
        expected = f.read()
    exe = os.path.abspath(EXPERIMENTS)

    def timed(argv, env=None):
        t = time.perf_counter()
        out = subprocess.run([exe, *argv], capture_output=True, text=True, env=env, timeout=170)
        if out.returncode != 0:
            raise RunFailure(f"experiments {' '.join(argv)} exited {out.returncode}")
        return time.perf_counter() - t, out.stdout

    problems, metrics, runs = [], {}, []
    try:
        if not args.trace:
            start = time.perf_counter()
            while not runs or time.perf_counter() - start < args.seconds:
                secs, out = timed(["all"])
                runs.append(secs)
                if out != expected:
                    problems.append("experiments all: stdout differs from tables.expected")
                    break
            metrics["tables_s"] = (statistics.median(runs), "s")
            metrics["error_share"] = (0.0, "fraction")
        else:
            parts = []
            for i in range(1, 20):
                secs, out = timed([f"e{i}"])
                metrics[f"paper.e{i}_s"] = (secs, "s")
                parts.append(out)
            if "".join(parts) != expected:
                problems.append("experiments e1..e19: stdout differs from tables.expected")
            default_s, out = timed(["all"])
            if out != expected:
                problems.append("experiments all: stdout differs from tables.expected")
            one_s, out1 = timed(["all"], env={**os.environ, "GLQL_DOMAINS": "1"})
            if out1 != expected:
                problems.append("GLQL_DOMAINS=1 tables differ from tables.expected")
            domains = int(os.environ.get("GLQL_DOMAINS") or os.cpu_count() or 1)
            metrics["pool.domains"] = (float(domains), "count")
            metrics["pool.paper_speedup"] = (one_s / default_s, "ratio")
            runs = [default_s]
    except (RunFailure, subprocess.TimeoutExpired) as e:
        problems.append(str(e))
    for p in problems:
        log(f"INVALID: {p}")
    for name, (v, u) in sorted(metrics.items()):
        log(f"  {name:16s} {v:14.6f} {u}")
    emit(not problems, max(1, len(runs)), len(problems),
         {} if problems else {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    return 1 if problems else 0


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*SERVICE, "paper_tables"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--daemon-flag", action="append",
                    help="extra glqld flag (repeatable), for validity checks such as "
                         "--daemon-flag=--coloring-cache --daemon-flag=1")
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit so the finally blocks stop the daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    os.makedirs(WORKDIR, exist_ok=True)
    if args.workload == "paper_tables":
        return run_tables(args)
    return run_service(args)


if __name__ == "__main__":
    sys.exit(main())
