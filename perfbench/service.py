"""Daemon control and the single-threaded load generator.

One process drives every connection with select(): requests go out at
their scheduled time (open loop) or whenever a connection has fewer
than K requests outstanding (closed loop). Latency is measured from the
scheduled send time to the reply, so a stall also charges the requests
queued behind it.
"""

import collections
import gc
import json
import os
import selectors
import signal
import socket
import subprocess
import time


SPIN_S = 0.0005  # open loop: poll, instead of sleeping, this close to a send
# Pool domains of every glqld process. The generator shares the host's
# cores with the daemon, so a second domain only waits for a core: on 2
# cores it cost 15-35% more CPU per request at saturation, never raised
# saturation_rps, and made both swing with the load other tenants put on
# the host (see README.md).
DOMAINS = "1"


class RunFailure(Exception):
    """A daemon process died or stopped answering; the run is invalid."""


# --- processes ---------------------------------------------------------------

def descendants(pid):
    """Pids of every live process below `pid` (router workers, replicas)."""
    children = collections.defaultdict(list)
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children[ppid].append(int(entry))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Daemon:
    """A glqld (or a router with its workers) in its own process group,
    listening on `d.sock` inside `workdir`."""

    def __init__(self, exe, workdir, routed, flags=()):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.socket = os.path.join(workdir, "d.sock")
        args = [exe, "--socket", "d.sock", *flags]
        if routed:
            args += ["--router", "--workers", "2"]
        self.routed = routed
        self.log = open(os.path.join(workdir, "daemon.log"), "wb")
        # Nice 10: when the pool's domains keep every core busy, the load
        # generator (a few percent of one core) still sends on time.
        self.proc = subprocess.Popen(args, cwd=workdir, stdin=subprocess.DEVNULL,
                                     stdout=self.log, stderr=self.log, start_new_session=True,
                                     preexec_fn=lambda: os.nice(10),
                                     env={**os.environ, "GLQL_DOMAINS": DOMAINS})
        self.members = []

    def worker_sockets(self):
        return [f"{self.socket}.shard{i}" for i in range(2)] if self.routed else [self.socket]

    def connect(self, path=None, timeout=30.0):
        deadline = time.monotonic() + timeout
        while True:
            self.check()
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path or self.socket)
                return s
            except OSError:
                s.close()
                if time.monotonic() > deadline:
                    raise RunFailure(f"no answer on {path or self.socket} within {timeout:.0f} s")
                time.sleep(0.005)

    def note_members(self):
        """Remember the worker pids once the topology is up, so a worker
        that dies later is noticed even though it is not our child."""
        self.members = descendants(self.proc.pid)

    def check(self):
        code = self.proc.poll()
        if code is not None:
            raise RunFailure(f"daemon exited with status {code}{self.log_tail()}")
        for pid in self.members:
            if not os.path.exists(f"/proc/{pid}"):
                raise RunFailure(f"worker pid {pid} exited{self.log_tail()}")

    def log_tail(self):
        try:
            self.log.flush()
            with open(os.path.join(self.workdir, "daemon.log"), "rb") as f:
                tail = f.read()[-600:].decode(errors="replace").strip()
            return f"; log tail: {tail}" if tail else ""
        except OSError:
            return ""

    def cpu_seconds(self):
        """On-CPU time so far of every thread of every daemon process."""
        return cpu_seconds([self.proc.pid, *descendants(self.proc.pid)])

    def peak_rss_mb(self):
        return sum(vm_hwm_kb(p) for p in [self.proc.pid, *descendants(self.proc.pid)]) / 1024.0

    def stop(self):
        """Stop the whole process group and wait until every member ended."""
        pids = [self.proc.pid, *descendants(self.proc.pid)]
        for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + grace
            while time.monotonic() < deadline:
                self.proc.poll()
                if not any(os.path.exists(f"/proc/{p}") and not zombie(p) for p in pids):
                    break
                time.sleep(0.01)
            else:
                continue
            break
        self.proc.wait()
        self.log.close()


def cpu_seconds(pids):
    """On-CPU time so far of every thread of `pids`, from
    /proc/<pid>/task/<tid>/schedstat (nanoseconds). Time the host's other
    tenants take from the VM (steal) is not counted."""
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                    total += int(f.read().split()[0])
            except (OSError, ValueError, IndexError):
                pass
    return total / 1e9


class Calibration:
    """The benchmark's fixed reference job (calib/calib.ml) in a process of
    its own. run(units) does that many units of its work and returns the
    CPU seconds they took, which tells how fast the host runs right now."""

    def __init__(self, exe):
        self.proc = subprocess.Popen([exe], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, units):
        c0 = cpu_seconds([self.proc.pid])
        self.proc.stdin.write(f"{units}\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "done":
            raise RunFailure(f"calibration job exited with status {self.proc.poll()}")
        return cpu_seconds([self.proc.pid]) - c0

    def stop(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def zombie(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return False


# --- connections ------------------------------------------------------------

class Conn:
    def __init__(self, sock):
        self.sock = sock
        self.buf = b""
        self.inflight = collections.deque()  # records awaiting a reply, in send order
        self.sent = []  # every record sent, in send order

    def send(self, rec, now):
        rec.sent = now
        self.sock.sendall(rec.wire.encode() + b"\n")
        self.inflight.append(rec)
        self.sent.append(rec)

    def read(self, now):
        data = self.sock.recv(1 << 20)
        if not data:
            raise RunFailure("daemon closed a connection")
        self.buf += data
        done = []
        while True:
            i = self.buf.find(b"\n")
            if i < 0:
                break
            line, self.buf = self.buf[:i].decode(), self.buf[i + 1:]
            rec = self.inflight.popleft()
            rec.reply, rec.done = line, now
            done.append(rec)
        return done


class Record:
    __slots__ = ("req", "wire", "due", "sent", "done", "reply", "held")

    def __init__(self, req, wire, due=None):
        self.req, self.wire, self.due = req, wire, due
        self.sent = self.done = self.reply = None
        self.held = False

    def latency_ms(self):
        return (self.done - self.due) * 1000.0


def call(conn, lines, daemon, timeout=60.0):
    """Pipeline independent lines on one connection and wait for all replies."""
    recs = [Record(None, l) for l in lines]
    now = time.perf_counter()
    for r in recs:
        conn.send(r, now)
    deadline = time.monotonic() + timeout
    sel = selectors.SelectSelector()
    sel.register(conn.sock, selectors.EVENT_READ)
    try:
        while conn.inflight:
            if time.monotonic() > deadline:
                raise RunFailure(f"{len(conn.inflight)} replies missing after {timeout:.0f} s")
            if sel.select(0.05):
                conn.read(time.perf_counter())
            daemon.check()
    finally:
        sel.close()
    return [r.reply for r in recs]


# --- the load loop --------------------------------------------------------------

class Gate:
    """Per-graph ordering: a MUTATE or TRAIN waits until every earlier
    request on its graph has replied, and holds later ones until it has.

    The daemon runs all lines of one select batch in parallel, even two
    lines of one connection, so a pipelined write and a read of the same
    graph could take effect in either order. Holding them here gives
    read-your-writes, and makes each graph's effect order its send order.
    """

    def __init__(self):
        self.reads = collections.Counter()
        self.writing = set()

    def can_send(self, rec):
        g = rec.req.graph
        if not g:
            return True
        if g in self.writing:
            return False
        return not rec.req.write or self.reads[g] == 0

    def on_send(self, rec):
        g = rec.req.graph
        if g and rec.req.write:
            self.writing.add(g)
        elif g:
            self.reads[g] += 1

    def on_done(self, rec):
        g = rec.req.graph
        if g and rec.req.write:
            self.writing.discard(g)
        elif g:
            self.reads[g] -= 1


def drive(daemon, conns, reqs, suffix="", open_loop=True, outstanding=4, drain_s=30.0):
    """Send `reqs` and collect their replies, as Records in schedule order.

    Open loop: each request is due at its req.t after the start, whether
    or not earlier ones were answered. Closed loop: each connection keeps
    `outstanding` requests in flight, in schedule order. Requests still
    unanswered `drain_s` after the last send fail the run.
    """
    # select(2) takes its timeout in microseconds; epoll and poll round up
    # to whole milliseconds, which sent the median request 0.8 ms late.
    sel = selectors.SelectSelector()
    for i, c in enumerate(conns):
        sel.register(c.sock, selectors.EVENT_READ, i)
    gate = Gate()
    recs = [Record(r, r.line + suffix) for r in reqs]
    t0 = time.perf_counter() + 0.05
    if open_loop:
        for r in recs:
            r.due = t0 + r.req.t
        pending = collections.deque(recs)
    else:
        per_conn = [collections.deque(r for r in recs if r.req.conn == i)
                    for i in range(len(conns))]
        busy = [0] * len(conns)
    held = collections.defaultdict(collections.deque)  # graph -> due requests behind its gate

    def send(rec, now):
        if rec.due is None:
            rec.due = now
        conns[rec.req.conn].send(rec, now)
        gate.on_send(rec)

    def admit(rec, now):
        g = rec.req.graph
        if g and (held.get(g) or not gate.can_send(rec)):
            rec.held = True
            held[g].append(rec)
        else:
            send(rec, now)

    sending, drain_deadline, last_check = True, None, 0.0
    gc.disable()  # a collection pass would delay sends by milliseconds
    try:
        while True:
            now = time.perf_counter()
            if sending:
                if open_loop:
                    while pending and pending[0].due <= now:
                        admit(pending.popleft(), now)
                    sending = bool(pending)
                else:
                    for i in range(len(conns)):
                        while per_conn[i] and busy[i] < outstanding:
                            busy[i] += 1
                            admit(per_conn[i].popleft(), now)
                    sending = any(per_conn)
                if not sending:
                    drain_deadline = now + drain_s
            if not sending and not held and not any(c.inflight for c in conns):
                break
            if drain_deadline is not None and now > drain_deadline:
                break
            if now - last_check > 0.05:
                daemon.check()
                last_check = now
            timeout = 0.05
            if sending and open_loop:
                # Wake SPIN_S early and poll until the send is due: a
                # select(2) timeout alone wakes 0.1-0.2 ms late.
                timeout = min(timeout, max(0.0, pending[0].due - now - SPIN_S))
            for key, _ in sel.select(timeout):
                for rec in conns[key.data].read(time.perf_counter()):
                    gate.on_done(rec)
                    if not open_loop:
                        busy[key.data] -= 1
            now = time.perf_counter()
            for g in list(held):
                q = held[g]
                while q and gate.can_send(q[0]):
                    send(q.popleft(), now)
                if not q:
                    del held[g]
    finally:
        gc.enable()
        sel.close()
    left = sum(len(c.inflight) for c in conns) + sum(len(q) for q in held.values())
    if left:
        raise RunFailure(f"{left} requests unanswered {drain_s:.0f} s after the last send")
    return recs


def stats(conn, daemon):
    reply = call(conn, ["STATS"], daemon)[0]
    if not reply.startswith("OK "):
        raise RunFailure(f"STATS failed: {reply[:200]}")
    return json.loads(reply[3:])


def fill_ring(daemon, paths, total=65536, chunk=2048):
    """Serve `total` PINGs on each socket, so the latency ring is as full
    as a long-lived daemon's (STATS cost grows with it)."""
    for path in paths:
        conn = Conn(daemon.connect(path))
        left = total
        while left > 0:
            n = min(chunk, left)
            replies = call(conn, ["PING"] * n, daemon)
            if any(r != 'OK "pong"' for r in replies):
                raise RunFailure("PING did not answer pong")
            left -= n
        conn.sock.close()
