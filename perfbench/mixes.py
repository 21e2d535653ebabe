"""Seeded request generators for the glqld service workloads.

Everything here is a pure function of the workload name and seed. The
graphs, with their MUTATE chords, are a fixed data set per workload; the
seed picks the Poisson arrival times and every request line. The daemon only ever sees the lines produced here.

A schedule is a list of Req. `conn` pins every graph (and the models
trained on it) to one connection, so each connection owns a disjoint
slice of the daemon state; the reference replay relies on that.
"""

import bisect
import hashlib
import random
from dataclasses import dataclass

N_CONNS = 2

# Open-loop arrival rates (req/s), fixed once on the commit that added
# the benchmark at 15-25% of its saturation_rps, and frozen since: a
# later change is measured at the offered load its parent was.
RATES = {"read_mix": 60.0, "write_mix": 40.0, "routed_mix": 60.0}

# Requests in each of the two closed-loop saturation bursts, about 4 s
# (read, routed) and 8 s (write) of daemon work on a 2-core host. The
# host's speed swings by a quarter from one second to the next, and
# cpu_ms_per_req averages those swings over the bursts' length.
SAT_BURST = {"read_mix": 2400, "write_mix": 1800, "routed_mix": 2400}

# Direct (non-layered) GEL plans materialise n^vars intermediate tables
# and --max-cells only counts free variables, so an unguarded direct
# plan on a large graph can take seconds and gigabytes (see README.md).
# read_mix keeps them, but only on graphs this small: at 900 vertices a
# single 2-variable one took 70-215 ms and p99 swung by half its value
# between seeds.
DIRECT2_MAX_N = 400
DIRECT3_MAX_N = 16


@dataclass
class Req:
    t: float  # due time, seconds after the window opens
    conn: int
    line: str
    cmd: str
    graph: str = ""  # graph whose state the request reads or writes
    write: bool = False  # MUTATE / TRAIN: ordered against the graph's other requests


@dataclass
class GraphSpec:
    name: str
    spec: str
    n: int
    steps: tuple = ()  # circulant offsets, empty for named specs
    chords: int = 0  # random MUTATE chords added during setup


def zipf_weights(k, s=1.0):
    return [1.0 / (r + 1) ** s for r in range(k)]


# --- graphs -----------------------------------------------------------------

# Listed in popularity order (Zipf rank). Circulants are vertex-transitive,
# so random chords are what make their WL colourings non-trivial; one
# chord per ten vertices keeps refinement to a few rounds (with 20 chords
# on 20,000 vertices it takes ~260 rounds and 9 s).
READ_GRAPHS = [
    GraphSpec("pet", "petersen", 10),
    GraphSpec("rook", "rook", 16),
    GraphSpec("c64", "circulant64c1c5", 64, (1, 5), 6),
    GraphSpec("g8", "grid8x8", 64),
    GraphSpec("c400", "circulant400c1c7", 400, (1, 7), 40),
    GraphSpec("g30", "grid30x30", 900),
    GraphSpec("c900", "circulant900c1c4", 900, (1, 4), 90),
    GraphSpec("shr", "shrikhande", 16),
    GraphSpec("c3k", "circulant3000c1c4", 3000, (1, 4), 300),
    GraphSpec("g60", "grid60x60", 3600),
    GraphSpec("c20k", "circulant20000c1c5", 20000, (1, 5), 2000),
]

WRITE_GRAPHS = [
    GraphSpec("w400", "circulant400c1c7", 400, (1, 7), 40),
    GraphSpec("w2k", "circulant2000c1c5", 2000, (1, 5), 200),
    GraphSpec("w6k", "circulant6000c1c4", 6000, (1, 4), 600),
    GraphSpec("w20k", "circulant20000c1c5", 20000, (1, 5), 2000),
]


def base_edges(g):
    """Edge set of a circulant spec (named specs are never mutated)."""
    edges = set()
    for s in g.steps:
        for i in range(g.n):
            j = (i + s) % g.n
            edges.add((min(i, j), max(i, j)))
    return edges


def chord_pairs(rng, g, edges):
    pairs = []
    while len(pairs) < g.chords:
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        e = (min(u, v), max(u, v))
        if u != v and e not in edges:
            edges.add(e)
            pairs.append(e)
    return pairs


# --- GEL templates -----------------------------------------------------------

def gel_templates():
    """About 240 distinct GEL texts, as (text, kind) in Zipf rank order.

    kind is "layered" (agg_sum MPNN, answered by a layered plan on any
    graph), "direct2" (2-variable mean/max/min/count, direct plan) or
    "direct3" (3-variable, direct plan). No 2-variable text here is
    alpha-equivalent to a 3-variable one: the plan cache keys on the
    normalised form, so such a pair would share whichever plan was
    compiled first.
    """
    deg = "agg_sum{x2}([1] | E(x1,x2))"
    layered = []
    for c in range(1, 13):
        layered.append(f"agg_sum{{x2}}([{c}] | E(x1,x2))")
        layered.append(f"agg_sum{{x2}}(agg_sum{{x1}}([{c}] | E(x2,x1)) | E(x1,x2))")
        layered.append(f"relu(add(scale(0.{c})({deg}),[{c}]))")
        layered.append(f"agg_sum{{x2}}(scale({c})(lab0(x2)) | E(x1,x2))")
        layered.append(f"concat({deg}, scale({c})(lab0(x1)))")
        layered.append(
            f"agg_sum{{x2}}(agg_sum{{x1}}(agg_sum{{x2}}([{c}] | E(x1,x2)) | E(x2,x1)) | E(x1,x2))"
        )
        layered.append(f"tanh(scale(0.{c})(agg_sum{{x2}}(agg_sum{{x1}}([1] | E(x2,x1)) | E(x1,x2))))")
        layered.append(f"add(scale({c})({deg}), agg_sum{{x2}}(lab0(x2) | E(x1,x2)))")
        layered.append(f"sigmoid(add({deg},[-{c}]))")
        layered.append(f"product({deg}, [{c}])")
        layered.append(f"agg_sum{{x2}}(relu(add(agg_sum{{x1}}([1] | E(x2,x1)),[-{c}])) | E(x1,x2))")
        layered.append(f"concat(scale({c})({deg}), agg_sum{{x2}}(agg_sum{{x1}}([1] | E(x2,x1)) | E(x1,x2)))")
    direct2 = []
    for c in range(1, 13):
        for a in ("max", "min", "mean", "count"):
            direct2.append(f"agg_{a}{{x2}}([{c}] | E(x1,x2))")
        direct2.append(f"agg_max{{x2}}(agg_sum{{x1}}([{c}] | E(x2,x1)) | E(x1,x2))")
        direct2.append(f"agg_mean{{x2}}(scale({c})(lab0(x2)) | E(x1,x2))")
    direct3 = []
    for c in range(1, 9):
        direct3.append(
            f"agg_sum{{x2,x3}}([{c}] | product(E(x1,x2), product(E(x2,x3), E(x3,x1))))"
        )
        direct3.append(f"agg_sum{{x2}}(agg_sum{{x3}}([{c}] | product(E(x2,x3), E(x3,x1))) | E(x1,x2))")
    # Interleave so every kind appears at high and low popularity ranks.
    out = []
    li, d2, d3 = iter(layered), iter(direct2), iter(direct3)
    rank = 0
    while True:
        pick = None
        if rank % 5 == 2:
            pick = next(d2, None), "direct2"
        elif rank % 12 == 7:
            pick = next(d3, None), "direct3"
        if pick is None or pick[0] is None:
            pick = next(li, None), "layered"
        if pick[0] is None:
            rest = [(t, "direct2") for t in d2] + [(t, "direct3") for t in d3]
            out.extend(rest)
            break
        out.append(pick)
        rank += 1
    return out


# --- workloads ----------------------------------------------------------------

READ_MODELS = [
    # name, graph, recipe; every target is the degree, a vertex regression.
    ("m64", "c64", "deg;wl"),
    ("m400", "c400", "deg;wl@2;hom3"),
    ("m900", "g30", "label;deg;gel:agg_sum{x2}(lab0(x2) | E(x1,x2))"),
    ("m3k", "c3k", "deg;hom3"),
]
# write_mix models must keep their schema while their graph mutates, so
# no vertex-mode wl one-hot (its width is the class count).
WRITE_RECIPE = "label;deg;hom3"
TARGET = "agg_sum{x2}([1] | E(x1,x2))"
WRITE_QUERY = "agg_sum{x2}(agg_sum{x1}(lab0(x1) | E(x2,x1)) | E(x1,x2))"


def quote(s):
    return "'" + s + "'"


class Workload:
    """One service workload: graphs, setup phases and request generators.

    The read and routed mixes share one definition, so the same seed
    yields byte-identical schedules for both.
    """

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.write = name == "write_mix"
        self.rate = RATES[name]
        self.graphs = WRITE_GRAPHS if self.write else READ_GRAPHS
        # The graphs are the workload's fixed data set: their chords come
        # from the workload name, not the seed. Where the chords lie sets
        # how much refinement a MUTATE costs; with seeded chords, ten
        # seeds' write_mix ref_cpu_ms_per_req spanned 3.3-3.9 ms.
        rng = random.Random(f"{name.replace('routed', 'read')}/graphs")
        self.conn_of = {g.name: i % N_CONNS for i, g in enumerate(self.graphs)}
        self.n_of = {g.name: g.n for g in self.graphs}
        self.edges = {}
        self.chords = {}
        for g in self.graphs:
            edges = base_edges(g)
            self.chords[g.name] = chord_pairs(rng, g, edges)
            self.edges[g.name] = edges
        if self.write:
            self.models = [(f"wm_{g.name}", g.name, WRITE_RECIPE) for g in self.graphs]
        else:
            self.models = READ_MODELS
        self.model_of = {graph: m for m, graph, _ in self.models}
        self.templates = gel_templates()
        self.touched = {g.name: [] for g in self.graphs}
        self.setup = self._setup_phases()

    def train_line(self, model, graph, recipe):
        epochs = 5 if self.write else 40
        return (f"TRAIN {model} ON {graph} WITH {quote(recipe)} TARGET {quote(TARGET)} "
                f"EPOCHS {epochs} SEED 7")

    def _setup_phases(self):
        """Setup requests in dependency phases; a phase's lines are independent.
        Built before any request is generated: MUTATEs move the chords."""
        loads = [f"LOAD {g.name} {g.spec}" for g in self.graphs]
        chords = []
        for g in self.graphs:
            if self.chords[g.name]:
                pairs = " ".join(f"{u} {v}" for u, v in self.chords[g.name])
                chords.append(f"MUTATE {g.name} ADD_EDGES {pairs}")
        trains = [self.train_line(*m) for m in self.models]
        return [loads, chords, trains]

    # --- request classes ------------------------------------------------------
    #
    # A class fixes everything that sets a request's cost (command, graph,
    # template, recipe, model); the rest (vertex picks, WL rounds, mutation
    # ops) is drawn when a request is made. Classes are listed graph-major,
    # and a graph's queries by plan kind, then by aggregation depth and
    # length, so that cost rises along the cumulative distribution that
    # stratified() samples: each run then draws the same spread of cheap
    # and costly templates on each graph, not just the same count.

    def _zipf_graphs(self, max_n=None):
        gs = [g for g in self.graphs if max_n is None or g.n <= max_n]
        ws = zipf_weights(len(gs))
        total = sum(ws)
        return [(g, w / total) for g, w in zip(gs, ws)]

    def _read_classes(self):
        out = []
        templates = self.templates
        tw = zipf_weights(len(templates))
        tsum = sum(tw)
        limit = {"layered": None, "direct2": DIRECT2_MAX_N, "direct3": DIRECT3_MAX_N}
        by_kind = {}
        for (text, kind), w in zip(templates, tw):
            for g, gw in self._zipf_graphs(limit[kind]):
                by_kind.setdefault(g.name, []).append(
                    ((kind, text.count("agg_"), len(text)), ("QUERY", g.name, text),
                     0.55 * w / tsum * gw))
        for g in self.graphs:
            out += [(c, w) for _, c, w in sorted(by_kind[g.name], key=lambda x: x[0])]
        for g, gw in self._zipf_graphs():
            out.append((("WL", g.name, None), 0.15 * gw))
            out.append((("HOM", g.name, None), 0.05 * gw))
            for recipe in self._recipes(g):
                out.append((("FEATURIZE", g.name, recipe), 0.05 * gw / 4))
        for g, gw in self._zipf_graphs(64):
            out.append((("KWL", g.name, 2), 0.02 * gw * (0.7 if g.n <= 16 else 1.0)))
            if g.n <= 16:
                out.append((("KWL", g.name, 3), 0.02 * gw * 0.3))
        mw = zipf_weights(len(self.models))
        msum = sum(mw)
        for (model, g, _), w in zip(self.models, mw):
            every = 0.1 if self.n_of[g] <= 900 else 0.0
            out.append((("PREDICT", g, (model, False)), 0.17 * w / msum * (1 - every)))
            if every:
                out.append((("PREDICT", g, (model, True)), 0.17 * w / msum * every))
        out.append((("GRAPHS", "", None), 0.01))
        return out

    def _recipes(self, g):
        if g.n <= 64:
            return [("deg;wl", "VERTEX"), ("label;deg;hom3", "VERTEX"), ("wl;kwl2", "GRAPH"),
                    ("deg;wl@2", "GRAPH")]
        if g.n <= 400:
            return [("deg;wl", "VERTEX"), ("label;deg;hom3", "VERTEX"), ("wl;hom4", "GRAPH"),
                    ("deg;wl@2", "GRAPH")]
        return [("deg;hom3", "VERTEX"), ("wl;deg", "GRAPH"), ("wl@2;hom3", "GRAPH"),
                ("label;deg", "VERTEX")]

    def _write_classes(self):
        out = []
        for g, gw in self._zipf_graphs():
            for kind, w in (("MUTATE", 35), ("PREDICT", 35), ("WL", 10), ("FEATURIZE", 5),
                            ("HOM", 5), ("QUERY", 9), ("TRAIN", 1)):
                out.append(((kind, g.name, None), w / 100 * gw))
        return out

    def _make(self, rng, cls):
        kind, g, arg = cls
        if kind == "QUERY":
            return f"QUERY {g} {quote(arg if arg else WRITE_QUERY)}"
        if kind == "WL":
            return f"WL {g}" + ("" if self.write else rng.choice(["", "", "", " 1", " 2", " 3"]))
        if kind == "HOM":
            return f"HOM {g} " + ("3" if self.write else
                                  str(rng.randint(2, 4 if self.n_of[g] > 1000 else 6)))
        if kind == "KWL":
            return f"KWL {g} {arg}"
        if kind == "FEATURIZE":
            recipe, mode = arg or ("wl;deg", "GRAPH")
            return f"FEATURIZE {g} {quote(recipe)} {mode}"
        if kind == "PREDICT":
            if self.write:
                vs = sorted(set(self.touched[g])) or [rng.randrange(self.n_of[g])]
                return f"PREDICT {self.model_of[g]} {g} " + " ".join(map(str, vs))
            model, every = arg
            if every:
                return f"PREDICT {model} {g}"
            vs = sorted(rng.sample(range(self.n_of[g]), rng.randint(1, 8)))
            return f"PREDICT {model} {g} " + " ".join(map(str, vs))
        if kind == "MUTATE":
            return f"MUTATE {g} {self._mutate_ops(rng, g)}"
        if kind == "TRAIN":
            return self.train_line(self.model_of[g], g, WRITE_RECIPE)
        return "GRAPHS"

    def requests(self, rng, n):
        """n requests whose composition follows the mix, in seeded order."""
        classes = self._write_classes() if self.write else self._read_classes()
        drawn = stratified(rng, classes, n)
        if self.write:
            drawn = scoring_order(rng, drawn)
        out = []
        for cls in drawn:
            kind, g, _ = cls
            line = self._make(rng, cls)
            conn = self.conn_of[g] if g else rng.randrange(N_CONNS)
            out.append(Req(0.0, conn, line, kind, g, kind in ("MUTATE", "TRAIN")))
        return out

    def _mutate_ops(self, rng, g):
        """1-10 ops that all apply: added edges are new, deleted edges are
        chords an earlier batch added (so the graph size stays put)."""
        n, edges, chords = self.n_of[g], self.edges[g], self.chords[g]
        ops = {"ADD_EDGES": [], "DEL_EDGES": [], "SET_LABEL": []}
        used, added, touched = set(), [], []
        for _ in range(rng.randint(1, 10)):
            op = rng.choices(["ADD_EDGES", "DEL_EDGES", "SET_LABEL"], [50, 25, 25])[0]
            if op == "DEL_EDGES" and chords:
                e = chords.pop(rng.randrange(len(chords)))
                edges.discard(e)
                used.add(e)
                ops[op].append(f"{e[0]} {e[1]}")
                touched += e
            elif op == "SET_LABEL":
                v = rng.randrange(n)
                ops[op].append(f"{v} {rng.choice(['0', '1', '2', '0.5'])}")
                touched.append(v)
            else:
                while True:
                    u, v = rng.randrange(n), rng.randrange(n)
                    e = (min(u, v), max(u, v))
                    if u != v and e not in edges and e not in used:
                        break
                edges.add(e)
                used.add(e)
                added.append(e)
                ops["ADD_EDGES"].append(f"{u} {v}")
                touched += e
        chords.extend(added)
        self.touched[g] = touched[-4:]
        # A SET_LABEL section takes one vertex and its whole label vector.
        sections = [f"{op} " + " ".join(items)
                    for op, items in ops.items() if items and op != "SET_LABEL"]
        return " ".join(sections + [f"SET_LABEL {item}" for item in ops["SET_LABEL"]])

    def _rng(self, phase):
        # routed_mix replays read_mix's schedule exactly.
        return random.Random(f"{self.name.replace('routed', 'read')}/{self.seed}/{phase}")

    def open_loop(self, phase, seconds):
        """rate x seconds requests at Poisson arrival times (uniform given
        their count), plus the background scrapes: STATS once a second,
        and SAVE every 10 s on write_mix."""
        rng = self._rng(phase)
        reqs = self.requests(rng, round(self.rate * seconds))
        for r, t in zip(reqs, sorted(rng.uniform(0, seconds) for _ in reqs)):
            r.t = t
        reqs += [Req(k + 0.5, k % N_CONNS, "STATS", "STATS") for k in range(int(seconds))]
        if self.write:
            reqs += [Req(k, 0, "SAVE bench.glqs", "SAVE") for k in range(5, int(seconds), 10)]
        reqs.sort(key=lambda r: r.t)
        return reqs

    def closed_loop(self, phase, count):
        """`count` requests of the mix, sent as fast as the outstanding
        limit allows (no arrival times)."""
        return self.requests(self._rng(phase), count)


def stratified(rng, classes, n):
    """n draws from weighted classes, one per 1/n slice of the cumulative
    distribution, shuffled. Each class then gets its expected count to
    within one, so the mix (and its cost) barely varies with the seed."""
    cdf, total = [], 0.0
    for _, w in classes:
        total += w
        cdf.append(total)
    out = [classes[min(bisect.bisect_right(cdf, (i + rng.random()) / n * total),
                       len(classes) - 1)][0] for i in range(n)]
    rng.shuffle(out)
    return out


# Within one graph of write_mix: a MUTATE first, then the PREDICT that
# scores the vertices it touched, then everything else.
SCORING_RANK = {"MUTATE": 0, "PREDICT": 1}


def scoring_order(rng, drawn):
    """Order write_mix's draws as a scoring loop. Each graph's requests of
    one kind are spaced evenly over the schedule, and at the same point a
    MUTATE comes before the PREDICT that scores it. How many reads find
    their graph changed since the last one (and rebuild a colouring or a
    feature matrix) then follows from the counts alone, not from the
    shuffle: in a shuffled schedule that number, and with it the CPU a
    run costs, varied by a tenth between seeds. The seed still picks the
    draws, the mutation ops and vertices, and how graphs interleave."""
    groups = {}
    for cls in drawn:
        groups.setdefault((cls[1], cls[0]), []).append(cls)
    keyed = []
    for (_, kind), items in groups.items():
        for j, cls in enumerate(items):
            keyed.append(((j + 0.5) / len(items), SCORING_RANK.get(kind, 2), rng.random(), cls))
    keyed.sort(key=lambda x: x[:3])
    return [cls for *_, cls in keyed]


def digest(phases, reqs):
    h = hashlib.sha256()
    for phase in phases:
        for line in phase:
            h.update(line.encode() + b"\n")
    for r in reqs:
        h.update(f"{r.t:.6f} {r.conn} {r.line}\n".encode())
    return h.hexdigest()[:16]
