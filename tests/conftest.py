"""Shared fixtures: micro graphs, planted-fixture specs, random generators."""

import builtins
import importlib
import math
import random
from itertools import accumulate, combinations

import pytest

from commbench import Graph, PlantedPartitionSpec, generate_planted

# Acceptance results are gathered here so a terminal-summary hook can print
# one line per criterion even though pytest captures test stdout.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


BARBELL6_EDGES = [
    (0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
    (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0),
    (2, 3, 1.0),
]

# name -> (n, edges, allow_self_loops); all verified exhaustively solvable
MICRO_GRAPHS = {
    "path4": (4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], False),
    "star5": (5, [(0, i, 1.0) for i in range(1, 5)], False),
    "cycle6": (6, [(i, (i + 1) % 6, 1.0) for i in range(6)], False),
    "k4": (4, [(i, j, 1.0) for i, j in combinations(range(4), 2)], False),
    "barbell6": (6, BARBELL6_EDGES, False),
    "wpath3": (3, [(0, 1, 2.0), (1, 2, 0.5)], False),
    "looptri": (3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (0, 0, 1.5)], True),
    "twotri": (6, BARBELL6_EDGES[:6], False),
    "kite7": (
        7,
        [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0),
         (3, 4, 1.0), (4, 5, 1.0), (4, 6, 1.0), (5, 6, 1.0)],
        False,
    ),
}


def make_micro(name):
    n, edges, loops = MICRO_GRAPHS[name]
    return Graph([str(i) for i in range(n)], edges, allow_self_loops=loops)


@pytest.fixture
def barbell6():
    return make_micro("barbell6")


def random_graph(rng, max_n=10, allow_self_loops=False, weighted=False):
    """Connectedness not required; at least one edge unless n == 1."""
    n = rng.randint(2, max_n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                w = rng.choice([0.5, 1.0, 1.0, 2.5]) if weighted else 1.0
                edges.append((i, j, w))
        if allow_self_loops and rng.random() < 0.2:
            edges.append((i, i, rng.choice([0.5, 1.0]) if weighted else 1.0))
    if not edges:
        edges.append((0, 1, 1.0))
    return Graph([str(i) for i in range(n)], edges, allow_self_loops=allow_self_loops), edges


def tie_prone_graphs(rng):
    """(name, graph) cases rich in exact gain and fitness ties.

    Random graphs with unit, small-integer and float weights, plus symmetric
    shapes (cycles, complete bipartite graphs, copies of one clique, grids)
    whose equal weights make many candidates score exactly alike.
    """
    cases = []
    for k in range(36):
        n = rng.randint(3, 40)
        p = rng.choice([0.1, 0.25, 0.5])
        kind = ("unit", "integer", "float")[k % 3]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    if kind == "unit":
                        w = 1.0
                    elif kind == "integer":
                        w = float(rng.randint(1, 3))
                    else:
                        w = rng.uniform(0.1, 3.0)
                    edges.append((i, j, w))
        if not edges:
            edges.append((0, 1, 1.0))
        cases.append((f"{kind}{k}", Graph([str(i) for i in range(n)], edges)))
    for n in (5, 8, 13):
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        cases.append((f"cycle{n}", Graph([str(i) for i in range(n)], edges)))
    for a, b in ((2, 5), (3, 3), (4, 6)):
        edges = [(i, a + j, 2.0) for i in range(a) for j in range(b)]
        cases.append((f"k{a},{b}", Graph([str(i) for i in range(a + b)], edges)))
    for copies, size in ((3, 4), (4, 5)):
        edges = []
        for c in range(copies):
            members = range(c * size, (c + 1) * size)
            edges += [(i, j, 1.0) for i, j in combinations(members, 2)]
        # one bridge per neighbouring pair of copies, all alike
        edges += [(c * size, (c + 1) * size, 1.0) for c in range(copies - 1)]
        n = copies * size
        cases.append((f"{copies}xk{size}", Graph([str(i) for i in range(n)], edges)))
    for rows, cols in ((3, 4), (5, 5)):
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1, 1.0))
                if r + 1 < rows:
                    edges.append((v, v + cols, 1.0))
        cases.append((f"grid{rows}x{cols}", Graph([str(i) for i in range(rows * cols)], edges)))
    return cases


def float_planted_graph(seed):
    """A 300-node, 6-group planted graph with weights drawn from [0.1, 3)."""
    spec = PlantedPartitionSpec(n=300, groups=6, p_in=0.15, p_out=0.01, seed=seed)
    graph = generate_planted(spec)[0]
    rng = random.Random(seed)
    edges = [(i, j, rng.uniform(0.1, 3.0)) for i, j, _ in graph.edges()]
    return Graph(graph.labels, edges)


def near_equal_graph(rng):
    """A dense random graph whose weights differ only in their last bits.

    Nodes 0-3 form a clique of weight 2 with unit edges out; every other
    weight is one base value moved up by 0 to 3 units in the last place, so
    frontier weights tie or nearly tie and the rounding of the fitness
    decides between them. A self-loop on every node lifts all degrees to one
    integer, so that nodes share a degree.
    """
    n = rng.randint(8, 16)
    base = rng.uniform(0.5, 2.0)
    edges = []
    for i, j in combinations(range(n), 2):
        if j < 4:
            edges.append((i, j, 2.0))
        elif rng.random() < 0.5:
            w = 1.0 if i < 4 else base
            for _ in range(0 if i < 4 else rng.randint(0, 3)):
                w = math.nextafter(w, math.inf)
            edges.append((i, j, w))
    sums = [sum(w for _, w in adj) for adj in Graph([str(i) for i in range(n)], edges).adj]
    degree = math.floor(max(sums)) + 1.0
    for i, s in enumerate(sums):
        loop = (degree - s) / 2.0
        while s + 2.0 * loop != degree:
            loop = math.nextafter(loop, math.inf if s + 2.0 * loop < degree else -math.inf)
        edges.append((i, i, loop))
    return Graph([str(i) for i in range(n)], edges, allow_self_loops=True)


def heavy_tailed_graph(n, seed):
    """A degree-corrected planted graph with heavy-tailed degrees and blocks.

    Karrer and Newman's degree-corrected block model (PRE 2011), sampled
    Chung-Lu style: block sizes follow a 1/s^2 law on 10..500, expected
    degrees a power law with exponent 2.5 on [5, 1000], and each node's
    expected degree splits 0.8 inside its block and 0.2 across. Endpoints
    are drawn in proportion to those shares; loops, repeats and draws that
    land on the wrong side of a block boundary are dropped.
    """
    rng = random.Random(seed)
    sizes = range(10, 501)
    size_weights = list(accumulate(1.0 / s**2 for s in sizes))
    blocks = []
    while sum(blocks) < n:
        blocks += rng.choices(sizes, cum_weights=size_weights)
    blocks[-1] -= sum(blocks) - n
    block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
    # inverse-transform draws from the power law truncated to [lo, hi]
    lo, hi = 5.0**-1.5, 1000.0**-1.5
    degree = [(lo + rng.random() * (hi - lo)) ** (-1 / 1.5) for _ in range(n)]
    edges = set()

    def draw(nodes, share, inside):
        weights = [share * degree[v] for v in nodes]
        cum = list(accumulate(weights))
        for _ in range(round(cum[-1] / 2)):
            i, j = rng.choices(nodes, cum_weights=cum, k=2)
            if i != j and (block_of[i] == block_of[j]) == inside:
                edges.add((min(i, j), max(i, j)))

    start = 0
    for size in blocks:
        draw(range(start, start + size), 0.8, True)
        start += size
    draw(range(n), 0.2, False)
    return Graph([str(v) for v in range(n)], [(i, j, 1.0) for i, j in sorted(edges)])


class CountingList(list):
    """A list that counts how often one of its items is read by index."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


def random_partition(rng, n):
    k = rng.randint(1, n)
    assignment = [rng.randrange(k) for _ in range(n)]
    return assignment


def random_cover_communities(rng, n):
    count = rng.randint(1, 12)
    seen = set()
    out = []
    for _ in range(count):
        size = rng.randint(1, max(1, n // 2))
        fs = frozenset(rng.sample(range(n), size))
        if fs not in seen:
            seen.add(fs)
            out.append(fs)
    return out


# pinned planted fixtures (see the four-group/hierarchy acceptance criteria)
FOUR_GROUP = dict(n=128, groups=4, p_in=14 / 31, p_out=2 / 96)

HIERARCHY = PlantedPartitionSpec(
    n=32, groups=4, p_in=1.0, p_out=0.02, seed=50, hierarchy=True, p_mid=0.45
)

SCALE = PlantedPartitionSpec(n=10000, groups=50, p_in=0.07, p_out=0.0006, seed=7)


def four_group_spec(seed):
    return PlantedPartitionSpec(seed=seed, **FOUR_GROUP)


@pytest.fixture
def rng():
    return random.Random(20260816)


@pytest.fixture
def compensated_sum(monkeypatch):
    """A compensated built-in ``sum`` of floats, as from Python 3.12 on, in the
    modules whose float sums reach pinned outputs; integer sums stay exact."""

    def compensated(values, start=0):
        values = [start, *values]
        if all(isinstance(v, int) for v in values):
            return builtins.sum(values)
        return math.fsum(values)

    for name in ("bench", "coverops", "graph"):
        module = importlib.import_module(f"commbench.{name}")
        monkeypatch.setattr(module, "sum", compensated, raising=False)
