"""Independent checks of the verify reports.

Nothing here imports combspectra.  Graphs arrive as graph6 strings (from the
report rows) or as (n, edge set) pairs read off the program's graph objects,
and every quantity is recomputed from its definition by plain enumeration.
Each check returns a list of problems; an empty list means the row passed.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations, product

# Connected graphs up to isomorphism per order (OEIS A001349).
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def decode_graph6(s: str) -> tuple[int, frozenset]:
    """(n, edges) with edges as (u, v) pairs, 1-based, u < v."""
    vals = [ord(c) - 63 for c in s]
    n = vals[0]
    bits = [(v >> shift) & 1 for v in vals[1:] for shift in range(5, -1, -1)]
    pairs = [(row, col) for col in range(2, n + 1) for row in range(1, col)]
    return n, frozenset(p for p, b in zip(pairs, bits) if b)


def _adjacency(n: int, edges) -> list[set]:
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _distances(n: int, edges) -> list[list]:
    adj = _adjacency(n, edges)
    dist = [[None] * (n + 1) for _ in range(n + 1)]
    for src in range(1, n + 1):
        dist[src][src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[src][w] is None:
                    dist[src][w] = dist[src][u] + 1
                    queue.append(w)
    return dist


def is_connected(n: int, edges) -> bool:
    return all(d is not None for d in _distances(n, edges)[1][1:])


def dominates(n: int, edges, chosen) -> bool:
    adj = _adjacency(n, edges)
    return all(v in chosen or adj[v] & chosen for v in range(1, n + 1))


def domination_number(n: int, edges) -> int:
    """Smallest k such that some k-subset of the vertices dominates."""
    for k in range(1, n + 1):
        if any(dominates(n, edges, set(s)) for s in combinations(range(1, n + 1), k)):
            return k
    raise AssertionError("the whole vertex set always dominates")


def roman_valid(edges, fn: dict) -> bool:
    """Every edge labelled 0 shares a vertex with an edge labelled 2."""
    return all(
        fn[e] != 0 or any(fn[f] == 2 and f != e and set(e) & set(f) for f in edges)
        for e in edges
    )


def edge_roman_number(edges) -> int:
    """Minimum weight of a valid edge function E -> {0,1,2}, by brute force."""
    es = sorted(edges)
    return min(
        sum(combo)
        for combo in product((0, 1, 2), repeat=len(es))
        if roman_valid(es, dict(zip(es, combo)))
    )


def hamiltonian_number(n: int, edges) -> int:
    """Minimum over cyclic vertex orders of the summed graph distances."""
    dist = _distances(n, edges)
    return min(
        sum(dist[order[i]][order[(i + 1) % n]] for i in range(n))
        for order in ((1, *rest) for rest in permutations(range(2, n + 1)))
    )


def dominating_set_of(bijection, n: int, k: int) -> set:
    """The f-image of the k tail vertices, as the domination probe reads it."""
    return {bijection[i - 1] for i in range(n - k + 1, n + 1)}


def decode_roman_witness(weights_json: list, edges) -> dict:
    """Edge function of a {0,-1,y} coloring given as WeightedCompleteGraph
    JSON weights in pair-rank order: -1 -> 0, 0 -> 1, y -> 2."""
    n = 1
    while n * (n - 1) // 2 < len(weights_json):
        n += 1
    pairs = [(lo, hi) for hi in range(2, n + 1) for lo in range(1, hi)]
    code = {(): 1, ((0, 0, "-1", "0"),): 0, ((0, 1, "1", "0"),): 2}
    out = {}
    for pair, terms in zip(pairs, weights_json):
        key = tuple((t["x"], t["y"], t["re"], t["im"]) for t in terms)
        if pair in edges:
            out[pair] = code[key]
        elif key:
            raise ValueError(f"non-edge {pair} carries weight {terms}")
    return out


# -- per-report checks ----------------------------------------------------------


def corpus_problems(rows, orders: range) -> list[str]:
    """Distinct connected graphs per order must match the known counts."""
    seen: dict[int, set] = {n: set() for n in orders}
    problems = []
    for row in rows:
        seen.setdefault(row["n"], set()).add(row["graph"])
    for n, graphs in sorted(seen.items()):
        if n not in orders or len(graphs) != CONNECTED_COUNTS[n]:
            problems.append(f"order {n}: {len(graphs)} graphs, expected {CONNECTED_COUNTS.get(n)}")
        for g6 in graphs:
            if not is_connected(*decode_graph6(g6)):
                problems.append(f"{g6} is not connected")
    return problems


def _shape(row, n, edges) -> list[str]:
    if row["n"] != n or row["m"] != len(edges):
        return [f"{row['graph']}: n/m {row['n']}/{row['m']} != {n}/{len(edges)}"]
    return []


def check_domination(rows) -> list[list[str]]:
    cache: dict[str, int] = {}
    out = []
    for row in rows:
        n, edges = decode_graph6(row["graph"])
        gamma = cache.get(row["graph"])
        if gamma is None:
            gamma = cache[row["graph"]] = domination_number(n, edges)
        holds = row["k"] >= gamma
        problems = _shape(row, n, edges)
        if row["spectral"] != holds or row["oracle"] != holds:
            problems.append(f"{row['graph']} k={row['k']}: gamma={gamma} but row says {row['spectral']}/{row['oracle']}")
        if not (row["witness_ok"] and row["agree"]):
            problems.append(f"{row['graph']} k={row['k']}: row reports disagreement")
        out.append(problems)
    return out


def check_edge_roman(rows) -> list[list[str]]:
    cache: dict[str, int] = {}
    out = []
    for row in rows:
        n, edges = decode_graph6(row["graph"])
        gamma = cache.get(row["graph"])
        if gamma is None:
            gamma = cache[row["graph"]] = edge_roman_number(edges)
        problems = _shape(row, n, edges)
        if row["k"] is None:
            if row["gamma"] != gamma or row["colorings"] != 3 ** len(edges):
                problems.append(f"{row['graph']}: gamma {row['gamma']} != {gamma} or colorings {row['colorings']}")
            if row["weight_identity_failures"]:
                problems.append(f"{row['graph']}: weight identity failed")
        else:
            holds = row["k"] >= gamma
            if row["spectral"] != holds or row["oracle"] != holds or not row["witness_ok"]:
                problems.append(f"{row['graph']} k={row['k']}: gamma={gamma} but row says {row['spectral']}/{row['oracle']}")
        if not row["agree"]:
            problems.append(f"{row['graph']} k={row['k']}: row reports disagreement")
        out.append(problems)
    return out


def check_colorings(rows) -> list[list[str]]:
    out = []
    for row in rows:
        n, edges = decode_graph6(row["graph"])
        want = row["k"] ** len(edges)
        problems = _shape(row, n, edges)
        if not row["family_count"] == row["direct_count"] == row["expected_count"] == want:
            problems.append(f"{row['graph']} k={row['k']}: counts {row['family_count']}/{row['direct_count']} != {want}")
        if not row["agree"]:
            problems.append(f"{row['graph']} k={row['k']}: row reports disagreement")
        out.append(problems)
    return out


def check_fixpoint(rows) -> list[list[str]]:
    out = []
    for row in rows:
        want = 2 ** (row["n"] * (row["n"] - 1) // 2) - 1
        ok = row["count"] == row["expected_count"] == want and row["agree"]
        out.append([] if ok else [f"fixpoint n={row['n']}: count {row['count']} != {want}"])
    return out


def check_hamiltonian(rows) -> list[list[str]]:
    out = []
    for row in rows:
        n, edges = decode_graph6(row["graph"])
        h = hamiltonian_number(n, edges)
        problems = _shape(row, n, edges)
        if row["spectral"] != h or row["oracle"] != h or not row["agree"]:
            problems.append(f"{row['graph']}: h={h} but row says {row['spectral']}/{row['oracle']}")
        degrees = [len(a) for a in _adjacency(n, edges)[1:]]
        if len(edges) == n and set(degrees) == {2} and h != n:
            problems.append(f"{row['graph']}: cycle with h={h} != {n}")
        if len(edges) == n - 1 and h != 2 * n - 2:
            problems.append(f"{row['graph']}: tree with h={h} != {2 * n - 2}")
        out.append(problems)
    return out


ROW_CHECKS = {
    "domination": check_domination,
    "edge-roman": check_edge_roman,
    "colorings": check_colorings,
    "fixpoint": check_fixpoint,
    "hamiltonian": check_hamiltonian,
}


def witness_problems(captured) -> list[str]:
    """Check witnesses read off the characterizations' return values:
    (subject, n, edges, k, verdict JSON) per call."""
    problems = []
    for subject, n, edges, k, verdict in captured:
        if not verdict["holds"]:
            continue
        witness = verdict["witness"]
        if subject == "domination":
            chosen = dominating_set_of(witness["bijection"], n, k)
            if len(chosen) != k or not dominates(n, edges, chosen):
                problems.append(f"n={n} k={k}: witness set {sorted(chosen)} does not dominate")
        elif subject == "edge-roman":
            fn = decode_roman_witness(witness["graph"]["weights"], edges)
            if not roman_valid(sorted(edges), fn) or sum(fn.values()) > k:
                problems.append(f"n={n} k={k}: witness {fn} is not an edge Roman function of weight <= {k}")
    return problems


def self_test() -> None:
    """The checkers against values known by hand."""
    c4 = (4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))
    p3 = (3, frozenset({(1, 2), (2, 3)}))
    p4 = (4, frozenset({(1, 2), (2, 3), (3, 4)}))
    y_on_12 = [[{"x": 0, "y": 1, "re": "1", "im": "0"}], [], []]
    cases = [
        ("gamma(C4)", domination_number(*c4), 2),
        ("edge Roman number of P3", edge_roman_number(p3[1]), 2),
        ("edge Roman number of P4", edge_roman_number(p4[1]), 2),
        ("h(P3)", hamiltonian_number(*p3), 4),
        ("graph6 of C4", decode_graph6("Cl"), c4),
        ("Roman decoding", decode_roman_witness(y_on_12, p3[1]), {(1, 2): 2, (2, 3): 1}),
    ]
    for what, got, want in cases:
        if got != want:
            raise AssertionError(f"checker self-test: {what} is {got}, expected {want}")
