"""Vertex connectivity by unit-capacity flows on a split-vertex network
(Menger's theorem): κ, the minimum separator behind it, and the searches
they run.  ``analyze`` holds the public entry points."""

from __future__ import annotations

from typing import NamedTuple

from .core import OperationError, SimpleGraph, once


@once
def menger(sg: SimpleGraph):
    """κ, N(s) and, if a flow set κ, the network, source and residual
    capacities of that flow: what ``min_vertex_separator`` reads a
    minimum separator from.

    Fix a minimum-degree vertex s; κ <= deg(s) = ``best``, and N(s)
    separates s from any non-neighbor.  A minimum cut either misses s
    (some t outside N[s] has κ(s, t) = κ) or contains s (two non-adjacent
    neighbors of s are split by it).  The first batch visits each t outside
    N[s] in BFS order from s and settles it, i.e. learns κ(s, t) >= ``best``;
    N(s) counts as settled from the start, so the settled vertices are
    those before t in BFS order, s excepted.  A separator S of s and t with
    |S| < ``best`` would miss one of ``best`` internally disjoint paths
    from t to distinct settled vertices, and so join t to s, directly or
    through a settled end.  So t settles without an s-t flow when it has
    ``best`` settled neighbors, or else when a fan of ``best`` such paths
    exists (``fan``); only then does the capped s-t flow run, possibly
    lowering ``best``.  The second batch flows between non-adjacent
    neighbors of s.  The BFS is also the connectivity test, and every
    search runs on one split-vertex network, indexed by BFS position and
    built once per call.
    """
    n = sg.order
    if n < 2:
        raise OperationError("BAD_PARAMETER", "connectivity needs at least 2 vertices")
    adj = sg.adjacency
    _, s = min((len(ws), v) for v, ws in adj.items())
    order, index = [s], {s: 0}
    for v in order:
        for w in sorted(adj[v]):
            if w not in index:
                index[w] = len(order)
                order.append(w)
    if len(order) < n:
        raise OperationError("DISCONNECTED", "graph is not connected")

    net = split_network(sg, index)
    nb = adj[s]
    best, cut = len(nb), None
    settled = net.cap0[:]               # sink arcs of settled vertices open

    def flow(x, y):
        nonlocal best, cut
        res = net.cap0[:]
        f = augment(net, res, 2 * index[x] + 1, 2 * index[y], best)
        if f < best:
            best, cut = f, (net, 2 * index[x] + 1, res)

    for i in range(1, len(nb) + 1):     # N(s) comes first in BFS order
        settled[4 * i + 2] = 1          # v_out -> sink
    for i in range(len(nb) + 1, n):
        t = order[i]
        if (sum(index[w] < i for w in adj[t]) < best
                and fan(net, settled, 2 * i + 1, best) < best):
            flow(s, t)
        settled[4 * i + 2] = 1
    nbl = sorted(nb)
    for i, x in enumerate(nbl):
        for y in nbl[i + 1:]:
            if y not in adj[x]:
                flow(x, y)
    return best, nb, cut


class SplitNetwork(NamedTuple):
    """Residual network of a graph with every vertex split in two: node 2i
    is the in-copy of the vertex with ``index`` i and 2i+1 its out-copy,
    joined by a unit arc (arc 4i); each edge uv gives unit arcs u_out->v_in
    and v_out->u_in (an inner vertex passes one unit, so no edge arc needs
    more), numbered from 4n in order of (tail, head) index.  Node ``sink``
    = 2n is fed by an arc from every out-copy (arc 4i+2) of capacity 0,
    which a fan opens for its settled vertices: fed from the out-copy, a
    settled vertex ends at most one path.
    Arc ``a`` runs to ``head[a]``, its reverse is ``a ^ 1``, and
    ``arcs[x]`` lists the arcs leaving node x by the index of their heads:
    at an in-copy its own unit arc first, at an out-copy its sink arc first
    and its reverse unit arc last."""

    index: dict[int, int]
    head: list[int]
    cap0: list[int]
    arcs: tuple[tuple[int, ...], ...]

    @property
    def sink(self) -> int:
        return len(self.arcs) - 1


def split_network(sg: SimpleGraph, index: dict[int, int]) -> SplitNetwork:
    """The network of ``sg`` with its vertices numbered by ``index``, which
    lists them in that order."""
    n = len(index)
    adj = sg.adjacency
    nbrs = [sorted(map(index.__getitem__, adj[v])) for v in index]
    head = [x for i in range(n) for x in (2 * i + 1, 2 * i, 2 * n, 2 * i + 1)]
    head += [x for i, ns in enumerate(nbrs) for j in ns for x in (2 * j, 2 * i + 1)]
    ins = [[4 * i] for i in range(n)]
    outs = []
    a = 4 * n
    for i, ns in enumerate(nbrs):
        outs.append((4 * i + 2, *range(a, a + 2 * len(ns), 2), 4 * i + 1))
        for j in ns:                    # i ascends, so each in-list does
            ins[j].append(a + 1)
            a += 2
    arcs = tuple(x for i in range(n) for x in (tuple(ins[i]), outs[i]))
    return SplitNetwork(index, head, [1, 0, 0, 0] * n + [1, 0] * (2 * sg.size),
                         arcs + ((),))


def fan(net: SplitNetwork, res: list[int], src: int, cap: int) -> int:
    """The number of unit paths, up to ``cap``, that leave node ``src`` and
    can reach the sink together through the arcs open in ``res``: from
    t_out, a fan of t to distinct settled vertices.  Each path is found
    depth-first in arc order, so it heads for the lowest-indexed settled
    vertex; the paths are undone before returning, so ``res`` is
    unchanged."""
    return _paths(net, res, src, net.sink, cap, keep=False)


def augment(net: SplitNetwork, res: list[int], src: int, dst: int, cap: int) -> int:
    """Augment unit flows from node ``src`` to node ``dst`` in the residual
    capacities ``res`` (changed in place) until ``cap`` paths are found or
    none is left; returns their number.  Paths are found as a fan's are,
    and kept.  From an out-copy to an in-copy (s_out to t_in) this counts
    internally disjoint s-t paths: a path never returns to src, so the unit
    arcs of s and t stay unused.  A flow that stops below ``cap`` is
    maximum, and every maximum flow leaves the same nodes reachable from
    src, so ``residual_cut`` does not depend on the search order."""
    return _paths(net, res, src, dst, cap, keep=True)


def _paths(net: SplitNetwork, res: list[int], src: int, dst: int, cap: int,
           keep: bool) -> int:
    """Up to ``cap`` unit paths from ``src`` to ``dst`` through the arcs
    open in ``res``, each found depth-first in arc order and applied to
    ``res``; unless ``keep``, they are taken back before returning.  A
    search marks only the nodes it enters, so it costs what it explores."""
    head, arcs = net.head, net.arcs
    paths: list[list[int]] = []
    while len(paths) < cap:
        seen = {src}
        path: list[int] = []            # arcs from src to the top of todo
        todo = [iter(arcs[src])]
        while todo:
            for a in todo[-1]:
                if res[a] and head[a] not in seen:
                    break
            else:
                todo.pop()
                if path:
                    path.pop()
                continue
            y = head[a]
            path.append(a)
            if y == dst:
                break
            seen.add(y)
            todo.append(iter(arcs[y]))
        else:
            break
        for a in path:
            res[a] -= 1
            res[a ^ 1] += 1
        paths.append(path)
    if not keep:
        for path in paths:
            for a in path:
                res[a] += 1
                res[a ^ 1] -= 1
    return len(paths)


def residual_cut(net: SplitNetwork, src: int, res: list[int]) -> frozenset[int]:
    """Vertices whose in-copy, but not out-copy, is reachable from ``src``
    once a maximum flow in ``res`` has stopped.  Edge arcs count as
    unbounded (no flow puts two units on one), so the cut they leave holds
    only vertex arcs: a minimum separator."""
    head, arcs = net.head, net.arcs
    edge0 = 4 * len(net.index)
    seen = [False] * len(arcs)
    seen[src] = True
    queue = [src]
    for x in queue:
        for a in arcs[x]:
            if (res[a] or (a >= edge0 and not a & 1)) and not seen[head[a]]:
                seen[head[a]] = True
                queue.append(head[a])
    return frozenset(v for v, i in net.index.items()
                     if seen[2 * i] and not seen[2 * i + 1])
