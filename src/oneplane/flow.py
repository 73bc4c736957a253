"""Vertex connectivity by unit-capacity flows on a split-vertex network
(Menger's theorem): κ, the minimum separator behind it, and the searches
they run.  ``analyze`` holds the public entry points.

The network is implicit.  Vertex v has an in-copy and an out-copy, joined
by a unit arc; each edge vw gives arcs v_out -> w_in and w_out -> v_in; a
fan's settled vertices each have an arc from their out-copy to a sink.
Vertices are numbered by BFS position, and ``nbrs[i]`` lists the numbers
of i's neighbors in ascending order, then i itself.  A fan or a flow keeps
its state in two dicts of its own: ``prv[w]`` is the vertex whose out-copy
feeds w's in-copy, and ``nxt[v]`` is where v's out-copy sends its unit
(``SINK`` for a settled vertex that ends a fan path); the source's own
units are read off ``prv``.  An in-copy w_in other than the target's has
one residual arc out: its unit arc while w is unused, else the reverse of
the one edge arc that feeds it.  So a search steps from out-copy to
out-copy, and nothing needs undoing."""

from __future__ import annotations

from bisect import bisect_left

from .core import OperationError, SimpleGraph, once

SINK = -1


@once
def menger(sg: SimpleGraph):
    """κ, N(s) and, if a flow set κ, the BFS order, neighbor table, flow
    state and source of that flow: what ``residual_cut`` reads a minimum
    separator from.

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
    c >= ``best`` settled neighbors, or else when a fan of ``best`` such
    paths exists; only then does the capped s-t flow run, possibly
    lowering ``best``.  The second batch flows between non-adjacent
    neighbors of s.  The BFS is also the connectivity test.

    Each search starts from the free paths the neighbor table lists and
    asks ``augment`` for the rest only: a fan of t holds t's edges to its
    settled neighbors, then t-w-x through each unsettled neighbor w in
    turn, to the first settled x in ``nbrs[w]`` that no path ends at; an
    x-y flow holds x-w-y through each common neighbor w.  Augmenting from
    any valid flow reaches the same capped maximum, so no settle decision
    or κ changes, and every maximum flow leaves the same residual cut.
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

    nbrs = [[*sorted(map(index.__getitem__, adj[v])), i] for i, v in enumerate(order)]
    nb = adj[s]
    best, cut = len(nb), None

    def flow(x, y):
        nonlocal best, cut
        common = set(nbrs[x]).intersection(nbrs[y])
        prv, f = dict.fromkeys(common, x), len(common)
        if f < best:
            f += augment(nbrs, prv, dict.fromkeys(common, y), x, y, best - f)
            if f < best:
                best, cut = f, (order, nbrs, prv, x)

    for i in range(len(nb) + 1, n):     # N(s) comes first in BFS order
        ni = nbrs[i]
        c = bisect_left(ni, i, 0, len(ni) - 1)      # ni ends with i itself
        if c < best:
            prv, nxt = dict.fromkeys(ni[:c], i), dict.fromkeys(ni[:c], SINK)
            for w in ni[c:-1]:
                for x in nbrs[w]:
                    if x >= i or c == best:
                        break
                    if x not in nxt:
                        prv[w], nxt[w], prv[x], nxt[x] = i, x, w, SINK
                        c += 1
                        break
            if c < best and c + augment(nbrs, prv, nxt, i, SINK, best - c) < best:
                flow(0, i)
    nbl = sorted(nb)
    for i, x in enumerate(nbl):
        for y in nbl[i + 1:]:
            if y not in adj[x]:
                flow(index[x], index[y])
    return best, nb, cut


def augment(nbrs: list[list[int]], prv: dict[int, int], nxt: dict[int, int],
            src: int, dst: int, cap: int) -> int:
    """Add unit paths from src's out-copy to the flow state ``prv``/``nxt``
    (changed in place) until ``cap`` are found or none is left; returns
    their number.  To dst's in-copy, they are internally disjoint src-dst
    paths: one never returns to src, so the unit arcs of src and dst stay
    unused.  With ``dst`` = ``SINK`` they form a fan of src, ending at
    settled vertices, those numbered 1 to src - 1.

    Each path is found depth-first, neighbors in ascending order and the
    reverse unit arc last, so a fan path heads for the lowest-numbered
    settled vertex.  From v_out the arc to w_in leads on to w_out if w is
    unused, else back to the out-copy that feeds w (v's own, via its
    reverse unit arc, when w = v): the out-copy ``prv.get(w, w)``.  A
    search marks only the out-copies it enters, so it costs what it
    explores.  A flow that stops below ``cap`` is maximum, and every
    maximum flow leaves the same nodes reachable from src, so
    ``residual_cut`` does not depend on the search order."""
    end = src if dst == SINK else 0
    get = prv.get
    found = 0
    while found < cap:
        seen = {src}
        path, via = [src], []           # out-copies entered; the w taken from each
        todo = [iter(nbrs[src])]
        while todo:
            for w in todo[-1]:
                y = get(w, w)
                if y not in seen:
                    break
            else:
                todo.pop()
                path.pop()
                if via:
                    via.pop()
                continue
            via.append(w)
            path.append(y)
            if y == dst or 0 < y < end:
                break
            seen.add(y)
            todo.append(iter(nbrs[y]))
        else:
            break
        for v, w in zip(path, via):
            if w == v:                  # v's unit is taken back
                del prv[v], nxt[v]
                continue
            if w != dst:
                prv[w] = v
            if v != src:
                nxt[v] = w
        if y != dst:
            nxt[y] = SINK
        found += 1
    return found


def residual_cut(order: list[int], nbrs: list[list[int]], prv: dict[int, int],
                 src: int) -> frozenset[int]:
    """Vertices whose in-copy, but not out-copy, is reachable from src's
    out-copy once a maximum flow in ``prv`` has stopped.  Edge arcs count
    as unbounded (no flow puts two units on one), so the cut they leave
    holds only unit arcs: a minimum separator.  The target's in-copy is
    not reachable, so its reverse arcs are never followed."""
    ins, outs = set(), {src}
    queue = [src]
    for v in queue:
        for w in nbrs[v]:               # w = v: v_in, if v is used
            ins.add(w)
            y = prv.get(w, w)
            if y not in outs:
                outs.add(y)
                queue.append(y)
    return frozenset(order[i] for i in ins - outs)
