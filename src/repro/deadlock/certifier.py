"""General deadlock certification via ascending channel orders.

Mendlovic & Matias (arXiv 2503.04583) give a *necessary and sufficient*
condition for deadlock-free routing on arbitrary graphs; in its
operational form for deterministic routing it is an ordering criterion:

    A route set is deadlock-free **iff** the channels can be assigned an
    injective order such that every route traverses its channels in
    strictly ascending order.

Sufficiency is the classic Dally-Seitz argument (an ascending order is a
witness that no cyclic wait can close); necessity follows because any
acyclic channel dependency graph admits a topological order, and that
order ascends along every route.  The value over a bare cycle check is
the *certificate*: a concrete channel order that anyone can re-verify in
one linear pass over the routes, without rebuilding the dependency graph
(and without networkx).  On refutation the certifier returns a
dependency cycle instead -- the counterexample witness.

This module is the one certification core.  Kahn's algorithm runs over a
dependency relation from one of two sources: the routing tables
themselves (:func:`_table_relation`, no route enumeration -- the default)
or an explicit route set (:func:`_route_relation`).
:func:`repro.deadlock.analysis.certify_deadlock_free` is a view of the
same result.

The same ordering view yields constructive *synthesis* for arbitrary
connected fabrics: orient channels up*/down* from a BFS root, rank up
channels before down channels (descending levels first, then ascending),
and every up-then-down route ascends by construction.  That replaces
per-topology disable-set searches with one principled recipe
(:func:`synthesize_ordered_routing`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable
from dataclasses import dataclass

import numpy as np

from repro.network.graph import Network
from repro.routing.base import (
    Route,
    RouteSet,
    RoutingTable,
    all_pairs_routes,
    routes_for_pairs,
)
from repro.routing.validate import sample_pairs, validate_routing

__all__ = [
    "ChannelOrderCertificate",
    "OrderCertification",
    "certify_channel_order",
    "channel_order_for",
    "synthesize_ordered_routing",
]


@dataclass(frozen=True)
class ChannelOrderCertificate:
    """An injective channel order witnessing deadlock freedom.

    ``order`` lists channels from lowest to highest rank: link ids, or
    ``(link id, vc)`` pairs for a VC relation.  A route set is certified
    when every route's channel sequence strictly ascends in this order.
    :meth:`verify` re-checks a link-id order in a single pass over the
    routes -- independent of how the order was produced.
    """

    order: tuple[Hashable, ...]

    def ranks(self) -> dict[Hashable, int]:
        """Channel id -> position in the order."""
        return {channel: i for i, channel in enumerate(self.order)}

    def verify(self, routes: RouteSet) -> list[str]:
        """Re-check the certificate; returns violation descriptions.

        Empty means every route ascends (the certificate is valid).  A
        channel missing from the order is a violation too: the order must
        cover every channel the routes use.
        """
        rank = self.ranks()
        violations: list[str] = []
        for route in routes:
            prev = -1
            for link_id in route.links:
                r = rank.get(link_id)
                if r is None:
                    violations.append(
                        f"{route.src}->{route.dst}: channel {link_id} not in order"
                    )
                    break
                if r <= prev:
                    violations.append(
                        f"{route.src}->{route.dst}: channel {link_id} "
                        f"(rank {r}) does not ascend"
                    )
                    break
                prev = r
        return violations


@dataclass(frozen=True)
class OrderCertification:
    """Outcome of :func:`certify_channel_order`.

    Mirrors :class:`repro.deadlock.analysis.CertificationResult` (so the
    two certifiers can be cross-validated field by field) and adds the
    witness: an ascending-order certificate when deadlock-free, a
    dependency cycle when not.
    """

    network: str
    deliverable: bool
    deadlock_free: bool
    num_channels: int
    num_dependencies: int
    certificate: ChannelOrderCertificate | None
    counterexample: tuple[Hashable, ...] | None
    failures: tuple[str, ...]

    @property
    def certified(self) -> bool:
        """True when routing is complete, loop-free and deadlock-free."""
        return self.deliverable and self.deadlock_free


def _dependency_edges(
    routes: RouteSet, vc_assign: Callable[[Route], list[int]] | None = None
) -> tuple[list[Hashable], dict[Hashable, set[Hashable]]]:
    """Channels used by the routes and their held -> waited dependencies.

    Channels are link ids, or ``(link id, vc)`` pairs when ``vc_assign``
    gives the virtual channel each route uses on each of its links.
    """
    channels: dict[Hashable, None] = {}  # insertion-ordered set
    succ: dict[Hashable, set[Hashable]] = {}
    for route in routes:
        path = route.links if vc_assign is None else list(zip(route.links, vc_assign(route)))
        for channel in path:
            channels.setdefault(channel)
        for held, waited in zip(path, path[1:]):
            succ.setdefault(held, set()).add(waited)
    return list(channels), succ


@dataclass(frozen=True)
class _Relation:
    """A deduplicated channel dependency relation over dense channel ids.

    ``labels[i]`` names channel ``i``.  Labels are sorted, so ascending id
    is the sorted tie-break Kahn's algorithm uses.  ``held[k] ->
    waited[k]`` lists each dependency once, sorted by (held, waited).
    """

    labels: list[Hashable]
    held: np.ndarray
    waited: np.ndarray


_EMPTY = _Relation([], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _route_relation(
    routes: RouteSet, vc_assign: Callable[[Route], list[int]] | None = None
) -> _Relation:
    """The dependency relation of an explicit route set."""
    channels, succ = _dependency_edges(routes, vc_assign)
    labels = sorted(channels)
    ids = {channel: i for i, channel in enumerate(labels)}
    edges = sorted((ids[held], ids[waited]) for held, out in succ.items() for waited in out)
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return _Relation(labels, edges[:, 0], edges[:, 1])


#: table cells per destination block of :func:`_table_relation`; bounds its
#: ``routers x block`` working arrays at any fabric size
_BLOCK_CELLS = 1 << 22


def _table_relation(net: Network, tables: RoutingTable) -> _Relation | None:
    """The all-pairs dependency relation, read straight off the tables.

    Gathers the lowered table's ``router x destination`` links one block
    of destinations at a time (the whole matrix is never held), without
    enumerating routes:

    * **Deliverability.**  Each cell steps to the next router, to DONE
      (the link ejects at the destination) or to FAIL (no entry, an
      uncabled port, or arrival at another end node).  Pointer doubling
      runs every walk to its end; a walk that never reaches DONE or FAIL
      is a table loop.  Every source's injection router must reach DONE.
      With destination-indexed tables a terminating walk is a simple
      path, so this is exactly :func:`validate_routing`'s all-pairs check.
    * **Dependencies.**  The routers on some route to ``d`` are marked
      forward from the sources' injection routers.  A marked router ``u``
      forwarding to router ``v`` holds ``table[u][d]`` while waiting for
      ``table[v][d]``, and every source ``s != d`` holds its injection
      link while waiting for its first table hop.  A dependency is
      recorded as (held link, output port of the router it enters), a
      small dense flag matrix, so no edge list is ever sorted.

    Link indices follow ``sorted(link_ids)``, so channel ids sort exactly
    like the link-id strings the route-set path sorts.  Returns None when
    some ordered end pair is undeliverable.
    """
    idx = net.indices()
    n_routers, n_ends, n_links = len(idx.router_ids), len(idx.end_ids), len(idx.link_ids)
    if n_ends < 2:
        return _EMPTY
    lowered = tables.lower(net)  # vc_count 1: base channel == link index
    # the LUT without its sentinel column: router x port -> link
    out_link = lowered.port_ch[:, :-1]
    num_ports = out_link.shape[1]
    # Per link: the router / end node it enters and its output port.  The
    # extra last slot (-1) is what a -1 ("no link") table cell indexes.
    to_router = np.full(n_links + 1, -1, dtype=np.int32)
    to_end = np.full(n_links + 1, -1, dtype=np.int32)
    for li, lid in enumerate(idx.link_ids):
        dst = net.link(lid).dst
        to_router[li] = idx.router_index.get(dst, -1)
        to_end[li] = idx.end_index.get(dst, -1)
    port = np.zeros(n_links + 1, dtype=np.int32)
    cabled = np.nonzero(out_link >= 0)
    port[out_link[cabled]] = cabled[1]
    injection = np.full(n_ends, -1, dtype=np.int32)
    for e, end in enumerate(idx.end_ids):
        out = net.out_links(end)
        if len(out) == 1:
            injection[e] = idx.link_index[out[0].link_id]

    depends = np.zeros((n_links, num_ports), dtype=bool)
    done, fail = np.int32(n_routers), np.int32(n_routers + 1)
    first_router = to_router[injection][:, None]
    first_end = to_end[injection][:, None]
    sources = np.arange(n_ends)[:, None]
    block = max(1, _BLOCK_CELLS // (n_routers + 2))
    for lo in range(0, n_ends, block):
        dests = np.arange(lo, min(lo + block, n_ends))
        width = dests.size
        link = lowered.columns(lo, lo + width)
        hop = to_router[link]
        step = np.where(hop >= 0, hop, np.where(to_end[link] == dests, done, fail))
        final = np.vstack([step, np.full((1, width), done), np.full((1, width), fail)])
        for _ in range(n_routers.bit_length()):  # 2**k > n_routers steps
            if not (final[:n_routers] < n_routers).any():
                break  # every walk has ended
            final = np.take_along_axis(final, final, axis=0)
        start = np.where(
            first_router >= 0, first_router, np.where(first_end == dests, done, fail)
        )
        pair = sources != dests
        if not (np.take_along_axis(final, start, axis=0)[pair] == done).all():
            return None

        # cells are flat (router * width + column); next_cell takes one hop
        column = np.arange(width)
        flat_link = link.ravel()
        next_cell = np.where(hop >= 0, hop * width + column, -1).ravel()
        routed = pair & (start < n_routers)
        first_cell = (start * width + column)[routed]
        held = np.broadcast_to(injection[:, None], start.shape)[routed]
        depends[held, port[flat_link[first_cell]]] = True

        on_route = np.zeros(n_routers * width, dtype=bool)
        on_route[first_cell] = True
        cells = np.flatnonzero(on_route)
        while cells.size:
            cells = next_cell[cells]
            cells = cells[cells >= 0]
            cells = cells[~on_route[cells]]
            on_route[cells] = True
        cells = np.flatnonzero(on_route & (next_cell >= 0))
        depends[flat_link[cells], port[flat_link[next_cell[cells]]]] = True

    held, out = np.nonzero(depends)
    waited = out_link[to_router[held], out]
    # every channel a route uses is a source's injection link or waited on
    channels = np.union1d(injection, waited)
    order = np.lexsort((waited, held))
    return _Relation(
        [idx.link_ids[i] for i in channels.tolist()],
        np.searchsorted(channels, held[order]),
        np.searchsorted(channels, waited[order]),
    )


def _extract_cycle(stalled: np.ndarray, relation: _Relation) -> list[int]:
    """Extract one dependency cycle from the channels Kahn could not order.

    Walks *predecessors*, smallest id first: every stalled channel has at
    least one stalled predecessor (that is why it stalled), so the
    backward walk never dead ends and must revisit a channel -- unlike
    the forward walk, which can fall off the cycle into an ordered tail.
    """
    held, waited = relation.held, relation.waited
    inner = stalled[held] & stalled[waited]
    first_pred = np.full(len(relation.labels), len(relation.labels))
    np.minimum.at(first_pred, waited[inner], held[inner])
    seen: dict[int, int] = {}
    path: list[int] = []
    current = int(np.flatnonzero(stalled)[0])  # deterministic entry point
    while current not in seen:
        seen[current] = len(path)
        path.append(current)
        current = int(first_pred[current])
    cycle = path[seen[current] :]
    cycle.reverse()  # predecessor order back to held -> waited order
    return cycle


def _kahn(relation: _Relation) -> tuple[list[int] | None, list[int] | None]:
    """Kahn's topological sort, smallest ready id first.

    Returns ``(order, None)`` when the relation is acyclic and
    ``(None, cycle)`` when it is not.
    """
    n = len(relation.labels)
    indegree = np.bincount(relation.waited, minlength=n).tolist()
    starts = np.concatenate(([0], np.cumsum(np.bincount(relation.held, minlength=n))))
    starts = starts.tolist()
    targets = relation.waited.tolist()
    ready = deque(c for c in range(n) if indegree[c] == 0)
    order: list[int] = []
    while ready:
        channel = ready.popleft()
        order.append(channel)
        for waited in targets[starts[channel] : starts[channel + 1]]:
            indegree[waited] -= 1
            if indegree[waited] == 0:
                ready.append(waited)
    if len(order) == n:
        return order, None
    return None, _extract_cycle(np.array(indegree) > 0, relation)


def certify_channel_order(
    net: Network,
    tables: RoutingTable | None = None,
    routes: RouteSet | None = None,
    pairs: list[tuple[str, str]] | None = None,
    sample: int | None = None,
    seed: int = 0,
    vc_assign: Callable[[Route], list[int]] | None = None,
) -> OrderCertification:
    """Certify a routing by constructing an ascending channel order.

    Builds the dependency relation and runs Kahn's topological sort with
    a deterministic (sorted) tie-break: completion yields the certificate
    order, a stall yields a dependency cycle as the counterexample.
    Either answer carries an independently checkable witness -- that is
    what makes this strictly stronger, as evidence, than the boolean CDG
    cycle check it agrees with.

    With ``tables`` alone the relation comes straight from the lowered
    table matrix (:func:`_table_relation`): no route set is built, which
    is what keeps certification cheap at depth 3 and on every recovery
    reroute.  Any other argument selects the route-set relation.

    Args:
        net: the network.
        tables: routing tables; required unless ``routes`` is given.
        routes: explicit route set (e.g. a non-minimal scheme that
            destination-indexed tables cannot encode).
        pairs: restrict the deliverability walk to these pairs.
        sample: with ``tables`` and no explicit pairs/routes, validate (and
            route) a deterministic seeded sample of this many pairs instead
            of the quadratic all-pairs walk (see
            :func:`repro.routing.validate.validate_routing`).
        seed: sample seed.
        vc_assign: ``f(route) -> list[int]``, the virtual channel a route
            uses on each of its links; channels become ``(link id, vc)``
            pairs (e.g. the VC ladders of the modern-topology pack).
    """
    if tables is None and routes is None:
        raise ValueError("certify_channel_order needs tables or routes")
    failures: tuple[str, ...] = ()
    if routes is None and pairs is None and sample is None and vc_assign is None:
        relation = _table_relation(net, tables)
        deliverable = relation is not None
        if not deliverable:
            failures = tuple(validate_routing(net, tables).failures[:10])
            relation = _EMPTY
    else:
        deliverable = True
        if tables is not None:
            report = validate_routing(net, tables, pairs=pairs, sample=sample, seed=seed)
            deliverable = report.ok
            failures = tuple(report.failures[:10])
        if routes is None:
            if not deliverable:
                routes = RouteSet()
            elif pairs is None and sample is None:
                routes = all_pairs_routes(net, tables)
            else:
                walk = pairs if pairs is not None else sample_pairs(net, sample, seed)
                routes = routes_for_pairs(net, tables, walk)
        relation = _route_relation(routes, vc_assign)

    order, cycle = _kahn(relation)
    labels = relation.labels
    return OrderCertification(
        network=net.name,
        deliverable=deliverable,
        deadlock_free=cycle is None,
        num_channels=len(labels),
        num_dependencies=len(relation.held),
        certificate=(
            ChannelOrderCertificate(tuple(labels[i] for i in order))
            if order is not None
            else None
        ),
        counterexample=tuple(labels[i] for i in cycle) if cycle is not None else None,
        failures=failures,
    )


def channel_order_for(net: Network, root: str | None = None) -> dict[str, int]:
    """The a-priori up*/down* channel ranking for an arbitrary fabric.

    Channels toward the BFS root ("up") rank before channels away from it
    ("down"); within each class, ranks follow the levels a legal route
    visits them in (up channels from the deepest tail upward, down
    channels from the root downward).  Injection channels rank below
    everything, ejection channels above, so full end-to-end routes ascend.
    Any up*-then-down* route strictly ascends in this ranking -- the
    closed-form certificate behind :func:`synthesize_ordered_routing`.
    """
    from repro.routing.tree_routing import _bfs_levels

    routers = net.router_ids()
    if not routers:
        raise ValueError("network has no routers")
    root = root or min(routers)
    levels = _bfs_levels(net, root)

    def tail(link) -> tuple:
        return (levels[link.src], link.src)

    def is_up(link) -> bool:
        return (levels[link.dst], link.dst) < tail(link)

    transit = [
        l
        for l in net.links()
        if net.node(l.src).is_router and net.node(l.dst).is_router
    ]
    # Consecutive up hops strictly descend in (level, id) of their tail, so
    # ranking up channels by descending tail orders every up chain; down
    # chains ascend in the same key, so ascending tail order works there.
    up = sorted(
        (l for l in transit if is_up(l)),
        key=lambda l: (tail(l), l.link_id),
        reverse=True,
    )
    down = sorted(
        (l for l in transit if not is_up(l)), key=lambda l: (tail(l), l.link_id)
    )
    injection = sorted(
        l.link_id for l in net.links() if not net.node(l.src).is_router
    )
    ejection = sorted(
        l.link_id
        for l in net.links()
        if net.node(l.src).is_router and not net.node(l.dst).is_router
    )
    ordered = injection + [l.link_id for l in up] + [l.link_id for l in down] + ejection
    return {link_id: i for i, link_id in enumerate(ordered)}


def synthesize_ordered_routing(
    net: Network, root: str | None = None
) -> tuple[RoutingTable, OrderCertification]:
    """Deadlock-free destination-indexed routing for an arbitrary fabric.

    The ordering view of up*/down*: rank channels with
    :func:`channel_order_for`, build the up*/down* tables (every route is
    up hops then down hops, hence ascending), and certify the result with
    :func:`certify_channel_order`.  This replaces topology-specific
    disable-set synthesis -- one recipe, any connected graph, and the
    output carries its own proof.
    """
    from repro.routing.tree_routing import up_down_tables

    tables = up_down_tables(net, root=root)
    certification = certify_channel_order(net, tables)
    if not certification.certified:
        raise RuntimeError(
            f"ordered-routing synthesis failed on {net.name}: "
            f"{certification.failures or certification.counterexample}"
        )
    return tables, certification
