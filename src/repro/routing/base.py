"""Routes, routing tables and route sets.

The paper's routing model (§2.3): *"these matches are actually done by
looking up entries in the routing table inside each router"*.  A routing
table maps a destination end node to an output port at each router; walking
the tables from a source yields the unique fixed path ServerNet requires for
in-order delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.network.graph import Network

__all__ = [
    "ArrayRoutingTable",
    "LoweredTable",
    "Route",
    "RouteSet",
    "RoutingError",
    "RoutingTable",
    "all_pairs_routes",
    "compute_route",
    "routes_for_pairs",
]


class RoutingError(Exception):
    """Raised when a route cannot be derived from the tables."""


@dataclass(frozen=True)
class Route:
    """A fixed path from a source end node to a destination end node.

    Attributes:
        src: source end node id.
        dst: destination end node id.
        links: the unidirectional link ids traversed, in order.  The first
            link is the injection link (end node to router) and the last is
            the ejection link (router to end node) unless source and
            destination share a router in degenerate single-router systems.
        nodes: every node visited, starting at ``src`` and ending at ``dst``.
    """

    src: str
    dst: str
    links: tuple[str, ...]
    nodes: tuple[str, ...]

    @property
    def router_hops(self) -> int:
        """Number of routers traversed (the paper's "router hops"/"delays").

        A transfer between two nodes on the same router counts 1; the paper's
        "maximum delay of four router hops" for a 16-CPU system counts the
        routers visited, not the links.
        """
        return len(self.nodes) - 2

    @property
    def router_links(self) -> tuple[str, ...]:
        """The router-to-router links only (contention is measured on these)."""
        return self.links[1:-1]

    def __len__(self) -> int:
        return len(self.links)


class RoutingTable:
    """Per-router destination-indexed forwarding tables.

    ``table[router][dest] -> output port``.  Destinations are end-node ids;
    entries exist for every destination a router may have to forward toward,
    including locally-attached ones (whose entry names the ejection port).
    """

    def __init__(self, entries: Mapping[str, Mapping[str, int]] | None = None) -> None:
        self._entries: dict[str, dict[str, int]] = {
            r: dict(d) for r, d in (entries or {}).items()
        }

    def set(self, router: str, dest: str, port: int) -> None:
        self._entries.setdefault(router, {})[dest] = port

    def lookup(self, router: str, dest: str) -> int:
        try:
            return self._entries[router][dest]
        except KeyError:
            raise RoutingError(f"router {router!r} has no entry for dest {dest!r}") from None

    def has_entry(self, router: str, dest: str) -> bool:
        return router in self._entries and dest in self._entries[router]

    def routers(self) -> list[str]:
        return list(self._entries)

    def entries(self, router: str) -> dict[str, int]:
        """Copy of one router's table."""
        return dict(self._entries.get(router, {}))

    def items(self) -> Iterator[tuple[str, str, int]]:
        for router, dests in self._entries.items():
            for dest, port in dests.items():
                yield router, dest, port

    def num_entries(self) -> int:
        return sum(len(d) for d in self._entries.values())

    def used_output_ports(self, router: str) -> set[int]:
        """Ports a router ever forwards onto (for disable synthesis)."""
        return set(self._entries.get(router, {}).values())

    def copy(self) -> "RoutingTable":
        return RoutingTable(self._entries)

    def lower(self, net: Network, vc_count: int = 1) -> "LoweredTable":
        """Lower the string-keyed table onto a network's integer indices.

        Densifies the entries into a ``router_index x end_index`` port
        matrix (:meth:`ArrayRoutingTable.from_table`) and factors it
        through the network's per-router port LUT; see
        :class:`LoweredTable` for the form the simulator cores route from.
        """
        dense = ArrayRoutingTable.from_table(self, net.indices())
        return LoweredTable.from_ports(net, dense.ports, vc_count, self.num_entries())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RoutingTable {len(self._entries)} routers, {self.num_entries()} entries>"


#: cells per block of the blockwise passes over a port matrix; bounds
#: their temporaries at any fabric size
_BLOCK_CELLS = 1 << 22

#: the int16 port matrix's range (see :meth:`ArrayRoutingTable.from_table`)
_PORT_MIN, _PORT_MAX = -(1 << 15), (1 << 15) - 1


def _port_link_lut(net: Network, idx) -> "np.ndarray":
    """Per-router ``port -> link index`` lookup (-1 where uncabled).

    One pass over the links stands in for a per-entry ``out_link_on_port``
    call, so lowering costs a pass over the links, not over the table.
    """
    max_ports = max((net.node(r).num_ports for r in idx.router_ids), default=1)
    lut = np.full((len(idx.router_ids), max_ports), -1, dtype=np.int32)
    router_index = idx.router_index
    for li, lid in enumerate(idx.link_ids):
        link = net.link(lid)
        r = router_index.get(link.src)
        if r is not None:
            lut[r, link.src_port] = li
    return lut


class ArrayRoutingTable(RoutingTable):
    """A routing table stored as one dense ``router x end`` port matrix.

    Same contract as :class:`RoutingTable` (it *is* one, by subclass), but
    the entries live in a single ``int16`` numpy array indexed by the
    network's dense integer indices instead of nested per-router dicts.
    At fractahedron depth 4 (8K+ end nodes, ~100M entries) the dict form
    needs gigabytes of hash tables; the matrix needs two bytes per cell
    and lowers without a copy (see :class:`LoweredTable`).

    ``ports[router_index, end_index]`` holds the output port, or ``-1``
    where the router has no entry for that destination.
    """

    def __init__(self, indices, ports: "np.ndarray | None" = None) -> None:
        # No super().__init__: the dict store is replaced wholesale.
        self._idx = indices
        if ports is None:
            ports = np.full(
                (len(indices.router_ids), len(indices.end_ids)), -1, dtype=np.int16
            )
        self.ports = ports

    @classmethod
    def from_table(cls, table: RoutingTable, indices) -> "ArrayRoutingTable":
        """Densify any routing table onto a network's indices.

        Ports outside the ``int16`` range saturate to its ends: no router
        has that many ports, so such an entry still names no link.
        """
        out = cls(indices)
        ports = out.ports
        ri, ei = indices.router_index, indices.end_index
        for router, dest, port in table.items():
            r, e = ri.get(router), ei.get(dest)
            if r is not None and e is not None:
                if not _PORT_MIN <= port <= _PORT_MAX:
                    port = _PORT_MIN if port < 0 else _PORT_MAX
                ports[r, e] = port
        return out

    # -- mutation ------------------------------------------------------
    def set(self, router: str, dest: str, port: int) -> None:
        try:
            r = self._idx.router_index[router]
            e = self._idx.end_index[dest]
        except KeyError:
            raise RoutingError(
                f"{router!r}/{dest!r} not indexed by this ArrayRoutingTable"
            ) from None
        self.ports[r, e] = port

    # -- queries (identical semantics to the dict form) ----------------
    def lookup(self, router: str, dest: str) -> int:
        r = self._idx.router_index.get(router)
        e = self._idx.end_index.get(dest)
        if r is not None and e is not None:
            port = self.ports[r, e]
            if port >= 0:
                return int(port)
        raise RoutingError(f"router {router!r} has no entry for dest {dest!r}")

    def has_entry(self, router: str, dest: str) -> bool:
        r = self._idx.router_index.get(router)
        e = self._idx.end_index.get(dest)
        return r is not None and e is not None and self.ports[r, e] >= 0

    def routers(self) -> list[str]:
        used = (self.ports >= 0).any(axis=1)
        return [r for r, u in zip(self._idx.router_ids, used) if u]

    def entries(self, router: str) -> dict[str, int]:
        r = self._idx.router_index.get(router)
        if r is None:
            return {}
        row = self.ports[r]
        end_ids = self._idx.end_ids
        return {end_ids[e]: int(row[e]) for e in np.flatnonzero(row >= 0)}

    def items(self) -> Iterator[tuple[str, str, int]]:
        router_ids, end_ids = self._idx.router_ids, self._idx.end_ids
        rs, es = np.nonzero(self.ports >= 0)
        for r, e in zip(rs.tolist(), es.tolist()):
            yield router_ids[r], end_ids[e], int(self.ports[r, e])

    def num_entries(self) -> int:
        ports = self.ports
        step = max(1, _BLOCK_CELLS // max(ports.shape[1], 1))
        return sum(
            int(np.count_nonzero(ports[lo : lo + step] >= 0))
            for lo in range(0, ports.shape[0], step)
        )

    def used_output_ports(self, router: str) -> set[int]:
        r = self._idx.router_index.get(router)
        if r is None:
            return set()
        row = self.ports[r]
        return set(np.unique(row[row >= 0]).tolist())

    def copy(self) -> "ArrayRoutingTable":
        return ArrayRoutingTable(self._idx, self.ports.copy())

    # -- lowering ------------------------------------------------------
    def lower(self, net: Network, vc_count: int = 1) -> "LoweredTable":
        idx = net.indices()
        table = self
        if (
            idx.router_ids != tuple(self._idx.router_ids)
            or idx.end_ids != tuple(self._idx.end_ids)
        ):
            # Indexed against a different structure: re-densify by name.
            table = ArrayRoutingTable.from_table(self, idx)
        return LoweredTable.from_ports(net, table.ports, vc_count, self.num_entries())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ArrayRoutingTable {self.ports.shape[0]} routers x "
            f"{self.ports.shape[1]} dests, {self.num_entries()} entries>"
        )


@dataclass(frozen=True)
class LoweredTable:
    """A routing table lowered to dense integer indices (see ``lower``).

    The form is factored: ``ports`` is the table's own ``router x end``
    int16 port matrix (a read-only view, never copied) and ``port_ch`` a
    small per-router ``port -> base channel`` LUT (``link_index *
    vc_count``, ``-1`` where uncabled) with one last sentinel column of
    ``-1``.  The base output channel of cell ``(r, e)`` is
    ``port_ch[r, min(p, W)]`` with ``p`` the port read as unsigned and
    ``W`` the widest router's port count: a negative port (no entry)
    reads as at least ``2**15``, so it lands on the sentinel together with
    every port too wide for the LUT.  A depth-4 fractahedron's 8192-end
    table is thus 130 MB of int16 plus a LUT of a few hundred KB, where a
    materialised int32 matrix would add 260 MB more.  ``version`` and
    ``num_entries`` let holders detect stale lowerings after topology or
    table mutation.
    """

    ports: "np.ndarray"
    port_ch: "np.ndarray"
    version: int
    vc_count: int
    num_entries: int

    @classmethod
    def from_ports(
        cls, net: Network, ports: "np.ndarray", vc_count: int, num_entries: int
    ) -> "LoweredTable":
        """Factor a port matrix indexed by ``net.indices()`` (the one
        constructor both lowerings share)."""
        idx = net.indices()
        lut = _port_link_lut(net, idx)
        port_ch = np.full((lut.shape[0], lut.shape[1] + 1), -1, dtype=np.int32)
        port_ch[:, :-1] = np.where(lut >= 0, lut * vc_count, -1)
        view = ports.view()
        view.flags.writeable = False
        return cls(view, port_ch, idx.version, vc_count, num_entries)

    def _lut_column(self, ports: "np.ndarray") -> "np.ndarray":
        """LUT column of each port (the sentinel for negative or too wide
        ports, which the same-width unsigned cast puts past the LUT)."""
        col = ports.astype(np.dtype(f"u{ports.dtype.itemsize}"))
        return np.minimum(col, self.port_ch.shape[1] - 1, out=col)

    def gather(self, routers: "np.ndarray", ends: "np.ndarray") -> "np.ndarray":
        """Base channels of the cells ``(routers[i], ends[i])`` (-1: none)."""
        return self.port_ch[routers, self._lut_column(self.ports[routers, ends])]

    def columns(self, lo: int, hi: int) -> "np.ndarray":
        """Base channels of end columns ``lo:hi`` for every router."""
        col = self._lut_column(self.ports[:, lo:hi])
        return np.take_along_axis(self.port_ch, col, axis=1)

    @property
    def rows(self) -> "np.ndarray":
        """The whole ``router x end`` base-channel matrix, built on demand
        one column block at a time.  For tests and oracles: no engine or
        certifier reads it."""
        n_routers, n_ends = self.ports.shape
        out = np.empty((n_routers, n_ends), dtype=np.int32)
        step = max(1, _BLOCK_CELLS // max(n_routers, 1))
        for lo in range(0, n_ends, step):
            out[:, lo : lo + step] = self.columns(lo, lo + step)
        return out


def compute_route(net: Network, tables: RoutingTable, src: str, dst: str) -> Route:
    """Walk the routing tables from ``src`` to ``dst`` as a packet would.

    Raises :class:`RoutingError` on missing entries, routing loops (more
    steps than links in the network) or arrival anywhere but ``dst``.
    """
    if src == dst:
        raise RoutingError("source and destination are identical")
    src_node = net.node(src)
    if not src_node.is_end_node:
        raise RoutingError(f"source {src!r} is not an end node")

    injection = net.out_links(src)
    if len(injection) != 1:
        raise RoutingError(f"source {src!r} must have exactly one injection link")
    links = [injection[0].link_id]
    nodes = [src, injection[0].dst]
    current = injection[0].dst

    max_steps = net.num_links + 1
    for _ in range(max_steps):
        if current == dst:
            return Route(src, dst, tuple(links), tuple(nodes))
        if not net.node(current).is_router:
            raise RoutingError(
                f"route {src}->{dst} entered non-router, non-destination node {current!r}"
            )
        port = tables.lookup(current, dst)
        link = net.out_link_on_port(current, port)
        links.append(link.link_id)
        nodes.append(link.dst)
        current = link.dst
    raise RoutingError(f"routing loop detected for {src}->{dst}")


class RouteSet:
    """A collection of fixed routes, indexed by (source, destination).

    This is the object every static metric (contention, channel load,
    hop statistics, channel-dependency graph) is computed from.
    """

    def __init__(self, routes: Iterable[Route] = ()) -> None:
        self._routes: dict[tuple[str, str], Route] = {}
        for route in routes:
            self.add(route)

    def add(self, route: Route) -> None:
        self._routes[(route.src, route.dst)] = route

    def get(self, src: str, dst: str) -> Route:
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise RoutingError(f"no route {src}->{dst} in route set") from None

    def has(self, src: str, dst: str) -> bool:
        return (src, dst) in self._routes

    def routes(self) -> Iterator[Route]:
        return iter(self._routes.values())

    def pairs(self) -> list[tuple[str, str]]:
        return list(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[Route]:
        return iter(self._routes.values())

    def link_usage(self) -> dict[str, list[Route]]:
        """Map each link id to the routes traversing it."""
        usage: dict[str, list[Route]] = {}
        for route in self._routes.values():
            for link in route.links:
                usage.setdefault(link, []).append(route)
        return usage

    def router_link_usage(self, net: Network) -> dict[str, list[Route]]:
        """Like :meth:`link_usage` but restricted to router-to-router links."""
        usage = self.link_usage()
        return {
            l.link_id: usage.get(l.link_id, [])
            for l in net.router_links()
        }


def all_pairs_routes(net: Network, tables: RoutingTable) -> RouteSet:
    """Routes between every ordered pair of distinct end nodes."""
    ends = net.end_node_ids()
    return routes_for_pairs(net, tables, ((s, d) for s in ends for d in ends if s != d))


def routes_for_pairs(
    net: Network, tables: RoutingTable, pairs: Iterable[tuple[str, str]]
) -> RouteSet:
    """Routes for an explicit set of (source, destination) pairs."""
    rs = RouteSet()
    for src, dst in pairs:
        rs.add(compute_route(net, tables, src, dst))
    return rs
