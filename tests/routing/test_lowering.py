"""Factored table lowering against a per-cell plain-Python oracle.

``RoutingTable.lower`` and ``ArrayRoutingTable.lower`` share one
constructor, so comparing them with each other proves little.  The
oracle here walks each cell the way the reference engine does:
``table.lookup`` then ``net.out_link_on_port``, with ``-1`` wherever
either raises.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.fractahedron import fat_fractahedron
from repro.network.graph import NetworkError
from repro.routing.base import ArrayRoutingTable, RoutingError, RoutingTable
from repro.routing.cache import DEFAULT_CACHE, cached_tables
from repro.sim.compile import compile_network
from repro.sim.vec import UniformPlan, VecCore
from repro.topology.registry import build_topology
from tests.deadlock.test_table_certify import SMOKE_PARAMS


def _oracle(net, table, vc_count):
    idx = net.indices()
    out = np.full((len(idx.router_ids), len(idx.end_ids)), -1, dtype=np.int64)
    for r, router in enumerate(idx.router_ids):
        for e, end in enumerate(idx.end_ids):
            try:
                link = net.out_link_on_port(router, table.lookup(router, end))
            except (RoutingError, NetworkError):
                continue
            out[r, e] = idx.link_index[link.link_id] * vc_count
    return out


def _uncabled_port(net, router):
    used = {link.src_port for link in net.out_links(router)}
    free = [p for p in range(net.node(router).num_ports) if p not in used]
    return free[0] if free else None


def _with_edge_cells(net, table):
    """Dict and array copies of ``table`` with every edge cell planted.

    Each router, taken in turn, gets one edge: no entry, an uncabled port
    (where the router has one), a port at or past the widest router's
    port count, a negative dict port, and dict ports outside int16 range
    (which the array copy saturates).  The array copy also gets a port
    below -1.
    """
    idx = net.indices()
    widest = max(net.node(r).num_ports for r in idx.router_ids)
    entries = {r: table.entries(r) for r in idx.router_ids}
    end_ids = idx.end_ids
    edges = [
        lambda row, end: row.pop(end, None),
        lambda row, end: row.__setitem__(end, widest),
        lambda row, end: row.__setitem__(end, widest + 7),
        lambda row, end: row.__setitem__(end, -3),
        lambda row, end: row.__setitem__(end, 1 << 20),
        lambda row, end: row.__setitem__(end, -(1 << 40)),
    ]
    for i, router in enumerate(idx.router_ids):
        end = end_ids[(7 * i) % len(end_ids)]
        edges[i % len(edges)](entries[router], end)
        free = _uncabled_port(net, router)
        if free is not None:
            entries[router][end_ids[(7 * i + 3) % len(end_ids)]] = free
    as_dict = RoutingTable(entries)
    as_array = ArrayRoutingTable.from_table(as_dict, idx)
    as_array.ports[0, -1] = -5
    as_array.ports[-1, 0] = -(1 << 15)
    return as_dict, as_array


@pytest.fixture(scope="module", params=sorted(SMOKE_PARAMS))
def registered(request):
    net = build_topology(request.param, **SMOKE_PARAMS[request.param])
    return net, cached_tables(net)


@pytest.mark.parametrize("vc_count", [1, 2])
@pytest.mark.parametrize("form", ["dict", "array"])
def test_lowering_matches_per_cell_oracle(registered, form, vc_count):
    net, tables = registered
    as_dict, as_array = _with_edge_cells(net, tables)
    table = as_dict if form == "dict" else as_array
    expected = _oracle(net, table, vc_count)
    lowered = table.lower(net, vc_count)
    assert np.array_equal(lowered.rows, expected)
    n_routers, n_ends = expected.shape
    routers = np.repeat(np.arange(n_routers), n_ends)
    ends = np.tile(np.arange(n_ends), n_routers)
    gathered = lowered.gather(routers, ends).reshape(n_routers, n_ends)
    assert np.array_equal(gathered, expected)
    assert np.array_equal(lowered.columns(1, n_ends - 1), expected[:, 1:-1])
    assert lowered.num_entries == table.num_entries()


def test_unmodified_tables_match_oracle(registered):
    net, tables = registered
    assert np.array_equal(tables.lower(net, 2).rows, _oracle(net, tables, 2))


def test_edge_cells_are_present():
    net = build_topology("mesh", **SMOKE_PARAMS["mesh"])
    as_dict, as_array = _with_edge_cells(net, cached_tables(net))
    ports = {port for _, _, port in as_dict.items()}
    assert {-3, 1 << 20, -(1 << 40)} <= ports
    assert as_array.ports.min() == -(1 << 15) and as_array.ports.max() == (1 << 15) - 1
    assert (as_array.ports == -5).any()
    lowered = as_dict.lower(net)
    assert (lowered.rows == -1).any() and (lowered.rows >= 0).any()


def test_array_lowering_shares_the_port_matrix():
    net = fat_fractahedron(2, fanout_width=2)
    table = cached_tables(net)
    assert isinstance(table, ArrayRoutingTable)
    lowered = table.lower(net, 2)
    assert np.shares_memory(lowered.ports, table.ports)
    assert not lowered.ports.flags.writeable
    assert lowered.port_ch.shape == (net.num_routers, lowered.port_ch.shape[1])


def test_num_entries_counts_per_block(monkeypatch):
    from repro.routing import base

    net = fat_fractahedron(2, fanout_width=2)
    table = ArrayRoutingTable.from_table(cached_tables(net), net.indices())
    table.ports[::3, ::5] = -1
    expected = int((table.ports >= 0).sum())
    monkeypatch.setattr(base, "_BLOCK_CELLS", 3 * table.ports.shape[1] + 1)
    assert table.num_entries() == expected


def test_vec_core_setup_never_builds_a_router_by_end_matrix():
    """Count-style memory gate: VecCore set-up at depth 3 (960 routers x
    1024 ends) allocates less than one int32 ``router x end`` matrix."""
    net = fat_fractahedron(3, fanout_width=2)
    tables = cached_tables(net)
    compile_network(net)
    n_routers, n_ends = len(net.indices().router_ids), len(net.indices().end_ids)
    assert (n_routers, n_ends) == (960, 1024)
    DEFAULT_CACHE._lowered.clear()
    tracemalloc.start()
    try:
        VecCore(net, tables, [UniformPlan(0.005, 4, 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_routers * n_ends * 4
