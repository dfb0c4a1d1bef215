"""Table-native certification against the route-set oracle.

The table path reads the dependency relation straight off the routing
matrix; the oracle enumerates every route.  On every case below the two
must give the same edge set, the same verdict as networkx ``find_cycle``
over the route-set CDG, and the same certificate or counterexample.
"""

from __future__ import annotations

import re
from functools import partial

import numpy as np
import pytest

from repro.core.fractahedron import FractaParams, fat_fractahedron, fractahedron
from repro.deadlock import certifier
from repro.deadlock.analysis import certify_deadlock_free
from repro.deadlock.cdg import (
    channel_dependency_graph,
    channel_dependency_graph_vc,
    find_cycle,
)
from repro.deadlock.certifier import (
    _dependency_edges,
    _table_relation,
    certify_channel_order,
)
from repro.experiments.fig1_deadlock import LOOP, build, clockwise_tables
from repro.experiments.modern_topologies import MODERN_TOPOLOGIES, _dual_certify
from repro.experiments.sec24_deadlock import funneled_tables
from repro.routing.base import ArrayRoutingTable, RoutingTable, all_pairs_routes
from repro.routing.cache import RoutingTableCache, cached_tables
from repro.routing.disables import DisableSet
from repro.routing.dimension_order import dimension_order_tables
from repro.routing.dragonfly import dragonfly_vc_assign
from repro.routing.validate import validate_routing
from repro.sim.fault import random_cable_schedule
from repro.sim.recovery import RECOVERY_ALGORITHMS
from repro.topology.registry import available_topologies, build_topology

#: the CI certification smoke's parameters for every registered topology
SMOKE_PARAMS = {
    "mesh": {"shape": (3, 3)},
    "torus": {"shape": (4, 4)},
    "ring": {"num_routers": 6},
    "star": {"num_leaves": 5},
    "binary_tree": {"depth": 3},
    "butterfly": {"arity": 2, "stages": 3},
    "kary_tree": {"arity": 3, "depth": 2},
    "hypercube": {"dimensions": 3},
    "ccc": {"dimensions": 3},
    "shuffle_exchange": {"dimensions": 3},
    "fully_connected": {"num_routers": 5},
    "hyperx": {"shape": (3, 3)},
    "dragonfly": {"groups": 5, "routers_per_group": 2, "global_per_router": 2},
    "fat_tree": {"height": 3, "down": 4, "up": 2},
    "thin_fractahedron": {"levels": 2},
    "fat_fractahedron": {"levels": 2},
}

#: seeds of depth-2 two-cable fault sets that leave the fabric connected
#: (seeds 2 and 3 cut off a fan-out router, so no routing exists)
LADDER_SEEDS = (0, 1, 4, 5)


def _registered(name):
    net = build_topology(name, **SMOKE_PARAMS[name])
    return net, cached_tables(net)


def _fig1_clockwise():
    net = build()
    return net, clockwise_tables(net)


def _sec24_funneled():
    net = fractahedron(FractaParams(2, fat=True, fanout_width=None))
    return net, funneled_tables(net)


def _ladder(seed, algorithm):
    """The recovery ladder's tables around a seeded two-cable fault set."""
    net = fat_fractahedron(2, fanout_width=2)
    down = random_cable_schedule(net, 2, np.random.default_rng(seed)).down_links(0)
    disables = DisableSet(sorted(down))
    return net, RoutingTableCache().get_or_build(net, algorithm, disables=disables)


CASES = {f"registered-{name}": partial(_registered, name) for name in SMOKE_PARAMS}
CASES["fig1-clockwise"] = _fig1_clockwise
CASES["sec24-funneled"] = _sec24_funneled
for _seed in LADDER_SEEDS:
    for _algorithm in RECOVERY_ALGORITHMS:
        CASES[f"ladder-{_seed}-{_algorithm}"] = partial(_ladder, _seed, _algorithm)


def _edge_set(relation):
    labels = relation.labels
    return {
        (labels[h], labels[w])
        for h, w in zip(relation.held.tolist(), relation.waited.tolist())
    }


def test_smoke_params_cover_every_topology():
    assert set(SMOKE_PARAMS) == set(available_topologies())


def test_cases_include_cyclic_and_acyclic_ladder_tables():
    verdicts = {
        certify_channel_order(*CASES[f"ladder-{seed}-{algorithm}"]()).deadlock_free
        for seed in LADDER_SEEDS
        for algorithm in RECOVERY_ALGORITHMS
    }
    assert verdicts == {True, False}


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_path_equals_route_set_oracle(case):
    net, tables = CASES[case]()
    routes = all_pairs_routes(net, tables)

    relation = _table_relation(net, tables)
    channels, succ = _dependency_edges(routes)
    assert relation is not None
    assert relation.labels == sorted(channels)
    assert _edge_set(relation) == {
        (held, waited) for held, out in succ.items() for waited in out
    }

    table = certify_channel_order(net, tables)
    oracle = certify_channel_order(net, routes=routes)
    # verdict, counts, certificate and counterexample, field for field
    assert table == oracle
    assert table.deliverable and table.failures == ()
    assert table.deadlock_free == (find_cycle(channel_dependency_graph(net, routes)) is None)
    if table.deadlock_free:
        assert table.certificate.verify(routes) == []
    else:
        cycle = table.counterexample
        edges = _edge_set(relation)
        assert all(pair in edges for pair in zip(cycle, cycle[1:] + cycle[:1]))

    view = certify_deadlock_free(net, tables)
    assert (view.deliverable, view.deadlock_free) == (True, table.deadlock_free)
    assert (view.num_channels, view.num_dependencies) == (
        table.num_channels,
        table.num_dependencies,
    )
    assert view.sample_cycle == table.counterexample


def test_destination_blocks_do_not_change_the_relation(monkeypatch):
    net, tables = _registered("fat_fractahedron")
    whole = _table_relation(net, tables)
    monkeypatch.setattr(certifier, "_BLOCK_CELLS", 7 * (net.num_routers + 2))
    blocked = _table_relation(net, tables)
    assert blocked.labels == whole.labels
    assert np.array_equal(blocked.held, whole.held)
    assert np.array_equal(blocked.waited, whole.waited)


# -- broken tables: same verdict and failures as validate_routing ----------


def _fig1():
    net = build()
    return net, dimension_order_tables(net)


def _remote_dest(net, router):
    return next(e for e in net.end_node_ids() if net.attached_router(e) != router)


def _missing_entry():
    net, tables = _fig1()
    dest = _remote_dest(net, "R0,0")
    kept = {
        router: {d: p for d, p in tables.entries(router).items() if (router, d) != ("R0,0", dest)}
        for router in tables.routers()
    }
    return net, RoutingTable(kept)


def _loop():
    net, tables = _fig1()
    dest = next(e for e in net.end_node_ids() if net.attached_router(e) == LOOP[2])
    a, b = LOOP[0], LOOP[1]
    tables.set(a, dest, net.links_between(a, b)[0].src_port)
    tables.set(b, dest, net.links_between(b, a)[0].src_port)
    return net, tables


def _wrong_end():
    net, tables = _fig1()
    dest = _remote_dest(net, "R0,0")
    local = net.attached_end_nodes("R0,0")[0]
    ejection = next(l for l in net.out_links("R0,0") if l.dst == local)
    tables.set("R0,0", dest, ejection.src_port)
    return net, tables


def _uncabled_port():
    net, tables = _fig1()
    tables.set("R0,0", _remote_dest(net, "R0,0"), 15)
    return net, tables


def _uncabled_port_array():
    net, tables = _uncabled_port()
    return net, ArrayRoutingTable.from_table(tables, net.indices())


def _no_injection_link():
    net, tables = _fig1()
    net.add_end_node("lonely")
    return net, tables


BROKEN = {
    "missing-entry": _missing_entry,
    "loop": _loop,
    "wrong-end": _wrong_end,
    "uncabled-port": _uncabled_port,
    "uncabled-port-array": _uncabled_port_array,
    "no-injection-link": _no_injection_link,
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_broken_tables_report_validate_routing_failures(case):
    net, tables = BROKEN[case]()
    report = validate_routing(net, tables)
    assert report.failures
    assert _table_relation(net, tables) is None
    result = certify_channel_order(net, tables)
    assert not result.deliverable and not result.certified
    assert result.failures == tuple(report.failures[:10])
    view = certify_deadlock_free(net, tables)
    assert not view.deliverable
    assert view.failures == result.failures


def test_uncabled_port_is_a_failure_line_not_a_crash():
    net, tables = _uncabled_port()
    report = validate_routing(net, tables)
    assert report.failures
    for failure in report.failures:
        assert re.fullmatch(r"\S+->\S+: no connection on port 15 of 'R0,0'", failure)
    assert not certify_deadlock_free(net, tables).certified


# -- (link, vc) channels: the Kahn core behind the VC-ladder rows ----------


def test_vc_relation_certifies_the_dragonfly_ladder():
    net, tables = MODERN_TOPOLOGIES["dragonfly_g5"].build()
    routes = all_pairs_routes(net, tables)
    vc_assign = dragonfly_vc_assign(net)
    result = certify_channel_order(net, routes=routes, vc_assign=vc_assign)
    cdg = channel_dependency_graph_vc(net, routes, vc_assign=vc_assign)
    assert result.certified
    assert (result.num_channels, result.num_dependencies) == (
        cdg.number_of_nodes(),
        cdg.number_of_edges(),
    )
    rank = result.certificate.ranks()
    for route in routes:
        ranks = [rank[channel] for channel in zip(route.links, vc_assign(route))]
        assert ranks == sorted(set(ranks))


def test_vc_row_agreement_is_computed():
    net, tables = MODERN_TOPOLOGIES["dragonfly_g5"].build()
    routes = all_pairs_routes(net, tables)
    one_vc = _dual_certify(net, routes=routes, vc_assign=lambda route: [0] * len(route.links))
    physical = _dual_certify(net, tables, routes=routes)
    # one VC is the physical relation relabelled: same cycle, both sides
    assert not one_vc["order_free"] and not one_vc["cdg_free"] and one_vc["agree"]
    assert (one_vc["channels"], one_vc["dependencies"]) == (
        physical["channels"],
        physical["dependencies"],
    )
