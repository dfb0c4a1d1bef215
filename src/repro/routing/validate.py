"""Routing validation: every pair deliverable, no loops, fixed paths.

ServerNet's in-order delivery guarantee requires *"a fixed path between each
pair of nodes"* (§3.3).  Table-driven routing gives that by construction;
this module checks the remaining requirements: completeness (every pair has
entries), termination (no table loops), and optional bounds like shortest-
path optimality or maximum hop counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.network.graph import Network, NetworkError
from repro.routing.base import RoutingError, RoutingTable, compute_route

__all__ = ["RoutingReport", "sample_pairs", "validate_routing"]


@dataclass
class RoutingReport:
    """Result of :func:`validate_routing`."""

    pairs_checked: int = 0
    failures: list[str] = field(default_factory=list)
    max_router_hops: int = 0
    max_links: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def _pair_at(ends: list[str], index: int) -> tuple[str, str]:
    """The ``index``-th ordered pair of distinct end nodes.

    Pairs are numbered ``src * (n - 1) + k`` where ``k`` skips the
    diagonal, so a pair can be materialized from its index alone -- the
    sampler never builds the quadratic cross product.
    """
    n = len(ends)
    src, k = divmod(index, n - 1)
    return ends[src], ends[k if k < src else k + 1]


def sample_pairs(net: Network, count: int, seed: int = 0) -> list[tuple[str, str]]:
    """A deterministic seeded sample of ordered end-node pairs.

    Samples ``count`` distinct pairs (all of them when ``count`` covers
    the population) without enumerating the full ``n * (n - 1)`` cross
    product, so a depth-3 fractahedron's million-pair space costs only
    ``count`` index draws.  The same ``(net, count, seed)`` always yields
    the same pairs, in the same order -- reproducible by construction.
    """
    if count <= 0:
        raise ValueError(f"sample count must be positive, got {count}")
    ends = net.end_node_ids()
    total = len(ends) * (len(ends) - 1)
    if count >= total:
        return [(s, d) for s in ends for d in ends if s != d]
    rng = random.Random(seed)
    indices = rng.sample(range(total), count)
    return [_pair_at(ends, i) for i in indices]


def validate_routing(
    net: Network,
    tables: RoutingTable,
    max_router_hops: int | None = None,
    require_simple: bool = True,
    pairs: Iterable[tuple[str, str]] | None = None,
    sample: int | None = None,
    seed: int = 0,
) -> RoutingReport:
    """Walk every route and verify it is deliverable and well-formed.

    Args:
        net: the network.
        tables: routing tables to validate.
        max_router_hops: if given, any route visiting more routers fails.
        require_simple: fail routes that revisit a node (a symptom of
            near-miss table bugs even when the walk terminates).
        pairs: restrict the check to these (src, dst) pairs; defaults to all
            ordered pairs of end nodes.
        sample: walk a deterministic seeded sample of this many pairs
            instead of all of them (see :func:`sample_pairs`) -- the scale
            mode for fabrics where the all-pairs walk is quadratic in the
            thousands of end nodes.  Ignored when ``pairs`` is given.
        seed: sample seed.
    """
    report = RoutingReport()
    if pairs is None:
        if sample is not None:
            pairs = sample_pairs(net, sample, seed)
        else:
            # lazy: the all-pairs walk previously materialized the whole
            # quadratic cross product up front before checking a single route
            ends = net.end_node_ids()
            pairs = ((s, d) for s in ends for d in ends if s != d)

    for src, dst in pairs:
        report.pairs_checked += 1
        try:
            route = compute_route(net, tables, src, dst)
        except (RoutingError, NetworkError) as exc:  # NetworkError: uncabled port
            report.failures.append(f"{src}->{dst}: {exc}")
            continue
        if route.nodes[-1] != dst:
            report.failures.append(f"{src}->{dst}: terminated at {route.nodes[-1]}")
            continue
        if require_simple and len(set(route.nodes)) != len(route.nodes):
            report.failures.append(f"{src}->{dst}: revisits a node {route.nodes}")
            continue
        if max_router_hops is not None and route.router_hops > max_router_hops:
            report.failures.append(
                f"{src}->{dst}: {route.router_hops} router hops "
                f"exceeds bound {max_router_hops}"
            )
            continue
        report.max_router_hops = max(report.max_router_hops, route.router_hops)
        report.max_links = max(report.max_links, len(route.links))
    return report
