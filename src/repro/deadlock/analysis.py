"""End-to-end deadlock-freedom certification of (topology, routing) pairs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.deadlock.certifier import certify_channel_order
from repro.network.graph import Network
from repro.routing.base import RouteSet, RoutingTable

__all__ = ["CertificationResult", "certify_deadlock_free"]


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of :func:`certify_deadlock_free`."""

    network: str
    deliverable: bool
    deadlock_free: bool
    num_channels: int
    num_dependencies: int
    sample_cycle: tuple[str, ...] | None
    failures: tuple[str, ...]

    @property
    def certified(self) -> bool:
        """True when routing is complete, loop-free and deadlock-free."""
        return self.deliverable and self.deadlock_free


def certify_deadlock_free(
    net: Network,
    tables: RoutingTable,
    routes: RouteSet | None = None,
) -> CertificationResult:
    """Certify a (network, routing) pair.

    Checks (1) every ordered end-node pair is deliverable over a simple
    path, and (2) the channel dependency relation of the all-pairs route
    set is acyclic.  Together these are the Dally-Seitz conditions for a
    deterministic wormhole network that can never deadlock.

    A view of :func:`repro.deadlock.certifier.certify_channel_order`:
    without ``routes`` the relation is read straight off the tables, and
    ``sample_cycle`` is that certifier's counterexample cycle.
    """
    order = certify_channel_order(net, tables, routes=routes)
    return CertificationResult(
        network=net.name,
        deliverable=order.deliverable,
        deadlock_free=order.deadlock_free,
        num_channels=order.num_channels,
        num_dependencies=order.num_dependencies,
        sample_cycle=order.counterexample,
        failures=order.failures,
    )
