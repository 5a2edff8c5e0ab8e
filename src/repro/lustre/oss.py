"""Object Storage Servers.

Spider II runs 288 diskless OSS nodes, 8 per SSU, each serving 7 OSTs
(§V, Lesson 7).  An OSS contributes two capacities to the I/O path:

* its InfiniBand host port into the SSU's leaf switch (the fabric cable);
* a node cap (CPU + memory bandwidth of the Lustre server stack).

Diskless provisioning (GeDI) is modelled in :mod:`repro.ops.provisioning`;
here the OSS is the data-path element.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import GB

__all__ = ["OssSpec", "Oss"]


@dataclass(frozen=True)
class OssSpec:
    """Capability envelope of one OSS node."""

    node_bw_cap: float = 5.0 * GB  # Lustre server stack throughput, bytes/s
    n_osts: int = 7

    def __post_init__(self) -> None:
        if self.node_bw_cap <= 0:
            raise ValueError("node_bw_cap must be positive")
        if self.n_osts <= 0:
            raise ValueError("n_osts must be positive")


class Oss:
    """One OSS: a named host on the SAN serving a contiguous OST range."""

    def __init__(
        self,
        name: str,
        spec: OssSpec,
        *,
        ssu_index: int,
        leaf: int,
        ost_indices: list[int],
    ) -> None:
        if len(ost_indices) != spec.n_osts:
            raise ValueError(
                f"OSS {name} expects {spec.n_osts} OSTs, got {len(ost_indices)}"
            )
        self.name = name
        self.spec = spec
        self.ssu_index = ssu_index
        self.leaf = leaf
        self.ost_indices = list(ost_indices)
        self.online = True

    @property
    def component(self) -> str:
        """Flow-network component name for the OSS node cap."""
        return f"oss:{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Oss({self.name}, leaf={self.leaf}, osts={self.ost_indices})"
