"""Object Storage Targets: one OST per RAID-6 group.

Each OST tracks allocated capacity and exposes a *fill penalty* — the paper
reports performance loss starting above 50% utilization and becoming severe
past 70% (§IV-C, §VI-C):

  "many other HPC centers that use Lustre note a severe performance
   degradation after the resource is 70% or more full."
  "We have seen direct performance degradation when the utilization of the
   filesystem is greater than 50%."

The penalty curve below is piecewise linear through (0.5, 1.0) → (0.7,
0.85) → (0.9, 0.55) → (1.0, 0.35): flat to 50%, a shallow knee to 70%, and
a steep fall beyond — the standard ldiskfs free-extent fragmentation shape.
Lesson 10's "capacity targets 30% or more above aggregate user workload
estimates" is exactly the strategy of staying left of the 70% knee.

The obdfilter layer's software overhead (measured by comparing block-level
and fs-level benchmarks, §III-B) appears as ``obdfilter_efficiency``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.instruments import get_telemetry

__all__ = ["OstSpec", "Ost", "fill_penalty", "OBDFILTER_EFFICIENCY"]

#: fs-level bandwidth retained after obdfilter/ldiskfs software overhead,
#: for large sequential objects (the block-vs-fs gap of §III-B).
OBDFILTER_EFFICIENCY = 0.90

#: knots of the fill-penalty curve: (fill fraction, bandwidth multiplier)
_FILL_KNOTS = np.array([
    (0.0, 1.00),
    (0.5, 1.00),
    (0.7, 0.85),
    (0.9, 0.55),
    (1.0, 0.35),
])


def fill_penalty(fill_fraction: float | np.ndarray) -> float | np.ndarray:
    """Bandwidth multiplier as a function of OST fill level ∈ [0, 1]."""
    fill = np.clip(fill_fraction, 0.0, 1.0)
    out = np.interp(fill, _FILL_KNOTS[:, 0], _FILL_KNOTS[:, 1])
    if np.isscalar(fill_fraction) or np.ndim(fill_fraction) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class OstSpec:
    """Static parameters of one OST."""

    capacity_bytes: int
    obdfilter_efficiency: float = OBDFILTER_EFFICIENCY

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if not (0 < self.obdfilter_efficiency <= 1):
            raise ValueError("obdfilter_efficiency must be in (0, 1]")


class Ost:
    """One object storage target.

    ``raw_bandwidth_fn`` supplies the current block-level streaming
    bandwidth of the backing RAID group (couplet share applied), so OST
    objects stay thin views over the vectorized SSU state.
    """

    def __init__(
        self,
        index: int,
        spec: OstSpec,
        *,
        ssu_index: int = 0,
        group_index: int = 0,
        oss_name: str = "",
    ) -> None:
        self.index = index
        self.spec = spec
        self.ssu_index = ssu_index
        self.group_index = group_index
        self.oss_name = oss_name
        self.used_bytes = 0
        self.n_objects = 0
        self.read_bytes_total = 0
        self.written_bytes_total = 0
        # (registry, write counter, read counter) — cached instruments,
        # revalidated on registry swap (instruments are stable per key).
        self._instruments = None
        #: (fill list, position) of every pool keeping this OST's fill
        self._fill_slots: list[tuple[list[float], int]] = []

    def _tel_counters(self, telemetry):
        cached = self._instruments
        if cached is None or cached[0] is not telemetry:
            cached = self._instruments = (
                telemetry,
                telemetry.counter("ost.write_bytes", self.component),
                telemetry.counter("ost.read_bytes", self.component),
            )
        return cached

    # -- capacity -----------------------------------------------------------------

    @property
    def fill_fraction(self) -> float:
        return min(1.0, self.used_bytes / self.spec.capacity_bytes)

    def keep_fill(self, fills: list[float], position: int) -> None:
        """Keep ``fills[position]`` equal to :attr:`fill_fraction`:
        :meth:`allocate` and :meth:`release` write it on every change, so
        a pool reads its OSTs' fills without visiting them."""
        fills[position] = self.fill_fraction
        self._fill_slots.append((fills, position))

    def _fill_changed(self) -> None:
        fill = self.fill_fraction
        for fills, position in self._fill_slots:
            fills[position] = fill

    def allocate(self, nbytes: int, *, new_object: bool = True) -> None:
        """Account an object extent; allocation past capacity raises.

        ``new_object=False`` grows an object the OST already holds."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.used_bytes + nbytes > self.spec.capacity_bytes:
            raise OSError(f"OST {self.index} out of space (ENOSPC)")
        self.used_bytes += nbytes
        if new_object:
            self.n_objects += 1
        self.written_bytes_total += nbytes
        self._fill_changed()
        telemetry = get_telemetry()
        if telemetry.enabled:
            self._tel_counters(telemetry)[1].add(float(nbytes))

    def release(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.used_bytes = max(0, self.used_bytes - nbytes)
        self.n_objects = max(0, self.n_objects - 1)
        self._fill_changed()

    def record_read(self, nbytes: int) -> None:
        self.read_bytes_total += nbytes
        telemetry = get_telemetry()
        if telemetry.enabled:
            self._tel_counters(telemetry)[2].add(float(nbytes))

    # -- performance ----------------------------------------------------------------

    def fs_bandwidth(self, raw_bandwidth: float) -> float:
        """fs-level delivered bandwidth given the block-level ``raw_bandwidth``:
        obdfilter overhead and fill penalty applied in sequence."""
        penalty = fill_penalty(self.fill_fraction)
        if penalty < 1.0:
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.counter("ost.fill_penalty_hits", self.component).add(1.0)
        return raw_bandwidth * self.spec.obdfilter_efficiency * penalty

    @property
    def component(self) -> str:
        """Flow-network component name for this OST."""
        return f"ost:{self.index}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Ost({self.index}, fill={self.fill_fraction:.0%})"
