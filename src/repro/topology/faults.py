"""Correlated fault domains: seeded outage/brownout/eviction windows.

The chaos harness (:mod:`repro.chaos`) injects *process*-level faults
into the runner; this module injects *infrastructure*-level faults into
the simulated topology. The distinction the paper's single-link model
cannot express is correlation: a real edge outage takes down every
session attached to that edge at once and stampedes them onto its
neighbors, which is nothing like per-request coin flips.

A :class:`FaultDomainSchedule` is frozen data scheduled sha256-style
like :class:`~repro.chaos.schedule.ChaosSchedule`: whether domain *d*
suffers window *i*, when, and for how long is a pure hash of
``(seed, kind, domain, i)`` — every cohort rerun, on any machine,
replays the identical storm. Tests (and the flash-crowd experiment)
can additionally *pin* exact windows for scenario control; pinned
windows participate in the spec and the job hash like drawn ones.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Tuple

from ..errors import ExperimentError
from .spec import TopologySpec


class FaultDomainKind(enum.Enum):
    """What a fault window does to its domain while it is open.

    * ``EDGE_OUTAGE`` — the edge's uplink capacity drops to zero: new
      requests hang into their watchdog timeout, in-flight transfers
      trickle to a stop, and sessions fail over across the ring.
    * ``ORIGIN_BROWNOUT`` — cache misses pay ``latency_factor`` times
      the origin miss penalty and a deterministic fraction of them die
      as HTTP 5xx (the classic overloaded-origin storm).
    * ``EVICTION_STORM`` — the edge's cache is flushed at window start
      (a deploy, a purge, an LRU collapse): the subsequent miss burst
      hits the origin exactly when it hurts.
    """

    EDGE_OUTAGE = "edge_outage"
    ORIGIN_BROWNOUT = "origin_brownout"
    EVICTION_STORM = "eviction_storm"


#: ``--faults all`` shorthand.
ALL_FAULT_KINDS: Tuple[FaultDomainKind, ...] = tuple(FaultDomainKind)

#: Domain name used for origin-scoped windows.
ORIGIN_DOMAIN = "origin"


@dataclass(frozen=True)
class FaultWindow:
    """One fault window over one domain (an edge, or the origin)."""

    kind: FaultDomainKind
    domain: str
    start_s: float
    end_s: float
    #: Brownout miss-latency multiplier (ignored by other kinds).
    latency_factor: float = 4.0
    #: Brownout per-miss 5xx probability (ignored by other kinds).
    error_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ExperimentError(
                f"fault window start must be >= 0, got {self.start_s}"
            )
        if self.end_s <= self.start_s:
            raise ExperimentError(
                f"fault window [{self.start_s}, {self.end_s}] is empty"
            )
        if self.latency_factor < 1.0:
            raise ExperimentError(
                f"latency factor must be >= 1, got {self.latency_factor}"
            )
        if not 0.0 <= self.error_probability <= 1.0:
            raise ExperimentError(
                "error probability must be in [0,1], got "
                f"{self.error_probability}"
            )

    def active(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class FaultDomainSchedule:
    """Deterministic fault windows over a topology's fault domains.

    For every eligible domain (each edge for edge-scoped kinds, the
    origin for brownouts) and window slot ``i < windows_per_domain``,
    three uniforms hashed from ``(seed, kind, domain, i)`` decide
    whether the window exists (``probability`` gate), where its start
    falls in ``[horizon_s/8, horizon_s]`` (the first eighth is kept
    storm-free so cohorts establish steady state first), and nothing
    else — the duration is the fixed ``duration_s``, which is what
    makes a window a *correlated domain* rather than noise.

    ``pinned`` windows are unioned in verbatim: scenario tests pin an
    exact mid-run outage instead of fishing for a seed that draws one.
    """

    kinds: Tuple[FaultDomainKind, ...] = ALL_FAULT_KINDS
    seed: int = 0
    probability: float = 1.0
    windows_per_domain: int = 1
    duration_s: float = 20.0
    horizon_s: float = 240.0
    latency_factor: float = 4.0
    error_probability: float = 0.5
    pinned: Tuple[FaultWindow, ...] = ()

    def __post_init__(self) -> None:
        if not self.kinds and not self.pinned:
            raise ExperimentError(
                "fault schedule needs at least one kind or a pinned window"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ExperimentError(
                f"fault probability must be in [0,1], got {self.probability}"
            )
        if self.windows_per_domain < 0:
            raise ExperimentError(
                f"windows per domain must be >= 0, got {self.windows_per_domain}"
            )
        if self.duration_s <= 0:
            raise ExperimentError(
                f"window duration must be positive, got {self.duration_s}"
            )
        if self.horizon_s <= 0:
            raise ExperimentError(
                f"horizon must be positive, got {self.horizon_s}"
            )

    def _draw(self, kind: FaultDomainKind, domain: str, slot: int):
        digest = hashlib.sha256(
            f"faultdom|{self.seed}|{kind.value}|{domain}|{slot}".encode("utf-8")
        ).digest()
        gate = int.from_bytes(digest[:8], "big") / 2**64
        when = int.from_bytes(digest[8:16], "big") / 2**64
        return gate, when

    def windows_for(self, topology: TopologySpec) -> Tuple[FaultWindow, ...]:
        """Every window this schedule opens over ``topology``, sorted."""
        windows = list(self.pinned)
        for kind in self.kinds:
            if kind is FaultDomainKind.ORIGIN_BROWNOUT:
                domains = [ORIGIN_DOMAIN]
            else:
                domains = [edge.edge_id for edge in topology.edges]
            for domain in domains:
                for slot in range(self.windows_per_domain):
                    gate, when = self._draw(kind, domain, slot)
                    if gate >= self.probability:
                        continue
                    lead = self.horizon_s / 8.0
                    start = lead + when * (self.horizon_s - lead)
                    windows.append(
                        FaultWindow(
                            kind=kind,
                            domain=domain,
                            start_s=start,
                            end_s=start + self.duration_s,
                            latency_factor=self.latency_factor,
                            error_probability=self.error_probability,
                        )
                    )
        return tuple(
            sorted(windows, key=lambda w: (w.start_s, w.domain, w.kind.value))
        )

    # -- CLI grammar --------------------------------------------------------

    def spec(self) -> str:
        """Round-trippable spec string: ``from_spec(s.spec()) == s``.

        Every field is emitted, floats at full ``repr`` precision, so
        the string (and the cohort key built from it) tells any two
        different schedules apart.
        """
        kinds = "-".join(kind.value for kind in self.kinds) or "none"
        parts = [
            f"{kinds}:p={self.probability!r},seed={self.seed}",
            f"windows={self.windows_per_domain}",
            f"duration={self.duration_s!r}",
            f"horizon={self.horizon_s!r}",
            f"latency={self.latency_factor!r}",
            f"errp={self.error_probability!r}",
        ]
        for window in self.pinned:
            parts.append(
                f"pin={window.kind.value}@{window.domain}"
                f"@{window.start_s!r}@{window.end_s!r}"
                f"@{window.latency_factor!r}@{window.error_probability!r}"
            )
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultDomainSchedule":
        """Parse the CLI's ``--faults`` grammar.

        ``KINDS[:KEY=VALUE,...]`` where ``KINDS`` is dash-separated
        fault-domain names (``edge_outage-eviction_storm``), ``all``,
        or ``none`` (pinned windows only); options are ``p``, ``seed``,
        ``windows``, ``duration``, ``horizon``, ``latency``, ``errp``
        and repeatable ``pin=KIND@DOMAIN@START@END``. Examples::

            --faults all
            --faults edge_outage:seed=3,duration=30
            --faults none:pin=edge_outage@edge-a@60@90
        """
        head, _, tail = spec.strip().partition(":")
        if not head:
            raise ExperimentError(f"empty fault spec {spec!r}")
        if head == "all":
            kinds: Tuple[FaultDomainKind, ...] = ALL_FAULT_KINDS
        elif head == "none":
            kinds = ()
        else:
            try:
                kinds = tuple(FaultDomainKind(name) for name in head.split("-"))
            except ValueError:
                known = "-".join(k.value for k in ALL_FAULT_KINDS)
                raise ExperimentError(
                    f"unknown fault-domain kind in {head!r}; known: {known} "
                    f"(dash-separated), 'all', or 'none'"
                ) from None
        options = []
        if tail:
            for item in tail.split(","):
                key, sep, value = item.partition("=")
                if not sep:
                    raise ExperimentError(f"fault option {item!r} is not KEY=VALUE")
                options.append((key.strip(), value.strip()))
        scalars = {}
        pins = []
        for key, value in options:
            if key == "pin":
                pins.append(value)
            elif key in scalars:
                raise ExperimentError(f"duplicate fault option {key!r}")
            else:
                scalars[key] = value
        pinned = []
        for pin in pins:
            fields = pin.split("@")
            if len(fields) == 4:
                fields += [scalars.get("latency", 4.0), scalars.get("errp", 0.5)]
            if len(fields) != 6:
                raise ExperimentError(
                    f"pinned window {pin!r} is not "
                    "KIND@DOMAIN@START@END[@LATENCY@ERRP]"
                )
            try:
                pinned.append(
                    FaultWindow(
                        kind=FaultDomainKind(fields[0]),
                        domain=fields[1],
                        start_s=float(fields[2]),
                        end_s=float(fields[3]),
                        latency_factor=float(fields[4]),
                        error_probability=float(fields[5]),
                    )
                )
            except ValueError as exc:
                raise ExperimentError(f"bad pinned window {pin!r}: {exc}") from None
        known = {"p", "seed", "windows", "duration", "horizon", "latency", "errp"}
        unknown = set(scalars) - known
        if unknown:
            raise ExperimentError(
                f"unknown fault option(s): {sorted(unknown)}; "
                f"known: {sorted(known)}, pin"
            )
        try:
            return cls(
                kinds=kinds,
                seed=int(scalars.get("seed", 0)),
                probability=float(scalars.get("p", 1.0)),
                windows_per_domain=int(scalars.get("windows", 1)),
                duration_s=float(scalars.get("duration", 20.0)),
                horizon_s=float(scalars.get("horizon", 240.0)),
                latency_factor=float(scalars.get("latency", 4.0)),
                error_probability=float(scalars.get("errp", 0.5)),
                pinned=tuple(pinned),
            )
        except ValueError as exc:
            raise ExperimentError(f"bad fault option value: {exc}") from None
