"""Picklable simulation-job specs with content-addressed keys.

A grid experiment describes each cell as a :class:`SimulationJob` —
plain data naming the content, the player build recipe, the bandwidth
trace, the failure/retry configuration and a replicate seed. Specs
(not live objects) cross the process boundary: the worker rebuilds the
content, player and network from the spec, so no manifest, RNG or
player state is ever shared between cells, and two processes handed
the same spec run byte-identical simulations.

Every job has a stable content-addressed :meth:`~SimulationJob.key`
(sha256 over the canonical spec JSON plus a schema version), which is
both the cache key and the determinism contract: any field that can
change the simulation outcome participates in the hash, so editing a
trace, a seed or a retry policy misses the cache instead of replaying
a stale result.

The key layout — every field and ``spec_dict()`` key of the dataclasses
reachable from :meth:`SimulationJob.key` — is a guarded compatibility
surface, snapshotted in ``surfaces/spec_keys.json``. Changing it fails
``repro-abr lint`` (``SURF-KEY-CHURN``) until the change is recorded
with ``--update-surfaces``, and a *semantic* change must also bump
:data:`SPEC_SCHEMA_VERSION` so old cache entries miss instead of
colliding (decision table in ``docs/static_analysis.md``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..errors import ExperimentError
from ..net.resilience import FailureKind, ResilienceModel, RetryPolicy
from ..net.traces import BandwidthTrace

#: Bump when the spec schema or the simulation's observable behaviour
#: changes incompatibly; every cached entry from older schemas misses.
SPEC_SCHEMA_VERSION = 1

# -- content ----------------------------------------------------------------


def _drama_show():
    from ..media.content import drama_show

    return drama_show()


#: Registry of named content builders (kept tiny and lazy so importing
#: the runner does not pull the whole media layer into every worker).
_CONTENT_REGISTRY: Dict[str, Callable[[], object]] = {"drama": _drama_show}


def register_content(name: str):
    """Decorator registering a zero-arg content factory under ``name``."""

    def decorate(fn: Callable[[], object]):
        # Import-time registration runs identically in every process
        # before any pool exists (hence the waiver below).
        _CONTENT_REGISTRY[name] = fn  # lint: allow[POOL-GLOBAL-MUTABLE]
        return fn

    return decorate


@dataclass(frozen=True)
class ContentSpec:
    """A named title from the content registry."""

    name: str = "drama"

    def build(self):
        try:
            factory = _CONTENT_REGISTRY[self.name]
        except KeyError:
            raise ExperimentError(
                f"unknown content {self.name!r}; known: {sorted(_CONTENT_REGISTRY)}"
            ) from None
        return factory()


# -- traces -----------------------------------------------------------------


@dataclass(frozen=True)
class TraceSpec:
    """Recipe for a bandwidth trace.

    ``kind`` selects the builder; ``args`` are its positional
    parameters, kept as plain tuples so the spec hashes canonically:

    * ``constant`` — ``(kbps,)``
    * ``pairs`` — ``((duration_s, kbps), ...)``
    * ``hspa`` / ``lte`` — ``(seed, duration_s)`` Markov presets
    * ``random_walk`` — ``(mean_kbps, seed)``
    * ``func`` — ``("package.module", "function")``: any importable
      zero-arg trace factory (how the named paper profiles in
      :mod:`repro.experiments.traces` ride the runner).
    """

    kind: str
    args: Tuple = ()

    @classmethod
    def constant(cls, kbps: float) -> "TraceSpec":
        return cls("constant", (float(kbps),))

    @classmethod
    def pairs(cls, pairs) -> "TraceSpec":
        return cls("pairs", tuple((float(d), float(k)) for d, k in pairs))

    @classmethod
    def hspa(cls, seed: int, duration_s: float = 300.0) -> "TraceSpec":
        return cls("hspa", (int(seed), float(duration_s)))

    @classmethod
    def lte(cls, seed: int, duration_s: float = 300.0) -> "TraceSpec":
        return cls("lte", (int(seed), float(duration_s)))

    @classmethod
    def random_walk(cls, mean_kbps: float, seed: int) -> "TraceSpec":
        return cls("random_walk", (float(mean_kbps), int(seed)))

    @classmethod
    def func(cls, module: str, function: str) -> "TraceSpec":
        return cls("func", (module, function))

    def build(self) -> BandwidthTrace:
        from ..net import markov, traces

        if self.kind == "constant":
            return traces.constant(self.args[0])
        if self.kind == "pairs":
            return traces.from_pairs(list(self.args))
        if self.kind == "hspa":
            return markov.hspa_preset(seed=self.args[0], duration_s=self.args[1])
        if self.kind == "lte":
            return markov.lte_preset(seed=self.args[0], duration_s=self.args[1])
        if self.kind == "random_walk":
            return traces.random_walk(mean_kbps=self.args[0], seed=self.args[1])
        if self.kind == "func":
            module = importlib.import_module(self.args[0])
            return getattr(module, self.args[1])()
        raise ExperimentError(f"unknown trace kind {self.kind!r}")


# -- players ----------------------------------------------------------------

PLAYER_NAMES = (
    "exoplayer-dash",
    "exoplayer-hls",
    "shaka",
    "dashjs",
    "recommended",
)


@dataclass(frozen=True)
class PlayerSpec:
    """Recipe for a player model, mirroring the experiments' builders.

    ``combinations`` picks the manifest the player adapts over
    (``"hsub"`` = curated H_sub, ``"all"`` = the full H_all listing);
    ``audio_order`` reorders HLS audio renditions (the ExoPlayer-HLS
    pinned-first-audio pathology is triggered by listing A3 first).
    """

    name: str
    combinations: str = "hsub"
    audio_order: Optional[Tuple[str, ...]] = None

    def build(self, content):
        from ..core.combinations import all_combinations, hsub_combinations
        from ..core.player import RecommendedPlayer
        from ..manifest.packager import package_dash, package_hls
        from ..players.dashjs import DashJsPlayer
        from ..players.exoplayer import ExoPlayerDash, ExoPlayerHls
        from ..players.shaka import ShakaPlayer

        combos = (
            hsub_combinations(content)
            if self.combinations == "hsub"
            else all_combinations(content)
        )
        if self.name == "exoplayer-dash":
            return ExoPlayerDash(package_dash(content))
        if self.name == "exoplayer-hls":
            master = package_hls(
                content,
                combinations=combos if self.combinations == "hsub" else None,
                audio_order=list(self.audio_order) if self.audio_order else None,
            ).master
            return ExoPlayerHls(master)
        if self.name == "shaka":
            master = package_hls(
                content,
                combinations=combos if self.combinations == "hsub" else None,
            ).master
            return ShakaPlayer.from_hls(master)
        if self.name == "dashjs":
            return DashJsPlayer(package_dash(content))
        if self.name == "recommended":
            return RecommendedPlayer(combos)
        raise ExperimentError(
            f"unknown player {self.name!r}; known: {PLAYER_NAMES}"
        )


# -- failure injection ------------------------------------------------------


@dataclass(frozen=True)
class FailureSpec:
    """Recipe for a seeded failure model.

    ``taxonomy=False`` rebuilds the legacy anonymous
    :class:`~repro.net.failures.FailureModel`; ``True`` the full
    :class:`~repro.net.resilience.ResilienceModel`. ``mix`` is a tuple
    of ``(FailureKind value, weight)`` pairs (``None`` = model
    default) in *caller order* — the model maps uniform draws through
    the mix's cumulative weights, so ordering is part of the seeded
    behaviour and must survive the spec round trip.
    """

    probability: float
    seed: int = 0
    taxonomy: bool = False
    resume_probability: float = 0.6
    mix: Optional[Tuple[Tuple[str, float], ...]] = None

    @classmethod
    def with_mix(
        cls,
        probability: float,
        seed: int,
        mix: Optional[Dict[FailureKind, float]],
        resume_probability: float = 0.6,
    ) -> "FailureSpec":
        packed = None
        if mix is not None:
            packed = tuple((kind.value, float(w)) for kind, w in mix.items())
        return cls(
            probability=probability,
            seed=seed,
            taxonomy=True,
            resume_probability=resume_probability,
            mix=packed,
        )

    def build(self):
        if not self.taxonomy:
            from ..net.failures import FailureModel

            return FailureModel(self.probability, seed=self.seed)
        mix = None
        if self.mix is not None:
            mix = {FailureKind(value): weight for value, weight in self.mix}
        return ResilienceModel(
            self.probability,
            seed=self.seed,
            mix=mix,
            resume_probability=self.resume_probability,
        )


# -- the job ----------------------------------------------------------------


@dataclass(frozen=True)
class SimulationJob:
    """One grid cell: everything needed to replay one session.

    ``seed`` is a free grid coordinate (replicate index); it
    participates in the key even when no sub-spec reads it, so
    replicates of an otherwise identical cell cache independently.
    """

    content: ContentSpec = field(default_factory=ContentSpec)
    player: PlayerSpec = field(default_factory=lambda: PlayerSpec("recommended"))
    trace: TraceSpec = field(default_factory=lambda: TraceSpec.constant(1000.0))
    rtt_s: float = 0.0
    failure: Optional[FailureSpec] = None
    retry_policy: Optional[RetryPolicy] = None
    live_offset_s: Optional[float] = None
    seed: int = 0

    def spec_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form; the basis of the cache key."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "content": dataclasses.asdict(self.content),
            "player": dataclasses.asdict(self.player),
            # Not ``asdict``: it deep-copies every float of a measured
            # trace. ``args`` is already a tuple of plain values, which
            # encodes to the same JSON bytes.
            "trace": {"kind": self.trace.kind, "args": self.trace.args},
            "rtt_s": self.rtt_s,
            "failure": (
                None if self.failure is None else dataclasses.asdict(self.failure)
            ),
            "retry_policy": (
                None
                if self.retry_policy is None
                else dataclasses.asdict(self.retry_policy)
            ),
            "live_offset_s": self.live_offset_s,
            "seed": self.seed,
        }

    def key(self) -> str:
        """Stable content-addressed identity of this job."""
        canonical = json.dumps(
            self.spec_dict(), sort_keys=True, separators=(",", ":"), default=list
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self, key: Optional[str] = None) -> str:
        """Short human identity for chaos logs and failure messages.

        ``key`` is this job's :meth:`key` when the caller already holds
        it, which spares a second hash of the spec.
        """
        key = self.key() if key is None else key
        return f"{self.player.name}/{self.trace.kind}/s{self.seed}#{key[:10]}"

    def build(self, observer=None):
        """Rebuild (content, player, network, config) from the spec.

        ``observer`` (a :class:`~repro.sim.session.SessionObserver`)
        taps the rebuilt session's event stream — the runner passes an
        :class:`~repro.replay.EventRecorder` here when ``--record`` is
        set.
        """
        from ..net.link import shared
        from ..sim.session import SessionConfig

        content = self.content.build()
        player = self.player.build(content)
        network = shared(self.trace.build(), rtt_s=self.rtt_s)
        config = SessionConfig(
            live_offset_s=self.live_offset_s,
            failure_model=None if self.failure is None else self.failure.build(),
            retry_policy=self.retry_policy,
            observer=observer,
        )
        return content, player, network, config

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "SimulationJob":
        """Rebuild a job from its :meth:`spec_dict` (JSON round-trip safe).

        The inverse that makes recorded event logs *re-runnable*: a
        log's ``session_meta`` embeds the spec, so
        ``repro-abr replay --verify`` can re-simulate the exact cell
        and compare. Tuples inside the spec were flattened to lists by
        JSON; they are restored here so ``from_spec(j.spec_dict()).key()
        == j.key()`` holds exactly.
        """
        schema = spec.get("schema")
        if schema != SPEC_SCHEMA_VERSION:
            raise ExperimentError(
                f"job spec schema {schema!r} does not match this build "
                f"(expects {SPEC_SCHEMA_VERSION}); the cell cannot be "
                "re-run faithfully"
            )

        def tuplify(value):
            if isinstance(value, (list, tuple)):
                return tuple(tuplify(item) for item in value)
            return value

        content = ContentSpec(**spec["content"])
        player_d = dict(spec["player"])
        if player_d.get("audio_order") is not None:
            player_d["audio_order"] = tuplify(player_d["audio_order"])
        trace_d = dict(spec["trace"])
        failure_d = spec.get("failure")
        failure = None
        if failure_d is not None:
            failure_d = dict(failure_d)
            if failure_d.get("mix") is not None:
                failure_d["mix"] = tuplify(failure_d["mix"])
            failure = FailureSpec(**failure_d)
        retry_d = spec.get("retry_policy")
        return cls(
            content=content,
            player=PlayerSpec(**player_d),
            trace=TraceSpec(trace_d["kind"], tuplify(trace_d.get("args", ()))),
            rtt_s=float(spec.get("rtt_s", 0.0)),
            failure=failure,
            retry_policy=None if retry_d is None else RetryPolicy(**retry_d),
            live_offset_s=spec.get("live_offset_s"),
            seed=int(spec.get("seed", 0)),
        )
