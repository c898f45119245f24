"""Picklable simulation-job specs with content-addressed keys.

Every experiment describes each session as a :class:`SimulationJob` —
plain data naming the content, the player build recipe, the bandwidth
trace, the failure/retry configuration, the live start and a replicate
seed. Specs (not live objects) cross the process boundary: the worker
rebuilds the player and network from the spec, so no RNG or player
state is ever shared between cells, and two processes handed the same
spec run byte-identical simulations. Titles are the exception: each
process builds a :class:`ContentSpec` once and every cell shares that
immutable object.

Every job has a stable content-addressed :meth:`~SimulationJob.key`
(sha256 over the canonical spec JSON plus a schema version), which is
both the cache key and the determinism contract: any field that can
change the simulation outcome participates in the hash, so editing a
trace, a seed or a retry policy misses the cache instead of replaying
a stale result.

The key layout is pinned by ``tests/test_runner.py``
(``TestKeyContract``): every dataclass field must appear in
``spec_dict()`` unless it holds its default (how a field added later
keeps older keys in place), and golden keys fix the bytes. A *semantic* change
must also bump :data:`SPEC_SCHEMA_VERSION` so old cache entries miss
instead of colliding.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from ..core.combinations import (
    all_combinations,
    combinations_from_pairs,
    hsub_combinations,
)
from ..errors import ExperimentError
from ..media.content import b_audio_ladder, c_audio_ladder, drama_show
from ..media.muxed import muxed_content
from ..net.resilience import FailureKind, ResilienceModel, RetryPolicy
from ..net.traces import BandwidthTrace

#: Bump when the spec schema or the simulation's observable behaviour
#: changes incompatibly; every cached entry from older schemas misses.
SPEC_SCHEMA_VERSION = 1


def _unkeyable(value: object) -> object:
    raise TypeError(
        f"spec_key cannot encode {value!r} ({type(value).__name__}): "
        "a spec holds only JSON values, lists and tuples"
    )


def spec_key(spec: Dict[str, object]) -> str:
    """sha256 over the canonical JSON of a job's ``spec_dict()``.

    The one content-addressing rule every job type keys by: sorted
    keys, no whitespace, tuples encoded as lists. Any other value (a
    set, a plain enum) raises ``TypeError`` naming it: a set would be
    keyed in hash order, which differs from process to process.
    """
    canonical = json.dumps(
        spec, sort_keys=True, separators=(",", ":"), default=_unkeyable
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- content ----------------------------------------------------------------


def _drama_muxed(drama):
    return muxed_content(drama, combinations=hsub_combinations(drama))


#: Titles made from the drama title, by how each is made: ``drama-b``
#: and ``drama-c`` carry the Fig. 2 audio sets B and C; ``drama-muxed``
#: is the H_sub pairs packaged as muxed variants.
_DERIVED_TITLES: Dict[str, Callable[[object], object]] = {
    "drama-b": lambda drama: drama.with_audio(b_audio_ladder()),
    "drama-c": lambda drama: drama.with_audio(c_audio_ladder()),
    "drama-muxed": _drama_muxed,
}


#: The one built title per :class:`ContentSpec` in this process.
_BUILT: Dict["ContentSpec", object] = {}


@dataclass(frozen=True)
class ContentSpec:
    """A named title: ``drama`` (Table 1) or one made from it."""

    name: str = "drama"

    def build(self):
        """The built title, synthesized on first use in this process.

        Every later call, and every derived title, reuses that one
        object, so nothing may change a built title.
        """
        built = _BUILT.get(self)
        if built is None:
            # Memo: the value is a pure function of the frozen spec, so
            # each worker building its own copy is correct by design.
            built = _BUILT[self] = self._synthesize()
        return built

    def _synthesize(self):
        if self.name == "drama":
            return drama_show()
        derive = _DERIVED_TITLES.get(self.name)
        if derive is None:
            known = sorted(["drama", *_DERIVED_TITLES])
            raise ExperimentError(
                f"unknown content {self.name!r}; known: {known}"
            )
        return derive(ContentSpec().build())


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

#: The five measured-player configurations, in report order.
PLAYER_NAMES = ("exoplayer-dash", "exoplayer-hls", "shaka", "dashjs", "recommended")

#: The other practice-compliant algorithms (see ``experiments.algorithms``).
PRACTICE_PLAYER_NAMES = ("chunk-aware", "mpc", "bola-joint")


def _without_defaults(spec: Dict[str, object], obj, names) -> Dict[str, object]:
    """Drop each of ``names`` (fields added after the key layout was
    pinned) from ``spec`` while ``obj`` holds its default."""
    defaults = {f.name: f.default for f in dataclasses.fields(obj)}
    for name in names:
        if getattr(obj, name) == defaults[name]:
            del spec[name]
    return spec


@dataclass(frozen=True)
class PlayerSpec:
    """Recipe for a player model, mirroring the experiments' builders.

    ``combinations`` picks the combinations the player adapts over:
    ``"hsub"`` = curated H_sub, ``"all"`` = the full H_all listing, or
    a tuple of ``"V+A"`` names. ``audio_order`` reorders HLS audio
    renditions (the ExoPlayer-HLS pinned-first-audio pathology is
    triggered by listing A3 first). ``balanced`` and ``shared_meter``
    switch the recommended player's practices off for ablations.
    """

    name: str
    combinations: Union[str, Tuple[str, ...]] = "hsub"
    audio_order: Optional[Tuple[str, ...]] = None
    balanced: bool = True
    shared_meter: bool = True

    def spec_dict(self) -> Dict[str, object]:
        return _without_defaults(
            dataclasses.asdict(self), self, ("balanced", "shared_meter")
        )

    def combination_set(self, content):
        if self.combinations == "hsub":
            return hsub_combinations(content)
        if self.combinations == "all":
            return all_combinations(content)
        if isinstance(self.combinations, tuple):
            return combinations_from_pairs(
                content, [name.split("+", 1) for name in self.combinations]
            )
        raise ExperimentError(
            f"unknown combinations {self.combinations!r}; "
            "known: 'hsub', 'all' or a tuple of 'V+A' names"
        )

    def build(self, content):
        from ..core.bola_joint import JointBolaPlayer
        from ..core.chunk_aware import ChunkAwarePlayer
        from ..core.mpc import MpcPlayer
        from ..core.player import RecommendedPlayer
        from ..manifest.packager import hls_master, package_dash, package_hls
        from ..players.dashjs import DashJsPlayer
        from ..players.exoplayer import ExoPlayerDash, ExoPlayerHls
        from ..players.shaka import ShakaPlayer

        if self.name != "recommended" and not (self.balanced and self.shared_meter):
            raise ExperimentError(f"{self.name!r} takes no balanced/shared_meter")
        if self.name == "exoplayer-dash":
            return ExoPlayerDash(package_dash(content))
        if self.name == "dashjs":
            return DashJsPlayer(package_dash(content))
        # The rest adapt over a combination set or list one in an HLS
        # master, which lists every combination for "all" (H_all).
        combos = self.combination_set(content)
        listing = None if self.combinations == "all" else combos
        if self.name == "exoplayer-hls":
            audio_order = list(self.audio_order) if self.audio_order else None
            return ExoPlayerHls(hls_master(content, listing, audio_order))
        if self.name == "shaka":
            return ShakaPlayer.from_hls(hls_master(content, listing))
        if self.name == "recommended":
            return RecommendedPlayer(
                combos, balanced=self.balanced, shared_meter=self.shared_meter
            )
        if self.name == "chunk-aware":
            return ChunkAwarePlayer.from_hls_package(
                combos, package_hls(content, combinations=listing)
            )
        if self.name == "mpc":
            return MpcPlayer(combos)
        if self.name == "bola-joint":
            return JointBolaPlayer(combos)
        raise ExperimentError(
            f"unknown player {self.name!r}; "
            f"known: {PLAYER_NAMES + PRACTICE_PLAYER_NAMES}"
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
    startup_threshold_s: Optional[float] = None
    seed: int = 0

    def spec_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form; the basis of the cache key."""
        spec = {
            "schema": SPEC_SCHEMA_VERSION,
            "content": dataclasses.asdict(self.content),
            "player": self.player.spec_dict(),
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
            "startup_threshold_s": self.startup_threshold_s,
            "seed": self.seed,
        }
        return _without_defaults(spec, self, ("startup_threshold_s",))

    def key(self) -> str:
        """Stable content-addressed identity of this job."""
        return spec_key(self.spec_dict())

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
        taps the rebuilt session's event stream — :meth:`execute`
        passes an :class:`~repro.replay.EventRecorder` here when it
        records. The content is this process's one built copy of the
        title (see :meth:`ContentSpec.build`).
        """
        from ..net.link import shared
        from ..sim.session import SessionConfig

        content = self.content.build()
        player = self.player.build(content)
        network = shared(self.trace.build(), rtt_s=self.rtt_s)
        config = SessionConfig(
            live_offset_s=self.live_offset_s,
            startup_threshold_s=self.startup_threshold_s,
            failure_model=None if self.failure is None else self.failure.build(),
            retry_policy=self.retry_policy,
            observer=observer,
        )
        return content, player, network, config

    def execute(
        self,
        attempt: int = 1,
        log_path: Optional[str] = None,
        key: Optional[str] = None,
    ):
        """Rebuild the cell from its spec and run it to a
        :class:`~repro.sim.records.SessionResult`.

        With ``log_path`` set, the session streams to an
        :class:`~repro.replay.EventRecorder` there; the header embeds
        this spec (so ``replay --verify`` can re-run the cell), its
        ``key``, label and ``attempt``. The recorder truncates on open,
        so a retried attempt rewrites the log — one log is always one
        attempt — and a kill mid-run leaves a torn-but-replayable
        prefix. ``key`` is this job's :meth:`key` when the caller
        already holds it.
        """
        from ..sim.session import simulate

        observer = None
        if log_path is not None:
            from ..replay.recorder import EventRecorder

            key = self.key() if key is None else key
            observer = EventRecorder(
                log_path,
                extra_meta={
                    "job": self.spec_dict(),
                    "key": key,
                    "label": self.label(key),
                    "attempt": attempt,
                },
            )
        try:
            content, player, network, config = self.build(observer)
            return simulate(content, player, network, config)
        finally:
            if observer is not None:
                observer.close()  # idempotent: the session closes it on success

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
        for name in ("combinations", "audio_order"):
            if isinstance(player_d.get(name), list):
                player_d[name] = tuplify(player_d[name])
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
            startup_threshold_s=spec.get("startup_threshold_s"),
            seed=int(spec.get("seed", 0)),
        )
