"""Process-independence oracles: what a run returns, and what it leaves
behind, does not depend on the process it ran in.

Grids are repeated and compared across processes — serial against a
worker pool, one machine against another — so three properties of the
running program are checked here, each in a fresh interpreter because
each belongs to a whole process:

* **Tied ladder.** A title whose combinations tie on every aggregate
  (avg, peak and declared bitrate) is simulated by every player policy
  on constant links, in eight processes under ``PYTHONHASHSEED`` 0-7.
  A selection that breaks a tie by set or hash order picks a different
  combination in some of them, and the digests of the results differ.
  (A track hashes by its id and medium alone, so a set's order is one
  per seed even before Python 3.12, where ``hash(None)`` follows the
  object's address; see the set-order check below.)
* **Set order.** Eight processes under one seed iterate a set of the
  drama title's tracks, and of its H_all combinations, in one order.
* **Fork count.** A pooled ``run_jobs`` forks exactly its workers
  under the ``fork`` start method (none under ``spawn`` or
  ``forkserver``), and leaves no live child once it returns.
* **Import side effects.** Importing every ``repro`` module builds no
  executor, starts no thread or child process, and fixes no
  multiprocessing start method.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The paper's regime (Fig. 4) taken to its limit: demuxed combinations
#: packed so closely in rate that several tie outright. V1+A2 and V2+A1
#: both read avg 400 / peak 500 kbps; V1+A3, V2+A2 and V3+A1 read
#: 500 / 600; V2+A3 and V3+A2 read 600 / 700.
TIED_LADDER_CHECK = """
import hashlib
import pickle
from collections import Counter

from repro.core.combinations import all_combinations
from repro.media.chunks import build_chunk_table
from repro.media.content import Content
from repro.media.tracks import MediaType, audio_track, make_ladder, video_track
from repro.net.link import shared
from repro.net.traces import constant
from repro.runner.jobs import PLAYER_NAMES, PRACTICE_PLAYER_NAMES, PlayerSpec
from repro.sim.session import simulate

video = make_ladder(MediaType.VIDEO, [
    video_track("V1", 200.0, 300.0),
    video_track("V2", 300.0, 400.0),
    video_track("V3", 400.0, 500.0),
])
audio = make_ladder(MediaType.AUDIO, [
    audio_track("A1", 100.0, 100.0),
    audio_track("A2", 200.0, 200.0),
    audio_track("A3", 300.0, 300.0),
])
content = Content(
    name="tied",
    video=video,
    audio=audio,
    chunk_table=build_chunk_table(
        list(video) + list(audio), duration_s=4.0, n_chunks=30
    ),
)
aggregates = Counter(
    (c.avg_kbps, c.peak_kbps, c.declared_kbps) for c in all_combinations(content)
)
tied = sum(n for n in aggregates.values() if n > 1)
digest = hashlib.sha256()
sessions = 0
for name in PLAYER_NAMES + PRACTICE_PLAYER_NAMES:
    for kbps in (450.0, 650.0, 900.0, 1500.0):
        player = PlayerSpec(name, combinations="all").build(content)
        result = simulate(content, player, shared(constant(kbps)))
        if not result.completed:
            raise SystemExit(f"{name} at {kbps} kbps did not complete")
        digest.update(pickle.dumps(result))
        sessions += 1
print(digest.hexdigest(), sessions, tied)
"""

SET_ORDER_CHECK = """
from repro.core.combinations import all_combinations
from repro.media.content import drama_show

content = drama_show()
tracks = set(content.video) | set(content.audio)
combinations = set(all_combinations(content))
print(
    ",".join(track.track_id for track in tracks),
    ",".join(combination.name for combination in combinations),
)
"""

FORK_COUNT_CHECK = """
import multiprocessing
import os

if __name__ == "__main__":
    forks = []
    os.register_at_fork(before=lambda: forks.append(os.getpid()))
    from repro.runner import PlayerSpec, SimulationJob, TraceSpec, run_jobs

    jobs = [
        SimulationJob(player=PlayerSpec(name), trace=TraceSpec.constant(kbps))
        for name in ("shaka", "recommended")
        for kbps in (900.0, 1500.0)
    ]
    outcomes = run_jobs(jobs, workers=2)
    errors = [o.error for o in outcomes if o.error is not None]
    if errors:
        raise SystemExit(f"pool jobs failed: {errors}")
    print(
        multiprocessing.get_start_method(),
        len(forks),
        len(multiprocessing.active_children()),
    )
"""

IMPORT_CHECK = """
import gc
import importlib
import multiprocessing
import pkgutil
import threading
from concurrent.futures import Executor

import repro

names = [repro.__name__] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + ".")
]
for name in names:
    importlib.import_module(name)
executors = [
    type(obj).__name__ for obj in gc.get_objects() if isinstance(obj, Executor)
]
print(
    len(names),
    len(executors),
    threading.active_count(),
    len(multiprocessing.active_children()),
    multiprocessing.get_start_method(allow_none=True),
)
"""


def _run(script: str, **env_overrides: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    env.update(env_overrides)
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    return completed.stdout


class TestTiedLadder:
    def test_results_do_not_depend_on_the_hash_seed(self):
        seeds = range(8)
        with ThreadPoolExecutor(max_workers=2) as interpreters:
            outputs = interpreters.map(
                lambda seed: _run(TIED_LADDER_CHECK, PYTHONHASHSEED=str(seed)),
                seeds,
            )
            runs = {seed: out.split() for seed, out in zip(seeds, outputs)}
        digests = {seed: run[0] for seed, run in runs.items()}
        assert len(set(digests.values())) == 1, digests
        _, sessions, tied = runs[0]
        # Every player on every link, over a title that really ties:
        # 7 of its 9 combinations share their aggregates with another.
        assert (int(sessions), int(tied)) == (32, 7)


class TestSetOrder:
    def test_track_and_combination_sets_iterate_alike_in_every_process(self):
        with ThreadPoolExecutor(max_workers=2) as interpreters:
            outputs = list(
                interpreters.map(
                    lambda _: _run(SET_ORDER_CHECK, PYTHONHASHSEED="0"), range(8)
                )
            )
        assert len(set(outputs)) == 1, outputs
        tracks, combinations = outputs[0].split()
        assert len(tracks.split(",")) == 9
        assert len(combinations.split(",")) == 18


class TestPoolProcesses:
    def test_pool_forks_and_joins_only_its_workers(self):
        method, forks, children = _run(FORK_COUNT_CHECK).split()
        assert int(forks) == (2 if method == "fork" else 0)
        assert int(children) == 0

    def test_importing_the_package_starts_nothing(self):
        modules, executors, threads, children, method = _run(IMPORT_CHECK).split()
        sources = list((SRC / "repro").rglob("*.py"))
        assert int(modules) == len(sources)
        assert (executors, threads, children, method) == ("0", "1", "0", "None")
