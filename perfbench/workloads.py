"""The benchmark's three workloads: drive, stream and eval.

Each is a closed loop with one client: the next op starts only after the
previous one returned, because a planner takes the next frame only once the
last plan is done. A run cycles through a workload's ROUNDS rounds of
identical structure, so counts per op repeat exactly; the inputs of round
r are generated from (seed, r), so no two rounds share data. The package
is driven only through its public functions, always resolved on the
module at call time so the traced run can wrap them.

A round has three kinds of timed unit:
  op       one frame planned (drive), one frame fused (stream), or one
           scene scored against every anchor (eval)
  history  the batch rebuild of the workload's state from a whole history
           (drive: two per round, on windows shifted by one frame;
           stream: one; the first is the history the stream consumed)
  resume   save the workload's state, restore it, then run the next op
           (four per round, each on the next input)
A unit is timed as a whole. Each unit keeps the fastest time it took over
every run of its round in the cycle: each run repeats the same computation
on the same data, so only the machine's noise differs, and runs spread
over the whole measurement are unlikely all to fall into one slow spell.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from lindrive import decoder, fusion, harness, pdms

import oracle

D = 64
L_CAM = L_LID = 16
TOKENS = L_CAM + L_LID
K = 16  # anchors, and so modes per frame and trajectories per scene
RESUMES = 4  # resume units per round
SCORE_CFG = pdms.ScoreConfig()


def derive_seed(*parts: int) -> int:
    """A 31-bit seed drawn from the tuple (run seed, purpose, round, ...)."""
    return int(np.random.default_rng(list(parts)).integers(2**31))


class Recorder:
    """Timings, failed checks and input properties of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.traced = False
        # fastest[(kind, traced)][r]: seconds per unit of round r, each the
        # fastest over every run of the round
        self.fastest = defaultdict(dict)
        # single[(kind, traced)]: seconds per unit timed outside a round
        self.single = defaultdict(list)
        # units[(kind, traced)]: units run, every run of a round counted
        self.units = defaultdict(int)
        self._round = None
        self.failures: list[str] = []
        self.props: dict[str, float] = {}
        self.notes: dict[str, float] = {}

    def times(self, kind: str, traced: bool = False) -> list[float]:
        """Seconds per unit of every round, each the fastest of its runs."""
        rounds = self.fastest[(kind, traced)]
        return [t for r in sorted(rounds) for t in rounds[r]]

    def run_round(self, r: int, run) -> None:
        """Call run() for one run of round r; each of the round's units keeps
        the fastest time it has taken over the round's runs."""
        self._round = defaultdict(list)
        try:
            run()
        finally:
            seconds_by_kind, self._round = self._round, None
        for kind, seconds in seconds_by_kind.items():
            rounds = self.fastest[(kind, self.traced)]
            rounds[r] = list(map(min, rounds[r], seconds)) if r in rounds else seconds

    @contextmanager
    def unit(self, kind: str):
        """Time the body as one unit of the given kind."""
        if self.traced:
            self.tracer.begin_unit(kind)
        t0 = perf_counter()
        try:
            yield
        finally:
            seconds = perf_counter() - t0
            if self.traced:
                self.tracer.end_unit()
            self.units[(kind, self.traced)] += 1
            if self._round is None:
                self.single[(kind, self.traced)].append(seconds)
            else:
                self._round[kind].append(seconds)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


class Drive:
    """The per-frame planning loop of `lindrive demo`, float64.

    One round is a 16-frame episode from a fresh fusion session; each frame
    runs FusionSession.step -> assemble_bev -> derive_agent_queries ->
    decode (2 layers x 2 denoising steps over 16 anchors) -> select_best ->
    score_trajectory of the chosen mode against that frame's scene.
    """

    FRAMES = 16
    ROUNDS = 3  # distinct rounds a run cycles through
    # history windows per round, at most RESUMES: the extra frames an
    # episode holds for its resumes make room for the shifts
    HISTORIES = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.snapshot = workdir / "drive-state.npz"

    def setup(self) -> None:
        s = self.seed
        self.params = fusion.random_fusion_params(D, 2, 1, TOKENS, seed=derive_seed(s, 1))
        self.bev = fusion.random_bev_params(D, (4, 4), seed=derive_seed(s, 2))
        self.dec = decoder.random_decoder_params(D, n_layers=2, n_agent_queries=8, seed=derive_seed(s, 3))
        dataset = harness.gen_trajectory_dataset(4 * K, derive_seed(s, 4))
        self.anchors = decoder.cluster_anchors(dataset, K, derive_seed(s, 5))
        self.first = self.inputs(0)
        # warm-up: every path a round takes, once
        session = fusion.FusionSession(self.params)
        self.plan(session, self.first, 0)
        self.history(self.first["frames"][:2])
        self.resume(session, self.first, 1)

    def inputs(self, r: int) -> dict:
        s = derive_seed(self.seed, 10, r)
        rng = np.random.default_rng(s)
        n = self.FRAMES + RESUMES
        commands = list(fusion.Command)
        return {
            "frames": harness.gen_synthetic_frames(n, s, l_camera=L_CAM, l_lidar=L_LID, d=D),
            "egos": [
                fusion.EgoStatus(
                    velocity=rng.uniform(0.0, 15.0),
                    acceleration=rng.uniform(-2.0, 2.0),
                    command=commands[rng.integers(len(commands))],
                )
                for _ in range(n)
            ],
            "scenes": [harness.gen_synthetic_scene(int(x))[0] for x in rng.integers(2**31, size=n)],
            "decode_seeds": [int(x) for x in rng.integers(2**31, size=n)],
        }

    def plan(self, session, ep: dict, i: int):
        fused = session.step(ep["frames"][i])
        bundle = fusion.assemble_bev(fused[L_CAM:], ep["egos"][i], self.bev)
        agent_q = decoder.derive_agent_queries(bundle, self.dec)
        out = decoder.decode(self.anchors, bundle, agent_q, self.dec, steps=2, seed=ep["decode_seeds"][i])
        best, _ = decoder.select_best(out)
        subs, score = pdms.score_trajectory(best, ep["scenes"][i])
        return fused, out, best, subs, score

    def history(self, frames):
        seq = fusion.build_frame_sequence(frames, self.params.pos_emb)
        return fusion.fuse_parallel(seq, self.params)

    def resume(self, session, ep: dict, i: int):
        session.save(self.snapshot)
        restored = fusion.FusionSession(self.params)
        restored.restore(self.snapshot)
        return self.plan(restored, ep, i)

    def run_round(self, r: int, ep: dict, rec: Recorder) -> None:
        session = fusion.FusionSession(self.params)
        collisions = 0
        for i in range(self.FRAMES):
            with rec.unit("op"):
                fused, out, _, subs, score = self.plan(session, ep, i)
            rec.check(
                out.n_modes == K and bool(np.isfinite(out.confidence).all()),
                f"drive round {r} frame {i}: {out.n_modes} modes or non-finite confidence",
            )
            rec.check(0.0 <= score <= 1.0, f"drive round {r} frame {i}: PDMS {score} outside [0, 1]")
            collisions += subs.nc == 0
        for k in range(self.HISTORIES):
            with rec.unit("history"):
                par = self.history(ep["frames"][k : k + self.FRAMES])
            if k == 0:
                diff = float(np.max(np.abs(par[-TOKENS:] - fused)))
                rec.check(diff <= 1e-10, f"drive round {r}: streamed vs parallel fusion differ by {diff:.3e}")
            rec.check(bool(np.isfinite(par).all()), f"drive round {r} window {k}: non-finite fusion")
        for i in range(self.FRAMES, self.FRAMES + RESUMES):
            with rec.unit("resume"):
                resumed = self.resume(session, ep, i)
            direct = self.plan(session, ep, i)
            rec.check(
                np.array_equal(resumed[0], direct[0])
                and np.array_equal(resumed[2].waypoints, direct[2].waypoints)
                and resumed[4] == direct[4],
                f"drive round {r} frame {i}: resumed plan is not bit-exact",
            )
        if r == 0:
            rec.props.update({
                "input.tokens_per_frame": TOKENS,
                "input.modes": K,
                "input.agents_per_scene": float(np.mean([len(sc.agents) for sc in ep["scenes"][: self.FRAMES]])),
                "pdms.collision_share": collisions / self.FRAMES,
                "rwkv7.state_bytes": session.persistent_bytes,
                "snapshots.file_bytes": self.snapshot.stat().st_size,
            })


class Stream:
    """Streaming fusion against its batch twin, float32, the bench config.

    One round is a 64-frame episode: stream the frames one at a time through
    a fresh FusionSession, fuse the same 2,048-token history with
    fuse_parallel, then four times save the session, restore it into a
    fresh one and step the next frame.
    """

    FRAMES = 64
    ROUNDS = 4
    # one ~130 ms window a round leaves time for more passes over the ops
    HISTORIES = 1
    SOFTMAX_GRID = (16, 32, 64, 128)
    SOFTMAX_REPS = 41

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.snapshot = workdir / "stream-state.npz"

    def setup(self) -> None:
        self.params = fusion.random_fusion_params(
            D, 2, 1, TOKENS, seed=derive_seed(self.seed, 1), dtype=np.float32
        )
        self.first = self.inputs(0)
        session = fusion.FusionSession(self.params)
        session.step(self.first[0])
        self.history(self.first[:2])
        self.resume(session, self.first[1])

    def inputs(self, r: int):
        return harness.gen_synthetic_frames(
            self.FRAMES + RESUMES, derive_seed(self.seed, 10, r),
            l_camera=L_CAM, l_lidar=L_LID, d=D, dtype=np.float32,
        )

    def history(self, frames):
        seq = fusion.build_frame_sequence(frames, self.params.pos_emb)
        return fusion.fuse_parallel(seq, self.params)

    def resume(self, session, frame):
        session.save(self.snapshot)
        restored = fusion.FusionSession(self.params)
        restored.restore(self.snapshot)
        return restored.step(frame)

    def run_round(self, r: int, frames: list, rec: Recorder) -> None:
        session = fusion.FusionSession(self.params)
        nbytes = session.persistent_bytes
        for i in range(self.FRAMES):
            with rec.unit("op"):
                last = session.step(frames[i])
            rec.check(
                session.persistent_bytes == nbytes,
                f"stream round {r} frame {i}: state is {session.persistent_bytes} B, not {nbytes} B",
            )
        for k in range(self.HISTORIES):
            with rec.unit("history"):
                par = self.history(frames[k : k + self.FRAMES])
            if k == 0:
                diff = float(np.max(np.abs(par[-TOKENS:].astype(np.float64) - last)))
                rec.check(diff <= 1e-5, f"stream round {r}: streamed vs parallel fusion differ by {diff:.3e}")
            rec.check(bool(np.isfinite(par).all()), f"stream round {r} window {k}: non-finite fusion")
        for i in range(self.FRAMES, self.FRAMES + RESUMES):
            with rec.unit("resume"):
                resumed = self.resume(session, frames[i])
            direct = session.step(frames[i])
            rec.check(
                np.array_equal(resumed, direct), f"stream round {r} frame {i}: resumed step is not bit-exact"
            )
        if r == 0:
            rec.props.update({
                "input.tokens_per_frame": TOKENS,
                "rwkv7.state_bytes": nbytes,
                "snapshots.file_bytes": self.snapshot.stat().st_size,
            })

    def softmax_ms(self) -> dict[int, float]:
        """Per-frame cost of the quadratic baseline at each history length:
        one frame's tokens attend over T frames of tokens; the fastest of
        repeats on the same input, like the workloads' own units."""
        sm = harness.random_softmax_params(D, seed=derive_seed(self.seed, 20), dtype=np.float32)
        frames = harness.gen_synthetic_frames(
            self.SOFTMAX_GRID[-1], derive_seed(self.seed, 21),
            l_camera=L_CAM, l_lidar=L_LID, d=D, dtype=np.float32,
        )
        tokens = np.vstack([np.vstack([f.camera, f.lidar]) for f in frames])
        costs = {}
        for T in self.SOFTMAX_GRID:
            q, kv = tokens[(T - 1) * TOKENS : T * TOKENS], tokens[: T * TOKENS]
            times = []
            for _ in range(self.SOFTMAX_REPS):
                t0 = perf_counter()
                harness.softmax_cross_attention(q, kv, sm)
                times.append(perf_counter() - t0)
            costs[T] = 1e3 * min(times)
        return costs


class Eval:
    """A PDMS sweep: every scene scored against all k=16 anchors.

    One round is 40 scenes whose agent counts run through 1..8 five times,
    so every round, whatever its seed, has the same mix of agent counts.
    A history unit rebuilds anchors by k-means from a trajectory log of 64
    plans; round r rebuilds from 32 logs of its own. K-means runs until its
    assignments settle, so its cost depends on the log, and many logs keep
    the median from hanging on a few of them.
    A resume unit saves and reloads the anchor set, then scores the next
    scene.
    """

    SCENES = 40
    ROUNDS = 1
    MAX_AGENTS = 8
    LOGS = 32  # k-means logs per round
    # every 9th scene is checked by the oracle; agent counts cycle every 8
    # scenes, so the checked scenes have different agent counts
    ORACLE_STRIDE = 9

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.anchor_file = workdir / "anchors.json"

    def setup(self) -> None:
        dataset = harness.gen_trajectory_dataset(4 * K, derive_seed(self.seed, 1))
        self.anchors = decoder.cluster_anchors(dataset, K, derive_seed(self.seed, 2))
        self.first = self.inputs(0)
        self.score(self.anchors, self.first["scenes"][0])
        self.history(self.first["logs"][0])
        self.resume(self.first["scenes"][1])

    def inputs(self, r: int) -> dict:
        return {
            "scenes": [
                harness.gen_synthetic_scene(
                    derive_seed(self.seed, 10, r, i), n_agents=1 + i % self.MAX_AGENTS
                )[0]
                for i in range(self.SCENES + RESUMES)
            ],
            "logs": [
                harness.gen_trajectory_dataset(4 * K, derive_seed(self.seed, 11, r, j))
                for j in range(self.LOGS)
            ],
        }

    @staticmethod
    def score(anchors, scene):
        return [pdms.score_trajectory(a, scene) for a in anchors.anchors]

    def history(self, log):
        return decoder.cluster_anchors(log, K, derive_seed(self.seed, 12))

    def resume(self, scene):
        decoder.save_anchors(self.anchor_file, self.anchors)
        return self.score(decoder.load_anchors(self.anchor_file), scene)

    def run_round(self, r: int, inputs: dict, rec: Recorder) -> None:
        scenes = inputs["scenes"]
        pairs = collisions = 0
        for key in ("oracle.pairs", "oracle.ill_posed"):
            rec.notes.setdefault(key, 0)
        for i in range(self.SCENES):
            with rec.unit("op"):
                results = self.score(self.anchors, scenes[i])
            for m, (subs, score) in enumerate(results):
                rec.check(0.0 <= score <= 1.0, f"eval round {r} scene {i} mode {m}: PDMS {score}")
                rec.check(
                    (subs.nc and subs.dac) or score == 0.0,
                    f"eval round {r} scene {i} mode {m}: hard penalty did not zero PDMS",
                )
                collisions += subs.nc == 0
            pairs += len(results)
            if (i + r) % self.ORACLE_STRIDE == 0:
                m = (i + r) % K
                self.oracle_check(r, i, scenes[i], self.anchors.anchors[m], results[m][0], rec)
        for j, log in enumerate(inputs["logs"]):
            with rec.unit("history"):
                rebuilt = self.history(log)
            rec.check(rebuilt.k == K, f"eval round {r} log {j}: k-means returned {rebuilt.k} anchors")
        for scene in scenes[self.SCENES:]:
            with rec.unit("resume"):
                resumed = self.resume(scene)
            direct = self.score(self.anchors, scene)
            rec.check(
                [(vars(a), b) for a, b in resumed] == [(vars(a), b) for a, b in direct],
                f"eval round {r}: scores with reloaded anchors differ",
            )
        if r == 0:
            rec.props.update({
                "input.modes": K,
                "input.agents_per_scene": float(np.mean([len(s.agents) for s in scenes[: self.SCENES]])),
                "pdms.collision_share": collisions / pairs,
            })

    def oracle_check(self, r, i, scene, anchor, subs, rec) -> None:
        """NC and TTC must match the 1 ms oracle wherever a 5 ms grid can
        resolve the contact at all.

        The grid misses an overlap that lasts fewer than five 1 ms samples,
        and classifies TTC by a later grid point when the first contact
        falls within one grid step below the TTC threshold. Such pairs are
        counted as ill-posed and reported, not compared; acceptance
        criterion 06 excludes them by construction of its scenes.
        """
        rec.notes["oracle.pairs"] += 1
        first, shortest = oracle.overlap_profile(
            anchor.waypoints, anchor.dt,
            [(a.pose, a.velocity, a.half_extents) for a in scene.agents],
            SCORE_CFG.ego_half_extents,
        )
        grid = SCORE_CFG.grid_dt
        if shortest < grid - 1e-9 or SCORE_CFG.ttc_min - grid < first < SCORE_CFG.ttc_min:
            rec.notes["oracle.ill_posed"] += 1
            return
        nc, ttc = int(math.isinf(first)), int(first >= SCORE_CFG.ttc_min)
        rec.check(
            (subs.nc, subs.ttc) == (nc, ttc),
            f"eval round {r} scene {i}: NC/TTC {subs.nc}/{subs.ttc}, oracle {nc}/{ttc} "
            f"(first overlap {first:.3f} s)",
        )


WORKLOADS = {"drive": Drive, "stream": Stream, "eval": Eval}
