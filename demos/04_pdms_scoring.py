"""PDMS scoring on a hand-built scene.

Three candidate trajectories in one scene: a clean drive, one that leaves
the drivable area, and one that drives through a parked agent. The hard
penalties (no-collision, drivable-area) zero the score outright; the
weighted part trades off progress, time-to-collision margin and comfort.
"""

import numpy as np

from lindrive.decoder import Trajectory
from lindrive.pdms import AgentState, SceneEval, score_batch


def straight(speed, lateral=0.0):
    xs = speed * 0.5 * np.arange(1, 9)
    return Trajectory(np.stack([xs, np.full(8, lateral), np.zeros(8)], axis=1))


def main():
    scene = SceneEval(
        agents=[
            AgentState(
                pose=np.array([18.0, 0.0, 0.0]),
                velocity=np.array([0.0, 0.0]),
                half_extents=np.array([2.3, 0.9]),
            )
        ],
        drivable=np.array([[-5.0, -4.0], [60.0, -4.0], [60.0, 4.0], [-5.0, 4.0]]),
        centerline=np.stack([np.linspace(0, 50, 26), np.zeros(26)], axis=1),
        reference_progress=16.0,
    )

    candidates = {
        "lane change around the agent": Trajectory(np.stack([
            4.0 * 0.5 * np.arange(1, 9),
            np.array([0.0, 0.3, 0.9, 1.5, 2.1, 2.4, 2.4, 2.4]),
            np.zeros(8),
        ], axis=1)),
        "drift off the road": straight(4.0, lateral=-5.0),
        "plow straight into the agent": straight(9.0),
    }

    print(f"scene: {len(scene.agents)} agent(s), reference progress "
          f"{scene.reference_progress} m\n")
    header = f"{'candidate':<32} {'nc':>3} {'dac':>4} {'ttc':>4} {'comf':>5} {'ep':>6} {'pdms':>7}"
    print(header)
    print("-" * len(header))
    scores = score_batch(candidates.values(), scene)
    for name, (subs, score) in zip(candidates, scores):
        print(f"{name:<32} {subs.nc:>3} {subs.dac:>4} {subs.ttc:>4} "
              f"{subs.comfort:>5} {subs.ep:>6.3f} {score:>7.4f}")


if __name__ == "__main__":
    main()
