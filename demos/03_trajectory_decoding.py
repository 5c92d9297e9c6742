"""Truncated-diffusion trajectory decoding end to end.

Builds a BEV bundle from streamed synthetic frames, clusters a trajectory
dataset into anchors, corrupts them at the truncation point of the noise
schedule, denoises in 2 steps conditioned on the BEV bundle and agent
queries, and picks the highest-confidence mode.
"""

from lindrive.decoder import cluster_anchors, plan_frame, random_decoder_params
from lindrive.fusion import EgoStatus, FusionSession, random_bev_params, random_fusion_params
from lindrive.harness import gen_synthetic_frames, gen_trajectory_dataset


def main():
    d = 64
    session = FusionSession(random_fusion_params(d, n_layers=2, tokens_per_frame=32, seed=21))
    *history, frame = gen_synthetic_frames(10, seed=22, d=d)
    for f in history:
        session.step(f)
    bev = random_bev_params(d, (4, 4), seed=23)
    print(f"BEV bundle: {bev.pos_emb.shape[0]} tokens of width {d}")

    dataset = gen_trajectory_dataset(120, seed=24)
    anchors = cluster_anchors(dataset, 20, seed=25)
    print(f"clustered {dataset.shape[0]} trajectories into {anchors.k} anchors")

    ego = EgoStatus(velocity=8.0, acceleration=0.3, command="follow")
    params = random_decoder_params(d, n_layers=2, seed=26)
    out, best, idx = plan_frame(session, bev, params, anchors, frame, ego, seed=27)
    print(f"decoded {out.n_modes} modes x {best.n} waypoints @ {best.dt} s")
    print(f"best mode {idx}: confidence {out.confidence[idx]:+.3f}, "
          f"on_road {out.on_road[idx]:.2f}, on_route {out.on_route[idx]:.2f}")
    print("waypoints (x, y, heading):")
    for wp in best.waypoints:
        print(f"  {wp[0]:8.2f} {wp[1]:8.2f} {wp[2]:+7.3f}")
    print(f"agent futures predicted for {out.agent_futures.shape[0]} agents")


if __name__ == "__main__":
    main()
