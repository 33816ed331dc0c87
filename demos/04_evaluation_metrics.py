"""Score prediction sets: IFR (micro and macro), minADE/minFDE, GMM losses.

Reproduces the worked instruction-following-recall examples (6/6, 2/6, 1/6
matching trajectories) and shows the loss arithmetic on a toy GMM head.
"""

import math

import numpy as np

from motionkit import (
    HorizonConfig,
    best_mode,
    combined_loss,
    gmm_nll,
    ifr_macro,
    ifr_micro,
    ifr_scenario,
    min_ade,
    min_fde,
    score_loss,
)
from motionkit.attributes import DirectionLabel
from motionkit.metrics import PredictionSet
from motionkit.synth import SynthSpec, gen_prediction_set, gen_trajectory

horizon = HorizonConfig()
track, expected = gen_trajectory(SynthSpec(kind="straight", speed=10.0), horizon)

print("worked IFR examples (instruction: move straight):")
per_scenario = []
for matches in (6, 2, 1):
    preds = gen_prediction_set(track, expected.direction, match_count=matches, n_modes=6, horizon=horizon)
    value, _ = ifr_scenario(expected.direction, preds, horizon.dt)
    per_scenario.append(value)
    print(f"  {matches}/6 trajectories follow -> IFR {100 * value:6.2f}%")
print(f"  corpus micro IFR over the three: {100 * ifr_micro(per_scenario):.2f}%")

rows = [(DirectionLabel.STRAIGHT, 1.0)] * 9 + [(DirectionLabel.LEFT, 0.0)]
macro, per_class = ifr_macro(rows)
print("\nmacro vs micro on a 9-vs-1 class split:")
print(f"  per-class: {{ {', '.join(f'{k.value}: {v:.1f}' for k, v in per_class.items())} }}")
print(f"  macro = {macro:.4f}, micro = {ifr_micro([v for _, v in rows]):.4f}")

print("\ndisplacement errors (two modes, offsets 2.0 m and 0.5 m):")
gt = np.zeros((horizon.t_pred, 2))
preds = PredictionSet(
    scenario_id="demo",
    trajectories=np.stack([gt + np.array([2.0, 0.0]), gt + np.array([0.5, 0.0])]),
    scores=np.array([0.5, 0.5]),
)
valid = np.ones(horizon.t_pred, dtype=bool)
print(f"  minADE = {min_ade(gt, valid, preds):.3f} m, minFDE = {min_fde(gt, valid, preds):.3f} m")

print("\nGMM loss arithmetic at the selected steps [29, 49, 79]:")
t = horizon.t_pred
mu = np.stack([gt + np.array([1.0, 0.0]), gt.copy()])  # mode 1 is exact
sigma = np.ones((2, t, 2))
best = best_mode(mu, gt, horizon.t_select)
nll = gmm_nll(mu, sigma, gt, valid, best, horizon.t_select)
ce_uniform = score_loss(np.full(2, 0.5), best)
print(f"  best mode = {best} (the exact one), NLL over 3 steps = {nll:.3f}")
print(f"  uniform-score cross-entropy = ln 2 = {ce_uniform:.4f} (ln 6 = {math.log(6):.4f} for six modes)")
print(f"  combined loss: NLL + CE = {combined_loss(nll, ce_uniform):.4f}")
