"""Multi-path clipped policy-gradient agent with per-branch clip ranges.

Each action pathway (branch) keeps its own clip range, discount, loss weight
and value head; the single scalar environment reward feeds every branch's
advantage estimator. Updates follow the usual clipped-surrogate recipe: K
epochs of shuffled minibatches, a combined Adam step over actor and critic
with global gradient-norm clipping, run on exactly the episode just
collected, so collection always restarts from the freshly updated policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, clip, exp, minimum, mul, square, sub
from .environment import run_episodes
from .nets import (
    BranchSpec, CriticNetwork, PolicyNetwork, config_fingerprint, gaussian_entropy,
    gaussian_log_prob, load_checkpoint, sample_action, save_checkpoint,
)
from .optim import Adam, clip_grad_norm


def default_branches() -> list[BranchSpec]:
    """Width branch (knife spacing) and thickness branch (DS/OS roll gaps)."""
    return [
        BranchSpec("width", action_dims=1, clip_epsilon=0.2, discount=0.99,
                   loss_weight=0.5, init_sigma=0.5),
        BranchSpec("thickness", action_dims=2, clip_epsilon=0.1, discount=0.99,
                   loss_weight=0.5, init_sigma=0.3),
    ]


@dataclass
class UpdateConfig:
    lr: float = 3e-4
    epochs: int = 10
    minibatch: int = 64
    gae_lambda: float = 0.95
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    grad_clip: float = 0.5
    adv_eps: float = 1e-8
    trunk_sizes: tuple = (64, 64)

    def __post_init__(self):
        if self.epochs < 1 or self.minibatch < 1:
            raise ValueError("update: epochs and minibatch must be >= 1")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("update: gae_lambda must be in [0, 1]")
        # else an update climbs its loss (a value < 0), stalls (0) or is NaN (adv_eps 0)
        for name in ("lr", "grad_clip", "adv_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"update: {name} must be > 0")
        for name in ("value_coef", "entropy_coef"):
            if getattr(self, name) < 0:
                raise ValueError(f"update: {name} must be >= 0")
        if not self.trunk_sizes or min(self.trunk_sizes) < 1:
            raise ValueError("update: trunk_sizes must hold one or more sizes, each >= 1")


# ----------------------------------------------------------------------
# return / advantage machinery
# ----------------------------------------------------------------------

def discounted_returns(rewards: np.ndarray, dones: np.ndarray, gamma: float) -> np.ndarray:
    """R_t = r_t + gamma * R_{t+1}, restarting at episode boundaries."""
    rewards = np.asarray(rewards, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if rewards.size == 0:
        raise ValueError("discounted_returns: empty reward sequence")
    if rewards.shape != dones.shape:
        raise ValueError("discounted_returns: rewards and dones differ in length")
    out = np.empty_like(rewards)
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        running = rewards[t] + gamma * running * (1.0 - dones[t])
        out[t] = running
    return out


def gae_advantages(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                   gamma: float, lam: float, last_value: float = 0.0):
    """Generalized advantage estimates and bootstrapped return targets.

    A step with ``done`` set bootstraps zero and resets the lambda-recursion.
    Any other step bootstraps the next step's value, and the last step
    bootstraps ``last_value``: the critic's value of the final successor when
    the sequence is cut off rather than ended. Returns (advantages, targets)
    with targets = advantages + values.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if not (len(rewards) == len(values) == len(dones)):
        raise ValueError("gae_advantages: rewards, values and dones differ in length")
    adv = np.empty_like(rewards)
    running = 0.0
    next_value = last_value
    for t in range(len(rewards) - 1, -1, -1):
        not_done = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * not_done - values[t]
        running = delta + gamma * lam * not_done * running
        adv[t] = running
        next_value = values[t]
    return adv, adv + values


def standardize(x: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """(x - mean) / (population std + eps); a lone element maps to zero."""
    x = np.asarray(x, dtype=np.float64)
    return (x - x.mean()) / (x.std() + eps)


def clipped_surrogate(ratio: Tensor, advantages: np.ndarray, eps: float) -> Tensor:
    """Per-sample objective min(rho*A, clip(rho, 1-eps, 1+eps)*A)."""
    adv = Tensor(np.asarray(advantages, dtype=np.float64))
    return minimum(mul(ratio, adv), mul(clip(ratio, 1.0 - eps, 1.0 + eps), adv))


# ----------------------------------------------------------------------
# the agent
# ----------------------------------------------------------------------

class MultiPathPpoAgent:
    """Actor with N independent pathways plus a critic with per-branch heads.

    ``shared_advantage=True`` collapses the critic to a single head whose
    advantage drives every branch (the plain branched-PPO ablation).
    """

    def __init__(self, state_dim: int, branches: list[BranchSpec],
                 cfg: UpdateConfig | None = None, seed: int = 0,
                 shared_advantage: bool = False):
        self.cfg = cfg or UpdateConfig()
        self.branches = list(branches)
        self.shared_advantage = shared_advantage
        self.rng = np.random.default_rng(seed)
        net_rng = np.random.default_rng([seed, 101])
        self.policy = PolicyNetwork(state_dim, branches, net_rng,
                                    trunk_sizes=list(self.cfg.trunk_sizes))
        n_heads = 1 if shared_advantage else len(branches)
        self.critic = CriticNetwork(state_dim, n_heads, net_rng,
                                    trunk_sizes=list(self.cfg.trunk_sizes))
        self.params = list(self.named_tensors().values())
        self.opt = Adam([self.policy.param, self.critic.param], lr=self.cfg.lr)
        self._offsets = np.cumsum([0] + [b.action_dims for b in branches])

    def branch_slice(self, i: int) -> slice:
        return slice(self._offsets[i], self._offsets[i + 1])

    def head_index(self, i: int) -> int:
        return 0 if self.shared_advantage else i

    # -- acting ----------------------------------------------------------
    def act(self, state: np.ndarray) -> np.ndarray:
        """Sample one action from the current policy."""
        return sample_action(self.policy.means(state)[0], self.policy.stds(), self.rng)

    def mean_action(self, state: np.ndarray) -> np.ndarray:
        """The deterministic action: every branch's Gaussian mean."""
        return self.policy.means(state)[0]

    def log_probs(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """[n, branches] log-densities of ``actions`` under the current policy."""
        with ad.no_grad():
            outs = self.policy.forward(states)
            return np.stack([
                gaussian_log_prob(mean, log_std, actions[:, self.branch_slice(i)]).data
                for i, ((mean, _), log_std) in enumerate(zip(outs, self.policy.log_stds))
            ], axis=1)

    # -- updating ----------------------------------------------------------
    def update(self, states, final_state, actions, rewards) -> dict:
        """One full clipped-surrogate update on one collected episode.

        ``states`` holds the n visited states the actions were taken in and
        ``final_state`` the successor of the last one. The policy and critic
        have not changed since collection, so the old log-probs and values
        are computed here, in one batch each.
        """
        cfg = self.cfg
        n = len(states)
        old_lps = self.log_probs(states, actions)
        values = self.critic.values(np.concatenate([states, final_state[None]]))
        # episode ends are truncations of a continuing process: bootstrap the
        # final successor's value so completing an objective is not
        # value-penalized
        dones = np.zeros(n)

        branch_adv = []
        branch_targets = []
        for i, b in enumerate(self.branches):
            v = values[:, self.head_index(i)]
            adv, targets = gae_advantages(rewards, v[:-1], dones, b.discount, cfg.gae_lambda,
                                          last_value=v[-1])
            branch_adv.append(standardize(adv, cfg.adv_eps))
            branch_targets.append(targets)

        stats = {"policy_loss": [], "value_loss": [], "entropy": [],
                 "grad_norm": [], "ratio_mean": [[] for _ in self.branches],
                 "clip_frac": [[] for _ in self.branches]}
        order = np.arange(n)
        for _ in range(cfg.epochs):
            self.rng.shuffle(order)
            for lo in range(0, n, cfg.minibatch):
                mb = order[lo:lo + cfg.minibatch]
                self._minibatch_step(states[mb], actions[mb], old_lps[mb],
                                     [a[mb] for a in branch_adv],
                                     [t[mb] for t in branch_targets], stats)
        return {
            "policy_loss": float(np.mean(stats["policy_loss"])),
            "value_loss": float(np.mean(stats["value_loss"])),
            "entropy": float(np.mean(stats["entropy"])),
            "grad_norm": float(np.mean(stats["grad_norm"])),
            "ratio_mean": [float(np.mean(r)) for r in stats["ratio_mean"]],
            "clip_frac": [float(np.mean(c)) for c in stats["clip_frac"]],
            "samples": n,
        }

    def _minibatch_step(self, states, actions, old_lps, advs, targets, stats):
        cfg = self.cfg
        outs = self.policy.forward(states)
        vouts = self.critic.forward(states)

        loss = None
        entropy_total = None
        for i, b in enumerate(self.branches):
            mean, _ = outs[i]
            log_std = self.policy.log_stds[i]
            new_lp = gaussian_log_prob(mean, log_std, actions[:, self.branch_slice(i)])
            ratio = exp(sub(new_lp, Tensor(old_lps[:, i])))
            surr = clipped_surrogate(ratio, advs[i], b.clip_epsilon)
            branch_loss = -1.0 * ad.mean_(surr) * b.loss_weight
            loss = branch_loss if loss is None else loss + branch_loss

            ent = gaussian_entropy(log_std)
            entropy_total = ent if entropy_total is None else entropy_total + ent

            stats["ratio_mean"][i].append(float(ratio.data.mean()))
            stats["clip_frac"][i].append(float(np.mean(
                np.abs(ratio.data - 1.0) > b.clip_epsilon)))

        vf_terms = []
        for i in range(len(self.branches)):
            v = vouts[self.head_index(i)]
            target = Tensor(targets[i][:, None])
            vf_terms.append(ad.mean_(square(sub(v, target))))
        vf = vf_terms[0]
        for term in vf_terms[1:]:
            vf = vf + term
        vf = vf * (1.0 / len(vf_terms))

        total = loss + cfg.value_coef * vf - cfg.entropy_coef * entropy_total
        if not np.isfinite(total.data):
            raise RuntimeError(
                f"non-finite update loss: policy={loss.data}, value={vf.data}, "
                f"entropy={entropy_total.data}")
        ad.backward(total)
        norm = clip_grad_norm(self.params, cfg.grad_clip)
        self.opt.step()

        stats["policy_loss"].append(float(loss.data))
        stats["value_loss"].append(float(vf.data))
        stats["entropy"].append(float(entropy_total.data))
        stats["grad_norm"].append(norm)

    # -- persistence ------------------------------------------------------
    def named_tensors(self) -> dict:
        named = dict(self.policy.named_tensors())
        named.update(self.critic.named_tensors())
        return named

    def fingerprint(self) -> str:
        return config_fingerprint({
            "branches": [vars(b) for b in self.branches],
            "cfg": vars(self.cfg),
            "shared_advantage": self.shared_advantage,
            "state_dim": self.policy.state_dim,
        })

    def save(self, path):
        """Write the parameters only, for evaluation: not Adam's moments and
        step count nor ``rng``'s state, so an agent loaded from the file and
        trained further does not continue this agent's run."""
        save_checkpoint(path, self.named_tensors(), {"fingerprint": self.fingerprint()})

    def load(self, path):
        """Load parameters saved by an agent of the same configuration, in
        place; the optimizer and ``rng`` keep their own state."""
        load_checkpoint(path).restore(self.named_tensors(), self.fingerprint())


# ----------------------------------------------------------------------
# training / evaluation loops
# ----------------------------------------------------------------------

def train_agent(env, agent: MultiPathPpoAgent, episodes: int, steps_per_episode: int):
    """The interaction loop: collect one episode, update on it, repeat.

    Episodes run to the environment's own end, so ``steps_per_episode`` must
    equal ``env.episode.max_steps``. Returns one record per episode with the
    total reward, the first step at which both objectives were inside
    tolerance (the episode length when they never were), and the terminal
    errors.
    """
    if steps_per_episode != env.episode.max_steps:
        raise ValueError(f"train_agent: steps_per_episode {steps_per_episode} != "
                         f"env.episode.max_steps {env.episode.max_steps}")
    curve = []
    for ep in range(episodes):
        (rec,) = run_episodes(env, agent.act, 1)
        states = rec["states"]
        up_stats = agent.update(states[:-1], states[-1], rec["actions"], rec["rewards"])
        curve.append({
            "episode": ep,
            "total_reward": rec["total_reward"],
            "optimize_step": rec["optimize_step"],
            "width_err": rec["width_err"],
            "thickness_err": rec["thickness_err"],
            "entropy": up_stats["entropy"],
        })
    return curve


def evaluate_greedy(env, agent: MultiPathPpoAgent, episodes: int = 10):
    """Deterministic (mean-action) rollouts; returns per-episode records."""
    return run_episodes(env, agent.mean_action, episodes)
