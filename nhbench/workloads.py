"""Seeded inputs for the four benchmark workloads.

Everything here is a pure function of the seed: the same seed gives a
byte-identical op list (see ``op_list_bytes``).  Nothing imports the
package under test; the only outside code used is the independent
brute-force oracle in ``tests/oracles.py``, read-only, to size the qubit
splitting so that D(t) = exp(-omega0^2 gamma(t)) stays representable
(no underflow to 0.0) over each config's horizon.

A workload's op list is one block; worker processes take consecutive
chunks of it, and a run covers the whole block at least once.  The
block's configs follow one fixed Latin-hypercube design: which stratum of
each parameter's range goes with which (and which symmetry class, half of
them each) is the same for every seed, while the seed places each value
inside its stratum and draws the qubit parameters and the check points.
Op cost and failure depend mostly on the strata, so the op-time median,
the tail and the failure share move little from one seed to the next,
while no two seeds share a config.
"""

from __future__ import annotations

import json
import math

import numpy as np

from common import import_oracles

WORKLOADS = ("figures", "scenarios", "analysis", "horizon")

# Preset names in list order, as `nhqubit list-presets` prints them.
PRESETS = (
    "fig_pt_phase", "fig_pt_decoherence", "fig_apt_phase",
    "fig_apt_decoherence", "fig_apt_vs_pt_entropy0", "fig_pt_qsl",
    "fig_apt_qsl", "fig_pt_entropy1", "fig_apt_entropy1",
    "fig_pt_entropy2", "fig_apt_entropy2", "fig_pt_entropy_inf",
    "fig_apt_entropy_inf",
)
FIGURES_GRID = 201  # every preset uses linspace(0, 20, 201)

SCENARIO_OUTPUTS = ["trajectory", "decoherence", "phase", "qsl", "entropy"]
SCENARIO_ORDERS = (0.0, 0.5, 1.0, 2.0, 3.0, math.inf)
HORIZON_OUTPUTS = ["decoherence", "phase"]
TOL = 1e-9

# Ops per block (12-15 s of work at the seed commit) and per worker.
BLOCK = {"figures": len(PRESETS), "scenarios": 56, "horizon": 56,
         "analysis": 96}
CHUNK = {"figures": len(PRESETS), "scenarios": 14, "horizon": 14,
         "analysis": 24}
ANALYSIS_PAIRS = 1  # (PT, APT) trajectory pairs evolved in set-up
ANALYSIS_T = (20.0, 20.0)       # t_max range: every grid is linspace(0, 20,
ANALYSIS_POINTS = (301, 301)    # 301)

# Largest omega0^2 * gamma(t_max) a config may reach: exp(-300) is far
# from the double underflow near exp(-745), with room for the oracle's
# coarse estimate to be off by a factor of two.
MAX_DECAY_EXPONENT = 300.0
MIN_OMEGA0_SQ = 0.01  # keeps the PT similarity transform well conditioned

# Latin-hypercube coordinates of a config, in this order, and the seed of
# the one design every block follows.
DIMS = ("t_max", "n_points", "omega_c", "beta", "mu", "j0", "omega0_sq")
DESIGN_SEED = 20250803


def _design(n: int) -> tuple[np.ndarray, list[str]]:
    """The fixed design of an n-config block: stratum per axis, symmetry."""
    fixed = np.random.default_rng(DESIGN_SEED)
    strata = np.stack([fixed.permutation(n) for _ in DIMS], axis=1)
    return strata, [str(s) for s in fixed.permutation(["PT", "AntiPT"] * (n // 2))]


def _lhs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, list[str]]:
    """n points in [0, 1)^len(DIMS), one in each of n equal strata per axis,
    placed by rng inside the fixed design's strata."""
    strata, symmetries = _design(n)
    return (strata + rng.random(strata.shape)) / n, symmetries


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _unit_gamma(t: float, omega_c: float, mu: float, beta: float) -> float:
    """gamma(t) per unit j0, from the oracle at coarse resolution."""
    value, _ = import_oracles().brute_gamma(
        t, j0=1.0, omega_c=omega_c, mu=mu, beta=beta, n_panels=2000)
    return value


def _draw_config(rng, symmetry: str, u, t_range, n_range) -> dict:
    """One unbroken PT/APT config from stratified coordinates u (DIMS)."""
    u = dict(zip(DIMS, (float(x) for x in u)))
    t_max = _log_uniform(u["t_max"], *t_range)
    n_points = n_range[0] + int(u["n_points"] * (n_range[1] - n_range[0] + 1))
    omega_c = 0.5 + 1.5 * u["omega_c"]
    beta = _log_uniform(u["beta"], 0.2, 5.0)
    mu = -0.5 + 1.5 * u["mu"]  # the oracle is valid for mu >= -0.5
    j0 = 0.05 + 0.95 * u["j0"]
    omega0_sq = _log_uniform(u["omega0_sq"], 0.05, 1.0)
    alpha = float(rng.uniform(0.5, 1.5))
    theta = float(rng.uniform(0.1, 1.0))
    angle = float(rng.uniform(0.1, 0.5 * math.pi - 0.1))
    if symmetry == "AntiPT":
        omega0_sq = min(omega0_sq, 0.9 * alpha * alpha)

    gamma1 = _unit_gamma(t_max, omega_c, mu, beta)
    omega0_sq = max(min(omega0_sq, MAX_DECAY_EXPONENT / (j0 * gamma1)),
                    MIN_OMEGA0_SQ)
    j0 = min(j0, MAX_DECAY_EXPONENT / (omega0_sq * gamma1))

    # PT: delta^2 + xi^2 - theta^2 = omega0^2; APT: alpha^2 - xi^2 - delta^2.
    radius = math.sqrt(theta * theta + omega0_sq if symmetry == "PT"
                       else alpha * alpha - omega0_sq)
    return {
        "symmetry": symmetry,
        "alpha": alpha, "theta": theta,
        "xi": radius * math.cos(angle), "delta": radius * math.sin(angle),
        "j0": j0, "omega_c": omega_c, "mu": mu, "beta": beta,
        "t_max": t_max, "n_points": n_points,
    }


def _block_configs(rng, n: int, t_range, n_range) -> list[dict]:
    u, symmetries = _lhs(rng, n)
    return [_draw_config(rng, s, u_i, t_range, n_range)
            for s, u_i in zip(symmetries, u)]


def config_text(cfg: dict, outputs, orders=()) -> str:
    """Scenario file in the package's key = value grammar."""
    lines = [
        f"qubit.symmetry = {cfg['symmetry']}",
        *(f"qubit.{k} = {cfg[k]!r}" for k in ("alpha", "theta", "xi", "delta")),
        *(f"bath.{k} = {cfg[k]!r}" for k in ("j0", "omega_c", "mu", "beta")),
        "initial.state = plus",
        f"grid.t_max = {cfg['t_max']!r}",
        f"grid.n_points = {cfg['n_points']}",
        f"outputs = {', '.join(outputs)}",
    ]
    if orders:
        lines.append("entropy.orders = "
                     + ", ".join("inf" if math.isinf(q) else repr(q)
                                 for q in orders))
    lines.append(f"tol = {TOL!r}")
    return "\n".join(lines) + "\n"


def _sample_index(rng, n_points: int) -> int:
    """Grid index (t > 0) at which D(t) is checked against the oracle."""
    return int(rng.integers(1, n_points))


def figures_ops(seed: int) -> list[dict]:
    # The presets are fixed; the seed only picks the oracle check points.
    rng = np.random.default_rng([seed, 0])
    return [{"id": i, "preset": name,
             "check_index": _sample_index(rng, FIGURES_GRID)}
            for i, name in enumerate(PRESETS)]


def _config_ops(rng, n, t_range, n_range, outputs, orders=()) -> list[dict]:
    return [{"id": i, "config": cfg, "outputs": outputs,
             "text": config_text(cfg, outputs, orders),
             "check_index": _sample_index(rng, cfg["n_points"])}
            for i, cfg in enumerate(_block_configs(rng, n, t_range, n_range))]


def scenarios_ops(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    return _config_ops(rng, BLOCK["scenarios"], (5.0, 40.0), (51, 201),
                       SCENARIO_OUTPUTS, SCENARIO_ORDERS)


def horizon_ops(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    return _config_ops(rng, BLOCK["horizon"], (50.0, 300.0), (21, 41),
                       HORIZON_OUTPUTS)


def analysis_inputs(seed: int) -> dict:
    """Trajectory pairs evolved in set-up, and the ops that analyse them.

    An op analyses one PT and one Anti-PT trajectory together: a PT
    analysis costs several times an Anti-PT one (numeric versus analytic
    Liouvillian norm), and an op list alternating the two would put the
    op-time median between two clusters, where it is unstable.  For the
    same reason every trajectory has the same grid: the analysis cost
    scales with the number of points, not with the parameters.
    """
    rng = np.random.default_rng([seed, 2])
    trajectories = []
    for symmetry in ("PT", "AntiPT"):
        u, _ = _lhs(rng, ANALYSIS_PAIRS)
        trajectories += [_draw_config(rng, symmetry, u_i, ANALYSIS_T,
                                      ANALYSIS_POINTS) for u_i in u]
    # Pair k is (trajectories[k], trajectories[ANALYSIS_PAIRS + k]).
    for cfg in trajectories:
        cfg["check_index"] = _sample_index(rng, cfg["n_points"])
    ops = []
    for i in range(BLOCK["analysis"]):
        pair = i % ANALYSIS_PAIRS
        spec = {"id": i, "horizons": {}}
        for k in (pair, ANALYSIS_PAIRS + pair):
            n = trajectories[k]["n_points"]
            spec["horizons"][str(k)] = sorted(
                int(j) for j in rng.choice(np.arange(1, n), 10, replace=False))
        extra = [float(q) for q in rng.uniform(0.1, 6.0, 6)]
        spec["orders"] = sorted(set(SCENARIO_ORDERS) | set(extra))
        ops.append(spec)
    return {"trajectories": trajectories, "ops": ops}


def make_ops(workload: str, seed: int) -> dict:
    """{"ops": [...], plus workload-specific set-up inputs}."""
    if workload == "figures":
        return {"ops": figures_ops(seed)}
    if workload == "scenarios":
        return {"ops": scenarios_ops(seed)}
    if workload == "analysis":
        return analysis_inputs(seed)
    if workload == "horizon":
        return {"ops": horizon_ops(seed)}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def op_list_bytes(workload: str, seed: int) -> bytes:
    """Canonical serialisation of a workload's inputs."""
    return json.dumps(make_ops(workload, seed), sort_keys=True).encode()
