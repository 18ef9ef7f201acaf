"""Trajectory sampling for the switching processes at finite scale.

Continuous model: Euler-Maruyama on the lifted line for the spatial part,
with chemical switches simulated by thinning against a global rate bound, so
jump times are exact in law and carry no O(dt) bias.  Discrete model: exact
competing-clock simulation on the lifted lattice.  Positions live on the
universal cover so displacement and empirical velocity are well defined.

Randomness comes from counter-based Philox streams keyed by
(base seed, trajectory index): batches are reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .fields import grid_points, sampling_resolution
from .model import ContinuousModel, DiscreteModel, Model


def trajectory_rng(base_seed: int, index: int = 0) -> np.random.Generator:
    """Philox stream for one trajectory, derived from (base seed, index)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(base_seed), int(index)))))


class _DrawBuffer:
    """Amortized scalar draws from a Generator (keeps per-step cost low;
    consumption order is fixed, so results stay deterministic)."""

    def __init__(self, rng: np.random.Generator, kind: str, block: int = 8192):
        self._rng = rng
        self._kind = kind
        self._block = block
        self._buf = np.empty(0)
        self._pos = 0

    def __call__(self) -> float:
        if self._pos >= len(self._buf):
            if self._kind == "normal":
                self._buf = self._rng.standard_normal(self._block)
            elif self._kind == "exponential":
                self._buf = self._rng.standard_exponential(self._block)
            else:
                self._buf = self._rng.random(self._block)
            self._pos = 0
        val = self._buf[self._pos]
        self._pos += 1
        return float(val)


@dataclass(frozen=True)
class Trajectory:
    """One lifted sample path of (X_t, I_t)."""

    seed: int
    scale: float            # epsilon (continuous) or n (discrete)
    times: np.ndarray
    positions: np.ndarray   # lifted (unwrapped) spatial states
    states: np.ndarray      # chemical indices, constant between jump records
    kind: str               # "continuous" | "discrete"

    def __post_init__(self):
        for name, dtype in (("times", float), ("positions", float),
                            ("states", int)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.times) < 2 or self.times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0 and have >= 2 records")

    @property
    def empirical_velocity(self) -> float:
        return float((self.positions[-1] - self.positions[0])
                     / (self.times[-1] - self.times[0]))

    @property
    def switch_count(self) -> int:
        return int(np.sum(np.diff(self.states) != 0))

    def to_csv(self, path) -> None:
        """Fixed column order: t,x_lifted,i."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x_lifted,i\n")
            for t, x, i in zip(self.times, self.positions, self.states):
                fh.write(f"{t:.17g},{x:.17g},{i}\n")


# ---------------------------------------------------------------------------
# continuous model: Euler-Maruyama + thinning
# ---------------------------------------------------------------------------

def _gradient_closure(model: ContinuousModel, i: int):
    """Fast scalar gradient of psi^i for d = 1 (plain math calls beat numpy
    dispatch by an order of magnitude in the inner loop)."""
    psi = model.potentials[i]
    terms = [(2.0 * math.pi * k[0] / psi.period, a, b)
             for (k, a, b) in psi.fourier_coeffs]
    slope = float(psi.slope[0])

    def grad(y: float) -> float:
        g = slope
        for w, a, b in terms:
            wy = w * y
            g += w * (-a * math.sin(wy) + b * math.cos(wy))
        return g

    return grad


def _rate_closures(model: ContinuousModel):
    """J x J matrix of scalar rate evaluators (None where there is no channel)."""
    J = model.J

    def make_entry(i, j):
        entry = model.rates.entries[i][j]
        if entry is None or (i == j):
            return None
        terms = [(2.0 * math.pi * k[0] / entry.period, a, b)
                 for (k, a, b) in entry.fourier_coeffs]

        def rate(y: float) -> float:
            r = 0.0
            for w, a, b in terms:
                wy = w * y
                r += a * math.cos(wy) + b * math.sin(wy)
            return r

        return rate

    return [[make_entry(i, j) for j in range(J)] for i in range(J)]


def max_total_switching_rate(model: ContinuousModel) -> float:
    """sup over (y, i) of sum_j r_ij(y), from a resolving sample lattice."""
    fields = model.rates.iter_fields()
    if not fields:
        return 0.0
    n = sampling_resolution(fields)
    pts = grid_points(model.dim, n, model.period)
    worst = 0.0
    for i in range(model.J):
        total = np.zeros(len(pts))
        for j in range(model.J):
            entry = model.rates.entries[i][j]
            if i != j and entry is not None:
                total += entry.values(pts)
        worst = max(worst, float(np.max(total)))
    return worst


def simulate_continuous(model: ContinuousModel, eps: float, T: float,
                        dt: Optional[float] = None, seed: int = 0, *,
                        gamma: float = 1.0, x0: float = 0.0, i0: int = 0,
                        traj_index: int = 0, record_stride: Optional[int] = None,
                        freeze_position: bool = False) -> Trajectory:
    """One lifted path of the diffusion with switching, exact jump times.

    dt defaults to eps/20 and must satisfy dt <= eps/10 so the fast variable
    x/eps is resolved.  `freeze_position` pins x at x0 (spatial dynamics off)
    so switching statistics can be tested against the exact rates.
    """
    if model.dim != 1:
        raise NotImplementedError("trajectory sampling is implemented for d = 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if dt is None:
        dt = eps / 20.0
    if dt > eps / 10.0 or dt <= 0:
        raise ValueError(f"dt = {dt} must lie in (0, eps/10] to resolve the "
                         "fast variable")
    if not 0 <= i0 < model.J:
        raise ValueError(f"initial state {i0} out of range")
    rng = trajectory_rng(seed, traj_index)
    normals = _DrawBuffer(rng, "normal")
    exps = _DrawBuffer(rng, "exponential")
    uniforms = _DrawBuffer(rng, "uniform")

    grads = [_gradient_closure(model, i) for i in range(model.J)]
    rates = _rate_closures(model)
    rate_scale = gamma / eps
    # 1% headroom: the lattice max can sit slightly below the continuum sup
    lam = 1.01 * rate_scale * max_total_switching_rate(model)

    steps_total = int(math.ceil(T / dt))
    if record_stride is None:
        record_stride = max(1, steps_total // 256)

    t, x, i = 0.0, float(x0), int(i0)
    times = [0.0]
    positions = [x]
    states = [i]
    sqrt_eps = math.sqrt(eps)
    next_candidate = (t + exps() / lam) if lam > 0 else math.inf
    step_count = 0

    def em_step(target: float):
        nonlocal t, x
        step = target - t
        if step <= 0:
            t = target
            return
        drift = -grads[i](x / eps) if not freeze_position else 0.0
        noise = sqrt_eps * math.sqrt(step) * normals()
        if not freeze_position:
            x = x + drift * step + noise
        t = target

    while t < T:
        horizon = min(T, next_candidate)
        while t < horizon:
            target = min(horizon, t + dt)
            em_step(target)
            step_count += 1
            if step_count % record_stride == 0:
                times.append(t)
                positions.append(x)
                states.append(i)
        if next_candidate <= T and t >= next_candidate:
            y = x / eps
            row = rates[i]
            vals = [max(0.0, rate_scale * row[j](y)) if row[j] is not None
                    else 0.0 for j in range(model.J)]
            total = sum(vals)
            if total > lam * (1 + 1e-12):
                raise RuntimeError("thinning bound violated; rate field "
                                   "sampling resolution too low")
            if lam > 0 and uniforms() < total / lam:
                u = uniforms() * total
                acc = 0.0
                target_state = i
                for j, vj in enumerate(vals):
                    acc += vj
                    if u <= acc:
                        target_state = j
                        break
                i = target_state
                times.append(t)
                positions.append(x)
                states.append(i)
            next_candidate = t + exps() / lam if lam > 0 else math.inf

    if times[-1] != T:
        times.append(T)
        positions.append(x)
        states.append(i)
    return Trajectory(seed=seed, scale=eps, times=np.array(times),
                      positions=np.array(positions), states=np.array(states),
                      kind="continuous")


# ---------------------------------------------------------------------------
# discrete model: exact competing clocks
# ---------------------------------------------------------------------------

def simulate_discrete(model: DiscreteModel, n: int, T: float, seed: int = 0, *,
                      gamma: float = 1.0, site0: int = 0, i0: int = 0,
                      traj_index: int = 0) -> Trajectory:
    """Exact event-driven path: hop rates n r_+-, switching rates n gamma r_ij."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= i0 < model.J:
        raise ValueError(f"initial state {i0} out of range")
    rng = trajectory_rng(seed, traj_index)
    exps = _DrawBuffer(rng, "exponential")
    uniforms = _DrawBuffer(rng, "uniform")

    ell, J = model.ell, model.J
    rp = model.hop_rates_plus
    rm = model.hop_rates_minus
    sw = model.switching

    t = 0.0
    m = int(site0)          # lifted integer position; x = m / n
    i = int(i0)
    times = [0.0]
    positions = [m / n]
    states = [i]
    while True:
        k = m % ell
        hop_up = n * rp[i, k]
        hop_dn = n * rm[i, k]
        switch = [n * gamma * sw[i, j, k] if j != i else 0.0 for j in range(J)]
        total = hop_up + hop_dn + sum(switch)
        t_next = t + exps() / total
        if t_next >= T:
            break
        t = t_next
        u = uniforms() * total
        if u < hop_up:
            m += 1
        elif u < hop_up + hop_dn:
            m -= 1
        else:
            acc = hop_up + hop_dn
            for j, r in enumerate(switch):
                acc += r
                if u < acc:
                    i = j
                    break
        times.append(t)
        positions.append(m / n)
        states.append(i)
    times.append(T)
    positions.append(m / n)
    states.append(i)
    return Trajectory(seed=seed, scale=float(n), times=np.array(times),
                      positions=np.array(positions), states=np.array(states),
                      kind="discrete")


# ---------------------------------------------------------------------------
# batches and the concentration experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryBatch:
    """Independent paths with their empirical-velocity summary."""

    trajectories: tuple
    velocities: np.ndarray
    mean: float
    sd: float
    se: float

    @classmethod
    def from_trajectories(cls, trajs: Sequence[Trajectory]) -> "TrajectoryBatch":
        vels = np.array([tr.empirical_velocity for tr in trajs])
        sd = float(np.std(vels, ddof=1)) if len(vels) > 1 else 0.0
        return cls(tuple(trajs), vels, float(np.mean(vels)), sd,
                   sd / math.sqrt(len(vels)) if len(vels) > 1 else 0.0)


def batch_continuous(model: ContinuousModel, eps: float, T: float, paths: int,
                     base_seed: int, dt: Optional[float] = None, *,
                     gamma: float = 1.0, x0: float = 0.0,
                     i0: int = 0) -> TrajectoryBatch:
    return TrajectoryBatch.from_trajectories([
        simulate_continuous(model, eps, T, dt, seed=base_seed, gamma=gamma,
                            x0=x0, i0=i0, traj_index=idx)
        for idx in range(paths)])


def batch_discrete(model: DiscreteModel, n: int, T: float, paths: int,
                   base_seed: int, *, gamma: float = 1.0, site0: int = 0,
                   i0: int = 0) -> TrajectoryBatch:
    return TrajectoryBatch.from_trajectories([
        simulate_discrete(model, n, T, seed=base_seed, gamma=gamma,
                          site0=site0, i0=i0, traj_index=idx)
        for idx in range(paths)])


@dataclass(frozen=True)
class ScaleResult:
    scale: float
    mean_v: float
    sd: float
    se: float
    predicted_v: float
    verdict: bool           # |mean - predicted| <= 3 se


@dataclass(frozen=True)
class ConcentrationReport:
    rows: tuple
    sd_monotone: bool       # spread shrinks as the scale parameter refines

    @property
    def all_pass(self) -> bool:
        return all(r.verdict for r in self.rows) and self.sd_monotone

    def to_csv(self, path) -> None:
        """Fixed column order: epsilon,mean_v,sd,se,predicted_v,verdict."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epsilon,mean_v,sd,se,predicted_v,verdict\n")
            for r in self.rows:
                fh.write(f"{r.scale:.17g},{r.mean_v:.17g},{r.sd:.17g},"
                         f"{r.se:.17g},{r.predicted_v:.17g},"
                         f"{'pass' if r.verdict else 'fail'}\n")


def concentration_experiment(model: Model, scales: Sequence[float], T: float,
                             paths: int, base_seed: int,
                             predicted_v: Optional[float] = None, *,
                             dt_factor: float = 20.0, gamma: float = 1.0,
                             solver_n: int = 128,
                             solver_tol: float = 1e-10) -> ConcentrationReport:
    """Empirical-velocity concentration against the eigenvalue prediction.

    Scales are epsilon values (continuous, decreasing) or lattice refinements n
    (discrete, increasing).  Per scale the verdict is |mean - DH(0)| <= 3 SE;
    across scales the sample SD must shrink as the limit is approached.
    """
    scales = list(scales)
    if len(scales) == 0:
        raise ValueError("need at least one scale")
    continuous = isinstance(model, ContinuousModel)
    refining = np.diff(scales) < 0 if continuous else np.diff(scales) > 0
    if len(scales) > 1 and not np.all(refining):
        raise ValueError("scales must refine monotonically")
    if predicted_v is None:
        from .hamiltonian import velocity_of_model
        predicted_v, _ = velocity_of_model(model, N=solver_n, tol=solver_tol,
                                           gamma=gamma)
    rows: List[ScaleResult] = []
    for scale in scales:
        if continuous:
            batch = batch_continuous(model, float(scale), T, paths, base_seed,
                                     dt=float(scale) / dt_factor, gamma=gamma)
        else:
            batch = batch_discrete(model, int(scale), T, paths, base_seed,
                                   gamma=gamma)
        verdict = abs(batch.mean - predicted_v) <= 3.0 * batch.se
        rows.append(ScaleResult(float(scale), batch.mean, batch.sd, batch.se,
                                float(predicted_v), bool(verdict)))
    sds = [r.sd for r in rows]
    sd_monotone = all(sds[k + 1] <= sds[k] * (1 + 1e-9)
                      for k in range(len(sds) - 1))
    return ConcentrationReport(tuple(rows), sd_monotone)
