"""Seeded inputs and fixed command lists for the three benchmark workloads.

Every workload is one fixed list of ``kg`` commands that the closed loop
repeats.  The seed varies the values (couplings, field strengths,
perturbation seeds, random model matrices) but never the sizes or the
mix of command kinds and expected exit codes, so the amount of work per
pass is the same for every seed and run-to-run spread measures the
machine, not the draw.

Each command carries the matrix data that the output checks in
``oracle.py`` need.  ``expected_exit`` derives its exit code from those
inputs alone, with plain numpy, never from the program under test; the
checks call it after a pass, so set-up draws inputs and does no oracle
work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: coupling at which the 2 x 2 well loses its eigenbasis
WELL_CRITICAL = 2.0

#: perturbation strengths of the worked example-2 grid
EXAMPLE2_ETAS = (0.001, 0.1, 0.3)

#: bands of the well coupling tau and how many draws each gets per pass.
#: The bands keep every input at least 0.02 away from the thresholds
#: where the expected exit code flips (b = 1 at shift 0 near tau = 1.2247,
#: b = 1 at the paper shift at tau = 2, and a perturbed coupling
#: tau + eta = 2), so the expected result is never a rounding question.
TAU_BANDS = (
    (0.05, 1.20, 8),   # real spectrum, b < 1 for every shift policy
    (1.25, 1.68, 6),   # b >= 1 at shift 0 only
    (1.72, 1.88, 3),   # as above; eta = 0.3 pushes the perturbed well past 2
    (2.03, 2.20, 3),   # non-real pair, b >= 1 for every shift
)

#: held-out seed: kept out of every tuning run, for checking later
#: claims on inputs nobody optimised against
HELD_OUT_SEED = 9001


@dataclass(frozen=True)
class Command:
    """One ``kg`` invocation and everything its output check needs.

    ``argv`` omits ``--out``; the loop appends a fresh path per pass.
    ``u2``/``v`` is the model, ``dv`` the potential perturbation of a
    bounds/verify command, ``shift`` the policy ('zero', 'paper' or
    'optimize').
    """

    kind: str
    argv: tuple
    u2: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    dv: np.ndarray | None = field(default=None, repr=False)
    shift: str = "zero"
    tau: float | None = None
    sweep: tuple | None = None          # (lo, hi, steps)
    grid_points: int | None = None      # reproduce example1


# ---------------------------------------------------------------------------
# model data, computed independently of the package


def oscillator(alpha: float, n: int, beta: float = 0.0, half_width: float = 12.0):
    """Dirichlet finite differences of U^2 = -d^2/dx^2 + x^2 + beta, V = alpha x."""
    h = 2.0 * half_width / (n + 1)
    x = -half_width + h * np.arange(1, n + 1)
    lap = (
        2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    ) / h**2
    return lap + np.diag(x * x + beta), np.diag(alpha * x)


def well(tau: float):
    """The 2 x 2 well U^2 = [[2, -1], [-1, 2]], V = tau diag(-1, 0)."""
    return np.array([[2.0, -1.0], [-1.0, 2.0]]), tau * np.diag([-1.0, 0.0])


def seeded_perturbation(order: int, scale: float, seed: int):
    """The symmetric draw ``kg --seed`` uses: PCG64 uniform on [-scale, scale]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.uniform(-scale, scale, size=(order, order))
    return 0.5 * (raw + raw.T)


def u_inverse(u2):
    w, p = np.linalg.eigh(u2)
    return (p / np.sqrt(w)) @ p.T


def contraction(u2, v, mu: float) -> float:
    """b = ||(V - mu) U^(-1)||."""
    return float(np.linalg.norm((v - mu * np.eye(len(v))) @ u_inverse(u2), 2))


def min_contraction(u2, v) -> float:
    """min over mu of the convex function b(mu), by golden-section search."""
    u_inv = u_inverse(u2)
    u_norm = float(np.sqrt(np.linalg.eigvalsh(u2)[-1]))
    v_eigs = np.linalg.eigvalsh(v)
    lo, hi = v_eigs[0] - u_norm, v_eigs[-1] + u_norm
    eye = np.eye(len(v))

    def b_of(mu):
        return float(np.linalg.norm((v - mu * eye) @ u_inv, 2))

    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-12 * max(1.0, abs(lo) + abs(hi)):
        m1 = hi - ratio * (hi - lo)
        m2 = lo + ratio * (hi - lo)
        if b_of(m1) <= b_of(m2):
            hi = m2
        else:
            lo = m1
    return b_of(0.5 * (lo + hi))


def quadratic_eigs(u2, v):
    """Eigenvalues of (lam - V)^2 - U^2 from its companion linearization."""
    n = len(v)
    comp = np.zeros((2 * n, 2 * n))
    comp[:n, n:] = np.eye(n)
    comp[n:, :n] = u2 - v @ v
    comp[n:, n:] = 2.0 * v
    return np.linalg.eigvals(comp)


def is_clearly_real(eigs) -> bool:
    return bool(np.abs(eigs.imag).max() <= 1e-6 * (1.0 + np.abs(eigs).max()))


def _contraction_below_one(policy, u2, v, tau) -> bool:
    if policy == "paper":
        return contraction(u2, v, -tau / 2.0) < 1.0
    b0 = contraction(u2, v, 0.0)
    if policy == "optimize" and b0 >= 1.0:
        return min_contraction(u2, v) < 1.0
    return b0 < 1.0


_SHIFT_FLAGS = {"zero": (), "paper": ("--paper-shift",), "optimize": ("--optimize-shift",)}


def _num(x: float) -> str:
    return repr(float(x))


def _alpha_source(alpha: float, n: int):
    return ("--alpha", _num(alpha), "--grid-points", str(n))


def bounds_or_verify(kind, source, u2, v, dv, eta, seed, policy, tau=None):
    """A bounds/verify command; see ``expected_exit`` for its exit code."""
    argv = (kind, *source, "--eta", _num(eta), "--seed", str(seed), *_SHIFT_FLAGS[policy])
    return Command(kind, argv, u2=u2, v=v, dv=dv, shift=policy, tau=tau)


def expected_exit(cmd) -> int:
    """The exit code a command must return, derived from its inputs.

    bounds and verify exit 4 when the contraction b at the chosen shift
    is not below one; verify also exits 4 when the perturbed spectrum is
    non-real, because the real parts it reports then fail the pencil
    residual gate.  Every other command of the workloads succeeds.
    """
    if cmd.kind not in ("bounds", "verify"):
        return 0
    if not _contraction_below_one(cmd.shift, cmd.u2, cmd.v, cmd.tau):
        return 4
    if cmd.kind == "verify" and not is_clearly_real(quadratic_eigs(cmd.u2, cmd.v + cmd.dv)):
        return 4
    return 0


# ---------------------------------------------------------------------------
# the three workloads


def ladder_gate(rng, tiny: bool, input_dir):
    """kg spectrum and kg verify on the oscillator: the O(n^4) residual gate.

    One SVD per emitted eigenvalue (two for verify), plus two spectral
    norms per eigenvalue for the gate scale, dominate; a small oscillator
    sweep adds the sweep path of the same gate.
    """
    n = 12 if tiny else 80
    a_spec, a_ver, a_sweep = rng.uniform(0.28, 0.32, size=3)
    pert_seed = int(rng.integers(2**31))
    u2, v = oscillator(a_spec, n)
    cmds = [Command("spectrum", ("spectrum", *_alpha_source(a_spec, n)), u2=u2, v=v)]
    u2, v = oscillator(a_ver, n)
    dv = seeded_perturbation(n, 1e-3, pert_seed)
    cmds.append(
        bounds_or_verify(
            "verify", _alpha_source(a_ver, n), u2, v, dv, 1e-3, pert_seed, "zero"
        )
    )
    m = 8 if tiny else 24
    u2, v = oscillator(a_sweep, m)
    cmds.append(
        Command(
            "sweep",
            ("sweep", *_alpha_source(a_sweep, m), "--sweep-range", "0:1", "--steps", "21"),
            u2=u2,
            v=v,
            sweep=(0.0, 1.0, 21),
        )
    )
    return cmds, []


def ladder_dense(rng, tiny: bool, input_dir):
    """kg bounds at three contractions plus kg reproduce example1.

    Never calls the residual gate: the time goes to dense O(n^3) work
    (shift optimisation, eigensolve, sign operator, kappa bundle).  The
    alpha near 0.985 command has b >= 0.98 and takes the direct ``eig``
    path of the spectrum.
    """
    n = 16 if tiny else 160
    grid = 30 if tiny else 150
    alphas = (rng.uniform(0.28, 0.32), rng.uniform(0.28, 0.32), rng.uniform(0.984, 0.986))
    policies = ("zero", "optimize", "zero")
    cmds = []
    for alpha, policy in zip(alphas, policies):
        seed = int(rng.integers(2**31))
        u2, v = oscillator(alpha, n)
        dv = seeded_perturbation(n, 1e-3, seed)
        src = _alpha_source(alpha, n)
        cmds.append(bounds_or_verify("bounds", src, u2, v, dv, 1e-3, seed, policy))
    cmds.append(
        Command(
            "reproduce",
            ("reproduce", "example1", "--grid-points", str(grid)),
            grid_points=grid,
        )
    )
    return cmds, []


def _random_model(rng, n):
    """Random SPD U^2 and symmetric V with b = ||V U^(-1)|| in [0.05, 0.999]."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    u2 = (q * rng.uniform(0.5, 4.0, size=n)) @ q.T
    u2 = 0.5 * (u2 + u2.T)
    raw = rng.normal(size=(n, n))
    raw = 0.5 * (raw + raw.T)
    b = float(rng.uniform(0.05, 0.999))
    v = raw * (b / contraction(u2, raw, 0.0))
    return u2, 0.5 * (v + v.T), b


def well_many(rng, tiny: bool, input_dir):
    """Many tiny commands: the 2 x 2 well and random n <= 8 model files.

    Per-call overhead dominates.  Couplings straddle tau = 2, so
    non-real pairs, a defective eigenvalue and the exit-4 path all occur
    in a fixed proportion.  Returns the commands and the random models
    (file path plus matrices) that set-up writes through save_model.
    """
    cmds = []
    bands = ((0.05, 1.2, 1), (1.25, 1.68, 1), (1.72, 1.88, 1), (2.03, 2.2, 1)) if tiny else TAU_BANDS
    taus = [t for lo, hi, count in bands for t in rng.uniform(lo, hi, size=count)]
    for i, tau in enumerate(taus):
        u2, v = well(tau)
        src = ("--tau", _num(tau))
        eta = EXAMPLE2_ETAS[i % len(EXAMPLE2_ETAS)]
        dv = np.diag([-eta, 0.0])
        cmds.append(Command("spectrum", ("spectrum", *src), u2=u2, v=v))
        for kind in ("bounds", "verify"):
            for policy in ("zero", "paper", "optimize"):
                cmds.append(bounds_or_verify(kind, src, u2, v, dv, eta, 0, policy, tau))

    models = []
    orders = (3, 8) if tiny else (3, 4, 5, 6, 7, 8) * 2
    for k, n in enumerate(orders):
        u2, v, b = _random_model(rng, n)
        path = input_dir / f"model{k}.json"
        models.append((path, u2, v))
        # keep b + c < 1 at every shift policy, so the perturbed spectrum
        # is certified real and every command is expected to succeed
        c_max = 0.5 * (1.0 - b)
        eta = min(0.1, c_max / (n * np.linalg.norm(u_inverse(u2), 2)))
        seed = int(rng.integers(2**31))
        dv = seeded_perturbation(n, eta, seed)
        src = ("--model", str(path))
        cmds.append(Command("spectrum", ("spectrum", *src), u2=u2, v=v))
        for kind in ("bounds", "verify"):
            for policy in ("zero", "optimize"):
                cmds.append(bounds_or_verify(kind, src, u2, v, dv, eta, seed, policy))

    # the defective coupling itself and the example-2 cell that perturbs onto it
    u2, v = well(WELL_CRITICAL)
    cmds.append(Command("spectrum", ("spectrum", "--tau", "2"), u2=u2, v=v))
    u2, v = well(1.7)
    cmds.append(
        bounds_or_verify(
            "verify", ("--tau", "1.7"), u2, v, np.diag([-0.3, 0.0]), 0.3, 0, "paper", 1.7
        )
    )
    tau_s = float(rng.uniform(0.95, 1.05))
    steps = 101 if tiny else 1001
    u2, v = well(tau_s)
    cmds.append(
        Command(
            "sweep",
            ("sweep", "--tau", _num(tau_s), "--sweep-range", "0:2.2", "--steps", str(steps)),
            u2=u2,
            v=v,
            tau=tau_s,
            sweep=(0.0, 2.2, steps),
        )
    )
    cmds.append(Command("reproduce", ("reproduce", "example2")))
    return cmds, models


WORKLOADS = {
    "ladder-gate": ladder_gate,
    "ladder-dense": ladder_dense,
    "well-many": well_many,
}


def generate(name: str, seed: int, input_dir, tiny: bool = False):
    """(commands, random models to save) for one workload and seed.

    Model files named by the commands live in ``input_dir``.
    """
    rng = np.random.Generator(np.random.PCG64([seed, sorted(WORKLOADS).index(name)]))
    return WORKLOADS[name](rng, tiny, input_dir)
