"""Worked-example models, exact references, and model file round-trips.

Two families:

* a Dirichlet finite-difference discretization of the oscillator pair
  U^2 = -d^2/dx^2 + x^2 + beta, V = alpha * x on (-L, L), whose exact
  eigenvalues are known in closed form for 0 <= alpha < 1;
* the 2 x 2 well U^2 = [[2, -1], [-1, 2]], V = tau * diag(-1, 0), which
  loses its eigenbasis at tau = 2 where the two inner eigenvalues
  collide and then leave the real axis.

Model files are self-describing JSON, either the explicit matrices or a
named parameterized family; reals are serialized with 17 significant
digits so a save/load round trip is bit exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bounds import PerturbationSpec
from .core import ModelSpec, symmetrize
from .exceptions import AlphaOutOfRange, ParseError, ValidationError

__all__ = [
    "HarmonicParams",
    "harmonic_model",
    "exact_harmonic_eigs",
    "harmonic_sensitivity",
    "square_well_model",
    "square_well_perturbation",
    "random_perturbation",
    "load_model",
    "save_model",
    "SQUARE_WELL_U_SQUARED",
]

#: default desk-scale oscillator resolution
DEFAULT_GRID_POINTS = 1000
DEFAULT_HALF_WIDTH = 12.0

SQUARE_WELL_U_SQUARED = np.array([[2.0, -1.0], [-1.0, 2.0]])


@dataclass(frozen=True)
class HarmonicParams:
    """Oscillator model parameters: field strength alpha, mass offset beta,
    interior grid points and half width of the truncated interval."""

    alpha: float
    beta: float = 0.0
    grid_points: int = DEFAULT_GRID_POINTS
    half_width: float = DEFAULT_HALF_WIDTH

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValidationError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 0.0:
            raise ValidationError(f"beta must be >= 0, got {self.beta}")
        if self.grid_points < 3:
            raise ValidationError(f"grid_points must be >= 3, got {self.grid_points}")
        # numpy refuses an array of more bytes than an intp holds with a
        # ValueError, not a MemoryError: it is an allocation failure all the same
        if self.grid_points * 8 > np.iinfo(np.intp).max:
            raise MemoryError(
                f"grid_points = {self.grid_points}: its grid of floats is larger "
                "than numpy can allocate"
            )
        if self.half_width <= 0.0:
            raise ValidationError(f"half_width must be > 0, got {self.half_width}")


def harmonic_model(p: HarmonicParams) -> ModelSpec:
    """Discretize the oscillator pair on a uniform Dirichlet grid.

    Interior points x_i = -L + i*h, i = 1..N, h = 2L/(N+1); the second
    derivative uses the (-1, 2, -1)/h^2 stencil.  U^2 is positive
    definite for every beta >= 0.  The spec is built from the bands of
    the tridiagonal U^2 and the diagonal V (ModelSpec.from_bands), the
    floats a dense (-1, 2, -1)/h^2 + diag(x^2 + beta) would hold, and
    no n x n array is formed.  The grid is built in numpy floats with
    no warning: parameters whose grid leaves the float range (h^2 or x^2
    overflowing, h^2 underflowing, an infinite alpha or L) give
    non-finite entries, which ModelSpec rejects.
    """
    n, half = p.grid_points, p.half_width
    with np.errstate(all="ignore"):
        h = np.float64(2.0 * half / (n + 1))
        x = -half + h * np.arange(1, n + 1)
        diagonal = np.full(n, 2.0) / h**2 + (x * x + p.beta)
        off_diagonal = np.full(n - 1, -1.0) / h**2
        v = p.alpha * x
    label = (
        f"harmonic(alpha={p.alpha:g}, beta={p.beta:g}, "
        f"N={n}, L={half:g})"
    )
    return ModelSpec.from_bands(diagonal, off_diagonal, v, label=label)


def exact_harmonic_eigs(alpha: float, beta: float, n: int):
    """Closed-form oscillator eigenvalue pair for mode index n >= 0.

    Returns (mu_plus, mu_minus) = +-sqrt((1-alpha^2) beta
    + (1-alpha^2)^(3/2) (1+2n)).  At alpha = 0 this reduces to the free
    values +-sqrt(beta + 1 + 2n), the square roots of the oscillator
    levels of U^2, which the discretized spectrum reproduces.
    """
    if not 0.0 <= alpha < 1.0:
        raise AlphaOutOfRange(
            f"alpha = {alpha} is outside [0, 1); all eigenvalues collapse "
            "to zero as alpha -> 1"
        )
    if n < 0:
        raise ValidationError(f"mode index must be >= 0, got {n}")
    one = 1.0 - alpha * alpha
    mu = float(np.sqrt(one * beta + one**1.5 * (1.0 + 2.0 * n)))
    return mu, -mu


def harmonic_sensitivity(alpha: float) -> float:
    """Logarithmic eigenvalue derivative d(log mu)/d(alpha) at beta = 0.

    Equals -(3/2) alpha / (1 - alpha^2), so a field change alpha ->
    alpha + eps moves every eigenvalue relatively by about this times
    eps; the certified bound for the same change is eps / (1 - alpha),
    larger by the factor (3/2) alpha / (1 + alpha) < 3/4.
    """
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha = {alpha} must lie in (0, 1)")
    return -1.5 * alpha / (1.0 - alpha * alpha)


def square_well_model(tau: float) -> ModelSpec:
    """The 2 x 2 well: U^2 = [[2, -1], [-1, 2]], V = tau * diag(-1, 0), tau >= 0."""
    tau = float(tau)
    if tau < 0.0:
        raise ValidationError(f"tau must be >= 0, got {tau}")
    return ModelSpec(
        u_squared=SQUARE_WELL_U_SQUARED.copy(),
        v=np.diag([-tau, 0.0]),   # no tau * 0.0, which is nan at tau = inf
        label=f"square_well(tau={tau:g})",
    )


def square_well_perturbation(eta: float) -> PerturbationSpec:
    """The well perturbation dV = diag(eta, 0); a negative eta deepens the well.

    square_well_perturbation(-eta) moves the coupling tau to tau + eta,
    the convention of the worked example and of ``kg`` on the well.  Its
    measured constants, c = ||dV U^(-1)|| = |eta| sqrt(2/3) among them,
    are recorded by perturbation_constants.
    """
    return PerturbationSpec(delta_v=np.diag([float(eta), 0.0]))


def random_perturbation(order: int, scale: float, seed: int) -> PerturbationSpec:
    """Seeded symmetric perturbation with entries uniform on [-scale, scale].

    Uses the PCG64 generator, so a fixed seed reproduces the same matrix
    on every platform.  The draw is symmetrized, which keeps every entry
    within [-scale, scale].  Raises ValidationError for a negative seed
    and for a scale that is negative or NaN, or whose range 2*scale is
    beyond the float range.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if not scale >= 0.0:
        raise ValidationError(f"scale must be >= 0, got {scale}")
    if not np.isfinite(2.0 * float(scale)):
        raise ValidationError(
            f"scale {scale} is out of range: the draw range 2*scale overflows"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.uniform(-scale, scale, size=(order, order))
    return PerturbationSpec(delta_v=symmetrize(raw))


# ---------------------------------------------------------------------------
# model files


def _fmt(x: float) -> str:
    """One real with 17 significant digits (round-trips the double exactly).

    A negative zero is written -0.0: JSON reads -0 as the integer 0.
    """
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else text


def _fmt_matrix(m) -> str:
    rows = [", ".join(_fmt(x) for x in row) for row in np.asarray(m)]
    return "[\n    [" + "],\n    [".join(rows) + "]\n  ]"


def save_model(spec: ModelSpec, path) -> None:
    """Write a spec as self-describing JSON with full-precision reals."""
    text = (
        "{\n"
        f'  "label": {json.dumps(spec.label)},\n'
        f'  "u_squared": {_fmt_matrix(spec.u_squared)},\n'
        f'  "v": {_fmt_matrix(spec.v)}\n'
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _require(doc: dict, key: str, path) -> object:
    if key not in doc:
        raise ParseError(f"{path}: missing required field \"{key}\"")
    return doc[key]


def _real(value) -> float:
    """A JSON number as a float: 0.3 and 3 pass, true and "0.3" fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _integral(value) -> int:
    """An integral JSON number as an int: 10 and 10.0 pass, 10.7, true and "10" fail."""
    if not _real(value).is_integer():
        raise ValueError(f"not integral: {value!r}")
    return int(value)


def _number(doc: dict, key: str, path, kind=_real, default=None):
    """Field ``key`` converted by ``kind``; required when there is no default."""
    value = _require(doc, key, path) if default is None else doc.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = "an integral number" if kind is _integral else "a number"
        raise ParseError(
            f"{path}: field \"{key}\" must be {noun}, got {json.dumps(value)}"
        ) from exc


def load_model(path) -> ModelSpec:
    """Read a model file: explicit matrices or a named parameterized family.

    Raises ParseError for malformed JSON, missing fields or non-numeric
    family parameters and ValidationError (or subclasses) for
    structurally bad matrices or out-of-range parameters.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")

    if "model" in doc:
        family = doc["model"]
        if family == "harmonic":
            params = HarmonicParams(
                alpha=_number(doc, "alpha", path),
                beta=_number(doc, "beta", path, default=0.0),
                grid_points=_number(
                    doc, "grid_points", path, _integral, default=DEFAULT_GRID_POINTS
                ),
                half_width=_number(doc, "half_width", path, default=DEFAULT_HALF_WIDTH),
            )
            return harmonic_model(params)
        if family == "square_well":
            return square_well_model(_number(doc, "tau", path))
        raise ParseError(f"{path}: unknown model family \"{family}\"")

    u_squared = _require(doc, "u_squared", path)
    v = _require(doc, "v", path)
    try:
        u_squared = np.asarray(u_squared, dtype=float)
        v = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: matrix entries must be real numbers") from exc
    return ModelSpec(u_squared=u_squared, v=v, label=str(doc.get("label", "")))
