"""Multi-strain SEIR dynamics with reinfection and a shared mitigation control.

The population is tracked as a total ``P`` together with per-strain exposed,
infected and removed compartments.  Susceptibles are algebraic,

    S_j = P - E_j - I_j - R_j,

so every strain sees its own susceptible pool.  Strains interact only through
deaths (which drain ``P``) and through the mitigation factor ``u`` in
``[0, 1]`` that scales every transmission term by ``1 - u``.

A strain enters the model when it is seeded.  Every flow is a product with
``E``, ``I`` or ``R``, so a strain with ``E = I = R = 0`` has no flows at all
and, until its seed, its susceptible pool simply tracks ``P``.  There is no
separate inactive state to switch on, and so no jump in the adjoint.

:func:`flows` is the one vectorised definition of the five per-strain flows,
from which :func:`full_system_rhs` is built, and so are the equilibrium
residuals and the finite-difference Jacobian that the tests keep as oracles
(``tests/conftest.py``).  :func:`rhs_lists` is the scalar list form of
:func:`full_system_rhs`, which the Python node loop of :mod:`.integrate`
calls and whose operation order its compiled loop (``_rk4.c``) follows.
:func:`split` is the one definition of the ``[P, S, E, I, R]`` layout.
:func:`costate_lists` is the row product ``phi J + c1 e_P`` with the
analytic Jacobian ``J`` of :func:`full_system_rhs`, in list form: the slope
of the adjoint sweep in :mod:`.control`, whose compiled loop (``_rk4.c``)
follows its operation order.  ``J`` itself is never formed; the tests hold
the row product to a dense ``J``, and that to a finite-difference one.

Units are persons and days throughout.  The mitigation value is a plain float;
operations validate it on entry.  All types are immutable and every function
is pure, except that the list forms write into the lists their caller
passes, so the module can be used freely from concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateControlError, DomainError, StateConsistencyError

# Negative values within this fraction of the reference population are treated
# as integrator round-off; anything below is a hard error.
NEGATIVE_TOLERANCE = 1e-9

# Classical RK4 is stable on the negative real axis for dt * |lambda| up to
# about 2.785; :func:`max_stable_dt` divides it by a bound on the model's rates.
RK4_REAL_STABILITY = 2.78


def check_control(u: float) -> float:
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"mitigation value must lie in [0, 1], got {u!r}")
    return float(u)


@dataclass(frozen=True)
class StrainParams:
    """Per-strain rates (1/day).

    ``beta`` is the transmission rate per person per day, ``sigma`` the
    inverse latency, ``gamma`` the recovery rate, ``delta`` the rate of
    immunity loss and ``mu`` the disease death rate.  ``mu = 0`` is accepted
    for exploratory runs; :func:`nontrivial_equilibrium` divides by ``mu``
    and so rejects it.  Every rate must be finite.
    """

    beta: float
    sigma: float
    gamma: float
    delta: float
    mu: float

    def __post_init__(self):
        for name in ("beta", "sigma", "gamma", "delta", "mu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"strain parameter {name} must be finite, got {value!r}")
        for name in ("beta", "sigma", "gamma", "delta"):
            value = getattr(self, name)
            if not value > 0.0:
                raise DomainError(f"strain parameter {name} must be > 0, got {value!r}")
        if not self.mu >= 0.0:
            raise DomainError(f"strain parameter mu must be >= 0, got {self.mu!r}")


def _strain_vector(values, name: str, n: int | None = None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim == 0 and n is not None:
        arr = np.full(n, float(arr))
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a one-dimensional sequence")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EpidemicState:
    """Population snapshot: time, total population and per-strain E, I, R."""

    t: float
    P: float
    E: np.ndarray
    I: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name in ("E", "I", "R"):
            object.__setattr__(self, name, _strain_vector(getattr(self, name), name))
        if not (len(self.E) == len(self.I) == len(self.R)):
            raise DomainError("E, I and R must have one entry per strain")

    @property
    def n_strains(self) -> int:
        return len(self.E)

    def susceptible_all(self) -> np.ndarray:
        """Algebraic susceptible pool of every strain."""
        return self.P - self.E - self.I - self.R

    def validate(self) -> None:
        """Check non-negativity of P, compartments and susceptible pools.

        Values within ``NEGATIVE_TOLERANCE`` times ``max(P, 1)`` of zero are
        accepted as round-off.
        """
        tol = NEGATIVE_TOLERANCE * max(self.P, 1.0)
        if not self.P >= -tol or not math.isfinite(self.P):
            raise StateConsistencyError(f"total population invalid: P={self.P!r}")
        for name in ("E", "I", "R"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise StateConsistencyError(f"non-finite values in {name}")
            if np.any(arr < -tol):
                raise StateConsistencyError(
                    f"negative compartment in {name}: min={arr.min()!r}"
                )
        s = self.susceptible_all()
        if np.any(s < -tol):
            raise StateConsistencyError(
                f"susceptible pool negative: min={s.min()!r}"
            )


def rhs_lists(P, E, I, R, h, kE, kI, kR, rows, u, dE, dI, dR):
    """Compartment flows on plain Python lists; the one list form of the model.

    Evaluates the right-hand side at the stage state ``E + h*kE``,
    ``I + h*kI``, ``R + h*kR`` with total population ``P``, so an RK4 stage
    needs no list of its own; ``h = 0`` with zero slopes gives the flows at
    ``(P, E, I, R)`` itself.  ``rows`` is :func:`rate_table` as
    ``list(enumerate(table.tolist()))``.  The per-strain derivatives are
    written into ``dE``, ``dI`` and ``dR``.  Returns ``dP``.
    """
    deaths = 0.0
    w = 1.0 - u
    for j, (beta, sigma, mu_gamma, gamma, delta, mu) in rows:
        e = E[j] + h * kE[j]
        i = I[j] + h * kI[j]
        r = R[j] + h * kR[j]
        s = P - e - i - r
        latent_exit = sigma * e
        dE[j] = w * beta * s * i - latent_exit
        dI[j] = latent_exit - mu_gamma * i
        dR[j] = gamma * i - delta * r
        deaths += mu * i
    return -deaths


def rate_table(params: Sequence[StrainParams]) -> np.ndarray:
    """The ``(n, 6)`` rate table, one row ``(beta, sigma, mu + gamma, gamma,
    delta, mu)`` per strain: the one array form of the strain rates, and the
    one place that adds ``mu + gamma``.

    Vectorised code unpacks ``rate_table(params).T``; ``_rk4.c`` reads the
    table as it is; :func:`rhs_lists` and :func:`costate_lists` take
    ``list(enumerate(table.tolist()))``, which pairs each row with its
    strain once per pass rather than at every stage.
    """
    rows = [(p.beta, p.sigma, p.mu + p.gamma, p.gamma, p.delta, p.mu) for p in params]
    return np.array(rows, dtype=float).reshape(len(rows), 6)


class Flows(NamedTuple):
    """The five flows of every strain, one entry per strain."""

    transmission: np.ndarray  # (1-u) beta S I, from S to E
    latent_exit: np.ndarray  # sigma E, from E to I
    recovery: np.ndarray  # gamma I, from I to R
    deaths: np.ndarray  # mu I, from I out of P
    waning: np.ndarray  # delta R, from R back to S


def flows(S, E, I, R, u, rates: np.ndarray) -> Flows:
    """The flows at per-strain coordinates ``S, E, I, R``, with ``S`` independent.

    Every balance equation is a signed sum of these terms:

        dP/dt   = -sum_j deaths_j
        dS_j/dt = -transmission_j + waning_j - sum_{i != j} deaths_i
        dE_j/dt = transmission_j - latent_exit_j
        dI_j/dt = latent_exit_j - recovery_j - deaths_j
        dR_j/dt = recovery_j - waning_j

    ``rates`` is :func:`rate_table`.
    """
    beta, sigma, _, gamma, delta, mu = rates.T
    return Flows((1.0 - u) * beta * S * I, sigma * E, gamma * I, mu * I, delta * R)


def split(x: np.ndarray, n: int):
    """Views of the P, S, E, I and R parts along the last axis of the
    coordinates ``[P, S_1..S_n, E_1..E_n, I_1..I_n, R_1..R_n]``."""
    return (
        x[..., 0], x[..., 1 : n + 1], x[..., n + 1 : 2 * n + 1],
        x[..., 2 * n + 1 : 3 * n + 1], x[..., 3 * n + 1 : 4 * n + 1],
    )


def full_system_rhs(
    P: float,
    S: np.ndarray,
    E: np.ndarray,
    I: np.ndarray,
    R: np.ndarray,
    params: Sequence[StrainParams],
    u: float,
    t: float | None = None,
):
    """Right-hand side of the full (4n+1)-dimensional differential system.

    Here ``S`` is an independent coordinate vector rather than the algebraic
    pool, which is the form the adjoint equations and the stability Jacobian
    are written against.  The system is autonomous: ``t`` is accepted for
    callers that pass it and has no effect.  Returns ``(dP, dS, dE, dI, dR)``
    as floats/arrays.
    """
    n = len(params)
    check_control(u)
    S = np.asarray(S, dtype=float)
    E = np.asarray(E, dtype=float)
    I = np.asarray(I, dtype=float)
    R = np.asarray(R, dtype=float)
    if not (len(S) == len(E) == len(I) == len(R) == n):
        raise DomainError("coordinate vectors must have one entry per strain")
    f = flows(S, E, I, R, u, rate_table(params))
    total_deaths = f.deaths.sum()
    return (
        -total_deaths, -f.transmission + f.waning - (total_deaths - f.deaths),
        f.transmission - f.latent_exit,
        f.latent_exit - (f.recovery + f.deaths), f.recovery - f.waning,
    )


def costate_lists(P, S, E, I, R, h, kS, kE, kI, kR, rows, wbS, wbI, c1, dS, dE, dI, dR):
    """The costate slope ``phi J + c1 e_P`` on plain Python lists; the one
    list form of the adjoint, in O(n) operations for n strains.

    ``phi`` is the row ``[P, S, E, I, R]`` of costates, taken at the stage
    input ``S + h*kS`` and so on, with ``P + h*c1`` for the population part,
    whose slope is ``c1`` at every stage.  ``rows`` is as in
    :func:`rhs_lists`; ``wbS`` and ``wbI`` hold ``((1-u) beta) S`` and
    ``((1-u) beta) I`` per strain at the stage's state.  Column by column of
    the Jacobian of :func:`full_system_rhs` in ``[P, S, E, I, R]``:

        (phi J)_P   = 0
        (phi J)_S_j = wbI_j (phi_E_j - phi_S_j)
        (phi J)_E_j = sigma_j (phi_I_j - phi_E_j)
        (phi J)_I_j = wbS_j (phi_E_j - phi_S_j)
                      - mu_j (phi_P + sum_i phi_S_i - phi_S_j)
                      - (mu_j + gamma_j) phi_I_j + gamma_j phi_R_j
        (phi J)_R_j = delta_j (phi_S_j - phi_R_j)

    The deaths of strain j drain P and every other strain's S, a rank-one
    term minus a diagonal, so one running sum serves all strains.  The
    per-strain slopes are written into ``dS``, ``dE``, ``dI`` and ``dR``;
    returns the P slope, ``c1``.
    """
    total = P + h * c1
    for x, k in zip(S, kS):
        total += x + h * k
    for j, (_, sigma, mu_gamma, gamma, delta, mu) in rows:
        s = S[j] + h * kS[j]
        e = E[j] + h * kE[j]
        i = I[j] + h * kI[j]
        r = R[j] + h * kR[j]
        diff = e - s
        dS[j] = wbI[j] * diff
        dE[j] = sigma * (i - e)
        dI[j] = wbS[j] * diff - mu * (total - s) - mu_gamma * i + gamma * r
        dR[j] = delta * (s - r)
    return c1


def _infection_free_inputs(params: Sequence[StrainParams], S_bar, u: float) -> np.ndarray:
    """Checks the strains, ``u`` and ``S_bar`` of the infection-free point and
    returns ``S_bar`` as one value per strain: a scalar is shared by all."""
    if len(params) == 0:
        raise DomainError("the infection-free point needs at least one strain")
    check_control(u)
    s_bar = _strain_vector(S_bar, "S_bar", n=len(params))
    if len(s_bar) != len(params):
        raise DomainError("S_bar must provide one value per strain")
    if not np.all(s_bar >= 0):
        raise DomainError("S_bar values must be >= 0")
    return s_bar


@dataclass(frozen=True)
class ReproductionNumber:
    """Reproduction number with its per-strain terms and the binding strain."""

    value: float
    per_strain: np.ndarray
    argmax_strain: int

    def __post_init__(self):
        object.__setattr__(
            self, "per_strain", _strain_vector(self.per_strain, "per_strain")
        )


def reproduction_number(
    params: Sequence[StrainParams], S_bar, u: float
) -> ReproductionNumber:
    """R0 = max_j (1-u) beta_j S_bar_j / (mu_j + gamma_j).

    ``S_bar`` may be a scalar (shared by all strains) or one value per
    strain; a wrong count, a negative value or NaN raises ``DomainError``.
    The infection-free state is locally asymptotically stable when the
    returned value is below one.
    """
    s_bar = _infection_free_inputs(params, S_bar, u)
    beta, _, mu_gamma, *_ = rate_table(params).T
    terms = (1.0 - u) * beta * s_bar / mu_gamma
    k = int(np.argmax(terms))
    return ReproductionNumber(value=float(terms[k]), per_strain=terms, argmax_strain=k)


def min_stabilizing_control(params: Sequence[StrainParams], S_bar) -> float:
    """Smallest constant mitigation that brings the reproduction number to one.

    R0 scales with ``1 - u``, so u_min = max(0, 1 - 1/R0) with R0 taken at
    u = 0; only the most transmissible strain binds.  Any u strictly above
    the returned value gives R0 < 1.
    """
    if not np.all(np.asarray(S_bar, dtype=float) > 0):
        raise DomainError("S_bar values must be > 0")
    return max(0.0, 1.0 - 1.0 / reproduction_number(params, S_bar, 0.0).value)


@dataclass(frozen=True)
class EquilibriumPoint:
    """Fixed point of the per-strain compartments; ``kind`` is trivial or not.

    ``feasible`` is False whenever any compartment is negative or NaN, which
    makes the point biologically meaningless.
    """

    kind: str
    S: np.ndarray
    E: np.ndarray
    I: np.ndarray
    R: np.ndarray
    feasible: bool

    def __post_init__(self):
        for name in ("S", "E", "I", "R"):
            object.__setattr__(self, name, _strain_vector(getattr(self, name), name))


def nontrivial_equilibrium(
    params: Sequence[StrainParams], u: float, I_bar_ref: float
) -> EquilibriumPoint:
    """Closed-form two-strain equilibrium parameterised by the free I_bar_2.

    Each balance equation of :func:`flows` fixes one compartment:

        dP = 0    I_bar_1 = -(mu_2 / mu_1) I_bar_2
        dI_j = 0  E_bar_j = (mu_j + gamma_j) I_bar_j / sigma_j
        dR_j = 0  R_bar_j = gamma_j I_bar_j / delta_j
        dE_j = 0  S_bar_j = (mu_j + gamma_j) / ((1-u) beta_j)

    so any positive choice of I_bar_2 drives I_bar_1 negative and the point is
    flagged infeasible.  ``I_bar_ref = 0`` collapses to the infection-free
    point.  Requires ``mu > 0`` for both strains and ``u < 1``.
    """
    if len(params) != 2:
        raise DomainError("closed-form equilibrium is defined for exactly two strains")
    check_control(u)
    beta, sigma, mu_gamma, gamma, delta, mu = rate_table(params).T
    if not np.all(mu > 0.0):
        raise DomainError("equilibrium analysis requires mu > 0 for every strain")
    if u == 1.0:
        raise DegenerateControlError(
            "u = 1 removes all transmission; the equilibrium susceptible pool "
            "S_bar = (mu + gamma) / ((1-u) beta) is undefined"
        )
    i2 = float(I_bar_ref)
    if math.isnan(i2):
        raise DomainError("I_bar_ref must be a number, got nan")
    I = np.array([-(mu[1] / mu[0]) * i2, i2])
    S = mu_gamma / ((1.0 - u) * beta)
    E = mu_gamma * I / sigma
    R = gamma * I / delta
    return EquilibriumPoint(
        kind="trivial" if i2 == 0.0 else "non-trivial",
        S=S, E=E, I=I, R=R,
        feasible=all(np.all(x >= 0) for x in (S, E, I, R)),
    )


def analytic_eigenvalues(
    params: Sequence[StrainParams], S_bar, u: float
) -> np.ndarray:
    """Eigenvalues of the linearisation at the infection-free point.

    Deterministic ordering of the 4n+1 values: first n+1 zeros (the neutral
    P and S_j directions), then -delta_j per strain, then per strain the
    plus and minus roots

        -(mu+gamma+sigma)/2 +- sqrt(4 (1-u) beta sigma S_bar + (mu+gamma-sigma)^2)/2.

    ``S_bar`` is as for :func:`reproduction_number`.  Returned as complex
    numbers; for admissible inputs the discriminant is non-negative so all
    values are real.
    """
    s_bar = _infection_free_inputs(params, S_bar, u)
    n = len(params)
    beta, sigma, mu_gamma, _, delta, _ = rate_table(params).T
    out = np.zeros(4 * n + 1, dtype=complex)
    out[n + 1 : 2 * n + 1] = -delta
    half_trace = -0.5 * (mu_gamma + sigma)
    disc = 4.0 * (1.0 - u) * beta * sigma * s_bar + (mu_gamma - sigma) ** 2
    half_root = 0.5 * np.sqrt(disc.astype(complex))
    out[2 * n + 1 :: 2] = half_trace + half_root
    out[2 * n + 2 :: 2] = half_trace - half_root
    out.setflags(write=False)
    return out


def max_stable_dt(params: Sequence[StrainParams], population: float) -> float:
    """Largest grid step that RK4 integrates stably, and without driving
    ``R`` negative, for these strains.

    With ``S`` and ``I`` at most ``population`` and no mitigation, strain j
    moves its ``E`` and ``I`` at most at the rate
    ``beta_j * population + sigma_j + gamma_j + mu_j``, which bounds their
    Jacobian rows over the admissible region; the step is at most
    ``RK4_REAL_STABILITY`` over the largest such rate.  The decay rates of
    the infection-free linearisation are not enough: they admit steps that
    overshoot once the epidemic grows.  ``R`` wanes at ``delta_j``, and a
    step within RK4's stability interval can still take a small ``R`` below
    zero; so the step is also at most ``1 / delta_j``, where ``dt * rate``
    stays within 1, RK4's radius of absolute monotonicity, which keeps a
    linear decay non-negative (Kraaijevanger, BIT 31, 1991).  The bound is
    a heuristic, checked by a property test rather than proven.  With no
    strains nothing moves, and every step is stable.  The sum keeps this
    order: the ``mu + gamma`` column of :func:`rate_table` would round it
    differently.
    """
    if len(params) == 0:
        return math.inf
    beta, sigma, _, gamma, delta, mu = rate_table(params).T
    rate = beta * population + sigma + gamma + mu
    return min(RK4_REAL_STABILITY / float(np.max(rate)), 1.0 / float(np.max(delta)))
