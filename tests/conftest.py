import numpy as np
import pytest

from multistrain import EpidemicState, StrainParams

# Single-strain baseline parameters shared by many tests.
BETA = 2.41e-9
SIGMA = 1.0 / 7.0
GAMMA = 1.0 / 21.0
DELTA = 1.0 / 90.0
MU = 1.152e-5
S0 = 217e6
E0, I0, R0_ = 252.0, 2.0, 1.0
P0 = S0 + E0 + I0 + R0_


@pytest.fixture
def baseline_params():
    return [StrainParams(beta=BETA, sigma=SIGMA, gamma=GAMMA, delta=DELTA, mu=MU)]


@pytest.fixture
def baseline_initial():
    return EpidemicState(t=0.0, P=P0, E=[E0], I=[I0], R=[R0_])


def random_params(rng: np.random.Generator, n: int, activation=0.0) -> list[StrainParams]:
    """Positive rates in physically plausible ranges."""
    out = []
    for _ in range(n):
        out.append(
            StrainParams(
                beta=float(rng.uniform(1e-9, 1e-6)),
                sigma=float(rng.uniform(0.05, 0.5)),
                gamma=float(rng.uniform(0.02, 0.3)),
                delta=float(rng.uniform(0.005, 0.1)),
                mu=float(rng.uniform(1e-6, 1e-3)),
                activation_time=activation,
            )
        )
    return out


def random_state(rng: np.random.Generator, n: int, t=0.0) -> EpidemicState:
    """Valid state with comfortably positive susceptible pools."""
    P = float(rng.uniform(1e6, 1e8))
    E = rng.uniform(0.0, 0.05 * P, size=n)
    I = rng.uniform(0.0, 0.05 * P, size=n)
    R = rng.uniform(0.0, 0.05 * P, size=n)
    return EpidemicState(t=t, P=P, E=E, I=I, R=R)


def susceptible_derivative(
    state: EpidemicState, params: list[StrainParams], u: float, j: int
) -> float:
    """Differential form of the susceptible pool of strain ``j``.

    dS_j/dt = -(1-u) beta_j S_j I_j + delta_j R_j - sum_{i != j} mu_i I_i

    A scalar oracle for the algebraic form the package uses: it must equal
    d/dt (P - E_j - I_j - R_j) assembled from ``derivatives``.
    """
    state.validate()
    p = params[j]
    s_j = state.P - state.E[j] - state.I[j] - state.R[j]
    transmission = (1.0 - u) * p.beta * s_j * state.I[j]
    other_deaths = 0.0
    for i, q in enumerate(params):
        if i != j and state.t >= q.activation_time:
            other_deaths += q.mu * state.I[i]
    return -transmission + p.delta * state.R[j] - other_deaths
