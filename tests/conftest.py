import numpy as np
import pytest

from isekf.filters import NonlinearModel
from isekf.harness import DEFAULT_BOUND, DEFAULT_P0_DIAG
from isekf.saturation import BoundParams
from isekf.scenario import FilterSpec, ScenarioConfig
from isekf.stability import LinearSystem, is_detectable, is_stabilizable


def linear_model(A, C, Q, R) -> NonlinearModel:
    """Wrap constant matrices as a NonlinearModel."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return NonlinearModel(
        f=lambda x, u=None: A @ x,
        h=lambda x: C @ x,
        Q=np.atleast_2d(Q),
        R=np.atleast_2d(R),
        n=A.shape[0],
        p=C.shape[0],
        jac_f=lambda x, u=None: A,
        jac_h=lambda x: C,
    )


def random_system(rng: np.random.Generator, mode: str, n_max: int = 6) -> LinearSystem:
    """Random stabilizable/detectable system with Q > 0 (hence always
    stabilizable); discrete A is scaled to spectral radius 0.95."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        p = int(rng.integers(1, n + 1))
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        if mode == "discrete":
            A = 0.95 * A / max(1e-9, np.abs(np.linalg.eigvals(A)).max())
        L = rng.standard_normal((n, n)) / np.sqrt(n)
        Q = L @ L.T + 0.1 * np.eye(n)
        Lr = rng.standard_normal((p, p)) / np.sqrt(p)
        R = Lr @ Lr.T + 0.1 * np.eye(p)
        C = rng.standard_normal((p, n))
        sys = LinearSystem(A=A, C=C, Q=Q, R=R, D=np.zeros((p, 1)), mode=mode)
        if is_stabilizable(sys) and is_detectable(sys):
            return sys


def paper_bound_params() -> BoundParams:
    return BoundParams(mode="dt", **DEFAULT_BOUND)


def robot_filter_p0() -> np.ndarray:
    return np.diag(DEFAULT_P0_DIAG)


def benchmark_config(**overrides) -> ScenarioConfig:
    """The bundled benchmark scenario with all three filters."""
    P0 = robot_filter_p0()
    defaults = dict(
        filters=[
            FilterSpec("is-ekf", P0=P0, bound_params=paper_bound_params()),
            FilterSpec("ekf", P0=P0),
            FilterSpec("lsigma-ekf", P0=P0, ell=3.0),
        ],
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
