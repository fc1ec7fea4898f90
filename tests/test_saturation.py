import math
import warnings

import numpy as np
import pytest

from isekf.errors import ConfigurationError, InputDomainError, NumericalFailure
from isekf.saturation import (
    BoundParams,
    SaturationState,
    _bound_step,
    bound_rhs_ct,
    bound_step_dt,
    saturate,
    saturate_innovation,
    saturate_vector,
    shaping_term,
)


@pytest.mark.parametrize("r, bound, expected", [
    (5.0, 2.0, 2.0),
    (-5.0, 2.0, -2.0),
    (1.0, 2.0, 1.0),
    (0.0, 0.0, 0.0),
    (-0.3, 0.0, 0.0),
])
def test_saturate_values(r, bound, expected):
    assert saturate(r, bound) == expected


def test_saturate_rejects_bad_inputs():
    with pytest.raises(InputDomainError):
        saturate(float("nan"), 1.0)
    with pytest.raises(InputDomainError):
        saturate(float("inf"), 1.0)
    with pytest.raises(InputDomainError):
        saturate(1.0, -0.5)


@pytest.mark.parametrize("bound", [float("nan"), -0.5], ids=["nan", "negative"])
def test_a_vector_bound_that_is_not_nonnegative_is_rejected_as_in_the_scalar_spec(bound):
    with pytest.raises(InputDomainError, match="bound must be >= 0"):
        saturate(0.3, bound)
    with pytest.raises(InputDomainError, match="^saturate_vector: bounds must be >= 0$"):
        saturate_vector(np.array([0.3, 0.1]), np.array([1.0, bound]))


def test_saturate_algebra(rng):
    # idempotence, odd symmetry, non-expansiveness; clip involves no
    # arithmetic so the checks are exact
    r = rng.uniform(-100, 100, size=2000)
    r2 = rng.uniform(-100, 100, size=2000)
    b = rng.uniform(0, 50, size=2000)
    for ri, r2i, bi in zip(r, r2, b):
        s = saturate(ri, bi)
        assert saturate(s, bi) == s
        assert saturate(-ri, bi) == -s
        assert abs(s - saturate(r2i, bi)) <= abs(ri - r2i)


def test_saturate_innovation_examples():
    st = SaturationState([4.0, 4.0], [1.0, 1.0])
    np.testing.assert_array_equal(saturate_innovation(np.array([3.0, -0.5]), st),
                                  [2.0, -0.5])
    np.testing.assert_array_equal(saturate_innovation(np.zeros(2), st), [0.0, 0.0])
    st2 = SaturationState([1.0, 100.0], [1.0, 1.0])
    np.testing.assert_array_equal(saturate_innovation(np.array([10.0, 10.0]), st2),
                                  [1.0, 10.0])


def test_saturate_innovation_dimension_mismatch():
    st = SaturationState([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ConfigurationError):
        saturate_innovation(np.array([1.0, 2.0, 3.0]), st)


def test_shaping_term_peak_and_guard():
    eps = np.concatenate([np.linspace(0.0, 1e6, 10001), [1e11, 1e12, 5e12, -3.0]])
    vals = shaping_term(eps)
    assert np.all(vals <= 1.0 / math.e + 1e-15)
    assert np.all(vals >= 0.0)
    # clamp keeps the negative input from overflowing exp(+eps)
    assert shaping_term(np.array([-1e9]))[0] == 0.0


@pytest.mark.parametrize("epsilon", [-1.0, -0.0], ids=["negative", "minus-zero"])
def test_an_epsilon_whose_sign_bit_is_set_is_rejected(epsilon):
    # the bound map evaluates eps * exp(-eps) unclamped, on eps >= +0 only
    with pytest.raises(InputDomainError, match=r"^epsilon must be >= \+0, got \["):
        SaturationState([1.0], [epsilon])
    assert SaturationState([1.0], [0.0]).epsilon.tolist() == [0.0]


def test_a_bound_state_holds_read_only_copies():
    # an in-place edit would skip the entry checks, and an epsilon of -1
    # written into a built state would reach the unclamped map
    sigma, epsilon = np.array([1.0]), np.array([1.0])
    st = SaturationState(sigma, epsilon)
    for arr in (st.sigma, st.epsilon):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = -1.0
    assert sigma.flags.writeable and epsilon.flags.writeable
    assert not np.shares_memory(sigma, st.sigma) and not np.shares_memory(epsilon, st.epsilon)


def dt_params(**kw):
    base = dict(lambda1=[0.5], lambda2=[0.1], gamma1=[100.0], gamma2=[9.0],
                sigma0=[1.0], epsilon0=[1.0], mode="dt")
    base.update(kw)
    return BoundParams(**base)


def test_bound_step_dt_values():
    p = dt_params()
    # eps = 0 kills the shaping feed
    out = bound_step_dt(SaturationState([1.0], [0.0]), np.array([0.0]), p)
    assert out.sigma[0] == pytest.approx(0.5, abs=0.0)
    # sigma' = 0.5*4 + 100*1*exp(-1)
    out = bound_step_dt(SaturationState([4.0], [1.0]), np.array([0.0]), p)
    assert out.sigma[0] == pytest.approx(2.0 + 100.0 * math.exp(-1.0), rel=1e-15)
    # eps' = 0.1*2 + 9*0.25
    out = bound_step_dt(SaturationState([1.0], [2.0]), np.array([0.5]), p)
    assert out.epsilon[0] == pytest.approx(2.45, rel=1e-15)


def test_bound_step_dt_uses_raw_innovation():
    # feeding a clipped innovation instead of the raw one would change eps
    p = dt_params()
    st = SaturationState([1.0], [1.0])
    raw = np.array([7.0])
    out = bound_step_dt(st, raw, p)
    assert out.epsilon[0] == pytest.approx(0.1 + 9.0 * 49.0, rel=1e-15)


def test_bound_rhs_ct_values():
    p = BoundParams(lambda1=[-1.0], lambda2=[-2.0], gamma1=[10.0], gamma2=[1.0],
                    sigma0=[1.0], epsilon0=[1.0], mode="ct")
    s_dot, e_dot = bound_rhs_ct(SaturationState([1.0], [0.0]), np.array([0.0]), p)
    assert s_dot[0] == pytest.approx(-1.0)
    s_dot, e_dot = bound_rhs_ct(SaturationState([1.0], [1.0]), np.array([3.0]), p)
    assert e_dot[0] == pytest.approx(-2.0 + 9.0)
    # decay-only regime
    s_dot, e_dot = bound_rhs_ct(SaturationState([2.5], [0.0]), np.array([0.0]), p)
    assert e_dot[0] == 0.0
    assert s_dot[0] == pytest.approx(-2.5)


@pytest.mark.parametrize("bound_map, mode", [(bound_step_dt, "dt"), (bound_rhs_ct, "ct")])
def test_bound_map_overflow_is_a_numerical_failure(bound_map, mode):
    lam = 0.5 if mode == "dt" else -0.5
    p = BoundParams(lambda1=[lam], lambda2=[lam], gamma1=[1.0], gamma2=[9.0],
                    sigma0=[1.0], epsilon0=[1.0], mode=mode)
    # finite innovation whose square overflows
    with pytest.raises(NumericalFailure, match="overflow"):
        bound_map(p.initial_state(), np.array([1e200]), p)
    with pytest.raises(InputDomainError, match="non-finite innovation"):
        bound_map(p.initial_state(), np.array([np.nan]), p)


@pytest.mark.parametrize("bound_map, mode", [(bound_step_dt, "dt"), (bound_rhs_ct, "ct")])
def test_a_finite_result_near_the_float_limit_is_not_an_overflow(bound_map, mode):
    # both outputs are +-9e307; their sum overflows, so a check on the sum
    # would fail a finite result (and warn)
    lam = 0.9 if mode == "dt" else -0.9
    p = BoundParams(lambda1=[lam], lambda2=[lam], gamma1=[0.1], gamma2=[0.1],
                    sigma0=[1e308], epsilon0=[1e308], mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma, epsilon = _pair(bound_map(p.initial_state(), np.array([1.0]), p))
    # the shaping term at eps = 1e308 is 1e308 * exp(-1e308) = 0
    assert sigma.tolist() == [lam * 1e308 + 0.1 * 0.0]
    assert epsilon.tolist() == [lam * 1e308 + 0.1 * 1.0]
    assert abs(sigma[0]) == abs(epsilon[0]) == 9e307


def _pair(out):
    """(sigma, epsilon) of a SaturationState or of a (sigma_dot, eps_dot) pair."""
    return (out.sigma, out.epsilon) if isinstance(out, SaturationState) else out


def test_the_bound_step_names_an_overflow():
    p = dt_params()
    with pytest.raises(NumericalFailure, match="^bound_step_dt: bound map overflowed$") as info:
        _bound_step(np.concatenate((p.sigma0, p.epsilon0)), np.array([1e200]), p.lam, p.gam,
                    "bound_step_dt")
    assert info.value.context.tolist() == [1e200]


def test_zero_innovation_geometric_decay():
    p = dt_params(lambda1=[0.5], lambda2=[0.3], sigma0=[3.0], epsilon0=[2.0])
    st = p.initial_state()
    for k in range(1, 120):
        st = bound_step_dt(st, np.array([0.0]), p)
        assert st.epsilon[0] <= 0.3**k * 2.0 * (1.0 + 1e-12) + 1e-300
    assert st.sigma[0] < 1e-30


def test_positivity_preserved_over_many_random_steps(rng):
    p = BoundParams(lambda1=[0.5, 0.5, 0.1], lambda2=[0.1, 0.1, 0.1],
                    gamma1=[100.0, 100.0, 5e-3], gamma2=[9.0, 9.0, 9.0],
                    sigma0=[25.0, 25.0, 0.25], epsilon0=[1.0, 1.0, 1.0], mode="dt")
    st = p.initial_state()
    innovs = rng.standard_normal((100000, 3)) * np.array([0.5, 0.5, 5.0])
    for i in range(innovs.shape[0]):
        st = bound_step_dt(st, innovs[i], p)
    assert np.all(st.sigma > 0.0)
    assert np.all(st.epsilon > 0.0)


@pytest.mark.parametrize("bad", [
    dict(lambda1=[1.5]),
    dict(lambda1=[0.0]),
    dict(lambda2=[-0.1]),
    dict(gamma1=[0.0]),
    dict(gamma2=[-1.0]),
    dict(sigma0=[0.0]),
    dict(epsilon0=[-2.0]),
])
def test_dt_param_validation(bad):
    with pytest.raises(InputDomainError):
        dt_params(**bad)


@pytest.mark.parametrize("mode", ["dt", "ct"])
@pytest.mark.parametrize("name, value", [
    ("lambda1", -math.inf),
    ("lambda2", -math.inf),
    ("gamma1", math.inf),
    ("gamma2", math.inf),
    ("sigma0", math.inf),
    ("epsilon0", math.inf),
    ("gamma2", math.nan),
])
def test_a_non_finite_bound_parameter_is_rejected_by_name(mode, name, value):
    lam = [0.5, 0.5] if mode == "dt" else [-0.5, -0.5]
    kw = dict(lambda1=lam, lambda2=lam, gamma1=[1.0, 1.0], gamma2=[1.0, 1.0],
              sigma0=[1.0, 1.0], epsilon0=[1.0, 1.0], mode=mode)
    kw[name] = [1.0, value] if not name.startswith("lambda") else [lam[0], value]
    with pytest.raises(InputDomainError, match=rf"^{name} must be finite, got \["):
        BoundParams(**kw)


def test_ct_param_validation():
    with pytest.raises(InputDomainError):
        BoundParams(lambda1=[0.5], lambda2=[-1.0], gamma1=[1.0], gamma2=[1.0],
                    sigma0=[1.0], epsilon0=[1.0], mode="ct")
    BoundParams(lambda1=[-0.5], lambda2=[-1.0], gamma1=[1.0], gamma2=[1.0],
                sigma0=[1.0], epsilon0=[1.0], mode="ct")


def test_mode_mismatch_rejected():
    p_ct = BoundParams(lambda1=[-1.0], lambda2=[-1.0], gamma1=[1.0], gamma2=[1.0],
                       sigma0=[1.0], epsilon0=[1.0], mode="ct")
    with pytest.raises(ConfigurationError):
        bound_step_dt(p_ct.initial_state(), np.array([0.0]), p_ct)
    p_dt = dt_params()
    with pytest.raises(ConfigurationError):
        bound_rhs_ct(p_dt.initial_state(), np.array([0.0]), p_dt)
