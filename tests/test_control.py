"""Motion update: normalized descent, plateau detection, Adam refinement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpcover import Domain, OptimizerState, Phase, plateau_detected, record_std, step
from gpcover.control import adam_update

from oracles import adam_reference

DOMAIN = Domain(100, 100)


def _state(**kwargs) -> OptimizerState:
    return OptimizerState(**kwargs)


def test_plateau_needs_a_full_window():
    state = _state(k=3, sigma_history=(1.0, 1.0, 1.0))
    assert not plateau_detected(state)


def test_plateau_on_constant_history():
    state = _state(k=3, sigma_history=(2.0, 2.0, 2.0, 2.0))
    assert plateau_detected(state)


def test_no_plateau_while_std_is_moving():
    state = _state(k=3, epsilon=0.02, sigma_history=(1.0, 2.0, 4.0, 8.0))
    assert not plateau_detected(state)


def test_tiny_stds_count_as_settled():
    state = _state(k=3, sigma_history=(0.0, 0.0, 0.0, 0.0))
    assert plateau_detected(state)


def test_plateau_threshold_is_inclusive():
    # relative changes of exactly epsilon on every entry sit on the boundary
    eps = 0.5
    state = _state(k=2, epsilon=eps, sigma_history=(1.0, 1.5, 2.25))
    assert plateau_detected(state)


def test_record_std_keeps_a_bounded_history():
    state = _state(k=4)
    for value in range(20):
        state = record_std(state, float(value))
    assert len(state.sigma_history) == 5
    assert state.sigma_history[-1] == 19.0


def test_record_std_switches_to_adam_permanently():
    state = _state(k=2, epsilon=0.05)
    for _ in range(3):
        state = record_std(state, 1.0)
    assert state.phase is Phase.ADAM
    # wild history afterwards cannot switch it back
    for value in (10.0, 0.1, 100.0):
        state = record_std(state, value)
    assert state.phase is Phase.ADAM


def test_normalized_step_has_fixed_length():
    state = _state(eta=1.0)
    new_pos, _ = step([50.0, 50.0], [3.0, 4.0], state, DOMAIN)
    np.testing.assert_allclose(new_pos, [49.4, 49.2])


def test_zero_gradient_means_no_motion():
    state = _state()
    new_pos, new_state = step([10.0, 20.0], [0.0, 0.0], state, DOMAIN)
    np.testing.assert_array_equal(new_pos, [10.0, 20.0])
    assert new_state is state


def test_near_zero_gradient_means_no_motion():
    new_pos, _ = step([10.0, 20.0], [1e-13, -1e-13], _state(), DOMAIN)
    np.testing.assert_array_equal(new_pos, [10.0, 20.0])


def test_displacement_is_speed_capped():
    state = _state(eta=50.0, v_max=2.0)
    new_pos, _ = step([50.0, 50.0], [1.0, 0.0], state, DOMAIN)
    np.testing.assert_allclose(new_pos, [48.0, 50.0])


def test_position_is_projected_onto_the_workspace():
    state = _state(eta=5.0)
    new_pos, _ = step([1.0, 50.0], [1.0, 0.0], state, DOMAIN)
    np.testing.assert_array_equal(new_pos, [0.0, 50.0])


def test_non_finite_gradient_is_rejected():
    with pytest.raises(ValueError):
        step([1.0, 1.0], [np.nan, 0.0], _state(), DOMAIN)
    with pytest.raises(ValueError):
        step([1.0, 1.0], [np.inf, 0.0], _state(), DOMAIN)


def test_adam_steps_match_the_scalar_recurrence():
    gradients = [(0.5, -1.0), (0.4, -0.8), (0.6, -1.2), (0.2, 0.3)]
    state = _state(eta_adam=0.7, v_max=1e9, phase=Phase.ADAM)
    pos = np.array([50.0, 50.0])
    ref_x = adam_reference([g[0] for g in gradients], eta=0.7)
    ref_y = adam_reference([g[1] for g in gradients], eta=0.7)
    for t, g in enumerate(gradients):
        new_pos, state = step(pos, g, state, DOMAIN)
        np.testing.assert_allclose(new_pos - pos, [ref_x[t], ref_y[t]], atol=1e-12)
        pos = new_pos
    assert state.adam_t == 4
    # the hyperparameter refit's direction: a positive learning rate ascends,
    # one independent recurrence per component
    lr = 0.05
    grads = np.array([(0.5, -1.0, 2.0), (0.4, -0.8, -3.0), (0.6, -1.2, 0.1), (0.2, 0.3, 1e-3)])
    refs = [adam_reference(grads[:, c], eta=lr) for c in range(3)]
    m = v = np.zeros(3)
    for t, g in enumerate(grads, start=1):
        delta, m, v = adam_update(m, v, t, g, lr)
        np.testing.assert_allclose(delta, [-ref[t - 1] for ref in refs], atol=1e-12)


def test_first_adam_step_is_one_learning_rate_per_axis():
    state = _state(eta_adam=0.5, phase=Phase.ADAM)
    new_pos, _ = step([50.0, 50.0], [100.0, -0.01], state, DOMAIN)
    # bias correction makes |m_hat / sqrt(v_hat)| = 1 on the first step
    np.testing.assert_allclose(new_pos, [49.5, 50.5], rtol=1e-6)


def test_adam_state_does_not_advance_in_gd_phase():
    state = _state()
    _, new_state = step([50.0, 50.0], [1.0, 1.0], state, DOMAIN)
    assert new_state.adam_t == 0
    assert new_state.adam_m == (0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
       st.tuples(st.floats(0, 100), st.floats(0, 100)),
       st.booleans())
def test_step_respects_speed_cap_and_workspace(gradient, pos, use_adam):
    state = _state(eta=7.0, eta_adam=3.0, v_max=4.0,
                   phase=Phase.ADAM if use_adam else Phase.NORMALIZED_GD)
    new_pos, _ = step(pos, gradient, state, DOMAIN)
    assert np.linalg.norm(np.asarray(new_pos) - np.asarray(pos)) <= 4.0 + 1e-9
    assert 0.0 <= new_pos[0] <= 100.0
    assert 0.0 <= new_pos[1] <= 100.0


def test_state_validates_bounds():
    with pytest.raises(ValueError):
        OptimizerState(eta=0.0)
    with pytest.raises(ValueError):
        OptimizerState(v_max=-1.0)
    with pytest.raises(ValueError):
        OptimizerState(k=0)
    with pytest.raises(ValueError):
        OptimizerState(epsilon=0.0)
