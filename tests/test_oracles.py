"""Pin the frozen oracle constants to their independent recomputations."""

import math

import oracles


def test_decay_value_frozen():
    assert abs(oracles.decay_value(1.0, 0.0, 1.0) - oracles.DECAY_VALUE_T0) < 1e-15


def test_bang_value_frozen():
    assert oracles.bang_value(0.0, 0.0, 1.0) == oracles.BANG_VALUE_T0


def test_jump_reward_second_moment_frozen():
    m = oracles.second_moment_two_point(0.5, -0.5, 0.5, 2.0)
    assert abs(m - oracles.JUMP_REWARD_SECOND_MOMENT) < 1e-15


def test_jump_reward_value_frozen():
    v = oracles.jump_reward_value(0.0, 1.0, (-1.0, 0.0, 1.0), 2.0)
    assert abs(v - oracles.JUMP_REWARD_VALUE_T0) < 1e-12


def test_lookback_value_frozen():
    v = oracles.lookback_integral_value(0.0, 0.0, 1.0, (-1.0, 1.0))
    assert abs(v - oracles.LOOKBACK_VALUE_T0) < 1e-12


def test_kappa_closed_forms_frozen():
    assert abs(oracles.constant_tilt_weight(2.0, 1.0, 1.0, 0)
               - oracles.KAPPA_CONST2_NO_EVENTS) < 1e-15
    assert abs(oracles.constant_tilt_weight(2.0, 1.0, 1.0, 1)
               - oracles.KAPPA_CONST2_ONE_EVENT) < 1e-15
    assert abs(oracles.constant_tilt_weight(1.0, 1.0, 1.0, 5) - 1.0) < 1e-15


def test_second_moment_quadrature_routes():
    # uniform on [0,1]: E[z^2] = 1/3
    assert abs(oracles.second_moment_uniform(0.0, 1.0, 3.0) - 1.0) < 1e-10
    # exponential scale s: E[z^2] = 2 s^2
    assert abs(oracles.second_moment_exponential(0.5, 2.0) - 1.0) < 1e-9


def test_normal_quadratic_expectation():
    # E[X^2] = mean^2 + var
    v = oracles.normal_quadratic_expectation(1.5, 0.25, 1.0, 0.0, 0.0)
    assert abs(v - (1.5 ** 2 + 0.25)) < 1e-9


def test_ou_moments_against_closed_forms():
    # stationary-free closed forms: m1 = target + (x0-target)e^{-rt},
    # var = sigma^2/(2r) * (1 - e^{-2rt})
    x0, target, r, sigma, t = 0.5, 1.0, 1.0, 0.3, 1.0
    m1 = oracles.ou_mean(x0, target, r, t)
    assert abs(m1 - (target + (x0 - target) * math.exp(-r * t))) < 1e-14
    m2 = oracles.ou_second_moment(x0, target, r, sigma, t)
    var = sigma ** 2 / (2 * r) * (1 - math.exp(-2 * r * t))
    assert abs(m2 - (m1 ** 2 + var)) < 1e-9


def test_closed_form_surfaces_match_their_value_routes():
    decay = oracles.decay_surface(1.0)
    assert abs(decay["value"](0.0, [1.0]) - oracles.DECAY_VALUE_T0) < 1e-15
    assert decay["value"](0.3, [0.7]) == oracles.decay_value(0.7, 0.3, 1.0)
    bang = oracles.bang_surface(1.0, 1.0)
    assert bang["value"](0.0, [0.0]) == oracles.BANG_VALUE_T0
    assert bang["value"](0.3, [0.1]) == oracles.bang_value(0.1, 0.3, 1.0)
    assert bang["grad"](0.3, [0.1])[0] == 1.0
    jump = oracles.jump_reward_surface(1.0, (-1.0, 0.0, 1.0), 2.0)
    assert abs(jump["value"](0.0, [0.0])
               - oracles.JUMP_REWARD_VALUE_T0) < 1e-12
    assert abs(jump["value"](0.0, [0.4])
               - oracles.jump_reward_value(0.4, 1.0, (-1.0, 0.0, 1.0),
                                           2.0)) < 1e-12


def test_closed_form_surface_derivatives_match_differences():
    h = 1e-5
    for surface in (oracles.decay_surface(1.0),
                    oracles.bang_surface(1.0, 1.0),
                    oracles.jump_reward_surface(1.0, (-1.0, 0.0, 1.0),
                                                2.0)):
        v = surface["value"]
        for t, x in ((0.2, 0.3), (0.7, -1.1)):
            v_t = (v(t + h, [x]) - v(t - h, [x])) / (2 * h)
            v_x = (v(t, [x + h]) - v(t, [x - h])) / (2 * h)
            v_xx = (v(t, [x + h]) - 2 * v(t, [x]) + v(t, [x - h])) / h ** 2
            assert abs(surface["dt"](t, [x]) - v_t) < 1e-8
            assert abs(surface["grad"](t, [x])[0] - v_x) < 1e-8
            assert abs(surface["hess"](t, [x])[0, 0] - v_xx) < 1e-4
