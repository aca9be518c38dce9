"""Adaptive RK4 integrator: accuracy, sampling, direction, step rejection and import weight."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import monopole_spectra
from monopole_spectra import core, ivp, oracle, radial, spectra


def test_harmonic_oscillator_accuracy():
    f = lambda t, y: (y[1], -y[0])
    y, samples = ivp.integrate(f, 0.0, 10.0, [0.0, 1.0])
    assert samples == []
    assert y[0] == pytest.approx(math.sin(10.0), abs=1e-9)
    assert y[1] == pytest.approx(math.cos(10.0), abs=1e-9)


def test_record_at_samples():
    f = lambda t, y: (y[1], -y[0])
    pts = [1.0, 2.5, 7.0]
    y, recs = ivp.integrate(f, 0.0, 10.0, [0.0, 1.0], record_at=pts)
    assert len(recs) == len(pts)
    for p, rec in zip(pts, recs):
        assert rec[0] == pytest.approx(math.sin(p), abs=1e-9)
    assert y[0] == pytest.approx(math.sin(10.0), abs=1e-9)


def test_backward_integration():
    f = lambda t, y: (y[1], -y[0])
    y, _ = ivp.integrate(f, 10.0, 0.0, [math.sin(10.0), math.cos(10.0)])
    assert y[0] == pytest.approx(0.0, abs=1e-9)
    assert y[1] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("component", [0, 1])
def test_nan_in_either_component_rejects_the_step(component):
    # past t = 1 the right-hand side is NaN in one component; every step that
    # samples it must be rejected, so the step size underflows just below
    # t = 1 (a NaN that max() skips would let steps through past it)
    def f(t, y):
        out = [y[1], -y[0]]
        if t > 1.0:
            out[component] = math.nan
        return tuple(out)

    with pytest.raises(ivp.IntegrationError, match="step size underflow") as info:
        ivp.integrate(f, 0.0, 2.0, [0.0, 1.0])
    t_stop = float(str(info.value).rsplit("=", 1)[1])
    assert 1.0 - 1e-9 < t_stop <= 1.0


def test_state_is_a_tuple_of_floats():
    seen = []

    def f(t, y):
        seen.append(y)
        return (y[1], -y[0])

    y, recs = ivp.integrate(f, 0.0, 1.0, [0, 1], record_at=[0.5])
    for state in [y, *recs, *seen]:
        assert type(state) is tuple and all(type(v) is float for v in state)


def test_ivp_does_not_import_numpy():
    code = "import sys\nimport monopole_spectra.ivp\nprint('numpy' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(monopole_spectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_oracle_paths_do_not_import_scipy_integrate():
    # scipy.integrate drags in optimize, sparse, spatial and special; the
    # hand-rolled integrator exists to keep that cost off every oracle run
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import monopole_spectra.cli\n"
        "from monopole_spectra import core, oracle, radial, spectra\n"
        "scen = core.Scenario('lobachevsky', 'coulomb', Fraction(1), 10.0, alpha=0.1)\n"
        "prob = radial.build_problem(scen, spectra.CH_MIN_J, 0)\n"
        "oracle.shoot_decay(prob, spectra.single_level(scen, 0, 0, spectra.CH_MIN_J).epsilon)\n"
        "radial.origin_exponent_fit(1, 0.5, 1.0)\n"
        "assert 'scipy.linalg' in sys.modules\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(monopole_spectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_one_and_two_component_states_only():
    with pytest.raises(ValueError, match="one or two components"):
        ivp.integrate(lambda t, y: y, 0.0, 1.0, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("components", [1, 2])
def test_nan_rejects_the_step_for_both_state_sizes(components):
    def f(t, y):
        return tuple(math.nan if t > 1.0 else -v for v in y)

    with pytest.raises(ivp.IntegrationError, match="step size underflow"):
        ivp.integrate(f, 0.0, 2.0, [1.0] * components)


# --- the unrolled steps against the vector form, bit for bit ------------------------


def _vector_rk4_step(f, t, y, h):
    """Reference: one RK4 step in vector form, y + (h/6)(k1 + 2 k2 + 2 k3 + k4)."""
    hh = 0.5 * h
    k1 = f(t, y)
    k2 = f(t + hh, tuple([a + hh * b for a, b in zip(y, k1)]))
    k3 = f(t + hh, tuple([a + hh * b for a, b in zip(y, k2)]))
    k4 = f(t + h, tuple([a + h * b for a, b in zip(y, k3)]))
    h6 = h / 6.0
    return tuple([a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])


def _vector_integrate(f, t0, t1, y0, max_step=0.1, record_at=()):
    """Reference: `ivp.integrate` with vector-form steps, a separate f(t, y)
    for the full and the first half step, and the error test over lists."""
    y = tuple(map(float, y0))
    t = float(t0)
    direction = 1.0 if t1 >= t0 else -1.0
    h = direction * min(max_step, max(abs(t1 - t0) * 1e-3, 1e-8))
    samples = []

    def advance_to(t_target):
        nonlocal t, y, h
        while (t_target - t) * direction > 1e-14 * max(1.0, abs(t_target)):
            step = h
            if (t + step - t_target) * direction > 0:
                step = t_target - t
            y_full = _vector_rk4_step(f, t, y, step)
            y_half = _vector_rk4_step(f, t, y, 0.5 * step)
            y_half = _vector_rk4_step(f, t + 0.5 * step, y_half, 0.5 * step)
            diffs = [abs(a - b) for a, b in zip(y_half, y_full)]
            err = max(diffs) / (max(map(abs, y_half)) + 1e-300)
            if err <= ivp.RTOL and not math.isnan(sum(diffs)):
                t += step
                y = y_half
                if err < 0.1 * ivp.RTOL:
                    h = direction * min(abs(h) * 1.6, max_step)
            else:
                h *= 0.5
                if abs(h) < 1e-14:
                    raise ivp.IntegrationError(f"step size underflow at t = {t}")

    for t_rec in record_at:
        advance_to(float(t_rec))
        samples.append(y)
    advance_to(float(t1))
    return y, samples


def _hex(result):
    y, samples = result
    return [[float(v).hex() for v in state] for state in (y, *samples)]


@pytest.fixture
def integrate_pairs(monkeypatch):
    """Run every `ivp.integrate` call also through the vector-form reference;
    collects (unrolled, reference) result pairs."""
    pairs = []
    unrolled = ivp.integrate

    def both(f, t0, t1, y0, max_step=0.1, record_at=()):
        got = unrolled(f, t0, t1, y0, max_step=max_step, record_at=record_at)
        pairs.append((_hex(got), _hex(_vector_integrate(f, t0, t1, y0, max_step=max_step, record_at=record_at))))
        return got

    monkeypatch.setattr(ivp, "integrate", both)
    return pairs


def test_unrolled_steps_match_the_vector_form_on_the_shooting_legs(integrate_pairs):
    # criterion 6: alpha = 0.1, M = 10, n = 0..2 at the closed-form epsilon and +-1 %
    scen = core.Scenario("lobachevsky", "coulomb", Fraction(1), 10.0, alpha=0.1)
    prob = radial.build_problem(scen, spectra.CH_MIN_J, 0)
    shots = 0
    for n in range(3):
        epsilon = spectra.single_level(scen, 0, n, spectra.CH_MIN_J).epsilon
        for factor in (1.0, 0.99, 1.01):
            try:
                oracle.shoot_decay(prob, epsilon * factor)
            except oracle.OracleError:
                continue
            shots += 1
    assert shots == 8 and len(integrate_pairs) == 16
    for got, want in integrate_pairs:
        assert got == want


def test_unrolled_steps_match_the_vector_form_on_the_free_solution_records(integrate_pairs):
    for j in (1, 2):
        radial.regular_free_solution(j, 0.5, 1.0, np.linspace(8.0, 12.0, 81))
        radial.regular_free_solution(j, 0.5, 1.0, np.geomspace(1e-3, 1e-2, 25))
    assert len(integrate_pairs) == 4
    for got, want in integrate_pairs:
        assert got == want
