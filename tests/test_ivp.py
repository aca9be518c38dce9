"""Adaptive RK4 integrator: accuracy, sampling, direction, step rejection and import weight."""

import math
import os
import subprocess
import sys

import pytest

import monopole_spectra
from monopole_spectra import ivp


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
