"""Outcome walk over every (geometry, potential, charge, channel, j) case.

For each case the walk records the level `spectra.single_level(scen, j, 0,
channel)` (or its exception), the radial problem `radial.build_problem`
builds (tag, origin exponent, continuum edge, linearity; or its exception),
the default channels, and for an admissible level the `closed_form` text of
`radial.analytic_solution` on a fixed grid (or its exception). Floats are
kept as `repr`, so a changed bit shows. The expected outcomes in
`tests/channel_walk.json` (outside `tests/golden/`, which holds CLI cases
only) were recorded before `spectra.CHANNEL_TABLE` replaced the case splits
of each layer, so the walk pins every outcome, error texts included, that the
table had to keep.

Rewrite the expected file only for an intended change of behaviour, and say
so in CHANGES.md:

    PYTHONPATH=src python tests/test_channel_table.py
"""

import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from monopole_spectra import heunspec, radial, spectra
from monopole_spectra.core import Scenario

EXPECTED = pathlib.Path(__file__).parent / "channel_walk.json"

_PARAMS = {"none": {}, "coulomb": {"alpha": 0.3}, "oscillator": {"k_osc": 2.0}}
_GRID = np.linspace(0.05, 2.0, 200)

CASES = [
    (geometry, potential, charge, channel, j)
    for geometry in ("flat", "lobachevsky")
    for potential in ("none", "coulomb", "oscillator")
    for charge in (0, 1)
    for channel in spectra.CHANNELS
    for j in (0, 1, 2)
]


def _case_id(case) -> str:
    geometry, potential, charge, channel, j = case
    return f"{geometry}-{potential}-k{charge}-{channel}-j{j}"


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the walk records every failure as text
        return f"{type(exc).__name__}: {exc}"


def _problem_record(problem):
    return [problem.tag, repr(problem.origin_exponent), repr(problem.continuum_edge), problem.linearity]


def _scenario(case) -> Scenario:
    geometry, potential, charge, _, _ = case
    return Scenario(geometry, potential, Fraction(charge), 10.0, **_PARAMS[potential])


def _problem_outcome(problem):
    return problem if isinstance(problem, str) else _problem_record(problem)


def walk(case) -> dict:
    *_, channel, j = case
    scen = _scenario(case)
    level = _outcome(lambda: spectra.single_level(scen, j, 0, channel))
    problem = _outcome(lambda: radial.build_problem(scen, channel, j))
    record = {
        "defaults": _outcome(lambda: spectra.default_channels(scen, j)),
        "level": repr(tuple(level)) if isinstance(level, tuple) else level,
        "problem": _problem_outcome(problem),
    }
    if isinstance(level, tuple) and level.admissible and not isinstance(problem, str):
        record["solution"] = _outcome(lambda: radial.analytic_solution(problem, level, grid=_GRID).closed_form)
    return record


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_outcome_matches_the_recorded_walk(case, expected):
    assert walk(case) == expected[_case_id(case)]


def test_problems_are_built_without_the_closed_form_inputs(expected, monkeypatch):
    # the oracle's operator stays independent of the closed forms: with the
    # resolver of their inputs refusing, every problem comes out as recorded
    def refuse(*args, **kwargs):
        raise AssertionError("the radial problem read a resolved channel")

    for module in (spectra, radial, heunspec):
        monkeypatch.setattr(module, "resolve_channel", refuse)
    for case in CASES:
        *_, channel, j = case
        problem = _outcome(lambda: radial.build_problem(_scenario(case), channel, j))
        assert _problem_outcome(problem) == expected[_case_id(case)]["problem"], _case_id(case)


def test_recorded_walk_names_every_case(expected):
    assert sorted(expected) == sorted(map(_case_id, CASES))


if __name__ == "__main__":
    with np.errstate(all="ignore"):
        records = {_case_id(case): walk(case) for case in CASES}
    EXPECTED.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
