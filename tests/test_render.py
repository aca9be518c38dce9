"""`cli.render_levels` against the renderer it replaced: a per-level dict from
`level_record`, then `json.dumps(..., sort_keys=True, indent=1)`, or the CSV
and table lines built from the same dicts. The reference is copied here so
that the renderer is checked against an independent path, byte for byte, on
generated and hand-picked levels in all three formats; `level_record` is the
one statement of the JSON record's keys outside the renderer."""

import json
import math
import random
import sys
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from monopole_spectra import cli, spectra  # noqa: E402
from monopole_spectra.core import Scenario  # noqa: E402
from monopole_spectra.spectra import EnergyLevel  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
FORMATS = ("json", "csv", "table")
_LEVEL_COLUMNS = ("channel", "j2", "n", "E", "admissible", "derivation", "reason")


def _fmt12(x) -> str:
    return f"{float(x):.12g}"


def _round12(x: float) -> float:
    return float(_fmt12(x))


def level_record(lv) -> dict:
    """One level as the JSON record `spectrum --format json` writes, before
    rounding: the scenario's record, 2j, and the level's printed fields."""
    rec = {
        "scenario": lv.scenario.to_record(),
        "channel": lv.channel,
        "j2": int(lv.j * 2),
        "n": lv.n,
        "E": lv.energy,
        "derivation": lv.derivation,
        "admissible": lv.admissible,
        "reason": lv.reason,
        "formula": lv.formula,
    }
    if lv.epsilon is not None:
        rec["epsilon"] = lv.epsilon
    return rec


def reference_render(levels, fmt: str) -> str:
    rows = []
    for lv in sorted(levels, key=lambda lv: (lv.channel, lv.j, lv.n)):
        rec = level_record(lv)
        rec["E"] = _round12(rec["E"]) if rec["E"] == rec["E"] else rec["E"]  # keep NaN as-is
        if "epsilon" in rec:
            rec["epsilon"] = _round12(rec["epsilon"])
        rows.append(rec)
    if fmt == "json":
        return json.dumps(rows, sort_keys=True, indent=1) + "\n"
    if fmt == "csv":
        lines = [",".join(_LEVEL_COLUMNS)]
        for rec in rows:
            lines.append(
                ",".join(
                    [rec["channel"], str(rec["j2"]), str(rec["n"]), _fmt12(rec["E"]),
                     str(rec["admissible"]).lower(), rec["derivation"],
                     '"' + rec["reason"].replace('"', "'") + '"' if rec["reason"] else ""]
                )
            )
        return "\n".join(lines) + "\n"
    header = f"{'channel':<12} {'j2':>3} {'n':>3} {'E':>20} {'ok':>3}  reason"
    lines = [header, "-" * len(header)]
    for rec in rows:
        lines.append(
            f"{rec['channel']:<12} {rec['j2']:>3} {rec['n']:>3} {_fmt12(rec['E']):>20} "
            f"{'y' if rec['admissible'] else 'n':>3}  {rec['reason']}"
        )
    return "\n".join(lines) + "\n"


FLAT = Scenario("flat", "coulomb", Fraction(3, 2), 0.9, alpha=1.3)
CURVED = Scenario("lobachevsky", "coulomb", Fraction(2), 5, alpha=0.3, radius=2.5)
NO_MONOPOLE = Scenario("lobachevsky", "oscillator", Fraction(0), 1.0, k_osc=150.0)

scenarios = st.builds(
    Scenario,
    geometry=st.sampled_from(["flat", "lobachevsky"]),
    potential=st.sampled_from(["none", "coulomb", "oscillator"]),
    charge=st.integers(-6, 6).map(lambda k2: Fraction(k2, 2)),
    mass=st.integers(1, 5) | st.floats(1e-3, 1e3),
    alpha=st.floats(1e-3, 1e3),
    k_osc=st.floats(1e-3, 1e3),
    radius=st.floats(1e-3, 1e3),
) | st.sampled_from([FLAT, CURVED, NO_MONOPOLE])
texts = st.text(max_size=12) | st.sampled_from(["", spectra.REASON_FORMAL, 'say "no"', "ε → ∞ \\ ü"])
energies = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300])

_FIELDS = dict(scenario=scenarios, energy=energies, derivation=texts, admissible=st.booleans(),
               reason=texts, formula=texts, epsilon=st.none() | energies)
levels = st.builds(
    EnergyLevel,
    channel=st.sampled_from(spectra.CHANNELS),
    j=st.integers(0, 12).map(lambda j2: Fraction(j2, 2)),
    n=st.integers(0, 3) | st.integers(0, 10**6),
    **_FIELDS,
)
# levels that fall into few (channel, j) blocks, with few distinct n
blocked_levels = st.builds(
    EnergyLevel,
    channel=st.sampled_from(spectra.CH_BRANCH[:2]),
    j=st.sampled_from([Fraction(1, 2), Fraction(3, 2)]),
    n=st.integers(0, 3),
    **_FIELDS,
)


@PROPERTY
@given(batch=st.lists(levels, max_size=12), fmt=st.sampled_from(FORMATS))
def test_render_matches_the_reference_on_generated_levels(batch, fmt):
    assert cli.render_levels(batch, fmt) == reference_render(batch, fmt)


def _with_equal_key(lv):
    """`lv` with a channel string and j equal to its own but not identical."""
    channel, j = (lv.channel + "#")[:-1], Fraction(lv.j.numerator, lv.j.denominator)
    assert channel is not lv.channel and j is not lv.j
    return lv._replace(channel=channel, j=j)


@PROPERTY
@given(batch=st.lists(blocked_levels | levels, min_size=1, max_size=12),
       repeats=st.lists(st.tuples(st.integers(0, 11), st.booleans()), max_size=8),
       move=st.tuples(st.integers(0, 19), st.integers(0, 19)),
       fmt=st.sampled_from(FORMATS))
def test_render_of_an_ordered_batch_and_of_one_row_moved_matches_the_reference(batch, repeats, move, fmt):
    """Rows in (channel, j, n) order, with repeated rows, some of them with an
    equal but not identical channel and j, and the same rows with one moved."""
    rows = list(batch)
    for i, equal_key in repeats:
        lv = batch[i % len(batch)]
        rows.append(_with_equal_key(lv) if equal_key else lv)
    rows.sort(key=lambda lv: (lv.channel, lv.j, lv.n))
    assert cli.render_levels(rows, fmt) == reference_render(rows, fmt)
    moved = list(rows)
    moved.insert(move[1] % len(rows), moved.pop(move[0] % len(rows)))
    assert cli.render_levels(moved, fmt) == reference_render(moved, fmt)


def _hand_picked():
    """Mixed scenarios and j in one list, out of order: NaN E on inadmissible
    rows, levels with and without epsilon, quotes and non-ASCII reasons, and
    real levels from three kinds of table."""
    real = (spectra.spectrum_levels(FLAT, Fraction(7, 2), range(5), None, True)
            + spectra.spectrum_levels(CURVED, 1, range(13), None, True)
            + spectra.spectrum_levels(NO_MONOPOLE, 2, range(12), None, True))
    made = [
        EnergyLevel(CURVED, "min-j", Fraction(1), 7, math.nan, "shooting", False,
                    reason='no "root": ν ≤ 0', epsilon=math.nan),
        EnergyLevel(FLAT, "branch-2", Fraction(1, 2), 0, -0.123456789012345, "mixing-root", True,
                    reason="", formula="E = -α²M/(2N²)"),
        EnergyLevel(NO_MONOPOLE, "even-1", Fraction(3), 1, 1e-320, "heun-formal-beta", True,
                    reason=spectra.REASON_FORMAL, epsilon=2.5),
    ]
    return list(reversed(real)) + made


@pytest.mark.parametrize("fmt", FORMATS)
def test_render_matches_the_reference_on_hand_picked_levels(fmt):
    batch = _hand_picked()
    assert any(lv.energy != lv.energy and not lv.admissible for lv in batch)
    assert any(lv.epsilon is None for lv in batch) and any(lv.epsilon is not None for lv in batch)
    assert cli.render_levels(batch, fmt) == reference_render(batch, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_render_of_a_shuffled_table_matches_the_ordered_table(fmt):
    table = spectra.spectrum_levels(FLAT, Fraction(7, 2), range(1000), None, True)
    assert len(table) == 3000
    shuffled = list(table)
    random.Random(15).shuffle(shuffled)
    assert shuffled != table
    assert cli.render_levels(shuffled, fmt) == cli.render_levels(table, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_render_of_no_levels_matches_the_reference(fmt):
    assert cli.render_levels([], fmt) == reference_render([], fmt)


def test_render_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        cli.render_levels([], "xml")


def reference_json_float(x: float) -> str:
    """The JSON E writer before it reused the 12-digit text."""
    x = float(_fmt12(x))
    if -math.inf < x < math.inf:
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


JSON_FLOAT_EDGES = [
    0.0, -0.0,
    1e-5, 9.99999999999e-05, 1e-4,
    999999999999.5, 1e12, 9.999999999995e15, 1e16,
    2.2250738585072014e-308, 5e-324,
    1e300, 1.797693134865e308, sys.float_info.max,  # the middle one reads as inf
    math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("x", JSON_FLOAT_EDGES + [-x for x in JSON_FLOAT_EDGES], ids=repr)
def test_json_float_matches_the_reference_on_edge_values(x):
    assert cli._json_float(x) == reference_json_float(x)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(x=st.floats() | st.integers(-10**13, 10**13).map(float) | st.floats(-1e17, 1e17)
       | st.floats(-2e-4, 2e-4) | st.floats(-1e-300, 1e-300))
def test_json_float_matches_the_reference_on_generated_floats(x):
    assert cli._json_float(x) == reference_json_float(x)
