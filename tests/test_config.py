"""Config grammar, validation messages, recipes, bundled scenarios."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preytaxis import (
    ConfigError,
    Grid,
    ParseError,
    TaxisScheme,
    ValidationError,
    build_config,
    initial_state,
    parse_config,
    parse_items,
    scenario_items,
)
from preytaxis.cli import main
from preytaxis.config import DEFAULTS, SWEEPABLE_KEYS


def test_empty_text_gives_default_run():
    cfg = parse_config("")
    assert cfg.grid.n == (64,)
    assert cfg.grid.length == (1.0,)
    assert cfg.params.m2 == 2.0
    assert cfg.taxis is TaxisScheme.UPWIND
    assert cfg.t_end == 1.0
    assert cfg.sample_every == 0.1
    assert cfg.items["run.seed"] == "0"  # echoed only; RunConfig has no seed
    assert not hasattr(cfg, "seed")
    assert cfg.out_dir == "out"


def test_comments_and_blank_lines():
    items = parse_items(
        """
        # full-line comment
        params.chi = 2.5   # trailing comment

        run.t_end = 4
        """
    )
    assert items == {"params.chi": "2.5", "run.t_end": "4"}
    cfg = build_config(items)
    assert cfg.params.chi == 2.5
    assert cfg.items["params.chi"] == "2.5"  # raw echo kept


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1.*key = value"):
        parse_items("junk")
    with pytest.raises(ParseError, match="line 2.*unknown key"):
        parse_items("params.chi = 1\nparams.zeta = 2")
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        parse_items("params.chi = 1\n\nparams.chi = 2")
    with pytest.raises(ParseError, match="line 1.*empty value"):
        parse_items("params.chi =")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("params.chi = -1", "params:"),
        ("params.d1 = abc", "must be a number"),
        ("params.m2 = inf", "finite"),
        ("grid.dim = 3", "grid.dim"),
        ("grid.n = 2", "grid:"),
        ("grid.dim = 2\ngrid.n = 8,8,8", "entries"),
        ("grid.n = 8.5", "grid.n must be integers"),
        ("grid.length = one", "grid.length must be numbers"),
        ("scheme.taxis = hybrid", "scheme.taxis"),
        ("initial.kind = cosine\ninitial.u_base = 1\ninitial.u_amp = 1", "positive cosine"),
        ("initial.u_base = 0", "u_base"),
        ("initial.kind = two_bump", "initial.kind"),
        ("run.t_end = 0", "t_end"),
        ("run.sample_every = -0.1", "sample_every"),
        ("run.t_end = 10\nrun.sample_every = 1e-6", "keeps a record in memory"),
        ("run.seed = 1.5", "integer"),
    ],
)
def test_validation_errors(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        parse_config(text)


def test_scalar_broadcast_to_both_axes():
    cfg = parse_config("grid.dim = 2\ngrid.n = 32\ngrid.length = 4.0")
    assert cfg.grid.n == (32, 32)
    assert cfg.grid.length == (4.0, 4.0)
    cfg = parse_config("grid.dim = 2\ngrid.n = 32, 16\ngrid.length = 4.0, 2.0")
    assert cfg.grid.n == (32, 16)
    assert cfg.grid.length == (4.0, 2.0)


@pytest.mark.parametrize(
    "line",
    ["scheme.cfl_safety = 0.4", "scheme.reaction_limiter = 0.5", "initial.width = 0.1", "output.svg = true"],
)
def test_removed_key_is_unknown(tmp_path, line):
    with pytest.raises(ParseError, match="line 1: unknown key"):
        parse_items(line)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 3
    assert not (tmp_path / "out").exists()


def test_sweepable_keys_are_numeric_scalars():
    assert "params.chi" in SWEEPABLE_KEYS
    assert "params.eps" in SWEEPABLE_KEYS
    assert "run.t_end" in SWEEPABLE_KEYS
    for frozen in ("grid.n", "grid.dim", "scheme.taxis", "initial.kind",
                   "output.dir", "run.seed"):
        assert frozen not in SWEEPABLE_KEYS
    assert SWEEPABLE_KEYS <= set(DEFAULTS)


def test_constant_recipe():
    cfg = parse_config("initial.u_base = 0.7\ninitial.v_base = 1.3")
    s = initial_state(cfg)
    assert np.all(s.u.values == 0.7)
    assert np.all(s.v.values == 1.3)
    assert s.t == 0.0


def test_cosine_recipe_1d():
    cfg = parse_config(
        "initial.kind = cosine\ninitial.u_base = 1.0\ninitial.u_amp = 0.5\n"
        "initial.v_base = 2.0\ninitial.v_amp = 0.25\ngrid.length = 2.0"
    )
    s = initial_state(cfg)
    x = cfg.grid.centers(0)
    assert np.allclose(s.u.values, 1.0 + 0.5 * np.cos(np.pi * x / 2.0), rtol=1e-15)
    assert np.allclose(s.v.values, 2.0 + 0.25 * np.cos(np.pi * x / 2.0), rtol=1e-15)
    assert s.u.values.min() > 0


def test_cosine_recipe_2d_uses_product_mode():
    cfg = parse_config(
        "grid.dim = 2\ngrid.n = 8\ninitial.kind = cosine\n"
        "initial.v_base = 1.0\ninitial.v_amp = 0.5"
    )
    s = initial_state(cfg)
    X, Y = cfg.grid.meshcenters()
    expected = 1.0 + 0.5 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    assert np.allclose(s.v.values, expected, rtol=1e-15)


def test_bundled_scenarios_build():
    for name in ("coexistence_64", "extinction_64", "max_principle_64",
                 "eps_family_1d", "order_1d"):
        cfg = build_config(scenario_items(name))
        assert cfg.t_end > 0
    assert build_config(scenario_items("coexistence_64")).grid.dim == 2
    assert build_config(scenario_items("order_1d")).taxis is TaxisScheme.CENTRAL


def test_an_axis_too_long_for_its_dct_matrix_fails_fast(tmp_path):
    """eps_family_1d on 200000 cells would need a 298 GiB DCT matrix.  The
    config is refused, naming the limit, while less memory is traced than
    one field of that grid takes (1.6 MB), so neither the matrix nor any
    state was allocated, and the CLI exits 3 without a run directory."""
    items = scenario_items("eps_family_1d")
    items["grid.n"] = "200000"
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="at most MAX_AXIS_CELLS = 4096"):
            build_config(items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 200_000
    assert Grid((4096, 16), (1.0, 1.0)).n == (4096, 16)
    with pytest.raises(ValueError, match="MAX_AXIS_CELLS"):
        Grid((16, 4097), (1.0, 1.0))
    items["output.dir"] = str(tmp_path / "out")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in items.items()))
    assert main(["run", str(cfg)]) == 3
    assert not (tmp_path / "out").exists()


def test_unknown_scenario_lists_available():
    with pytest.raises(ConfigError, match="coexistence_64"):
        scenario_items("nope")


def test_build_config_rejects_unknown_items():
    with pytest.raises(ParseError, match="unknown keys"):
        build_config({"params.zeta": "1"})


def _num(low, high):
    return st.floats(low, high).map(repr)


def _per_axis(dim, values):
    """One value for every axis, or one value per axis."""
    return st.one_of(values, st.lists(values, min_size=dim, max_size=dim).map(", ".join))


@st.composite
def valid_items(draw):
    """A random subset of the keys, each with a value build_config accepts."""
    keys = draw(st.permutations(sorted(DEFAULTS)))[: draw(st.integers(0, len(DEFAULTS)))]
    dim = draw(st.sampled_from((1, 2))) if "grid.dim" in keys else 1
    positive = _num(1e-3, 1e3)
    values = {
        **{f"params.{k}": positive for k in ("d1", "d2", "m1", "chi", "a", "b")},
        "params.m2": _num(-1e3, 1e3),
        "params.eps": _num(0.0, 1e3),
        "grid.dim": st.just(str(dim)),
        "grid.n": _per_axis(dim, st.integers(4, 256).map(str)),
        "grid.length": _per_axis(dim, positive),
        "scheme.taxis": st.sampled_from(("upwind", "central", "Central", "UPWIND")),
        "initial.kind": st.sampled_from(("constant", "cosine")),
        "initial.u_base": _num(1.0, 1e3),
        "initial.u_amp": _num(0.0, 0.999),
        "initial.v_base": _num(1.0, 1e3),
        "initial.v_amp": _num(0.0, 0.999),
        "run.t_end": positive,
        "run.sample_every": positive,
        "run.seed": st.integers(-(2**63), 2**63).map(str),
        "output.dir": st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True),
    }
    assert set(values) == set(DEFAULTS)
    return {k: draw(values[k]) for k in keys}


@settings(max_examples=100, deadline=None)
@given(items=valid_items(), data=st.data())
def test_rendered_items_roundtrip_property(items, data):
    """Items rendered as "key = value" lines, in any order, with padding and
    comments, parse back to the same items and the same effective config."""
    lines = []
    for key, value in items.items():
        pad = data.draw(st.sampled_from(("", " ", "  ")))
        comment = data.draw(st.sampled_from(("", "  # note", "#")))
        lines.append(f"{pad}{key}{pad}={pad}{value}{comment}")
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(("", "# comment line", "   "))))
    parsed = parse_items("\n".join(lines))
    assert parsed == items
    assert build_config(parsed).items == build_config(items).items == {**DEFAULTS, **items}
