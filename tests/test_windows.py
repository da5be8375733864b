"""Cutoff windows: plateau/support structure, kinds, validation."""

import numpy as np
import pytest

from torus_control import full_window, make_grid, make_window, random_state
from torus_control.windows import CutoffWindow, multiply_window


def test_sharp_window_is_indicator():
    g = make_grid(1, 64)
    w = make_window(g, (0.25, 0.5), kind="sharp")
    x = g.points()
    inside = (x > 0.25) & (x < 0.5)  # open interval
    assert np.array_equal(w.samples, inside.astype(float))


def test_smooth_window_plateau_and_support():
    g = make_grid(1, 256)
    width = 0.05
    w = make_window(g, (0.1, 0.4), width, "smooth")
    x = g.points()
    core = (x >= 0.1 + width) & (x <= 0.4 - width)
    outside = (x < 0.1) | (x > 0.4)
    assert np.all(w.samples[core] == 1.0)
    assert np.all(w.samples[outside] == 0.0)
    assert np.all((w.samples >= 0.0) & (w.samples <= 1.0))


def test_window_wraps_around_origin():
    g = make_grid(1, 256)
    w = make_window(g, (0.9, 1.0), kind="sharp")
    assert w.samples[-1] == 1.0  # x just below 1
    assert w.samples[0] == 0.0


def test_full_window_is_one():
    g = make_grid(1, 16)
    assert np.all(full_window(g).samples == 1.0)
    # explicit (0, 1) interval also gives the identity multiplier
    assert np.all(make_window(g, (0.0, 1.0), 0.05, "smooth").samples == 1.0)


def test_union_of_intervals():
    g = make_grid(1, 128)
    w = make_window(g, [(0.0, 0.2), (0.5, 0.7)], kind="sharp")
    x = g.points()
    expect = (((x > 0.0) & (x < 0.2)) | ((x > 0.5) & (x < 0.7))).astype(float)
    assert np.array_equal(w.samples, expect)


def test_window_validation():
    g = make_grid(1, 64)
    with pytest.raises(ValueError):
        make_window(g, (0.5, 0.4))
    with pytest.raises(ValueError):
        make_window(g, (0.0, 0.2), transition_width=0.15, kind="smooth")
    with pytest.raises(ValueError):
        make_window(g, (0.0, 0.2), kind="boxcar")
    with pytest.raises(ValueError):
        make_window(g, [])
    with pytest.raises(ValueError, match="finite"):
        make_window(g, (0.0, 0.2), transition_width=float("nan"))
    samples = np.full(g.shape, 0.5)
    samples[3] = np.nan
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        CutoffWindow(grid=g, samples=samples, omega=((0.0, 1.0),),
                     transition_width=0.0)


def test_2d_strip_constant_along_second_axis():
    g = make_grid(2, 16)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    assert w.samples.shape == (16, 16)
    assert np.allclose(w.samples, w.samples[:, :1])


def test_2d_window_refuses_non_strip_samples():
    g = make_grid(2, 8)
    samples = np.ones(g.shape)
    samples[2, 5] = 0.5  # varies along the second axis
    with pytest.raises(ValueError, match="constant along axis 2"):
        CutoffWindow(grid=g, samples=samples, omega=((0.0, 1.0),),
                     transition_width=0.0)


def test_multiply_window_is_physical_product():
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.4), 0.05, "smooth")
    u = random_state(g, np.random.default_rng(0))
    v = multiply_window(u, w)
    assert np.allclose(v.physical(), w.samples * u.physical())
