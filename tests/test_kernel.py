"""The yield kernel, protocol._amplitude_terms, against exact references.

Its roots and weights are taken in the frame of omega_a from closed forms
(Smith's trigonometric roots, one Newton step, the determinants and the
residue weights), with the certified secular solver for the rows the closed
form does not settle.  The tolerances below are relative to each block's
largest weight and hold on any libm: nothing here pins bits.
"""

import math
import warnings

import numpy as np
import pytest

from cavitydark import darkstates, protocol
from cavitydark.protocol import ZSJumpConfig, mean_yield, pds_max, sweep

from oracles import frame_terms, small_shift_yield

G1, G2 = 0.01, 0.005  # the default couplings


@pytest.mark.parametrize("ratio", [1.0, 0.97, 1.2, 1 / 3, 0.2])
def test_roots_and_weights_match_the_exact_reference(ratio):
    # omega_a / omega_c from resonance to far detuned, ds and dg log-uniform over
    # [1e-30, 1e-2]: eigh's weights erred by about eps absolutely, over 1e14 times
    # the largest weight at ds = dg = 1e-30
    gen = np.random.default_rng(int(ratio * 1000))
    cfg = ZSJumpConfig(omega_a=ratio)
    ds, dg = 10 ** gen.uniform(-30, -2, size=(2, 40))
    mu, coef = protocol._amplitude_terms(cfg, ds, dg, cfg.window)
    for k in range(len(ds)):
        mu_ref, coef_ref = frame_terms(1.0, ratio, G1, G2, ds[k], dg[k])
        scale = np.abs(coef_ref).max()
        assert np.abs(coef[k] - coef_ref).max() <= 1e-12 * scale
        assert np.abs(mu[k] - mu_ref).max() <= 4 * np.finfo(float).eps * np.abs(mu_ref).max()
        assert abs(coef[k].sum()) <= 1e-14 * scale  # <dark|photon> = 0


@pytest.mark.parametrize("ds", [1e-8, 1e-12, 1e-16, 1e-30, 1e-60, 1e-100])
def test_the_small_shift_law_holds_below_the_old_roundoff_floor(ds):
    # the paper's yield "of the order of the level splitting": on the default
    # window at dg = 0, p* / ds^2 tends to the first-order value 0.0077863204.
    # eigh's weights gave 0.0107 at ds = 1e-14 and 62.6 at 1e-16
    cfg = ZSJumpConfig(ds=ds)
    _, p_star = pds_max(cfg)
    assert p_star / ds**2 == pytest.approx(small_shift_yield(G1, G2, cfg.window), rel=1e-9)


def test_a_common_frequency_far_above_the_couplings_drops_out():
    # omega_c = omega_a = 1e300 with unit couplings: eigh could not resolve
    # g = 1 beside 1e300 and printed p_max = 0.8 at ds = dg = 0.  In the
    # frame of omega_a the block is that of omega_c = omega_a = 1, bit for bit
    ranges = dict(ds_range=(0.0, 0.1), dg_range=(0.0, 0.1), resolution=(3, 2))
    huge = sweep(ZSJumpConfig(omega_c=1e300, omega_a=1e300, g1=1.0, g2=0.5, t_max=1e10),
                 **ranges)
    unit = sweep(ZSJumpConfig(g1=1.0, g2=0.5, t_max=1e10), **ranges)
    assert huge.p_max[0, 0] == 0.0
    assert np.array_equal(huge.p_max, unit.p_max) and np.array_equal(huge.t_star, unit.t_star)


@pytest.mark.parametrize("ds", [0.0, 0.001, 0.02, -0.001, -0.02],
                         ids=["zero", "inside", "above", "inside-negative", "below"])
def test_a_decoupled_atom_keeps_its_root_at_ds(ds):
    # dg = -g1 decouples the shifted atom: ds is a root whose vector has no
    # photon amplitude, and the others are the polaritons -/+ g2 of atom 2.
    # Where ds lies outside them, a Newton step on f (which has no pole at ds)
    # would pull that root onto a polariton
    cfg = ZSJumpConfig(ds=ds, dg=-G1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu, coef = protocol._amplitude_terms(cfg, cfg.ds, cfg.dg, cfg.window)
    mu_ref, coef_ref = frame_terms(1.0, 1.0, G1, G2, ds, -G1)
    k = int(np.argmin(abs(mu - ds)))
    assert abs(mu[k] - ds) <= 4 * np.finfo(float).eps * abs(ds) and coef[k] == 0.0
    np.testing.assert_allclose(mu, mu_ref, rtol=4 * np.finfo(float).eps, atol=0)
    np.testing.assert_allclose(coef, coef_ref, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.delete(mu, k), [-G2, G2], rtol=1e-15)


def test_a_point_alone_has_the_bits_it_has_in_a_batch(monkeypatch):
    # rows the closed form settles and rows left to the certified roots (ds =
    # 0.7 beyond the cavity, where g1 of 1e-9 holds the top root next to ds)
    # side by side, with dg = -g1 among them
    cfg = ZSJumpConfig(omega_a=0.5, g1=1e-9, g2=0.3)
    ds = np.array([0.0, 1e-12, 0.003, 0.02, 0.7])[:, None]
    dg = np.array([-1e-9, 0.0, 1e-10, 0.01])
    mu, coef = protocol._amplitude_terms(cfg, ds, dg, cfg.window)
    certified, solve = [], darkstates.analytic_spectrum
    monkeypatch.setattr(darkstates, "analytic_spectrum",
                        lambda *block: certified.append(1) or solve(*block))
    for i, j in np.ndindex(mu.shape[:2]):
        alone = protocol._amplitude_terms(cfg, ds[i, 0], dg[j], cfg.window)
        assert np.array_equal(alone[0], mu[i, j]) and np.array_equal(alone[1], coef[i, j])
    assert 0 < len(certified) < mu.shape[0] * mu.shape[1]


def test_mean_yield_stays_below_the_maximum_on_tiny_windows():
    # the mean was coef @ sinc @ coef, whose roundoff printed a mean of 1.2e-32
    # above a maximum of 0 at a window of 1e-300; sum_kl c_k c_l (sinc - 1)
    # uses sum_k c_k = 0 and is 0 wherever sinc rounds to 1
    gen = np.random.default_rng(11)
    windows = np.append(1e-300, 10 ** gen.uniform(-300, -3, size=60))
    for t_max in windows:
        cfg = ZSJumpConfig(ds=0.01, dg=0.007, t_max=float(t_max))
        assert mean_yield(cfg) <= pds_max(cfg)[1]
    assert mean_yield(ZSJumpConfig(ds=0.01, dg=0.007, t_max=1e-300)) == 0.0


def test_the_weights_scale_with_powers_of_two_bit_for_bit():
    # the block is divided by the power of two of its largest entry, so every
    # frequency times 2^k gives the roots times 2^k and the same weights
    def scaled(k):
        return ZSJumpConfig(*(math.ldexp(x, k) for x in (1.0, 0.97, G1, G2, 0.004, 0.003)))

    mu0, coef0 = protocol._amplitude_terms(scaled(0), 0.004, 0.003, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-1000, -300, -1, 1, 300, 1000):
            cfg = scaled(k)
            mu, coef = protocol._amplitude_terms(cfg, cfg.ds, cfg.dg, 1.0)
            assert np.array_equal(mu, np.ldexp(mu0, k)) and np.array_equal(coef, coef0)


def test_configs_in_one_call_have_the_bits_of_each_config_alone():
    # the kernel entry takes d, g1, g2, ds and dg as arrays: a batch of
    # configs, scaled over 2^-600 .. 2^600 and some left to the certified
    # roots (g1 of 1e-9 next to ds = 0.7), gives each config's own terms
    gen = np.random.default_rng(3)
    n = 60
    scale = np.ldexp(1.0, gen.integers(-600, 601, size=n))
    omega_a = gen.choice([1.0, 0.97, 0.5], size=n)
    g1 = np.where(np.arange(n) % 7 == 0, 1e-9, gen.uniform(0.001, 0.05, size=n))
    g2 = gen.uniform(0.001, 0.3, size=n)
    ds = gen.choice([0.0, 1e-12, 0.003, 0.02, 0.7], size=n)
    dg = np.where(np.arange(n) % 5 == 0, -g1, gen.uniform(0.0, 0.01, size=n))
    mu, coef = protocol._frame_terms(scale - scale * omega_a, scale * g1, scale * g2,
                                     scale * ds, scale * dg)
    for k in range(n):
        cfg = ZSJumpConfig(omega_c=scale[k], omega_a=scale[k] * omega_a[k], g1=scale[k] * g1[k],
                           g2=scale[k] * g2[k], ds=scale[k] * ds[k], dg=scale[k] * dg[k])
        alone = protocol._amplitude_terms(cfg, cfg.ds, cfg.dg, cfg.window)
        assert np.array_equal(alone[0], mu[k]) and np.array_equal(alone[1], coef[k]), k
