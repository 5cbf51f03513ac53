from dataclasses import replace

import numpy as np
import pytest

from cavitydark import darkstates, protocol
from cavitydark.checks import CHECKS, DEFAULT_SEED, CheckResult, run_checks

import oracles

# the checks that solve their blocks as one batch, and their one-block-at-a-time forms
BATCHED = {
    "cubic-eig-agreement": oracles.cubic_eig_agreement,
    "vieta": oracles.vieta,
    "dark-eigenpair": oracles.dark_eigenpair,
    "darkness-evolution": oracles.darkness_evolution,
    "scaling-invariance": oracles.scaling_invariance,
}


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 7])
@pytest.mark.parametrize("name", sorted(BATCHED))
def test_batched_check_matches_reference_loop(name, seed):
    # same instances, same verdict and detail, same generator state after
    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    assert CHECKS[name](gen) == BATCHED[name](ref_gen)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


@pytest.mark.parametrize("name", ["cubic-eig-agreement", "vieta"])
def test_batched_check_fails_on_one_perturbed_root(name, monkeypatch):
    solve = darkstates.analytic_spectrum

    def perturbed(*block):
        sp = solve(*block)
        roots = sp.eigenvalues.copy()
        roots[17, 1] += 1e-6
        return replace(sp, eigenvalues=roots)

    assert run_checks([name])[0].passed
    monkeypatch.setattr(darkstates, "analytic_spectrum", perturbed)
    (result,) = run_checks([name])
    assert not result.passed, result.detail


def _swapped(g1, g2):
    """(g2, g1) in place of the dark vector (-g2, g1): bright where g1 g2 != 0."""
    return np.stack([g2, g1], axis=-1) / (np.hypot(g1, g2)[..., None] + 0j)


def test_dark_eigenpair_fails_on_a_swapped_dark_vector(monkeypatch):
    # the photon row of H v is 2 g1 g2 / G, not 0
    assert run_checks(["dark-eigenpair"])[0].passed
    monkeypatch.setattr(darkstates, "dark_state_degenerate", _swapped)
    (result,) = run_checks(["dark-eigenpair"])
    assert not result.passed, result.detail


def test_darkness_evolution_fails_on_a_swapped_dark_vector(monkeypatch):
    # the swapped vector emits 2 g1 g2 / G at once
    assert run_checks(["darkness-evolution"])[0].passed
    monkeypatch.setattr(darkstates, "dark_state_degenerate", _swapped)
    assert run_checks(["darkness-evolution"]) == [
        CheckResult("darkness-evolution", False, "darkness lost at t=1.0")]


def test_scaling_invariance_fails_on_a_root_shift_that_does_not_scale(monkeypatch):
    # a middle root off by an absolute 1e-3 moves the beats of a config scaled
    # by s by 1e-3 (1 - 1/s) t, far above the 1e-10 bound
    terms = protocol._frame_terms

    def shifted(*block):
        mu, coef = terms(*block)
        return mu + [0.0, 1e-3, 0.0], coef

    assert run_checks(["scaling-invariance"])[0].passed
    monkeypatch.setattr(protocol, "_frame_terms", shifted)
    (result,) = run_checks(["scaling-invariance"])
    assert not result.passed, result.detail


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
def test_every_verdict_is_a_python_bool(seed):
    # unitarity's verdict was numpy's bool, from its np.float64 worst
    results = run_checks(seed=seed)
    assert [r.name for r in results] == list(CHECKS)
    assert all(type(r.passed) is bool for r in results), results


def test_null_protocol_requires_an_exact_zero(monkeypatch):
    # every weight is 0 at ds = dg = 0, so p is 0 at every time, not roundoff;
    # weights of 1e-100 pass the old bound of 1e-12 and must fail
    assert run_checks(["null-protocol"])[0].detail == "max yield without shift 0.00e+00"
    terms = protocol._amplitude_terms
    monkeypatch.setattr(protocol, "_amplitude_terms",
                        lambda *args: (terms(*args)[0], terms(*args)[1] + 1e-100))
    (result,) = run_checks(["null-protocol"])
    assert not result.passed, result.detail
