from dataclasses import replace

import numpy as np
import pytest

from cavitydark import darkstates, protocol
from cavitydark.checks import CHECKS, DEFAULT_SEED, run_checks

import oracles

# the checks that solve their blocks as one batch, and their one-block-at-a-time forms
BATCHED = {
    "cubic-eig-agreement": oracles.cubic_eig_agreement,
    "vieta": oracles.vieta,
    "dark-eigenpair": oracles.dark_eigenpair,
}


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 7])
@pytest.mark.parametrize("name", sorted(BATCHED))
def test_batched_check_matches_reference_loop(name, seed):
    # same instances, same verdict and detail, same generator state after
    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    assert CHECKS[name](gen) == BATCHED[name](ref_gen)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


@pytest.mark.parametrize("name", sorted(set(BATCHED) - {"dark-eigenpair"}))
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


def test_dark_eigenpair_fails_on_a_swapped_dark_vector(monkeypatch):
    # (g2, g1) in place of (-g2, g1): the photon row of H v is 2 g1 g2 / G, not 0
    def swapped(g1, g2):
        return np.stack([g2, g1], axis=-1) / (np.hypot(g1, g2)[..., None] + 0j)

    assert run_checks(["dark-eigenpair"])[0].passed
    monkeypatch.setattr(darkstates, "dark_state_degenerate", swapped)
    (result,) = run_checks(["dark-eigenpair"])
    assert not result.passed, result.detail


def test_null_protocol_requires_an_exact_zero(monkeypatch):
    # every weight is 0 at ds = dg = 0, so p is 0 at every time, not roundoff;
    # weights of 1e-100 pass the old bound of 1e-12 and must fail
    assert run_checks(["null-protocol"])[0].detail == "max yield without shift 0.00e+00"
    terms = protocol._amplitude_terms
    monkeypatch.setattr(protocol, "_amplitude_terms",
                        lambda *args: (terms(*args)[0], terms(*args)[1] + 1e-100))
    (result,) = run_checks(["null-protocol"])
    assert not result.passed, result.detail
