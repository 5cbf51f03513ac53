from dataclasses import replace

import numpy as np
import pytest

from cavitydark import darkstates
from cavitydark.checks import CHECKS, DEFAULT_SEED, run_checks

import oracles

# the checks that solve their blocks as one batch, and their one-block-at-a-time forms
BATCHED = {
    "cubic-eig-agreement": oracles.cubic_eig_agreement,
    "vieta": oracles.vieta,
}


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 7])
@pytest.mark.parametrize("name", sorted(BATCHED))
def test_batched_check_matches_reference_loop(name, seed):
    # same instances, same verdict and detail, same generator state after
    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    assert CHECKS[name](gen) == BATCHED[name](ref_gen)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


@pytest.mark.parametrize("name", sorted(BATCHED))
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
