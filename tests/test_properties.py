"""Property tests over random model parameters: batch-versus-single bit identity,
finite output and positivity of the solver and the Malliavin kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fcir import (
    CirParams,
    GridSpec,
    malliavin_profile,
    malliavin_terminal_forms,
    path_seed,
    sample_fbm_circulant,
    simulate_batch,
    simulate_path,
)

GRID = GridSpec(1.0, 32)
WIDTH = 4

model = st.fixed_dictionaries(
    {
        "kappa": st.floats(0.05, 8.0),
        "theta": st.floats(0.01, 3.0),
        "sigma": st.floats(0.01, 3.0),
        "r0": st.floats(0.01, 5.0),
    }
)


@settings(max_examples=40, deadline=None)
@given(
    model=model,
    hurst=st.floats(0.51, 0.99),
    seed=st.integers(0, 2**64 - 1),
)
def test_batch_rows_match_single_paths(model, hurst, seed):
    params = CirParams(**model)
    noises = [sample_fbm_circulant(GRID, hurst, path_seed(seed, i)) for i in range(WIDTH)]
    batch = simulate_batch(np.stack([n.increments() for n in noises]), GRID.step, params)
    product, exponential = malliavin_terminal_forms(batch, GRID.step, params)

    for row, noise in enumerate(noises):
        path = simulate_path(noise, params)
        assert np.array_equal(batch[row], path.x)
        assert np.array_equal(product[row], malliavin_profile(path, GRID.steps).values)
        _, single_exponential = malliavin_terminal_forms(path.x[None, :], GRID.step, params)
        assert np.array_equal(exponential[row], single_exponential[0])

    for values in (batch, product, exponential):
        assert np.all(np.isfinite(values))
    assert np.all(batch > 0.0)
    assert np.all((product > 0.0) & (product <= 0.5 * params.sigma))
    # exp of a trapezoid integral below about -745 rounds to 0 in double
    # precision, which happens where a level nears 0 and f' ~ -1/x^2 is huge.
    assert np.all((exponential >= 0.0) & (exponential <= 0.5 * params.sigma))
