"""Package surface: the top level holds what the README and CLI use."""

import svarlic
from svarlic import cli, complexity, estimators, linalg, model, report, synthetic


def test_top_level_names_resolve():
    assert all(hasattr(svarlic, name) for name in svarlic.__all__)
    assert {"fit_both", "fit_svar_lic", "fit_rvar_ls", "rvar_to_svar",
            "SvarCoefficients", "RvarCoefficients", "whitening_error",
            "simulate_series", "random_stable_svar", "savings_ratio",
            "SvarlicError", "__version__"} <= set(svarlic.__all__)


def test_kernels_and_builders_live_in_their_modules():
    for module, names in [(linalg, ("gram_hermitian", "cholesky_lower", "invert_lower",
                                    "solve_hpd")),
                          (model, ("build_regressor_s", "build_regressor_t",
                                   "svar_residuals", "rvar_residuals"))]:
        for name in names:
            assert name in module.__all__ and callable(getattr(module, name))
            assert name not in svarlic.__all__ and not hasattr(svarlic, name)


def test_every_pass_over_the_samples_lives_in_linalg():
    # The chunk rule and the phase form's machinery are bound in linalg
    # alone, so no other module can cut a pass or take the form itself.
    names = {"_chunk_bounds", "_phase_windows", "_aligned", "_phase_products",
             "_phase_residuals"}
    assert all(callable(getattr(linalg, name)) for name in names)
    for module in (model, estimators, synthetic, cli, report, complexity):
        assert names.isdisjoint(vars(module)), module.__name__
