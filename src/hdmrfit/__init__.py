"""Sparse interaction surrogates of random variables and fields.

Builds closed-form functional representations u(xi) = f0 + sum_gamma
f_gamma(xi_gamma) from scattered samples: group-wise least angle selection
of the interaction skeleton, alternating least-squares coefficient fits,
an optional errors-in-variables estimator for noisy coordinates, and
separated space/stochastic representations for field-valued data. Moments
and sensitivity indices come out in closed form.

The package re-exports nothing: import from its modules (basis, data,
selection, fitting, model, separated, testbed, cli).
"""

__version__ = "0.1.0"
