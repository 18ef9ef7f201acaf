"""Effective Hamiltonians of switching Markov processes.

Pipeline: define a model (continuous drift-diffusion with chemical switching,
or a discrete hop model), assemble the cell-problem operator at momentum p,
compute its principal eigenvalue H(p) with a Collatz-Wielandt certificate,
derive velocity / Lagrangian / path rates, and cross-check transport against
direct Monte Carlo simulation of the process.
"""

from .fields import PeriodicScalarField, field_from_function
from .model import (ContinuousModel, DiscreteModel, SwitchingRateMatrix,
                    Violation, load_model, model_from_dict, model_to_dict,
                    scaled_switching, validate)
from .chains import (ReducibleChainError, averaged_drift, averaged_hop_rates,
                     detailed_balance_report, generator_at, stationary_measure)
from .eigensolver import (AssembledOperator, ConvergenceError, EigenCertificate,
                          PecletError, assemble_continuous_I,
                          assemble_continuous_II, assemble_discrete_I,
                          assemble_discrete_II, collatz_wielandt_bounds,
                          principal_eigenpair)
from .hamiltonian import (HamiltonianTable, LagrangianTable, convexity_report,
                          coercivity_check, hamiltonian_at, legendre, path_rate,
                          sweep, symmetry_check, velocity_of_model)
from .simulator import (ConcentrationReport, Trajectory,
                        concentration_experiment, simulate_continuous,
                        simulate_discrete)
from .presets import PRESETS, get_preset

__version__ = "0.1.0"
