"""platelab: spectral-Galerkin plate dynamics and attractor experiments."""

__version__ = "0.1.0"

from .discretization import (Basis, DiscreteOperators, DomainSpec, QuadGrid,
                             build_operators, make_operators, quadrature_grid)
from .model import (PlateConfig, SourceSpec, State, berger_coefficient,
                    certify_source, force_load, solve_stationary)
from .energy import (EnergyLedger, poincare_ratio, potential_energy,
                     sandwich_constants, split_potential, total_energy)
from .integrator import SimPlan, Trajectory, initial_state, run, run_ensemble, step
from .barrier import (BarrierConstants, balance_function, balancing_check,
                      damping_growth_exponent, decay_audit, decay_rate_at_energy,
                      fit_barrier_constants, solve_barrier_scale, toy_constants,
                      ultimate_bound)
from .attractor_lab import (SweepPlan, correlation_dimension, dissipativity_sweep,
                            make_nearby_pair, quasistability_pairs, regularity_probe,
                            stationary_convergence)
