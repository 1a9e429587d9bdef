"""Desk-scale simulator of thermodynamic stochastic computing hardware:
programmable SDE (s-mode) and CTMC (s-bit) devices, trainable demon drift
devices, and the application drivers built on them."""

from .apps import (ConjugateGaussianModel, DiffusionSpec, NSDESpec,
                   TargetDistribution, anneal, diffusion_forward,
                   diffusion_reverse, double_well_target, gaussian_target,
                   hmc_sample, latent_sde_rollout, mixture_target,
                   sghmc_sample, sgld_sample, weight_diffuser_rollout)
from .circuit import (AdjacencyMatrix, Cell, Coupling, NoiseSourceSpec,
                      RCNetlist, apply_adjacency, compile_network,
                      compile_rc_cell, shot_noise_amplitude,
                      thermal_noise_amplitude)
from .core_sde import (EnsembleSummary, GaussianMoments, MomentPath, SDEModel,
                       Trajectory, fixed_initial, gaussian_initial, propagate_moments,
                       simulate_ensemble, simulate_trajectory,
                       stationary_covariance, trajectory_rng)
from .demon import (AnalyticScoreDemon, Demon, ForceDemon, ScoreNetworkDemon,
                    TotalDerivativeDemon, ZeroDemon, analytic_score,
                    total_derivative_step)
from .errors import ConfigError, ContractViolationError, DivergenceError
from .gates import (GateProgram, GateSegment, Generator, Schedule,
                    constant_schedule, discrete_gate_sequence,
                    evaluate_schedule, program_from_json, program_to_json,
                    single_smode_gate)
from .potentials import (DoubleWellPotential, Gaussian, GaussianMixture,
                         NegativeLogDensityPotential, Potential,
                         QuadraticPotential, potential_catalog)
from .sbit import (RateSchedule, SBitSystem, SBitTrajectory, dense_generator,
                   sample_coupled_trajectory, sample_sbit_trajectory,
                   transient_distribution)
from .training import (PerturbationSpec, TrainConfig, VPSchedule, dsm_loss,
                       kernel_dsm_objective, linear_sde_kernel,
                       loss_history_to_csv, perturb_model, train_demon)

__version__ = "0.1.0"
