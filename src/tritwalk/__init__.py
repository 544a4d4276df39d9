"""Qutrit circuit synthesis and noisy walk simulation.

The package splits along the pipeline: single-qutrit synthesis (`su3`),
block-diagonal and multi-controlled compilation (`blockdiag`, `toffoli`),
walk layers on cycle and dihedral graphs (`walk`), Kraus-channel
simulation (`noise`), and distribution analysis (`analysis`).  The most
commonly reached-for names are re-exported here.
"""

from .analysis import Distribution, kl_divergence, time_average, tvd, vertex_distribution
from .blockdiag import blockdiag_synthesize
from .circuit import Circuit, Gate, apply_state, circuit_unitary, count_gates, phase, rotation, xgate
from .config import ExperimentConfig, build_initial_state, load_config, parse_config
from .noise import (
    KrausChannel,
    NoiseConfig,
    amplitude_damping_channel,
    apply_channel,
    depolarizing_channel,
    phase_damping_channel,
    resolve_noise,
    simulate_noisy_walk,
)
from .su3 import decompose_su3, decompose_u3, reconstruct_su3, reconstruct_u3
from .toffoli import compile_mc_x_target_first, compile_mc_x_target_last, lower_circuit
from .walk import CoinSpec, WalkGraph, build_layer_cycle, build_layer_dihedral, coin_matrix, reference_step_unitary

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CoinSpec",
    "Distribution",
    "ExperimentConfig",
    "Gate",
    "KrausChannel",
    "NoiseConfig",
    "WalkGraph",
    "amplitude_damping_channel",
    "apply_channel",
    "apply_state",
    "blockdiag_synthesize",
    "build_initial_state",
    "build_layer_cycle",
    "build_layer_dihedral",
    "circuit_unitary",
    "coin_matrix",
    "compile_mc_x_target_first",
    "compile_mc_x_target_last",
    "count_gates",
    "decompose_su3",
    "decompose_u3",
    "depolarizing_channel",
    "kl_divergence",
    "load_config",
    "lower_circuit",
    "parse_config",
    "phase",
    "phase_damping_channel",
    "reconstruct_su3",
    "reconstruct_u3",
    "reference_step_unitary",
    "resolve_noise",
    "rotation",
    "simulate_noisy_walk",
    "time_average",
    "tvd",
    "vertex_distribution",
    "xgate",
]
