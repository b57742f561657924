"""Synchronous slot-level simulation engine."""

from repro.sim.backend import NumpyBackend, active_backend
from repro.sim.engine import (
    BatchStepOutcome,
    SlotOutcome,
    StepOutcome,
    resolve_slot,
    resolve_step,
    resolve_step_batch,
    resolve_varying,
)
from repro.sim.environment import (
    MarkovTraffic,
    PoissonTraffic,
    SpectrumEnvironment,
    StaticMask,
    TrafficStream,
    make_environment,
)
from repro.sim.metrics import SlotLedger
from repro.sim.network import CRNetwork
from repro.sim.rng import RngHub
from repro.sim.trace import ReceptionEvent, TraceRecorder

__all__ = [
    "BatchStepOutcome",
    "CRNetwork",
    "NumpyBackend",
    "active_backend",
    "MarkovTraffic",
    "PoissonTraffic",
    "ReceptionEvent",
    "RngHub",
    "SlotLedger",
    "SlotOutcome",
    "SpectrumEnvironment",
    "StaticMask",
    "StepOutcome",
    "TraceRecorder",
    "TrafficStream",
    "make_environment",
    "resolve_slot",
    "resolve_step",
    "resolve_step_batch",
    "resolve_varying",
]
