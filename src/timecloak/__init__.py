"""timecloak: simulate and analyze key-encrypted time dissemination.

The package covers the full desk-scale chain: key material handling with
consume-once semantics, key-driven phase-noise schedules and the delay
codec they define, Master/Slave timestamp-exchange synchronization,
Allan-deviation stability analysis, photon-counting channel feasibility
arithmetic, and the round-trip experiment tying it all together.

The package itself exports what the README's library examples use; every
other name is imported from its module (``timecloak.wrptp``, ...).
"""

from .config import ExperimentConfig
from .experiment import calibration_window, emit_outputs, run_experiment
from .keys import KmsStore, mock_qkd_source
from .noise import NoiseKind, NoiseModelSpec
from .wrptp import HopConfig

__version__ = "0.1.0"
