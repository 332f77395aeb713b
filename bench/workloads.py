"""The benchmark's workloads: public `RunConfig` dicts plus what to warm.

Each workload is one `cmd_run` or `cmd_sweep` call on a fixed config.
The seed only draws `data.amplitude` within +-10% of the base value, so
the work per operation is the same on every seed while the outputs are
not.  Reference outputs exist for DEFAULT_SEED only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
AMPLITUDE_SPREAD = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "run" (cmd_run) or "sweep" (cmd_sweep)
    config: dict  # RunConfig.from_dict sections, without data.amplitude / output
    base_amplitude: float

    def amplitude(self, seed: int) -> float:
        draw = random.Random(seed).uniform(-AMPLITUDE_SPREAD, AMPLITUDE_SPREAD)
        return self.base_amplitude * (1.0 + draw)

    def config_dict(self, seed: int, directory: str) -> dict:
        out = {group: dict(keys) for group, keys in self.config.items()}
        out.setdefault("data", {})["amplitude"] = self.amplitude(seed)
        out.setdefault("output", {})["directory"] = directory
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decay-small",
            op="run",
            config={
                "grid": {"Nx": 32, "Ny": 33},
                "data": {"m_max": 2},
                "solver": {"T_final": 4.0},
                "experiment": {"kind": "prandtl"},
                "output": {"sample_every": 1},
            },
            base_amplitude=1e-4,
        ),
        Workload(
            name="decay-hns",
            op="run",
            config={
                "grid": {"Nx": 128, "Ny": 65},
                "data": {"m_max": 4},
                "solver": {"T_final": 0.5},
                "experiment": {"kind": "hns", "eps": 0.1},
                "output": {"sample_every": 10},
            },
            base_amplitude=1e-4,
        ),
        Workload(
            name="sweep-eps",
            op="sweep",
            config={
                "grid": {"Nx": 128, "Ny": 65},
                "data": {"m_max": 4},
                "solver": {"T_final": 0.125},
                "experiment": {
                    "kind": "sweep",
                    "eps_list": [0.1, 0.05, 0.025, 0.0125],
                },
                "output": {"sample_every": 10},
            },
            base_amplitude=1e-4,
        ),
    )
}
