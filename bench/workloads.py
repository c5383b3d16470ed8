"""The benchmark's workloads: each one is a fixed list of simulation configs
derived from the workload seed.

Why these three (see README.md for the full map):

- video-uplink: the heaviest cells of the paper's grid; almost all events are
  per-packet uplink work, so a cheaper per-packet path shows here.
- voip-duplex: the downlink (home-agent intercept, tunnel, AP delivery,
  VoIP playout sink) beside the uplink, with the sampled on/off source over
  several simulation seeds; a change that trades downlink cost for uplink
  speed shows here.
- handover-churn: low-rate video at high speed as many short runs, so control
  events (beacons, watchdogs, RAs, DAD, BU/BA) and per-run set-up dominate;
  a data-plane change should move nothing here.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
WORKLOADS = ("video-uplink", "voip-duplex", "handover-churn")
SCHEMES = ("hard", "soft")
VOIP_SEED_STRIDE = 1000  # voip-duplex runs seeds s, s+1000, s+2000
CHURN_SPEEDS = (8.0, 9.0, 10.0)


class MissingSourceError(Exception):
    """The checkout holds no vhosim sources to benchmark."""


def import_vhosim():
    """Import vhosim from this checkout's src/ and nowhere else."""
    if not (SRC / "vhosim" / "__init__.py").is_file():
        raise MissingSourceError(f"no vhosim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vhosim
    if Path(vhosim.__file__).resolve().parent != SRC / "vhosim":
        raise MissingSourceError(f"vhosim imported from {vhosim.__file__}, "
                                 f"not from {SRC}")
    return vhosim


def build_configs(workload: str, seed: int) -> list:
    """The validated ScenarioConfigs one pass of the workload runs, in order."""
    from vhosim.harness import ScenarioConfig

    if workload == "video-uplink":
        base = ScenarioConfig(application="video", video_rate_bps=2e6,
                              speed=1.0, seed=seed)
        cfgs = [replace(base, scheme=s) for s in SCHEMES]
    elif workload == "voip-duplex":
        base = ScenarioConfig(application="voip", voip_codec_rate=64000.0,
                              speed=2.0)
        cfgs = [replace(base, scheme=s, seed=seed + k * VOIP_SEED_STRIDE)
                for s in SCHEMES for k in range(3)]
    elif workload == "handover-churn":
        base = ScenarioConfig(application="video", video_rate_bps=64000.0,
                              seed=seed)
        cfgs = [replace(base, scheme=s, speed=v)
                for s in SCHEMES for v in CHURN_SPEEDS]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return [cfg.validate() for cfg in cfgs]


def label(cfg) -> str:
    """Stable name of one run, used to key its expected row digest."""
    rate = cfg.video_rate_bps if cfg.application == "video" else cfg.voip_codec_rate
    return f"{cfg.application}-{rate:g}-{cfg.scheme}-{cfg.speed:g}-seed{cfg.seed}"
