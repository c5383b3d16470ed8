"""Scenario configuration, experiment execution, sweeps and CSV export.

The standard geometry places the two APs 200 m apart with a field sweep whose
one-way length is 1000 m, so a run covering 2000 m of travel (sim_time =
2000 / speed when set to auto) crosses the coverage boundary exactly ten
times and therefore performs exactly ten handovers at every speed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional, get_args, get_origin, get_type_hints

from .ipv6 import IPV6_HEADER_BITS
from .radio import MAC_OVERHEAD_BITS, coverage_radius2
from .scenario import CORE_PREFIX, Scenario
from .traffic import compute_mos, packet_loss_rate

STANDARD_PATH_METERS = 2000.0
MAX_SIM_TIME = 86_400.0  # one simulated day; bounds the run of any valid config
MAX_TICKS = 5e7  # of each periodic process per run; a day of 2 Mb/s video is 17.3 M
MAX_ROWS = 10**5  # the path keeps two vertices a row: 1e5 rows take about 25 MB


class ConfigError(Exception):
    pass


class InvariantError(Exception):
    pass


@dataclass
class ScenarioConfig:
    scheme: str = "soft"  # hard | soft
    application: str = "voip"  # video | voip
    seed: int = 1
    speed: float = 1.0
    sim_time: Optional[float] = None  # None = auto: 2000 m of travel

    video_rate_bps: float = 0.5e6
    video_packet_bits: int = 10000

    voip_packetization: float = 0.020
    voip_playout: float = 0.005
    voip_spurt_mean: float = 1.0
    voip_silence_mean: float = 1.35
    voip_codec_rate: float = 64000.0

    # field sweep: 5 rows of 192 m plus 4 steps of 10 m = 1000 m one-way
    field_x1: float = 4.0
    field_y1: float = 0.0
    field_x2: float = 196.0
    field_y2: float = 50.0
    row_count: int = 5

    ap_home_x: float = 0.0
    ap_home_y: float = 20.0
    ap_foreign_x: float = 200.0
    ap_foreign_y: float = 20.0
    tx_power_dbm: float = 0.0
    beacon_interval: float = 0.1

    frequency_hz: float = 2.4e9
    sensitivity_dbm: float = -85.0
    bitrate: float = 2e6
    d_ref: float = 1.0

    home_prefix: int = 0x20010DB800010000
    foreign_prefix: int = 0x20010DB800020000

    dad_duration: float = 1.0
    miss_threshold: int = 3

    cn_link_delay: float = 0.002
    foreign_link_delay: float = 0.001
    traffic_start: float = 5.0

    expected_handovers: Optional[int] = 10  # None disables the assertion

    @property
    def sim_time_resolved(self) -> float:
        if self.sim_time is not None:
            return self.sim_time
        return STANDARD_PATH_METERS / self.speed

    def validate(self) -> "ScenarioConfig":
        for name, (tp, _) in _CONFIG_TYPES.items():
            value = getattr(self, name)
            if tp is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"{name}: must be finite, got {value!r}")
        if self.scheme not in ("hard", "soft"):
            raise ConfigError(f"scheme: must be 'hard' or 'soft', got {self.scheme!r}")
        if self.application not in ("video", "voip"):
            raise ConfigError(f"application: must be 'video' or 'voip', "
                              f"got {self.application!r}")
        for name in _POSITIVE:
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ConfigError(f"{name}: must be > 0, got {getattr(self, name)!r}")
        for name in _NON_NEGATIVE:
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name}: must be >= 0, got {getattr(self, name)!r}")
        bits = self.voip_codec_rate * self.voip_packetization  # a VoIP packet holds int(bits)
        if not 1 <= bits < math.inf:
            raise ConfigError(f"voip_codec_rate: times voip_packetization gives {bits!r} "
                              "bits a packet; must be at least 1 and finite")
        if self.row_count > MAX_ROWS:
            raise ConfigError(f"row_count: {self.row_count} rows, more than {MAX_ROWS}; "
                              "the path holds two vertices a row in memory")
        try:
            radius2 = coverage_radius2(self.tx_power_dbm, self.sensitivity_dbm,
                                       self.frequency_hz, self.d_ref)
        except OverflowError:
            radius2 = math.inf
        if not (math.isfinite(radius2) and radius2 > 0):  # no coverage, or no bound to it
            raise ConfigError("tx_power_dbm: the budget over sensitivity_dbm at "
                              "frequency_hz gives no finite, positive coverage radius")
        if self.sim_time is not None and not self.sim_time > 0:
            raise ConfigError(f"sim_time: must be > 0 or auto, got {self.sim_time!r}")
        if self.expected_handovers is not None and self.expected_handovers < 0:
            raise ConfigError(f"expected_handovers: must be >= 0 or none, "
                              f"got {self.expected_handovers!r}")
        # the run ends at sim_time, or after 2000 m of travel when it is auto
        end = self.sim_time_resolved
        key = "sim_time" if self.sim_time is not None else "speed"
        if not end <= MAX_SIM_TIME:
            raise ConfigError(f"{key}: the run would last {end!r} s of simulated "
                              f"time, more than {MAX_SIM_TIME:g} s")
        if not end > self.traffic_start:
            raise ConfigError(f"{key}: the run would end at {end!r} s, not after "
                              f"traffic_start = {self.traffic_start!r} s")
        for period_key, period in (
                ("beacon_interval", self.beacon_interval),
                ("voip_packetization", self.voip_packetization),
                ("video_packet_bits / video_rate_bps",
                 self.video_packet_bits / self.video_rate_bps)):
            if not end / period <= MAX_TICKS:
                raise ConfigError(f"{period_key}: {end / period:.3g} ticks of its "
                                  f"period in a run, more than {MAX_TICKS:g}")
        # an app packet's frame, by air at bitrate, or a link's delay
        bits = self.video_packet_bits if self.application == "video" else int(bits)
        for key, delay in (("cn_link_delay", self.cn_link_delay),
                           ("foreign_link_delay", self.foreign_link_delay),
                           ("bitrate", (bits + IPV6_HEADER_BITS + MAC_OVERHEAD_BITS)
                            / self.bitrate)):
            if not self.traffic_start + delay < end:
                raise ConfigError(f"{key}: no packet sent from traffic_start = "
                                  f"{self.traffic_start!r} s crosses its hop before the "
                                  f"run ends at {end!r} s")
        for name in ("home_prefix", "foreign_prefix"):  # an address is prefix << 64 | iid
            if not 0 <= getattr(self, name) < 1 << 64:
                raise ConfigError(f"{name}: must be a 64-bit prefix, in [0, 2**64), "
                                  f"got {getattr(self, name):#x}")
        # packets are routed by prefix, so a shared prefix misroutes them
        if self.home_prefix == self.foreign_prefix:
            raise ConfigError("foreign_prefix: must differ from home_prefix")
        for name in ("home_prefix", "foreign_prefix"):
            if getattr(self, name) == CORE_PREFIX:
                raise ConfigError(f"{name}: must differ from the correspondent's "
                                  f"prefix {CORE_PREFIX:#x}")
        return self


# a zero rate, size or period divides by zero or never advances the clock; a
# zero miss threshold sets a watchdog window of half a beacon interval, which
# loses every link between two beacons; a negative delay schedules into the past;
# a d_ref of 0 or below clamps no distance, and fspl_db rejects a distance of 0
_POSITIVE = ("speed", "video_rate_bps", "video_packet_bits", "voip_packetization",
             "voip_playout", "voip_spurt_mean", "voip_silence_mean",
             "voip_codec_rate", "row_count", "beacon_interval", "frequency_hz",
             "bitrate", "d_ref", "miss_threshold")
_NON_NEGATIVE = ("dad_duration", "cn_link_delay", "foreign_link_delay",
                 "traffic_start")


def _field_types(cls) -> dict[str, tuple[type, bool]]:
    """Field name -> (declared type without Optional, whether None is allowed)."""
    out = {}
    for name, tp in get_type_hints(cls).items():
        optional = type(None) in get_args(tp)
        out[name] = (get_args(tp)[0] if optional else tp, optional)
    return out


# dotted config-file keys -> dataclass fields
_KEY_ALIASES = {
    "video.rate_bps": "video_rate_bps",
    "video.packet_bits": "video_packet_bits",
    "voip.packetization_interval": "voip_packetization",
    "voip.playout_delay": "voip_playout",
    "voip.spurt_mean": "voip_spurt_mean",
    "voip.silence_mean": "voip_silence_mean",
    "voip.codec_rate": "voip_codec_rate",
    "mobility.x1": "field_x1",
    "mobility.y1": "field_y1",
    "mobility.x2": "field_x2",
    "mobility.y2": "field_y2",
    "mobility.row_count": "row_count",
    "mobility.speed": "speed",
    "ap.home.x": "ap_home_x",
    "ap.home.y": "ap_home_y",
    "ap.foreign.x": "ap_foreign_x",
    "ap.foreign.y": "ap_foreign_y",
    "radio.tx_power_dbm": "tx_power_dbm",
    "radio.beacon_interval": "beacon_interval",
    "radio.frequency_hz": "frequency_hz",
    "radio.sensitivity_dbm": "sensitivity_dbm",
    "radio.bitrate": "bitrate",
    "radio.d_ref": "d_ref",
    "ipv6.dad_duration": "dad_duration",
    "llc.miss_threshold": "miss_threshold",
    "wired.cn_link_delay": "cn_link_delay",
    "wired.foreign_link_delay": "foreign_link_delay",
}


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a flat key = value config file with dotted section keys."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text, byte {exc.start}") from exc
    cfg = ScenarioConfig()
    set_on: dict[str, int] = {}  # field -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        name = _KEY_ALIASES.get(key, key)
        if name not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if (first := set_on.setdefault(name, lineno)) != lineno:
            raise ConfigError(f"{path}:{lineno}: {key!r} sets {name}, already set on line {first}")
        setattr(cfg, name, _parse(name, value))
    return cfg.validate()


def _parse(name: str, value: str):
    tp, optional = _CONFIG_TYPES[name]
    if optional and value in ("auto", "none"):
        return None
    try:
        return int(value, 0) if tp is int else tp(value)  # int() takes 0x prefixes
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {value!r}") from exc


_CONFIG_TYPES = _field_types(ScenarioConfig)


class MetricsRecord(NamedTuple):
    scheme: str
    application: str
    rate_bps: float
    speed: float
    seed: int
    sim_time: float
    handover_count: int
    sent: int
    received: int
    late: int
    lost: int
    loss_rate: Optional[float]  # None: the flow sent nothing
    mean_delay: float
    r_factor: Optional[float]
    mos: Optional[float]
    dl_loss_rate: Optional[float]
    gaps: list[float]

    def to_row(self) -> list[str]:
        """One CSV cell per field: None is empty, a list is ';'-joined, numbers
        are repr() so that floats round-trip exactly."""
        row = []
        for v in self:
            if v is None:
                row.append("")
            elif isinstance(v, str):
                row.append(v)
            elif isinstance(v, list):
                row.append(";".join(repr(g) for g in v))
            else:
                row.append(repr(v))
        return row

    @classmethod
    def from_row(cls, row: list[str]) -> "MetricsRecord":
        values = {}
        for (name, (tp, optional)), cell in zip(_METRIC_TYPES.items(), row):
            if optional and cell == "":
                values[name] = None
            elif get_origin(tp) is list:
                values[name] = [float(g) for g in cell.split(";") if g]
            else:
                values[name] = tp(cell)
        return cls(**values)


_METRIC_TYPES = _field_types(MetricsRecord)


class RunResult(NamedTuple):
    metrics: MetricsRecord
    scenario: Scenario
    wall_time: float


def run_experiment(cfg: ScenarioConfig,
                   trace_sink: Optional[list[str]] = None) -> RunResult:
    cfg.validate()
    t0 = time.perf_counter()
    scenario = Scenario(cfg, trace_sink=trace_sink)
    scenario.run()
    wall = time.perf_counter() - t0

    llc = scenario.mn.llc
    if (cfg.expected_handovers is not None
            and llc.handover_count != cfg.expected_handovers):
        tail = "\n".join(trace_sink[-30:]) if trace_sink else "(run without --event-log)"
        raise InvariantError(
            f"handover_count={llc.handover_count}, expected "
            f"{cfg.expected_handovers}\nevent-log tail:\n{tail}")

    flow = scenario.primary_flow
    loss = packet_loss_rate(flow) if flow.sent else None
    r_factor = mos = dl_loss = None
    if cfg.application == "voip":
        if flow.sent:
            report = compute_mos(flow)
            r_factor, mos = report.r_factor, report.mos
        dl = scenario.flows["voip-dl"]
        dl_loss = packet_loss_rate(dl) if dl.sent else None

    gaps = [round(b - a, 9) for a, b in llc.gap_intervals]
    metrics = MetricsRecord(
        scheme=cfg.scheme, application=cfg.application,
        rate_bps=(cfg.video_rate_bps if cfg.application == "video"
                  else cfg.voip_codec_rate),
        speed=cfg.speed, seed=cfg.seed, sim_time=cfg.sim_time_resolved,
        handover_count=llc.handover_count, sent=flow.sent, received=flow.received,
        late=flow.late, lost=flow.lost, loss_rate=loss,
        mean_delay=flow.mean_delay, r_factor=r_factor, mos=mos,
        dl_loss_rate=dl_loss, gaps=gaps)
    return RunResult(metrics, scenario, wall)


def sweep(base_cfg: ScenarioConfig, speeds: list[float], schemes: list[str],
          apps: list[tuple[str, float]]) -> tuple[list[MetricsRecord], list[str]]:
    """Cross-product of speeds x schemes x (application, rate); failures are
    recorded and the sweep continues."""
    records: list[MetricsRecord] = []
    errors: list[str] = []
    for app, rate in apps:
        for scheme in schemes:
            for speed in speeds:
                cfg = replace(base_cfg, scheme=scheme, application=app,
                              speed=speed)
                if app == "video":
                    cfg = replace(cfg, video_rate_bps=rate)
                try:
                    records.append(run_experiment(cfg).metrics)
                except Exception as exc:  # keep sweeping
                    errors.append(f"{app}/{scheme}/speed={speed}: {exc}")
    return records, errors


def emit_csv(records: list[MetricsRecord], path: str | Path,
             metadata: Optional[dict] = None) -> None:
    lines = [",".join(MetricsRecord._fields)]
    for rec in records:
        lines.append(",".join(rec.to_row()))
    Path(path).write_text("\n".join(lines) + "\n")
    if metadata is not None:
        meta_lines = [f"{k}: {v}" for k, v in sorted(metadata.items())]
        Path(str(path) + ".meta.txt").write_text("\n".join(meta_lines) + "\n")


def parse_csv(path: str | Path) -> list[MetricsRecord]:
    lines = Path(path).read_text().splitlines()
    return [MetricsRecord.from_row(line.split(",")) for line in lines[1:]]


def run_metadata(cfg: ScenarioConfig) -> dict:
    """Self-describing output: defaults, formula identifier, geometry."""
    return {
        "mos_formula": "ITU-T G.107 simplified E-model (Ie=0, Bpl=25.1, G.711)",
        "geometry": (f"APs at ({cfg.ap_home_x},{cfg.ap_home_y}) and "
                     f"({cfg.ap_foreign_x},{cfg.ap_foreign_y}), field "
                     f"({cfg.field_x1},{cfg.field_y1})-({cfg.field_x2},{cfg.field_y2}) "
                     f"x {cfg.row_count} rows"),
        "dad_duration_s": cfg.dad_duration,
        "beacon_interval_s": cfg.beacon_interval,
        "miss_threshold": cfg.miss_threshold,
        "traffic_start_s": cfg.traffic_start,
        "note": ("2 Mbps video saturates the 2 Mbps link; reported loss is from "
                 "disconnection only (no queueing model)"),
    }
