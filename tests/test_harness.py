import os
import subprocess
import sys
from pathlib import Path

import pytest

import vhosim
from vhosim.cli import main
from vhosim.harness import (
    ConfigError,
    MetricsRecord,
    ScenarioConfig,
    emit_csv,
    load_scenario,
    parse_csv,
    run_experiment,
    run_metadata,
)

CONFIG_TEXT = """\
# vertical handover scenario
scheme = hard
application = video
seed = 7
mobility.speed = 4.0
video.rate_bps = 2e6
ap.foreign.channel = 11
sim_time = auto
expected_handovers = 10
"""


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(CONFIG_TEXT)
    cfg = load_scenario(path)
    assert cfg.scheme == "hard"
    assert cfg.application == "video"
    assert cfg.seed == 7
    assert cfg.speed == 4.0
    assert cfg.video_rate_bps == 2e6
    assert cfg.ap_foreign_channel == 11
    assert cfg.sim_time is None
    assert cfg.expected_handovers == 10


def test_sim_time_auto_covers_standard_path():
    assert ScenarioConfig(speed=4.0).sim_time_resolved == 500.0
    assert ScenarioConfig(speed=4.0, sim_time=42.0).sim_time_resolved == 42.0


def test_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("velocity = 3\n")
    with pytest.raises(ConfigError, match="velocity"):
        load_scenario(path)


def test_unparseable_value_named_in_error(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("mobility.speed = fast\n")
    with pytest.raises(ConfigError, match="speed"):
        load_scenario(path)


def test_missing_equals_rejected(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("scheme soft\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_scenario(path)


def test_validation_rejects_bad_enums():
    with pytest.raises(ConfigError, match="scheme"):
        ScenarioConfig(scheme="warm").validate()
    with pytest.raises(ConfigError, match="application"):
        ScenarioConfig(application="ftp").validate()
    with pytest.raises(ConfigError, match="speed"):
        ScenarioConfig(speed=0.0).validate()


def test_shared_channel_rejected():
    with pytest.raises(ConfigError, match="channel"):
        ScenarioConfig(ap_home_channel=6, ap_foreign_channel=6).validate()


def _record(speed, mos=None):
    return MetricsRecord(
        scheme="hard", application="voip", rate_bps=64000.0, speed=speed,
        seed=1, sim_time=2000.0 / speed, handover_count=10, sent=100,
        received=95, late=2, lost=3, loss_rate=0.05, mean_delay=0.0031,
        r_factor=77.4 if mos else None, mos=mos, dl_loss_rate=0.01,
        gaps=[0.05, 0.051])


def test_emit_csv_shape_and_round_trip(tmp_path):
    records = [_record(s, mos=3.9) for s in (1, 2, 4, 8, 10)] \
            + [_record(s) for s in (1, 2, 4, 8, 10)]
    out = tmp_path / "results.csv"
    emit_csv(records, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 11  # header + one row per record
    assert lines[0] == ",".join(MetricsRecord.COLUMNS)
    parsed = parse_csv(out)
    assert parsed == records


def test_emit_csv_is_byte_stable(tmp_path):
    records = [_record(4, mos=4.1)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, a)
    emit_csv(records, b)
    assert a.read_bytes() == b.read_bytes()


def test_metadata_sidecar(tmp_path):
    out = tmp_path / "results.csv"
    emit_csv([_record(1)], out, metadata=run_metadata(ScenarioConfig()))
    meta = (tmp_path / "results.csv.meta.txt").read_text()
    assert "mos_formula" in meta and "geometry" in meta
    # the CSV itself stays pure header + rows
    assert out.read_text().splitlines()[0].startswith("scheme,")


def test_run_experiment_returns_complete_record():
    cfg = ScenarioConfig(scheme="soft", application="voip", speed=10.0)
    result = run_experiment(cfg)
    rec = result.metrics
    assert rec.handover_count == 10
    assert rec.sent > 0
    assert rec.mos is not None and 1.0 <= rec.mos <= 4.5
    assert result.wall_time < 10.0


def test_cli_single_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["--scheme", "soft", "--app", "voip", "--speed", "10",
                 "--out", str(out)])
    assert code == 0
    assert "handovers=10" in capsys.readouterr().out
    assert len(parse_csv(out)) == 1


def test_cli_event_log(tmp_path, capsys):
    log = tmp_path / "events.log"
    code = main(["--scheme", "hard", "--app", "video", "--speed", "10",
                 "--event-log", str(log)])
    assert code == 0
    lines = log.read_text().splitlines()
    assert lines
    # every line is "time node module kind [detail]" with a parseable time
    for line in lines[:50]:
        parts = line.split()
        float(parts[0])
        assert len(parts) >= 4


def test_cli_rejects_bad_config(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("scheme = warm\n")
    assert main(["--config", str(conf)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("line,key", [
    ("video.packet_bits = 0", "video_packet_bits"),  # used to hang video runs
    ("ipv6.ra_interval = 0", "ra_interval"),  # used to hang every run
    ("mobility.row_count = 0", "row_count"),
    ("video.rate_bps = -1", "video_rate_bps"),
    ("video.rate_bps = nan", "video_rate_bps"),
    ("voip.codec_rate = 0", "voip_codec_rate"),
    ("voip.spurt_mean = 0", "voip_spurt_mean"),
    ("radio.bitrate = 0", "bitrate"),
    ("radio.frequency_hz = 0", "frequency_hz"),
    ("ipv6.dad_duration = -1", "dad_duration"),
    ("llc.miss_threshold = 0", "miss_threshold"),  # used to deny every candidate
    ("wired.cn_link_delay = -1", "cn_link_delay"),
    ("traffic_start = -1", "traffic_start"),
    ("sim_time = -5", "sim_time"),
    ("mn.interfaces = 2", "mn.interfaces"),  # no such option
])
def test_cli_rejects_bad_value_naming_the_key(tmp_path, line, key):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"application = video\n{line}\n")
    src = str(Path(vhosim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    # a separate process, so a value that slips through fails on the timeout
    # instead of hanging the suite
    proc = subprocess.run([sys.executable, "-m", "vhosim.cli", "--config", str(conf)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and key in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_config_file_with_overrides(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(CONFIG_TEXT)
    code = main(["--config", str(conf), "--speed", "10", "--scheme", "soft"])
    assert code == 0
    assert "soft video speed=10" in capsys.readouterr().out
