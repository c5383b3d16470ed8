import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vhosim
from vhosim import mobility
from vhosim.cli import main
from vhosim.ipv6 import IPV6_HEADER_BITS
from vhosim.radio import MAC_OVERHEAD_BITS
from vhosim.harness import (
    _KEY_ALIASES,
    _NON_NEGATIVE,
    _POSITIVE,
    MAX_ROWS,
    MAX_SIM_TIME,
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
wired.cn_link_delay = 0.004
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
    assert cfg.cn_link_delay == 0.004
    assert cfg.sim_time is None
    assert cfg.expected_handovers == 10


_DEFAULTS = ScenarioConfig()
# field -> every key a config file may name it by
_KEYS = {f.name: [f.name] + [k for k, v in _KEY_ALIASES.items() if v == f.name]
         for f in fields(ScenarioConfig)}


def _values(name):
    """Values of one field that validate() accepts on their own."""
    if name == "scheme":
        return st.sampled_from(["hard", "soft"])
    if name == "application":
        return st.sampled_from(["video", "voip"])
    if name == "sim_time":
        return st.none() | st.floats(10.5, 1e4)
    if name == "expected_handovers":
        return st.none() | st.integers(0, 100)
    if isinstance(getattr(_DEFAULTS, name), int):
        return st.integers(1 if name in _POSITIVE else -2**64, 2**64)
    if name in _POSITIVE:
        return st.floats(0.05, 100.0)  # 2000 m at 0.05 m/s is within a day
    if name in _NON_NEGATIVE:
        return st.floats(0.0, 10.0)  # before the earliest auto end, 20 s
    return st.floats(-1e4, 1e4)


def _line(data, name, value) -> str:
    if value is None:
        text = data.draw(st.sampled_from(["auto", "none"]))
    elif isinstance(value, str):
        text = value
    elif isinstance(value, int):
        text = data.draw(st.sampled_from([str(value), hex(value)]))
    else:
        text = repr(value)
    return f"{data.draw(st.sampled_from(_KEYS[name]))} = {text}"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_config_file_round_trips_random_configs(data):
    names = sorted(data.draw(st.sets(st.sampled_from(sorted(_KEYS)))))
    cfg = replace(_DEFAULTS, **{n: data.draw(_values(n), label=n) for n in names})
    try:
        cfg.validate()
    except ConfigError:
        assume(False)  # e.g. a drawn tx_power_dbm that leaves no coverage
    lines = data.draw(st.permutations([_line(data, n, getattr(cfg, n)) for n in names]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.conf"
        path.write_text("# random config\n" + "\n".join(lines) + "\n")
        assert load_scenario(path) == cfg


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


def test_tick_bound_admits_a_one_day_2mbps_video_run():
    # 17.3 M packets: the bound leaves room for the longest, densest video run
    ScenarioConfig(application="video", video_rate_bps=2e6,
                   sim_time=MAX_SIM_TIME).validate()


@pytest.mark.parametrize("first,second", [("mobility.speed = 5", "speed = 10"),
                                          ("seed = 2", "seed = 3")])
def test_a_key_set_twice_is_rejected_naming_both_lines(tmp_path, capsys, first, second):
    conf = tmp_path / "twice.conf"
    conf.write_text(f"{first}\nscheme = hard\n{second}\n")
    key = second.split()[0]
    with pytest.raises(ConfigError, match=rf"twice.conf:3: '{key}' .* on line 1$"):
        load_scenario(conf)
    assert main(["--config", str(conf)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("application", ["video", "voip"])
def test_bitrate_must_carry_a_packet_sent_at_traffic_start_before_the_end(application):
    # from traffic_start = 5 s to sim_time = 100 s, an app packet's frame may
    # take 94 s of air time, but not 96 s
    cfg = ScenarioConfig(application=application, sim_time=100.0, expected_handovers=None)
    bits = (cfg.video_packet_bits if application == "video"
            else int(cfg.voip_codec_rate * cfg.voip_packetization))
    frame = bits + IPV6_HEADER_BITS + MAC_OVERHEAD_BITS
    replace(cfg, bitrate=frame / 94.0).validate()
    with pytest.raises(ConfigError, match="bitrate: no packet sent from traffic_start"):
        replace(cfg, bitrate=frame / 96.0).validate()


def test_too_many_rows_rejected_before_a_path_is_built():
    ScenarioConfig(row_count=MAX_ROWS).validate()
    with pytest.raises(ConfigError, match="row_count: .* memory"):
        ScenarioConfig(row_count=10**9).validate()


def test_removed_keys_are_unknown(tmp_path, capsys):
    # no value of these could change an output: an interface listens to an
    # AP, not to a channel, and no output shows the correspondent's address
    for key in ("ap.home.channel", "ap.foreign.channel", "ap_home_channel",
                "ap_foreign_channel", "core_prefix"):
        conf = tmp_path / "removed.conf"
        conf.write_text(f"{key} = 6\n")
        assert main(["--config", str(conf)]) == 2, key
        err = capsys.readouterr().err
        assert "config error" in err and f"unknown key {key!r}" in err, err


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
    assert lines[0] == ",".join(MetricsRecord._fields)
    parsed = parse_csv(out)
    assert parsed == records


_finite = st.floats(allow_nan=False, allow_infinity=False)
_count = st.integers(0, 10**9)
_records = st.builds(
    MetricsRecord, scheme=st.sampled_from(["hard", "soft"]),
    application=st.sampled_from(["video", "voip"]), rate_bps=_finite,
    speed=_finite, seed=st.integers(-2**63, 2**63), sim_time=_finite,
    handover_count=_count, sent=_count, received=_count, late=_count,
    lost=_count, loss_rate=st.none() | _finite, mean_delay=_finite,
    r_factor=st.none() | _finite, mos=st.none() | _finite,
    dl_loss_rate=st.none() | _finite, gaps=st.lists(_finite, max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.lists(_records, max_size=6))
@example([MetricsRecord("soft", "voip", 64000.0, 1 / 3, 7, 2000 / 3, 10, 3, 2, 0, 1,
                        1 / 3, 0.1 + 0.2, None, None, None, []),
          _record(2.0, mos=2 / 3)])
def test_csv_round_trips_random_records(records):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "results.csv"
        emit_csv(records, out)
        assert parse_csv(out) == records


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


@pytest.mark.parametrize("name,content", [
    ("missing.conf", None),  # used to exit 1 with FileNotFoundError
    ("dir.conf", "directory"),  # IsADirectoryError
    ("latin1.conf", "seed = 1  # caf\xe9\n".encode("latin-1")),  # UnicodeDecodeError
])
def test_cli_rejects_an_unreadable_config_file_naming_it(tmp_path, capsys, name, content):
    conf = tmp_path / name
    if content == "directory":
        conf.mkdir()
    elif content is not None:
        conf.write_bytes(content)
    assert main(["--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(conf) in err


@pytest.mark.parametrize("line,key", [
    ("video.packet_bits = 0", "video_packet_bits"),  # used to hang video runs
    ("ipv6.ra_interval = 0", "ra_interval"),  # no such key: an AP sends no periodic RAs
    ("mobility.row_count = 0", "row_count"),
    ("video.rate_bps = -1", "video_rate_bps"),
    ("video.rate_bps = nan", "video_rate_bps"),
    ("voip.codec_rate = 0", "voip_codec_rate"),
    ("voip.codec_rate = 10", "voip_codec_rate"),  # 0 bits a packet; used to exit 0
    # inf bits a packet: a VoIP run raised OverflowError
    ("voip.codec_rate = 1e300\nvoip.packetization_interval = 1e10", "voip_codec_rate"),
    ("voip.spurt_mean = 0", "voip_spurt_mean"),
    ("radio.bitrate = 0", "bitrate"),
    ("radio.frequency_hz = 0", "frequency_hz"),
    ("ipv6.dad_duration = -1", "dad_duration"),
    ("llc.miss_threshold = 0", "miss_threshold"),  # used to deny every candidate
    ("wired.cn_link_delay = -1", "cn_link_delay"),
    ("traffic_start = -1", "traffic_start"),
    ("sim_time = -5", "sim_time"),
    ("mobility.speed = 1e-9", "speed"),  # used to run for 2e12 simulated s
    ("sim_time = 3", "sim_time"),  # below traffic_start; used to exit 3
    ("mn.interfaces = 2", "mn.interfaces"),  # no such option
    # each of these used to run the whole simulation and then exit 3
    ("mobility.x1 = nan", "field_x1"),
    ("mobility.y2 = inf", "field_y2"),
    ("ap.home.x = -inf", "ap_home_x"),
    ("ap.foreign.y = nan", "ap_foreign_y"),
    ("radio.tx_power_dbm = inf", "tx_power_dbm"),
    ("radio.sensitivity_dbm = -inf", "sensitivity_dbm"),
    ("radio.d_ref = nan", "d_ref"),
    ("expected_handovers = -1", "expected_handovers"),
    # used to exit 0 with no binding update sent
    ("home_prefix = 0x20010DB800020000", "foreign_prefix"),
    ("home_prefix = 0x20010DB800030000", "home_prefix"),  # the correspondent's
    ("foreign_prefix = 0x20010DB800030000", "foreign_prefix"),
    # not a 64-bit prefix: used to exit 0, printing wrong addresses in the log
    ("home_prefix = -1", "home_prefix"),
    ("home_prefix = 0x1ffffffffffffffffff", "home_prefix"),
    ("foreign_prefix = -1", "foreign_prefix"),
    ("foreign_prefix = 0x1ffffffffffffffffff", "foreign_prefix"),
    # a budget whose coverage radius overflows used to exit 1 with a traceback
    ("radio.tx_power_dbm = 1e4", "tx_power_dbm"),
    ("radio.tx_power_dbm = 7000", "tx_power_dbm"),
    ("radio.sensitivity_dbm = -1e4", "tx_power_dbm"),
    ("radio.frequency_hz = 1e-300", "tx_power_dbm"),
    # no coverage anywhere used to run the whole simulation and exit 3
    ("radio.sensitivity_dbm = 1e4", "tx_power_dbm"),
    # a period this short used to run for hours
    ("radio.beacon_interval = 1e-6", "beacon_interval"),
    ("voip.packetization_interval = 1e-7", "voip_packetization"),
    ("video.rate_bps = 1e13", "video_rate_bps"),
    ("video.packet_bits = 1", "video_packet_bits"),  # 1e9 packets in 2000 s
    ("mobility.row_count = 1000000000", "row_count"),  # exhausted memory building the path
    # no packet crosses the link before the run ends: 4194 uplink packets
    # were received with mean_delay 1e300; 2097 were neither received nor lost
    ("wired.cn_link_delay = 1e300", "cn_link_delay"),
    ("wired.foreign_link_delay = 1e5", "foreign_link_delay"),
    # each used to exit 0: a near field of no radius
    ("radio.d_ref = -5", "d_ref"),
    ("radio.d_ref = 0", "d_ref"),
    # every air time passed the run's end: exited 0 with R=17.26 and nothing delivered
    ("radio.bitrate = 1e-300", "bitrate"),
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


def _cli(args, tmp_path):
    """Exit code, stdout and stderr of vhosim.cli run in a separate process,
    so a flag that slips through fails on the timeout instead of running a
    whole sweep."""
    src = str(Path(vhosim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "vhosim.cli", *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60, env=env)
    return proc.returncode, proc.stdout, proc.stderr


# a field of 1 um, retraced 3e10 times in 60 s, with the home AP's coverage
# edge across it: the node crosses the edge between any two beacons, so each
# beacon is judged on its own and no leg is solved
TINY_FIELD = ("mobility.x2 = 4.000001\nmobility.row_count = 1\nmobility.speed = 1000\n"
              "ap.home.x = -172.76635064291563\nap.home.y = 0")


@pytest.mark.parametrize("line", [
    "ap.home.x = 1e30",
    "ap.foreign.y = 1e30",
    "mobility.speed = 1e-30",
    "mobility.row_count = 100000",
    TINY_FIELD,
])
def test_a_far_ap_or_a_crawling_node_ends_its_run(tmp_path, monkeypatch, line):
    # each of the first three used to run forever: the beacon ledger searched
    # for the first beacon after a time near 1e30 s, where a step of one beacon
    # index no longer changes the beacon's time as a float
    (tmp_path / "far.conf").write_text(f"sim_time = 60\nexpected_handovers = none\n{line}\n")
    code, _, err = _cli(["--config", "far.conf"], tmp_path)
    assert code == 0, err
    # the coverage tables solve only the legs the node reaches in 60 s: the
    # first row, whatever the number of rows (none on the tiny field)
    solved = set()
    solve = mobility.leg_chord
    monkeypatch.setattr(mobility, "leg_chord", lambda *a: solved.add(a[:4]) or solve(*a))
    run_experiment(load_scenario(tmp_path / "far.conf"))
    assert solved == (set() if line == TINY_FIELD else {(4.0, 0.0, 196.0, 0.0)})


def test_cli_a_flow_that_sends_nothing_gives_empty_rate_cells(tmp_path):
    # every talk spurt ends before its first tick, so no packet is sent; this
    # used to exit 1 with ValueError: flow voip-ul: no packets sent
    (tmp_path / "mute.conf").write_text("application = voip\nmobility.speed = 10\n"
                                        "voip.spurt_mean = 1e-300\n")
    code, out, err = _cli(["--config", "mute.conf", "--out", "mute.csv"], tmp_path)
    assert code == 0, err
    assert "loss_rate=none" in out
    (rec,) = parse_csv(tmp_path / "mute.csv")
    assert (rec.sent, rec.loss_rate, rec.r_factor, rec.mos, rec.dl_loss_rate) == (
        0, None, None, None, None)
    assert rec.handover_count == 10


@pytest.mark.parametrize("args,flag", [
    (["--rate", "1e6"], "--rate"),  # the default application is VoIP
    (["--app", "voip", "--rate", "1e6"], "--rate"),
    (["--sweep", "--app", "video", "--speed", "2"], "--speed"),
    (["--sweep", "--app", "video", "--scheme", "soft"], "--scheme"),
    (["--sweep", "--app", "video", "--event-log", "events.log"], "--event-log"),
])
def test_cli_rejects_a_flag_the_mode_ignores(tmp_path, args, flag):
    code, out, err = _cli(args, tmp_path)
    assert code == 2, err
    assert err.startswith(f"usage error: {flag}:"), err
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--event-log"])
def test_cli_rejects_an_unwritable_output_before_the_run(tmp_path, flag):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = _cli(["--scheme", "soft", "--app", "voip", "--speed", "10",
                           flag, str(path)], tmp_path)
    assert code == 2, err
    assert err.startswith(f"usage error: {flag}: cannot write {path}"), err
    assert "Traceback" not in err
    assert out == ""  # nothing ran: a run prints its summary first
    code, _, err = _cli([flag, str(tmp_path), "--app", "voip", "--speed", "10"],
                        tmp_path)
    assert code == 2 and err.startswith(f"usage error: {flag}: {tmp_path} is a directory")
