import hashlib
import os
import subprocess
import sys

import pytest

import powerreg
from powerreg import cli
from powerreg.harness import read_csv


def run_cli(*argv):
    return cli.main(list(argv))


# SHA-256 of the stdout of each default command. Refactors keep this output
# byte-identical; a change that alters it on purpose updates the digest and
# says so in CHANGES.md. `oracle` is left out: its least-squares line depends
# on the numpy build.
STDOUT_DIGESTS = {
    "run": "321f7430c5018866353b857b9e8fcd0784ff2b45de5d48015e2a7d5f841faf5c",
    "sweep": "9e8bcce0795ea826d138ab78c179af688b393fc717b18638029770af8245ff13",
    "defaults": "6e6352c387d3cf8ec76049f34907892b73af8d3d3552264e202aa15e33510eb9",
}


@pytest.mark.parametrize("command", STDOUT_DIGESTS)
def test_default_stdout_is_pinned(capsys, command):
    assert run_cli(command) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_DIGESTS[command]


class TestRun:
    def test_run_with_config_file_writes_trace(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("duration_ms = 400\nworkload.kind = compute_bound\n")
        out = tmp_path / "trace.csv"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        trace = read_csv(str(out))
        assert len(trace) == 40
        stdout = capsys.readouterr().out
        assert "records=40" in stdout

    def test_config_file_path_may_contain_hash(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "run#1.csv"
        cfg.write_text(f"duration_ms = 400\nout_path = {out}  # trace\n")
        assert run_cli("run", "--config", str(cfg)) == 0
        assert len(read_csv(str(out))) == 40

    def test_set_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("duration_ms = 400\n")
        out = tmp_path / "trace.csv"
        assert run_cli("run", "--config", str(cfg), "--out", str(out),
                       "--set", "duration_ms=200") == 0
        assert len(read_csv(str(out))) == 20

    def test_seed_flag_changes_output(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"t{seed}.csv"
            assert run_cli("run", "--out", str(out), "--seed", str(seed),
                           "--set", "duration_ms=300",
                           "--set", "workload.kind=graph_irregular") == 0
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_config_error_exits_2(self, capsys):
        assert run_cli("run", "--set", "cycle_ms=7.5") == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, capsys):
        assert run_cli("run", "--set", "nope=1") == 2
        assert "nope" in capsys.readouterr().err

    def test_bad_set_syntax_exits_2(self, capsys):
        assert run_cli("run", "--set", "cycle_ms") == 2

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "no_such_dir" / "t.csv"
        assert run_cli("run", "--out", str(missing),
                       "--set", "duration_ms=100") == 3
        assert "error" in capsys.readouterr().err

    def test_missing_config_file_exits_3(self):
        assert run_cli("run", "--config", "/nonexistent/exp.cfg") == 3

    def test_continuous_start_frequency_error_names_the_range(self, capsys):
        assert run_cli("run", "--set", "omega_continuous=true", "--set", "u0=5") == 2
        assert ("config error: u0: frequency 5.0 is outside [0.8, 3.4] GHz"
                in capsys.readouterr().err)

    def test_thermal_runaway_at_top_level_is_a_config_error(self, capsys):
        # beta < 0 at 3.4 GHz; the loop would only reach it mid-run
        assert run_cli("run", "--set", "plant.kappa=0.3") == 2
        assert ("config error: plant: thermal runaway"
                in capsys.readouterr().err)


class TestSweep:
    def test_sweep_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        assert run_cli("sweep", "--out", str(out),
                       "--set", "duration_ms=400") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario,cycle_ms,settling_ms,error_w,mean_freq_ghz"
        # 3 kinds x 2 cycle lengths
        assert len(lines) == 7
        scenarios = [line.split(",")[0] for line in lines[1:]]
        assert scenarios == sorted(scenarios)
        stdout = capsys.readouterr().out
        assert "compute_bound" in stdout

    @pytest.mark.parametrize("key, value", [
        ("cycle_ms", "30"), ("workload.kind", "memory_bound"),
        ("workload.alpha_mean", "1.5"),
    ])
    def test_keys_the_sweep_sets_are_rejected(self, tmp_path, capsys, key, value):
        assert run_cli("sweep", "--set", "duration_ms=1000", "--set", f"{key}={value}") == 2
        assert f"config error: {key}: sweep sets" in capsys.readouterr().err
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert f"config error: {key}: sweep sets" in capsys.readouterr().err


class TestOracle:
    def test_oracle_prints_reference_values(self, capsys):
        assert run_cli("oracle") == 0
        out = capsys.readouterr().out
        assert "nearest(1.9) = 1.8" in out
        assert "Newton iterates" in out
        assert "static share" in out


class TestDefaults:
    def test_defaults_prints_parsable_config(self, capsys):
        assert run_cli("defaults") == 0
        out = capsys.readouterr().out
        assert "cycle_ms = 10" in out
        from powerreg.harness import parse_config
        parse_config(out)


def test_import_path_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(powerreg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, powerreg, powerreg.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
