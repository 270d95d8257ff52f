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
# says so in CHANGES.md.
STDOUT_DIGESTS = {
    "run": "321f7430c5018866353b857b9e8fcd0784ff2b45de5d48015e2a7d5f841faf5c",
    "sweep": "9e8bcce0795ea826d138ab78c179af688b393fc717b18638029770af8245ff13",
    "defaults": "daa04818ac373f9e437bc4a0b82d6d198ae20b5c15c357d13e9bbadd4a9f73e3",
}


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
        # plant.tau_th=inf: the parser takes it, the plant refuses it
        for setting, section in (("cycle_ms=7.5", "cycle_ms"), ("plant.tau_th=inf", "plant")):
            assert run_cli("run", "--set", setting) == 2
            assert capsys.readouterr().err.startswith(f"config error: {section}: ")

    def test_unknown_key_exits_2(self, capsys):
        # plant.latency_ms and omega_continuous: keys that `defaults` printed
        # before the plant lost actuation latency and the controller its
        # continuous mode, so an old saved config fails loudly.
        for key, value in (("nope", "1"), ("plant.latency_ms", "2"),
                           ("omega_continuous", "true")):
            assert run_cli("run", "--set", f"{key}={value}") == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key, options", [
        (["--set", "duration_ms=200", "--set", "duration_ms=300"], "duration_ms",
         "--set and --set"),
        (["--seed", "3", "--set", "seed=4"], "seed", "--set and --seed"),
        (["--set", "out_path=a.csv", "--out", "b.csv"], "out_path", "--set and --out"),
        (["--seed", "3", "--seed", "4"], "seed", "--seed and --seed"),
        (["--out", "a.csv", "--out", "b.csv"], "out_path", "--out and --out"),
    ])
    def test_key_set_twice_on_the_command_line_exits_2(self, tmp_path, capsys,
                                                        argv, key, options):
        # As a config file refuses a repeated key, instead of keeping the last.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("duration_ms = 400\n")
        for command in ("run", "sweep"):
            assert run_cli(command, "--config", str(cfg), *argv) == 2
            assert capsys.readouterr().err == (
                f"config error: {key!r} is set twice on the command line, by {options}\n")

    def test_bad_set_syntax_exits_2(self, capsys):
        assert run_cli("run", "--set", "cycle_ms") == 2

    def test_subnormal_deriv_floor_is_a_config_error(self, capsys):
        # 1/1e-310 is inf: such a floor would make the gain infinite
        assert run_cli("run", "--set", "controller.deriv_floor=1e-310") == 2
        assert capsys.readouterr().err.startswith("config error: controller: deriv_floor")

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "no_such_dir" / "t.csv"
        assert run_cli("run", "--out", str(missing),
                       "--set", "duration_ms=100") == 3
        assert "error" in capsys.readouterr().err

    def test_missing_config_file_exits_3(self):
        assert run_cli("run", "--config", "/nonexistent/exp.cfg") == 3

    def test_runtime_failure_exits_3(self, capsys):
        # p0 * h'h overflows on the first RLS update, after config checks pass
        assert run_cli("run", "--set", "rls.p0=1e307") == 3
        assert "error: RLS covariance is degenerate" in capsys.readouterr().err

    def test_thermal_runaway_at_top_level_is_a_config_error(self, capsys):
        # beta < 0 at 3.4 GHz; the loop would only reach it mid-run
        assert run_cli("run", "--set", "plant.kappa=0.3") == 2
        assert ("config error: plant: thermal runaway"
                in capsys.readouterr().err)
        # kappa on the runaway boundary at 3.4 GHz, where a differently
        # rounded check passed a plant that the first step then rejected
        assert run_cli("run", "--set", "plant.sigma=1.09", "--set", "plant.kappa=0.222",
                       "--set", "plant.r_th=3.2285726093065534", "--set", "u0=3.4") == 2
        assert capsys.readouterr().err == (
            "config error: plant: thermal runaway: leakage feedback gain >= 1 at 3.4 GHz\n")


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


def test_import_path_loads_no_numpy(tmp_path):
    # With numpy blocked, any import of it raises: run, sweep and defaults
    # still print their pinned output. Nor do they load statistics, which
    # would pull in fractions, decimal and numbers on every run, or
    # dataclasses, which would pull in inspect, ast, dis and tokenize.
    src = os.path.dirname(os.path.dirname(powerreg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for command in STDOUT_DIGESTS:
        probe = ("import sys; sys.modules['numpy'] = None; from powerreg.cli import main; "
                 f"code = main([{command!r}]); "
                 "print(sorted({'statistics', 'fractions', 'decimal', 'numbers', "
                 "'dataclasses', 'inspect'} "
                 "& set(sys.modules)), file=sys.stderr); raise SystemExit(code)")
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == STDOUT_DIGESTS[command], command
        assert proc.stderr == "[]\n", command


def test_every_module_imports_without_numpy(tmp_path):
    # numpy is a test extra: no module of the installed package may need it.
    src = os.path.dirname(os.path.dirname(powerreg.__file__))
    probe = ("import importlib, pkgutil, sys; sys.modules['numpy'] = None; import powerreg\n"
             "for mod in pkgutil.walk_packages(powerreg.__path__, 'powerreg.'):\n"
             "    importlib.import_module(mod.name)\n"
             "    print(mod.name)")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "powerreg.oracles" in proc.stdout.split()


def test_requires_subcommand():
    # `oracle` is not a subcommand, so argparse rejects it too.
    for argv in ([], ["oracle"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
