import json
import pkgutil
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import thztrack
from thztrack import cli, harness
from thztrack.cli import _COMMANDS, build_parser, main
from thztrack.harness import CONFIG_PARSERS, ScenarioConfig, draw_frame, run_trial, scenario_from_file
from thztrack.physmodel import SystemConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestBeamPattern:
    def test_surface_csv(self, tmp_path):
        out = tmp_path / "pattern.csv"
        rc = main(
            [
                "beam-pattern",
                "--theta0", "0.6", "--alpha", "0.05",
                "--grid-step", "0.02",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["m", "f_m", "theta", "gain"]
        assert len(rows) == 129 * 101
        assert all(0.0 <= float(r["gain"]) <= 1.0 for r in rows[:500])

    def test_peaks_only(self, tmp_path):
        out = tmp_path / "peaks.csv"
        rc = main(
            ["beam-pattern", "--theta0", "0.6", "--alpha", "0.04",
             "--grid-step", "1e-3", "--peaks-only", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 129

    def test_explicit_slopes(self, tmp_path):
        out = tmp_path / "explicit.csv"
        rc = main(
            ["beam-pattern", "--psi", "0.3", "--t", "0.3",
             "--grid-step", "0.05", "--out", str(out)]
        )
        assert rc == 0
        # with both slopes given no interval is paired, so --theta0 is not read
        assert main(["beam-pattern", "--psi", "0.3", "--t", "0.3", "--theta0", "3", "--grid-step", "0.5", "--out", str(out)]) == 0

    def test_paired_interval_may_reach_the_unit_range_edge(self, tmp_path):
        out = tmp_path / "edge.csv"
        assert main(["beam-pattern", "--theta0", "0.95", "--alpha", "0.05", "--grid-step", "0.5", "--out", str(out)]) == 0


class TestBounds:
    def test_bounds_table(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--theta-min", "0", "--theta-max", "1", "--points", "5", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header[0] == "theta0"
        assert len(rows) == 5
        # fixed radius column is constant 1/p
        assert all(float(r["fixed"]) == 0.0625 for r in rows)
        assert "np." not in out.read_text()


class TestCodebookDump:
    def test_codebook_csv(self, tmp_path):
        out = tmp_path / "cb.csv"
        rc = main(["codebook", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["index", "psi_or_t", "value", "segment"]
        psi_rows = [r for r in rows if r["psi_or_t"] == "psi"]
        t_rows = [r for r in rows if r["psi_or_t"] == "t"]
        assert len(psi_rows) == 257
        assert {r["segment"] for r in t_rows} == {"outer-", "inner", "outer+"}

    def test_partial_system_flag_overlays_reference_setup(self, tmp_path):
        out = tmp_path / "cb32.csv"
        assert main(["codebook", "--m-half", "32", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        # 256 antennas still give 257 phase-slope codewords; t_max doubles to 2*f_c/(B*p)
        assert sum(r["psi_or_t"] == "psi" for r in rows) == 257
        assert float(rows[-1]["value"]) == pytest.approx(1.25)


class TestConfigChecks:
    @pytest.mark.parametrize("command", ["beam-pattern", "bounds", "codebook", "sweep-nmse"])
    @pytest.mark.parametrize(
        "text, match",
        [
            # f_d is derived from bandwidth and m_half, so a file that sets it names an unknown key
            pytest.param(
                "m_half = 32\nf_d = 78125000.0\n", r"unknown config keys: \['f_d'\]",
                id="m_half = 32\nf_d = 78125000.0\n-f_d",
            ),
            ("n_bss = 64\n", "unknown config keys"),
        ],
    )
    def test_bad_config_file_rejected(self, tmp_path, capsys, command, text, match):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        args = [command, "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")]
        if command == "sweep-nmse":
            args += ["--seed", "1"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert re.search(match, capsys.readouterr().err)


class TestTrack:
    @pytest.mark.parametrize(
        "flag, value",
        [("--users", "3"), ("--trials", "3"), ("--alpha", "0.1"), ("--theta-r", "0.3"),
         ("--values", "0.3"), ("--mobility", "uniform"), ("--snr", "10"), ("--slots-list", "2"),
         ("--zeta", "0.1")],
    )
    def test_flags_track_does_not_read_are_usage_errors(self, capsys, flag, value):
        # the frame counts, removed spellings of frame keys and prefixes of key flags
        with pytest.raises(SystemExit) as exc:
            main(["track", "--seed", "1", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: thztrack track [-h]")
        assert f"thztrack track: error: unrecognized arguments: {flag} {value}" in err

    def test_track_run_with_outputs(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        dump = tmp_path / "y.csv"
        rc = main(
            ["track", "--seed", "3", "--theta-grid", "0.41", "--theta0", "0.4",
             "--zeta-max", "0.1", "--slots", "2", "--snr-db", "15",
             "--compensation", "--trace", str(trace), "--dump-y", str(dump)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "coarse estimate" in out
        assert "refined estimate" in out
        assert trace.exists() and dump.exists()
        header, dump_rows = read_csv(dump)
        assert len(dump_rows) == 2  # one row per slot
        assert len(header) == 1 + 129  # slot column plus one column per subcarrier

    def test_list_entries_left_out_are_named(self, tmp_path, monkeypatch, capsys):
        # track runs one frame, which reads the first entry of each list key
        assert main(["track", "--seed", "1", "--snr-db", "0,10", "--slots", "2,8"]) == 0
        listed = capsys.readouterr()
        assert listed.err.splitlines() == [
            "track: snr_db lists 2 entries; ran only snr_db = 0.0",
            "track: slots lists 2 entries; ran only slots = 2",
        ]
        assert main(["track", "--seed", "1", "--snr-db", "0", "--slots", "2"]) == 0
        single = capsys.readouterr()
        assert single.err == "" and single.out == listed.out
        # a file's lists alike
        monkeypatch.chdir(tmp_path)
        Path("track.cfg").write_text("snr_db = [10]\nslots = [4]\ntheta_grid = [0.3, -0.3, 0.5]\n")
        assert main(["track", "--config", "track.cfg", "--seed", "1"]) == 0
        assert capsys.readouterr().err == "track: theta_grid lists 3 entries; ran only theta_grid = 0.3\n"


class TestTrackIsFrameZero:
    """``track`` prints frame (trial 0, user 0) of its scenario, as the sweeps run it."""

    @pytest.mark.parametrize("theta_r", [None, 0.41])
    @pytest.mark.parametrize(
        "extra, keys",
        [([], {}), (["--codebook"], {"codebook": True}), (["--compensation"], {"compensation": True}),
         (["--config", "track.cfg"], {"scheme": "forward_only", "gain_sigma": 0.3}),
         (["--scheme", "exhaustive_sweep", "--gain-sigma", "0.2"], {"scheme": "exhaustive_sweep", "gain_sigma": 0.2})],
    )
    def test_printed_numbers_match_run_trial(self, tmp_path, monkeypatch, capsys, theta_r, extra, keys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "track.cfg").write_text("scheme = forward_only\ngain_sigma = 0.3\n")
        argv = ["track", "--seed", "3", "--snr-db", "15", "--slots", "2"] + extra
        if theta_r is not None:
            argv += ["--theta-grid", str(theta_r)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        scn = ScenarioConfig(seed=3, snr_db=(15.0,), slots=(2,), theta_grid=() if theta_r is None else (theta_r,), **keys)
        rec = run_trial(scn, [draw_frame(scn, 0, 0)])[0]
        assert f"tracking theta_r={rec.theta_r:.6f} " in out
        assert f"coarse estimate {rec.theta_hat:+.6f} " in out
        if scn.compensation:
            assert f"refined estimate {rec.theta_refined:+.6f} " in out
        else:
            assert "refined estimate" not in out
        assert f"beamforming gain at estimate: {rec.gain:.4f}\n" in out

    def test_off_axis_theta_grid_pins_every_frame(self, tmp_path, monkeypatch, capsys):
        # theta_grid is off the axis of an SNR sweep, and each frame still reads its first entry
        monkeypatch.chdir(tmp_path)
        Path("scenario.cfg").write_text(
            "theta_grid = [0.3]\nsnr_db = [10, 20]\nslots = [4]\ntrials = 2\nusers = 2\ncompensation = true\n"
        )
        assert main(["sweep-nmse", "--config", "scenario.cfg", "--seed", "5", "--out", "o.csv", "--full", "o.json"]) == 0
        records = json.loads(Path("o.json").read_text())["records"]
        assert [r["theta_r"] for recs in records.values() for r in recs] == [0.3] * 8
        capsys.readouterr()
        assert main(["track", "--config", "scenario.cfg", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        rec = records["10.0"][0]
        assert f"tracking theta_r={rec['theta_r']:.6f} " in out
        assert f"coarse estimate {rec['theta_hat']:+.6f} " in out
        assert f"refined estimate {rec['theta_refined']:+.6f} " in out
        assert f"beamforming gain at estimate: {rec['gain']:.4f}\n" in out

    def test_degenerate_refinement_keeps_the_coarse_estimate(self, tmp_path, capsys, monkeypatch):
        real_refine = harness.refine

        def refine_on_dead_geometry(obs, theta_init, **kwargs):
            # every slot steers its beam null onto the start angle, so all slot responses vanish there
            slots = obs.plan.slots
            null = replace(obs.plan, psi=np.full(slots, theta_init - 2.0 / obs.plan.cfg.n_bs),
                           t_aux=np.full(slots, theta_init))
            return real_refine(replace(obs, plan=null), theta_init, **kwargs)

        monkeypatch.setattr(harness, "refine", refine_on_dead_geometry)
        trace = tmp_path / "trace.csv"
        assert main(["track", "--seed", "3", "--snr-db", "10", "--compensation", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "refinement degenerate (every slot response vanished): kept the coarse estimate" in out
        assert "refined estimate" not in out and not trace.exists()

    def test_a_failing_refinement_is_not_a_usage_error(self, monkeypatch):
        def broken_refine(obs, theta_init, **kwargs):
            raise ValueError("broken refinement")

        monkeypatch.setattr(harness, "refine", broken_refine)
        with pytest.raises(ValueError, match="broken refinement"):
            main(["track", "--seed", "3", "--compensation"])


class TestSweeps:
    def test_sweep_nmse_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-nmse", "--seed", "5", "--trials", "3", "--users", "1",
                "--axis", "snr", "--snr-db", "0,10"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_gain_theta_axis_with_full_json(self, tmp_path):
        out = tmp_path / "gain.csv"
        full = tmp_path / "gain.json"
        rc = main(
            ["sweep-gain", "--seed", "5", "--trials", "2", "--users", "1",
             "--theta-grid", "0.3,-0.3", "--out", str(out), "--full", str(full)]
        )
        assert rc == 0
        payload = json.loads(full.read_text())
        assert set(payload["records"]) == {"0.3", "-0.3"}

    def test_seed_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep-nmse", "--out", str(tmp_path / "x.csv")])

    def test_config_file_drives_sweep(self, tmp_path):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text("trials = 2\nusers = 1\nseed = 4\nsnr_db = [0, 10]\n")
        out = tmp_path / "from_config.csv"
        rc = main(["sweep-nmse", "--config", str(cfgfile), "--seed", "4", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 2

    def test_flag_overrides_config_file(self, tmp_path):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text("trials = 2\nusers = 1\nseed = 4\nsnr_db = [0]\nslots = [2]\n")
        out = tmp_path / "overridden.csv"
        rc = main(
            ["sweep-nmse", "--config", str(cfgfile), "--seed", "4",
             "--snr-db", "5,15", "--slots", "3", "--scheme", "forward_only",
             "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out)
        assert [r["value"] for r in rows] == ["5.0", "15.0"]
        assert all(r["scheme"] == "forward_only" for r in rows)

    def test_slots_axis_rejects_non_integral_values(self, tmp_path, capsys):
        out = tmp_path / "slots.csv"
        args = ["sweep-nmse", "--seed", "5", "--trials", "1", "--users", "1",
                "--axis", "slots", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--slots", "2.5,4"])
        assert exc.value.code == 2
        assert "argument --slots: must be an integer, got '2.5'" in capsys.readouterr().err
        assert not out.exists()
        assert main(args + ["--slots", "2.0,4"]) == 0
        _, rows = read_csv(out)
        assert [r["value"] for r in rows] == ["2", "4"]

    def test_mobility_is_no_longer_a_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text("mobility = uniform\n")
        args = ["sweep-nmse", "--seed", "1", "--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--config", str(cfgfile)])
        assert exc.value.code == 2
        assert "unknown config keys: ['mobility']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(args + ["--mobility", "uniform"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("values", ["1,abc", "1,,2", "1,nan", "inf"])
    def test_values_must_be_finite_numbers(self, tmp_path, capsys, values):
        out = tmp_path / "snr.csv"
        args = ["sweep-nmse", "--seed", "5", "--trials", "1", "--users", "1",
                "--out", str(out), "--snr-db", values]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "argument --snr-db: must be a finite number, got " in capsys.readouterr().err
        assert not out.exists()


def _subparsers(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


# one representative argument list per command
_ARGV = {
    "beam-pattern": ["beam-pattern", "--theta0", "0.7", "--grid-step", "1e-3", "--peaks-only", "--out", "p.csv"],
    "bounds": ["bounds", "--n-bs", "64", "--n-ttd", "8", "--p", "8", "--theta-min", "-0.5", "--out", "b.csv"],
    "codebook": ["codebook", "--m-half", "32", "--out", "c.csv"],
    "track": ["track", "--seed", "3", "--theta-grid", "0.41", "--snr-db", "15", "--compensation", "--slots", "2"],
    "sweep-nmse": ["sweep-nmse", "--seed", "1", "--snr-db", "0,10", "--slots", "2,4", "--out", "n.csv"],
    "sweep-gain": ["sweep-gain", "--seed", "1", "--axis", "theta", "--theta-grid", "0.3,-0.3", "--no-compensation",
                   "--out", "g.csv", "--full", "g.json"],
    "validate": ["validate"],
}


class TestRandomnessKeying:
    def test_every_fresh_generator_is_seeded_with_seed_trial_user(self, tmp_path, monkeypatch, capsys):
        # a run's randomness is keyed by (seed, trial, user) only: every generator
        # a command makes from a seed, rather than takes, is seeded with [seed, trial, user]
        make = np.random.default_rng
        seeds = []

        def spy(seed=None):
            if not isinstance(seed, np.random.Generator):
                seeds.append(seed)
            return make(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        scenario = ["--seed", "7", "--snr-db", "0,10", "--slots", "2", "--compensation"]
        assert main(["sweep-nmse", *scenario, "--trials", "2", "--users", "2", "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["track", *scenario]) == 0
        capsys.readouterr()
        assert all(isinstance(seed, list) and len(seed) == 3 and seed[0] == 7 for seed in seeds), seeds
        assert sorted(map(tuple, seeds)) == [(7, 0, 0), (7, 0, 0), (7, 0, 1), (7, 1, 0), (7, 1, 1)]


class TestParser:
    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert len(_COMMANDS) == 7
        for name, (help_text, _, _) in _COMMANDS.items():
            assert name in out and help_text in out

    @pytest.mark.parametrize("command", sorted(_ARGV))
    def test_command_help_lists_its_options(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: thztrack {command}")
        full = _subparsers(build_parser())[command]
        options = [opt for action in full._actions for opt in action.option_strings]
        assert len(options) > 1 or command == "validate"
        for option in options:
            assert option in out

    @pytest.mark.parametrize("command", sorted(_ARGV))
    def test_lazy_parser_matches_full_parser(self, command):
        argv = _ARGV[command]
        assert list(_subparsers(build_parser(command))) == [command]
        lazy, full = (vars(parser.parse_args(argv)) for parser in (build_parser(command), build_parser()))
        # each namespace carries the subparser that parsed it, built once per parser
        assert lazy.pop("subparser").format_usage() == full.pop("subparser").format_usage()
        assert lazy == full

    def test_lazy_usage_error_matches_full_parser(self, capsys):
        argv = ["track", "--seed", "1", "--bogus"]
        errors = []
        for parser in (build_parser("track"), build_parser()):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            errors.append(capsys.readouterr().err)
        assert "unrecognized arguments: --bogus" in errors[0]
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("argv", [[], ["trak"], ["--seed", "1"]])
    def test_missing_or_unknown_command_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: thztrack [-h]")
        assert all(name in err for name in _COMMANDS)


class TestFiniteOptions:
    @pytest.mark.parametrize(
        "argv, flag",
        [(["track", "--seed", "1"], flag) for flag in ("--theta-grid", "--theta0", "--zeta-max", "--snr-db")]
        + [(["beam-pattern", "--out", "x.csv"], flag)
           for flag in ("--theta0", "--alpha", "--psi", "--t", "--grid-step")]
        + [(["bounds", "--out", "x.csv"], flag) for flag in ("--theta-min", "--theta-max")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_value_rejected_naming_the_flag(self, tmp_path, monkeypatch, capsys, argv, flag, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a finite number, got '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv, flag, value, error",
        [(["beam-pattern", "--out", "x.csv"], "--grid-step", v, "must be positive") for v in ("0", "-0.1")]
        + [(["bounds", "--out", "x.csv"], "--points", v, "must be an integer >= 1") for v in ("0", "-3", "2.5")]
        + [(["beam-pattern", "--out", "x.csv"], "--alpha", v, "must be positive") for v in ("0", "-0.1")],
    )
    def test_nonpositive_step_or_count_rejected_naming_the_flag(
        self, tmp_path, monkeypatch, capsys, argv, flag, value, error
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: {error}, got '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag", ["--theta-min", "--theta-max"])
    @pytest.mark.parametrize("value", ["3", "5", "-1.5", "1.0001"])
    def test_direction_outside_unit_range_rejected_naming_the_flag(self, tmp_path, monkeypatch, capsys, flag, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--points", "3", "--out", "x.csv", f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: must lie in [-1, 1], got '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestBadScenario:
    """A config value that parses but breaks a scenario rule exits 2 with the rule's message, writing nothing."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep-nmse", "--seed", "1", "--zeta-max", "1.5", "--out", "x.csv"], "zeta_max must lie in (0, 1)"),
            (["sweep-nmse", "--seed", "1", "--users", "0", "--out", "x.csv"], "trials and users must be positive"),
            (["sweep-nmse", "--seed", "1", "--n-bs", "100", "--out", "x.csv"], "n_ttd*p = 256 != n_bs = 100"),
            (["sweep-gain", "--seed", "1", "--theta-grid", "0.3,1.5", "--out", "x.csv"],
             "theta_grid entries must lie in [-0.99, 0.99], got (0.3, 1.5)"),
            (["track", "--seed", "3", "--theta-grid", "0.3,1.5"],
             "theta_grid entries must lie in [-0.99, 0.99], got (0.3, 1.5)"),
            (["sweep-gain", "--seed", "1", "--out", "x.csv"], "a theta sweep needs --theta-grid or a file's theta_grid"),
            (["sweep-nmse", "--seed", "1", "--config", "nope.cfg", "--out", "x.csv"],
             "argument --config: No such file or directory: 'nope.cfg'"),
            (["sweep-nmse", "--seed", "1", "--trials", "1", "--users", "1", "--snr-db=-4000", "--out", "x.csv"],
             "snr_db entry -4000.0 gives a pilot noise that is not finite and positive"),
            (["sweep-nmse", "--seed", "1", "--trials", "1", "--users", "1", "--snr-db", "1e300", "--out", "x.csv"],
             "snr_db entry 1e+300 gives a pilot noise that is not finite and positive"),
            (["track", "--seed", "3", "--snr-db=-4000"],
             "snr_db entry -4000.0 gives a pilot noise that is not finite and positive"),
            (["track", "--seed", "3", "--snr-db", "1e300"],
             "snr_db entry 1e+300 gives a pilot noise that is not finite and positive"),
            (["track", "--seed", "3", "--theta-grid", "5"], "theta_grid entries must lie in [-0.99, 0.99], got (5.0,)"),
            (["track", "--seed", "3", "--zeta-max", "1.5"], "zeta_max must lie in (0, 1)"),
            (["track", "--seed", "3", "--theta0", "0.95", "--zeta-max", "0.1"],
             "argument --theta0: must lie in [-0.9, 0.9], got 0.95"),
            (["track", "--seed", "3", "--theta0=-0.81"], "argument --theta0: must lie in [-0.8, 0.8], got -0.81"),
            (["track", "--seed", "3", "--config", "nope.cfg"], "argument --config: No such file or directory: 'nope.cfg'"),
            (["track", "--seed", "3", "--trace", "x.csv"],
             "argument --trace: traces the refinement, which needs --compensation"),
            (["track", "--seed", "3", "--no-compensation", "--trace", "x.csv"],
             "argument --trace: traces the refinement, which needs --compensation"),
            (["sweep-nmse", "--seed", "1", "--trials", "1", "--users", "1", "--axis", "slots", "--slots", "4,-2",
              "--out", "x.csv"], "slots entries must be positive integers, got (4, -2)"),
            (["sweep-nmse", "--seed", "1", "--slots", "4,0", "--out", "x.csv"],
             "slots entries must be positive integers, got (4, 0)"),
            (["beam-pattern", "--theta0", "3", "--out", "x.csv"],
             "arguments --theta0/--alpha: the searched interval [2.95, 3.05] leaves [-1, 1]"),
            (["beam-pattern", "--theta0", "0.95", "--alpha", "0.5", "--out", "x.csv"],
             "arguments --theta0/--alpha: the searched interval [0.45, 1.45] leaves [-1, 1]"),
            (["beam-pattern", "--theta0=-0.9", "--alpha", "0.2", "--psi", "0.1", "--out", "x.csv"],
             "arguments --theta0/--alpha: the searched interval [-1.1, -0.7] leaves [-1, 1]"),
            (["beam-pattern", "--psi", "0.3", "--grid-step", "0.5", "--out", "x.csv"],
             "arguments --psi/--t: give both slopes or neither"),
            (["beam-pattern", "--t", "0.3", "--grid-step", "0.5", "--out", "x.csv"],
             "arguments --psi/--t: give both slopes or neither"),
            (["track", "--seed", "3", "--zeta-max=0"], "zeta_max must lie in (0, 1)"),
            (["track", "--seed", "3", "--zeta-max=-0.1"], "zeta_max must lie in (0, 1)"),
            # a sweep keys its records by axis value, so no list key may repeat an entry
            (["sweep-nmse", "--seed", "1", "--snr-db", "10,10", "--out", "x.csv"],
             "snr_db entries must be distinct, got (10.0, 10.0)"),
            (["sweep-nmse", "--seed", "1", "--axis", "slots", "--slots", "2,4,2", "--out", "x.csv"],
             "slots entries must be distinct, got (2, 4, 2)"),
            (["track", "--seed", "3", "--theta-grid", "0.3,0.3"], "theta_grid entries must be distinct, got (0.3, 0.3)"),
        ],
    )
    def test_exits_2_with_the_message(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the usage and the error line are the command's, as for a flag that does not parse
        assert err.startswith(f"usage: thztrack {argv[0]} [-h]")
        assert f"thztrack {argv[0]}: error: {message}" in err
        assert not (tmp_path / "x.csv").exists()


def test_validate_passes_every_check(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[PASS] ") for line in lines) == 9
    assert not any(line.startswith("[FAIL]") for line in lines)


# Every config key with a flag: (flag, a good value, a bad value), as command-line text.
_KEY_FLAGS = {
    "n_bs": ("--n-bs", "64", "64.5"),
    "n_ttd": ("--n-ttd", "8", "abc"),
    "p": ("--p", "8", "nan"),
    "f_c": ("--f-c", "1.2e11", "nan"),
    "bandwidth": ("--bandwidth", "5e9", "inf"),
    "m_half": ("--m-half", "16", "1e400"),
    "users": ("--users", "2", "1.7"),
    "snr_db": ("--snr-db", "0,10.5", "0,abc"),
    "slots": ("--slots", "2,4.0", "2,2.5"),
    "trials": ("--trials", "3", "true"),
    "zeta_max": ("--zeta-max", "0.1", "-inf"),
    "scheme": ("--scheme", "forward_only", "forward"),
    "gain_sigma": ("--gain-sigma", "0.5", "nan"),
    "theta_grid": ("--theta-grid", "-0.3,0.3", "0.3,"),
    "seed": ("--seed", "7", "1.5"),
}
# keys without a value-taking flag: the switches
_OTHER_KEYS = {"compensation", "codebook"}


class _Swept(Exception):
    pass


def _swept_scenario(monkeypatch, argv):
    """The scenario that ``sweep-nmse argv`` would sweep."""

    def stop(scn, axis):
        raise _Swept(scn)

    monkeypatch.setattr(cli, "sweep", stop)
    with pytest.raises(_Swept) as exc:
        main(["sweep-nmse", "--out", "x.csv"] + argv)
    return exc.value.args[0]


class TestOneParserPerKey:
    def test_every_key_is_covered(self):
        assert set(_KEY_FLAGS) | _OTHER_KEYS == set(CONFIG_PARSERS)

    def test_flags_and_file_give_equal_scenarios(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [f"{flag}={good}" for flag, good, _ in _KEY_FLAGS.values()]
        from_flags = _swept_scenario(monkeypatch, argv + ["--compensation", "--codebook"])
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text(
            "".join(f"{key} = {good}\n" for key, (_, good, _) in _KEY_FLAGS.items())
            + "compensation = true\ncodebook = true\n"
        )
        assert from_flags == scenario_from_file(cfgfile)
        assert (from_flags.system.n_bs, from_flags.snr_db, from_flags.slots) == (64, (0.0, 10.5), (2, 4))
        # a flag overrides the file, and --no-compensation a file's compensation = true
        overridden = _swept_scenario(monkeypatch, ["--config", str(cfgfile), "--trials", "9", "--no-compensation", "--seed", "8"])
        assert (overridden.trials, overridden.compensation, overridden.seed, overridden.users) == (9, False, 8, 2)

    @pytest.mark.parametrize("key", sorted(_KEY_FLAGS))
    def test_bad_value_names_the_flag_or_the_key(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.chdir(tmp_path)
        flag, _, bad = _KEY_FLAGS[key]
        argv = ["sweep-nmse", "--out", "x.csv", f"{flag}={bad}"] + (["--seed", "1"] if key != "seed" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert re.search(f"argument {flag}: must be .*, got '", capsys.readouterr().err)
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{key} = {bad}\n")
        with pytest.raises(ValueError, match=f"^'{key}' must be "):
            scenario_from_file(cfgfile)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("key", ["snr_db", "slots"])
    def test_empty_axis_list_rejected(self, tmp_path, capsys, key):
        cfgfile = tmp_path / "empty.cfg"
        cfgfile.write_text(f"{key} = []\n")
        for argv in (["sweep-gain", "--theta-grid", "0.3", "--out", str(tmp_path / "x.csv")], ["track"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--config", str(cfgfile), "--seed", "1"])
            assert exc.value.code == 2
            assert f"{key} must not be empty" in capsys.readouterr().err


# a sweep of one frame, quick to run should a flag be taken where it must not
_ONE_FRAME_SWEEP = ["sweep-nmse", "--seed", "1", "--trials", "1", "--users", "1", "--snr-db", "10", "--out", "x.csv"]


class TestOneFlagPerKey:
    """Each config key has one spelling, ``--`` + the key with ``_`` as ``-``, on every command that takes it."""

    @pytest.mark.parametrize("command", sorted(_ARGV))
    def test_key_options_are_spelled_by_their_key(self, command):
        parser = _subparsers(build_parser())[command]
        spellings = {}
        for action in parser._actions:
            if action.dest in CONFIG_PARSERS:
                spellings.setdefault(action.dest, []).extend(action.option_strings)
        for key, options in spellings.items():
            flag = "--" + key.replace("_", "-")
            # --no-compensation is the one negation
            assert options == ([flag, "--no-compensation"] if key == "compensation" else [flag])
        # the key set of each command: the system keys, every key a frame reads, or every key
        system = {f.name for f in fields(SystemConfig)}
        expected = {
            "beam-pattern": system, "bounds": system, "codebook": system, "validate": set(),
            "track": set(CONFIG_PARSERS) - {"users", "trials"},
            "sweep-nmse": set(CONFIG_PARSERS), "sweep-gain": set(CONFIG_PARSERS),
        }[command]
        assert set(spellings) == expected

    @pytest.mark.parametrize(
        "argv, unknown",
        [(_ONE_FRAME_SWEEP + ["--snr", "10"], "--snr 10"),
         (_ONE_FRAME_SWEEP + ["--comp"], "--comp"),
         (_ONE_FRAME_SWEEP + ["--slots-list", "2"], "--slots-list 2"),
         (_ONE_FRAME_SWEEP + ["--values", "0"], "--values 0"),
         (["bounds", "--out", "x.csv", "--theta-m", "0.5"], "--theta-m 0.5"),
         (["codebook", "--out", "x.csv", "--m-h", "32"], "--m-h 32")],
    )
    def test_a_prefix_or_removed_spelling_is_unrecognized(self, tmp_path, monkeypatch, capsys, argv, unknown):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: thztrack {argv[0]} [-h]")
        assert f"thztrack {argv[0]}: error: unrecognized arguments: {unknown}\n" in err
        assert not (tmp_path / "x.csv").exists()


def _readme_block(heading, language):
    """The first fenced ``language`` block of the README section under ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(f"```{language}\n(.*?)```", section, re.S).group(1)


class TestReadme:
    def test_config_example_parses(self, tmp_path):
        cfgfile = tmp_path / "readme.cfg"
        cfgfile.write_text(_readme_block("Configuration files", "ini"))
        scn = scenario_from_file(cfgfile)
        assert (scn.system.n_bs, scn.snr_db, scn.compensation, scn.theta_grid) == (
            256, (-10.0, 0.0, 10.0, 20.0), True, (-0.6, 0.6),
        )

    def test_cli_examples_parse_and_non_sweeps_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        block = _readme_block("CLI", "sh").replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("thztrack ")]
        assert {argv[0] for argv in commands} == set(_COMMANDS) - {"validate"}
        for argv in commands:
            build_parser().parse_args(argv)
            if not argv[0].startswith("sweep"):
                assert main(argv) == 0
        assert {p.name for p in tmp_path.iterdir()} >= {"pattern.csv", "bounds.csv", "codebook.csv", "trace.csv", "y.csv"}

    def test_overview_lists_each_module_once(self):
        # the overview, above "## Install and test", has one "- `module`: ..." line per module
        overview = README.read_text().split("\n## Install and test\n", 1)[0]
        listed = re.findall(r"^- `(\w+)`", overview, re.M)
        modules = sorted(m.name for m in pkgutil.iter_modules(thztrack.__path__))
        assert sorted(listed) == modules
        assert set(re.findall(r"thztrack\.(\w+)", overview)) <= set(modules)
