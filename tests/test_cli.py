import csv
import io
import json
import math
import os
import warnings

import numpy as np
import pytest

from jacobilab import (
    JacobiParameters,
    SpectralGrid,
    convolution_grid,
    default_grids,
    heat_kernel,
    probe_theorem,
    standard_multiplier_family,
    theorem_ratio_experiment,
)
from jacobilab import cli, convolution, core
from jacobilab.cli import _member_from_manifest, main

FAST = [
    "--t-max", "12", "--radial-panels", "80",
    "--lam-max", "25", "--spectral-panels", "80",
]


def run(args):
    return main([str(a) for a in args])


def write_radial_csv(path, t, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "re", "im"])
        for x, v in zip(t, values):
            writer.writerow([x, v, 0.0])


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    reader = csv.DictReader(lines)
    key = reader.fieldnames[0]
    xs, re, im = [], [], []
    for row in reader:
        xs.append(float(row[key]))
        re.append(float(row["re"]))
        im.append(float(row["im"]))
    return np.array(xs), np.array(re) + 1j * np.array(im)


class TestEval:
    def test_phi(self, capsys):
        assert run(["--preset", "generic", "eval", "phi", "--lambda", "2", "--t", "1.5"]) == 0
        out = capsys.readouterr().out.strip().split(",")
        assert out[0] == "phi"
        assert float(out[3]) == pytest.approx(0.0694523138158831, rel=1e-12)

    def test_omega(self, capsys):
        assert run(["--alpha", "1.2", "--beta", "0.3", "eval", "omega", "--lambda", "5"]) == 0
        out = capsys.readouterr().out.strip().split(",")
        assert float(out[2]) == pytest.approx((25.0 + 25.0) ** 1.45, rel=1e-12)

    def test_kernel(self, capsys):
        code = run(
            ["--preset", "generic", "eval", "kernel-K", "--s", "1", "--t", "1.2", "--u", "1.5"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().split(",")
        assert float(out[4]) > 0.0

    def test_phi_underflow_exit_2(self, capsys):
        # rho t = 1000: phi underflows, which is an error, not a printed 0
        assert run(["--preset", "generic", "eval", "phi", "--lambda", "2", "--t", "400"]) == 2

    def test_c_overflow_exit_2(self, capsys, mpmath_c):
        # c(470) is finite and printed; past alpha of about 500 c leaves the
        # doubles, which is an error, not a printed inf
        assert run(["--preset", "generic", "eval", "c", "--lambda", "470"]) == 0
        _, _, re, im = capsys.readouterr().out.strip().split(",")
        expected = mpmath_c(JacobiParameters(1.2, 0.3), 470.0)
        assert abs(complex(float(re), float(im)) - expected) <= 1e-12 * abs(expected)
        assert run(["--alpha", "600", "--beta", "1", "eval", "c", "--lambda", "2"]) == 2
        assert "alpha = 600" in capsys.readouterr().err
        # so does omega(1e160), printed as inf,nan before
        assert run(["--preset", "generic", "eval", "omega", "--lambda", "1e160"]) == 2
        assert "lambda = 1e+160" in capsys.readouterr().err

    def test_missing_argument_exit_2(self, capsys):
        assert run(["--preset", "generic", "eval", "phi", "--lambda", "2"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [(["c"], "eval c needs --lambda"), (["omega"], "eval omega needs --lambda"),
         (["kernel-K", "--s", "1", "--t", "1.2"], "eval kernel-K needs --s, --t and --u")],
        ids=["c", "omega", "kernel-K"],
    )
    def test_missing_flag_exit_2(self, capsys, argv, message):
        assert run(["--preset", "generic", "eval", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_params_exit_2(self, capsys):
        assert run(["eval", "phi", "--lambda", "2", "--t", "1"]) == 2

    def test_bad_params_exit_2(self, capsys):
        assert run(["--alpha", "0.2", "--beta", "0.1", "eval", "omega", "--lambda", "1"]) == 2

    def test_nan_argument_exit_2(self, capsys):
        # NaN fails every comparison: unchecked, it prints a kernel value of 0
        # and an omega of nan, with exit 0
        assert run(["--preset", "generic", "eval", "kernel-K", "--s", "nan", "--t", "1", "--u", "1"]) == 2
        assert "s > 0" in capsys.readouterr().err
        assert run(["--preset", "generic", "eval", "omega", "--lambda", "nan"]) == 2
        assert "lambda must be finite" in capsys.readouterr().err


class TestTransformPipeline:
    def test_roundtrip(self, tmp_path, capsys):
        t = np.linspace(0.05, 8.0, 400)
        write_radial_csv(tmp_path / "f.csv", t, np.exp(-(t**2)))
        base = ["--preset", "generic", "--output-dir", str(tmp_path), *FAST]
        assert run(base + ["transform", "--input", tmp_path / "f.csv", "--output", "fhat.csv"]) == 0
        assert run(base + ["inverse", "--input", tmp_path / "fhat.csv", "--output", "back.csv"]) == 0
        xs, vals = read_csv(tmp_path / "back.csv")
        mask = xs < 6.0
        assert np.max(np.abs(vals.real[mask] - np.exp(-(xs[mask] ** 2)))) < 1e-3

    def test_manifest_written(self, tmp_path, capsys):
        t = np.linspace(0.05, 8.0, 200)
        write_radial_csv(tmp_path / "f.csv", t, np.exp(-(t**2)))
        base = ["--preset", "generic", "--output-dir", str(tmp_path), *FAST]
        assert run(base + ["transform", "--input", tmp_path / "f.csv", "--output", "out.csv"]) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["command"] == "transform"
        assert len(manifest["config_hash"]) == 12
        header = (tmp_path / "out.csv").read_text().splitlines()[0]
        assert manifest["config_hash"] in header

    def test_byte_identical_reruns(self, tmp_path, capsys):
        t = np.linspace(0.05, 8.0, 200)
        write_radial_csv(tmp_path / "f.csv", t, np.exp(-(t**2)))
        base = ["--preset", "generic", "--output-dir", str(tmp_path), *FAST]
        run(base + ["transform", "--input", tmp_path / "f.csv", "--output", "a.csv"])
        run(base + ["transform", "--input", tmp_path / "f.csv", "--output", "b.csv"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["complex", "real", "complex-zero-imag"])
    def test_function_csv_bytes_are_csv_writer_bytes(self, capsys, kind):
        # a function's rows are one %-format; they must be the bytes that
        # csv.writer writes over _format, edge values included
        edge = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, 1.0, 0.1, 1e16, -1e16, math.inf, math.nan])
        nodes, values = edge[::-1], edge.astype(complex)
        if kind == "complex":
            values.imag = edge[::-1]
        elif kind == "real":
            values = edge
        args = cli._parser().parse_args(["--preset", "generic", "heat", "--s", "0.1", "--output", "x.csv"])
        args.output = None
        cli._write_function_csv(args, cli._make_params(args), "t", nodes, values, {})
        out = capsys.readouterr().out
        header, body = out.split("\n", 1)
        rows = [[cli._format(float(x)), cli._format(float(v.real)), cli._format(float(v.imag))] for x, v in zip(nodes, values)]
        expected = io.StringIO()
        csv.writer(expected).writerows([["t", "re", "im"], *rows])
        assert header.startswith("# jacobilab ") and body == expected.getvalue()

    def test_undecayed_input_exit_3(self, tmp_path, capsys):
        t = np.linspace(0.05, 12.0, 100)
        write_radial_csv(tmp_path / "flat.csv", t, np.ones_like(t))
        base = ["--preset", "generic", "--output-dir", str(tmp_path), *FAST]
        assert run(base + ["transform", "--input", tmp_path / "flat.csv", "--output", "x.csv"]) == 3

    def test_bad_schema_exit_2(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("t,value\n1,2\n")
        assert run(
            ["--preset", "generic", "transform", "--input", tmp_path / "bad.csv", "--output", "x.csv"]
        ) == 2

    def test_empty_input_exit_2(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("t,re,im\n")
        assert run(
            ["--preset", "generic", "transform", "--input", tmp_path / "empty.csv", "--output", "x.csv"]
        ) == 2

    @pytest.mark.parametrize("name, message", [("blank.csv", "empty input file"), ("absent.csv", "cannot read")])
    def test_blank_or_unreadable_input_exit_2(self, tmp_path, capsys, name, message):
        (tmp_path / "blank.csv").write_text("")
        path = tmp_path / name
        assert run(
            ["--preset", "generic", "--output-dir", str(tmp_path), "transform", "--input", path, "--output", "x.csv"]
        ) == 2
        assert capsys.readouterr().err.startswith(f"error: {message} {path}")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "row", ["1.0,2.0\n", "1.0,,0.0\n", "1.0,abc,0.0\n"], ids=["short-row", "empty-field", "non-numeric"]
    )
    def test_bad_data_row_exit_2(self, tmp_path, capsys, row):
        (tmp_path / "bad.csv").write_text("t,re,im\n0.5,1.0,0.0\n" + row)
        assert run(
            ["--preset", "generic", "--output-dir", str(tmp_path), "transform", "--input", tmp_path / "bad.csv",
             "--output", "x.csv"]
        ) == 2
        assert "bad.csv" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_crlf_and_quoted_input_read_as_plain(self, tmp_path, capsys):
        t = np.linspace(0.05, 8.0, 200)
        write_radial_csv(tmp_path / "f.csv", t, np.exp(-(t**2)))
        plain = (tmp_path / "f.csv").read_text()  # universal newlines: "\n" line ends
        (tmp_path / "plain.csv").write_bytes(plain.encode())
        (tmp_path / "crlf.csv").write_bytes(plain.replace("\n", "\r\n").encode())
        with open(tmp_path / "plain.csv", newline="") as src, open(tmp_path / "quoted.csv", "w", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(csv.reader(src))
        assert b"\r" not in (tmp_path / "plain.csv").read_bytes() + (tmp_path / "quoted.csv").read_bytes()
        assert (tmp_path / "quoted.csv").read_text().startswith('"t","re","im"\n"0.05",')
        base = ["--preset", "generic", "--output-dir", str(tmp_path), *FAST]
        for name in ("plain", "crlf", "quoted"):
            assert run(base + ["transform", "--input", tmp_path / f"{name}.csv", "--output", f"{name}-out.csv"]) == 0
        want = (tmp_path / "plain-out.csv").read_bytes()
        assert (tmp_path / "crlf-out.csv").read_bytes() == want
        assert (tmp_path / "quoted-out.csv").read_bytes() == want

    def test_output_dir_env_override(self, tmp_path, capsys, monkeypatch):
        outdir = tmp_path / "envout"
        monkeypatch.setenv("JACOBI_OUTPUT_DIR", str(outdir))
        t = np.linspace(0.05, 8.0, 200)
        write_radial_csv(tmp_path / "f.csv", t, np.exp(-(t**2)))
        assert run(
            ["--preset", "generic", *FAST, "transform", "--input", tmp_path / "f.csv", "--output", "o.csv"]
        ) == 0
        assert (outdir / "o.csv").exists()


def convolve_argv(base, preset, name):
    return ["--preset", preset, "--output-dir", base, "convolve",
            "--input-f", base / "f.csv", "--input-g", base / "f.csv", "--output", name]


def same_outputs(base, first, second):
    return all((base / f"{first}{suffix}").read_bytes() == (base / f"{second}{suffix}").read_bytes()
               for suffix in ("", ".manifest.json"))


class TestHeatAndConvolve:
    def test_heat(self, tmp_path, capsys):
        base = ["--preset", "generic", "--output-dir", str(tmp_path), *FAST]
        assert run(base + ["heat", "--s", "0.05", "--output", "h.csv"]) == 0
        xs, vals = read_csv(tmp_path / "h.csv")
        assert np.min(vals.real) > -1e-8 * np.max(vals.real)

    def test_convolve(self, tmp_path, capsys):
        t = np.linspace(0.05, 8.0, 200)
        write_radial_csv(tmp_path / "f.csv", t, np.exp(-(t**2)))
        base = ["--preset", "generic", "--output-dir", str(tmp_path)]
        code = run(
            base
            + ["convolve", "--input-f", tmp_path / "f.csv", "--input-g", tmp_path / "f.csv",
               "--output", "c.csv"]
        )
        assert code == 0
        xs, vals = read_csv(tmp_path / "c.csv")
        assert np.all(np.isfinite(vals))

    def test_convolve_rerun_in_process_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        # the second run takes the grid pair, its phi matrix and the
        # Harish-Chandra rules that the first one left in the process
        import jacobilab

        calls = []
        phi_matrix = core.phi_matrix

        def counted(*args):
            calls.append("phi_matrix")
            return phi_matrix(*args)

        # every binding of phi_matrix, as each module imports it by name
        for module in (jacobilab, *(m for m in vars(jacobilab).values() if type(m) is type(jacobilab))):
            for name, value in list(vars(module).items()):
                if value is phi_matrix:
                    monkeypatch.setattr(module, name, counted)
        build = SpectralGrid.build.__func__
        monkeypatch.setattr(SpectralGrid, "build", classmethod(lambda cls, *a: calls.append("build") or build(cls, *a)))
        t = np.linspace(0.05, 8.0, 200)
        write_radial_csv(tmp_path / "f.csv", t, np.exp(-(t**2)))
        convolution._convolution_grids.cache_clear()
        for name in ("c1.csv", "c2.csv"):
            assert run(convolve_argv(tmp_path, "generic", name)) == 0
        assert sorted(calls) == ["build", "phi_matrix"]
        assert same_outputs(tmp_path, "c1.csv", "c2.csv")

    def test_convolve_ignores_grid_flags(self, tmp_path, capsys):
        # convolve runs on convolution_grid whatever the grid flags say, so
        # they neither move its rows nor enter its config hash
        t = np.linspace(0.05, 8.0, 200)
        write_radial_csv(tmp_path / "f.csv", t, np.exp(-(t**2)))
        for name, t_max in (("a.csv", "5"), ("b.csv", "20")):
            code = run(
                ["--preset", "generic", "--output-dir", tmp_path, "--t-max", t_max, "convolve",
                 "--input-f", tmp_path / "f.csv", "--input-g", tmp_path / "f.csv", "--output", name]
            )
            assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_convolve_heat_semigroup(self, tmp_path, capsys):
        # h_s * h_r = h_(s+r) at rho = 3, to the bound of the convolution benchmark
        params = JacobiParameters(1.5, 0.5)
        grid = convolution_grid(params)
        sgrid = SpectralGrid.build(params)
        for name, s in (("f.csv", 0.1), ("g.csv", 0.2)):
            write_radial_csv(tmp_path / name, grid.nodes, heat_kernel(params, s, grid, sgrid).values)
        base = ["--preset", "damek-ricci-like", "--output-dir", str(tmp_path)]
        code = run(
            base
            + ["convolve", "--input-f", tmp_path / "f.csv", "--input-g", tmp_path / "g.csv",
               "--output", "c.csv"]
        )
        assert code == 0
        xs, vals = read_csv(tmp_path / "c.csv")
        assert np.max(np.abs(xs - grid.nodes)) < 1e-13
        want = heat_kernel(params, 0.3, grid, sgrid).values
        err = np.sum(grid.mu_weights * np.abs(vals - want) ** 2)
        assert math.sqrt(err / np.sum(grid.mu_weights * want**2)) < 1e-8

    def test_convolve_undecayed_spectrum_exit_3(self, tmp_path, capsys):
        # a width-0.05 bump at t = 1 has not decayed spectrally by lambda = 50
        t = convolution_grid(JacobiParameters(1.2, 0.3)).nodes
        write_radial_csv(tmp_path / "f.csv", t, np.exp(-((t - 1.0) ** 2) / 0.05**2))
        code = run(
            ["--preset", "generic", "--output-dir", str(tmp_path), "convolve",
             "--input-f", tmp_path / "f.csv", "--input-g", tmp_path / "f.csv", "--output", "c.csv"]
        )
        assert code == 3


class TestOncePerProcess:
    def test_interleaved_presets_write_what_cold_runs_write(self, tmp_path, capsys):
        t = np.linspace(0.05, 8.0, 200)
        write_radial_csv(tmp_path / "f.csv", t, np.exp(-(t**2)))
        presets = ("generic", "damek-ricci-like", "generic")
        convolution._convolution_grids.cache_clear()
        for i, preset in enumerate(presets):
            assert run(convolve_argv(tmp_path, preset, f"warm{i}.csv")) == 0
        for i, preset in enumerate(presets):
            convolution._convolution_grids.cache_clear()
            assert run(convolve_argv(tmp_path, preset, f"cold{i}.csv")) == 0
            assert same_outputs(tmp_path, f"warm{i}.csv", f"cold{i}.csv")
        assert not same_outputs(tmp_path, "warm0.csv", "warm1.csv")

    def test_one_parser_carries_nothing_between_calls(self, tmp_path, capsys, monkeypatch):
        # report sets args.reads from its kind; the next command through the
        # same parser must hash and write as it would through a new one
        t = np.linspace(0.05, 8.0, 200)
        write_radial_csv(tmp_path / "f.csv", t, np.exp(-(t**2)))
        commands = [
            lambda name: ["--preset", "generic", "--output-dir", tmp_path, "report", "gangolli", "--output", name],
            lambda name: ["--preset", "generic", "--output-dir", tmp_path, *FAST, "heat", "--s", "0.1", "--output", name],
            lambda name: convolve_argv(tmp_path, "generic", name),
        ]
        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        for i, command in enumerate(commands):
            assert run(command(f"shared{i}.csv")) == 0
        assert len(builds) == 1
        for i, command in enumerate(commands):
            cli._parser.cache_clear()
            assert run(command(f"fresh{i}.csv")) == 0
            assert same_outputs(tmp_path, f"shared{i}.csv", f"fresh{i}.csv")


class TestWriteErrors:
    # unmapped, these end in an IsADirectoryError or FileExistsError traceback
    def test_output_naming_a_directory_exit_2(self, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        code = run(["--preset", "generic", *FAST, "--output-dir", tmp_path, "heat", "--s", "0.1", "--output", "taken"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'taken'}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list((tmp_path / "taken").iterdir()) == []

    def test_output_dir_naming_a_file_exit_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("kept\n")
        code = run(
            ["--preset", "generic", *FAST, "--output-dir", tmp_path / "file", "heat", "--s", "0.1", "--output", "h.csv"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'file' / 'h.csv'}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_failed_manifest_leaves_neither_file(self, tmp_path, capsys):
        # without the rollback, h.csv stays behind under a message that names it
        (tmp_path / "h.csv.manifest.json").mkdir()
        code = run(["--preset", "generic", *FAST, "--output-dir", tmp_path, "heat", "--s", "0.1", "--output", "h.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'h.csv.manifest.json'}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["h.csv.manifest.json"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
    def test_outputs_follow_the_umask(self, tmp_path, umask, mode):
        # a temporary file from mkstemp has mode 0600 whatever the umask
        saved = os.umask(umask)
        try:
            assert run(["--preset", "generic", *FAST, "--output-dir", tmp_path, "heat", "--s", "0.1", "--output", "h.csv"]) == 0
        finally:
            os.umask(saved)
        for name in ("h.csv", "h.csv.manifest.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


class TestReports:
    def test_hormander_w(self, capsys):
        assert run(["--preset", "generic", "report", "hormander-w"]) == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        slope_w = float(rows[1].split(",")[0])
        assert abs(slope_w - (-1.2)) < 0.1

    def test_gangolli(self, capsys):
        assert run(["--preset", "generic", "report", "gangolli", "--kmax", "32"]) == 0

    def test_c_asymptotics(self, capsys):
        assert run(["--preset", "generic", "report", "c-asymptotics", "--lmax", "100"]) == 0
        out = capsys.readouterr().out
        assert "d_ratio" in out

    @pytest.mark.parametrize("lmax", ["inf", "nan", "1", "2"])
    def test_c_asymptotics_lmax_outside_its_range_is_named(self, capsys, lmax):
        # inf warned in np.geomspace, and every bad --lmax was blamed on lambda_list
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--preset", "generic", "report", "c-asymptotics", "--lmax", lmax]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --lmax must be a finite number above 2") and "lambda_list" not in err

    def test_expansion_errors_to_file(self, tmp_path, capsys):
        base = ["--preset", "generic", "--output-dir", str(tmp_path)]
        assert run(base + ["report", "expansion-errors", "--output", "e.csv"]) == 0
        assert (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize(
        "kind, ignored, read",
        [("gangolli", ["--lmax", "100"], ["--kmax", "40"]),
         ("hormander-w", ["--lmax", "100"], None),
         ("expansion-errors", ["--kmax", "40"], None),
         ("c-asymptotics", ["--kmax", "40"], ["--lmax", "100"])],
    )
    def test_hash_covers_only_the_flags_the_kind_reads(self, capsys, kind, ignored, read):
        # a flag a report ignores changes none of its bytes; one it reads moves its hash
        assert run(["--preset", "generic", "report", kind]) == 0
        default = capsys.readouterr().out
        assert run(["--preset", "generic", "report", kind, *ignored]) == 0
        assert capsys.readouterr().out == default
        if read:
            assert run(["--preset", "generic", "report", kind, *read]) == 0
            assert capsys.readouterr().out.splitlines()[0] != default.splitlines()[0]

    def test_gangolli_kmax_below_16_exit_2(self, capsys):
        # k_max 4 was clamped to 16 with no message, under a header that hashed 4
        assert run(["--preset", "generic", "report", "gangolli", "--kmax", "4"]) == 2
        assert "k_max >= 16" in capsys.readouterr().err

    def test_gangolli_kmax_past_800_exit_2(self, capsys):
        # a huge k_max ended in numpy's "Maximum allowed size exceeded" traceback
        assert run(["--preset", "generic", "report", "gangolli", "--kmax", str(10**21)]) == 2
        assert "k_max <= 800" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, inputs",
        [(["report", "gangolli", "--kmax", "24"], {"kind": "gangolli", "kmax": 24}),
         ([*FAST, "probe-theorem", "--trials", "2"], {"family": None, "p": 2.0, "trials": 2})],
        ids=["report", "probe-theorem"],
    )
    def test_output_file_has_manifest(self, tmp_path, capsys, command, inputs):
        assert run(["--preset", "generic", "--output-dir", tmp_path, *command, "--output", "o.csv"]) == 0
        manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
        header = (tmp_path / "o.csv").read_text().splitlines()[0]
        assert header.endswith("config-hash " + manifest.pop("config_hash"))
        assert manifest.pop("command") in command
        assert manifest.pop("version") in header
        assert manifest == inputs


class TestProbeTheorem:
    def test_manifest_family(self, tmp_path, capsys):
        manifest = {
            "members": [
                {
                    "label": "gauss",
                    "expression": "exp(-0.1*lam**2)",
                    "decay_class": "rapidly-decreasing",
                }
            ]
        }
        (tmp_path / "family.json").write_text(json.dumps(manifest))
        code = run(
            ["--preset", "generic", *FAST, "probe-theorem", "--family", tmp_path / "family.json",
             "--p", "2", "--trials", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict" in out

    def test_bad_manifest_exit_2(self, tmp_path, capsys):
        gauss = {"label": "g", "expression": "exp(-0.1*lam**2)", "decay_class": "rapidly-decreasing"}
        cases = [
            ("not json", "bad manifest"),
            (json.dumps([gauss]), "manifest must be a JSON object with a non-empty 'members' list"),
            (json.dumps({"members": [gauss, gauss]}), "manifest member labels must be distinct"),
        ]
        for text, message in cases:
            (tmp_path / "bad.json").write_text(text)
            code = run(["--preset", "generic", *FAST, "--output-dir", tmp_path / "out", "probe-theorem",
                        "--family", tmp_path / "bad.json", "--trials", "2", "--output", "probe.csv"])
            assert code == 2, text
            assert capsys.readouterr().err.startswith(f"error: {message}"), text
            assert not (tmp_path / "out").exists(), text

    def test_disallowed_expression_exit_2(self, tmp_path, capsys):
        manifest = {
            "members": [
                {"label": "evil", "expression": "__import__('os')", "decay_class": "bounded"}
            ]
        }
        (tmp_path / "evil.json").write_text(json.dumps(manifest))
        assert run(
            ["--preset", "generic", "probe-theorem", "--family", tmp_path / "evil.json"]
        ) == 2

    @pytest.mark.parametrize(
        "member, message",
        [({"expression": "exp(-lam**2)", "decay_class": "bounded"}, "manifest member missing 'label'"),
         ({"label": "cut", "expression": "exp(-lam**", "decay_class": "bounded"}, "bad expression 'exp(-lam**'"),
         ("gauss", "manifest member 'gauss' is not an object"),
         (5, "manifest member 5 is not an object"),
         ({"label": "five", "expression": 5, "decay_class": "bounded"},
          "manifest member 'five': label and expression must be strings"),
         ({"label": ["x"], "expression": "exp(-lam**2)", "decay_class": "bounded"},
          "manifest member ['x']: label and expression must be strings"),
         ({"label": "g", "expression": "exp(1,2,3)", "decay_class": "bounded"},
          "manifest member 'g': expression 'exp(1,2,3)' fails:"),
         ({"label": "g", "expression": '"abc"', "decay_class": "bounded"},
          "manifest member 'g': expression '\"abc\"' fails: its value is <U3, not numbers"),
         ({"label": "g", "expression": "exp", "decay_class": "bounded"},
          "manifest member 'g': expression 'exp' fails: its value is object, not numbers"),
         ({"label": "g", "expression": "exp(-lam[:3]**2)", "decay_class": "bounded"},
          "manifest member 'g': expression 'exp(-lam[:3]**2)' fails: operands could not be broadcast")],
        ids=["no-label", "syntax-error", "string-member", "number-member", "number-expression", "list-label",
             "bad-call", "string-value", "function-value", "shape-of-three"],
    )
    def test_bad_member_exit_2(self, tmp_path, capsys, member, message):
        (tmp_path / "family.json").write_text(json.dumps({"members": [member]}))
        code = run(["--preset", "generic", *FAST, "--output-dir", tmp_path / "out", "probe-theorem",
                    "--family", tmp_path / "family.json", "--trials", "2", "--output", "probe.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_missing_members_exit_2(self, tmp_path, capsys):
        (tmp_path / "m.json").write_text("{}")
        assert run(
            ["--preset", "generic", "probe-theorem", "--family", tmp_path / "m.json"]
        ) == 2

    def test_odd_member_flagged_and_p_below_2_read_at_its_dual(self, tmp_path, capsys):
        # the odd member is flagged out; the other's ratio at p = 1.5 is that of
        # the experiment at p' = 3 on the coarse grids, and no duality line is printed
        members = [
            {"label": "odd", "expression": "exp(-0.1*lam**2)*(1 + 0.1*lam)",
             "decay_class": "rapidly-decreasing"},
            {"label": "gauss", "expression": "exp(-0.1*lam**2)", "decay_class": "rapidly-decreasing"},
        ]
        (tmp_path / "family.json").write_text(json.dumps({"members": members}))
        code = run(
            ["--preset", "generic", *FAST, "--output-dir", tmp_path, "probe-theorem",
             "--family", tmp_path / "family.json", "--p", "1.5", "--trials", "2",
             "--output", "probe.csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        with open(tmp_path / "probe.csv") as fh:
            rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))[1:]
        assert rows[0] == ["probe", "odd", "1.5", "", "", "", "not-even"]
        assert rows[1][1] == "gauss" and rows[1][6].startswith("drift=")
        assert "duality" not in out

        params = JacobiParameters(1.2, 0.3)
        family = [_member_from_manifest(e, params) for e in members]
        coarse = default_grids(params, 12.0, 80, 25.0, 80)
        at_p = theorem_ratio_experiment(params, family, 1.5, grids=coarse, trials=2)
        at_dual = theorem_ratio_experiment(params, family, 3.0, grids=coarse, trials=2)
        ratio = at_p["rows"][1]["ratio"]
        assert ratio == at_dual["rows"][1]["ratio"]
        assert float(rows[1][5]) == float(f"{ratio:.15g}")
        assert math.isnan(at_p["rows"][0]["ratio"])
        assert out == f"verdict: max ratio {ratio:.6g} (stable)\n"

    def test_coarse_radial_grid_unstable_exit_4(self, capsys):
        code = run(
            ["--preset", "generic", "--t-max", "12", "--radial-panels", "30", "--lam-max", "25",
             "--spectral-panels", "12", "probe-theorem", "--p", "2", "--trials", "2"]
        )
        assert code == 4
        assert "(UNSTABLE)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "grid, stable",
        [(FAST, True), (["--t-max", "12", "--radial-panels", "30", "--lam-max", "25", "--spectral-panels", "12"], False)],
        ids=["fast", "coarse-radial"],
    )
    def test_exit_code_is_the_stable_flag(self, capsys, grid, stable):
        params = JacobiParameters(1.2, 0.3)
        t_max, n_r, lam_max, n_s = (float(v) for v in grid[1::2])
        res = probe_theorem(params, standard_multiplier_family(params), 2.0,
                            default_grids(params, t_max, int(n_r), lam_max, int(n_s)), seed=0, trials=2)
        assert res["stable"] is stable
        assert (run(["--preset", "generic", *grid, "probe-theorem", "--trials", "2"]) == 0) is stable
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("probe,")]
        assert [ln.split(",")[6] for ln in lines] == [f"drift={row['drift']:.3g}" for row in res["rows"]]

    def test_unindexable_trials_exit_2_without_output(self, tmp_path, capsys):
        code = run(["--preset", "generic", *FAST, "--output-dir", tmp_path, "probe-theorem",
                    "--trials", 10**21, "--output", "probe.csv"])
        assert code == 2
        assert "trials must be at most" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_p_infinity_exit_2_without_output(self, tmp_path, capsys):
        code = run(["--preset", "generic", *FAST, "--output-dir", tmp_path, "probe-theorem", "--p", "inf",
                    "--trials", "2", "--output", "probe.csv"])
        assert code == 2
        captured = capsys.readouterr()
        assert "p must lie in (1, inf)" in captured.err and "verdict" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_member_without_trace_is_flagged(self, tmp_path, capsys):
        # omega m = 1/(lam^2 + rho^2) has poles on the edge of the strip, at +-i rho
        members = [
            {"label": "pole", "expression": "1/(lam**2 + rho**2)", "decay_class": "bounded"},
            {"label": "gauss", "expression": "exp(-0.1*lam**2)", "decay_class": "rapidly-decreasing"},
        ]
        (tmp_path / "family.json").write_text(json.dumps({"members": members}))
        code = run(
            ["--preset", "generic", *FAST, "probe-theorem", "--family", tmp_path / "family.json",
             "--p", "2", "--trials", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "probe,pole,2,,,,no-boundary-trace" in lines
        gauss = next(ln for ln in lines if ln.startswith("probe,gauss,"))
        assert float(gauss.split(",")[5]) > 0.0

    @pytest.mark.parametrize(
        "expression, lam_max, code, found",
        [("1/(lam**2 - (32 + 1j*(rho-0.001))**2)", "25", 0, "probe,extra,2,,,,no-boundary-trace"),
         ("1/(lam**2 - 35.0**2)", "25", 0, "probe,extra,2,,,,unbounded-on-strip"),
         ("exp(0.3*lam**2)", "50", 2, "error: multiplier 'extra' is not finite at the spectral node lambda = ")],
        ids=["pole-on-a-trace-rung", "real-pole-past-the-lattice", "overflow-on-the-spectral-nodes"],
    )
    def test_member_not_finite_somewhere_is_flagged_or_named(self, tmp_path, capsys, expression, lam_max, code, found):
        # none of the three may leak a NaN into a row, or a warning; warnings
        # are recorded, since as errors the manifest would turn them into a failing member
        members = [
            {"label": "gauss", "expression": "exp(-0.1*lam**2)", "decay_class": "rapidly-decreasing"},
            {"label": "extra", "expression": expression, "decay_class": "bounded"},
        ]
        (tmp_path / "family.json").write_text(json.dumps({"members": members}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["--preset", "generic", "--t-max", "12", "--radial-panels", "80", "--lam-max", lam_max,
                        "--spectral-panels", "80", "probe-theorem", "--family", tmp_path / "family.json",
                        "--p", "2", "--trials", "2"]) == code
        assert caught == []
        captured = capsys.readouterr()
        assert any(ln.startswith(found) for ln in (captured.err if code else captured.out).splitlines())


class TestGridFlags:
    @pytest.mark.parametrize(
        "flag, value, name",
        [("--radial-panels", "0", "n_panels"), ("--spectral-panels", "0", "n_panels"),
         ("--radial-panels", "-3", "n_panels"), ("--lam-max", "0", "lam_max"),
         ("--lam-max", "-5", "lam_max"), ("--t-max", "inf", "t_max"),
         # past the largest count numpy can index: refused before numpy is asked to allocate
         ("--radial-panels", str(10**21), "n_panels"), ("--spectral-panels", str(10**21), "n_panels")],
    )
    @pytest.mark.parametrize("command", [["probe-theorem", "--trials", "2"], ["heat", "--s", "0.1"]])
    def test_bad_grid_shape_exit_2_without_output(self, tmp_path, capsys, flag, value, name, command):
        grid = dict(zip(FAST[::2], FAST[1::2]), **{flag: value})
        grid_flags = [x for pair in grid.items() for x in pair]
        code = run(["--preset", "generic", *grid_flags, "--output-dir", tmp_path, *command, "--output", "out.csv"])
        assert code == 2
        assert name in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
