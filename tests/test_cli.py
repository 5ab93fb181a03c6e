"""Command-line interface: experiments, outputs, exit codes."""

import json

import pytest

from curvex.cli import main
from curvex.mu_solver import rm_bound_from_mu
from oracles import recorded


def _write(tmp_path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


ISO_CFG = """
[experiment]
n = 3
K = 1.0
betas = 0.5 1.0
"""

RIG_FLAT_VS_SPHERE = """
[chart]
kind = flat
n = 3
halfwidth = 2.0

[experiment]
K = 1.0
expect = hypothesis_violated
"""

MOMENTS_CFG = """
[experiment]
n = 3
t = 0.05
trials = 5
"""

EXPAND_FLAT = """
[chart]
kind = flat
n = 3
halfwidth = 2.0

[experiment]
r_s = 1.0
t_points = 6
c1_atol = 1e-5
c2_atol = 1e-3

[quadrature]
rule = radial_sphere
order = 16
"""

VOLUME_SPHERE_LINE = """
[chart]
kind = product_sphere_line
n = 3
K = 1.0

[experiment]
chart_radius = 0.9

[quadrature]
order = 16
"""


EXPAND_SPHERE_LINE = """
[chart]
kind = product_sphere_line
n = 3
K = 1.0

[experiment]
r_s = 0.9

[quadrature]
rule = radial_sphere
order = 16
"""

EXPAND_S3_ZERO = """
[chart]
kind = space_form
n = 3
K = 1.0
halfwidth = 1.75

[experiment]
r_s = 1.7
mode = zero

[quadrature]
rule = radial_sphere
order = 16
"""


SYM_CFG = """
[chart]
kind = flat
n = 3
halfwidth = 2.0

[experiment]
a = 0.3 -0.1 0.05
levels = 512
order = 16
"""

MU_GAMMA_CFG = """
[experiment]
n = 3
K = 1.0
R = 1.0
ts = 0.01 0.02
gamma = 0.1
"""


class TestRuns:
    def test_isoprofile(self, tmp_path):
        cfg = _write(tmp_path, "c.ini", ISO_CFG)
        code = main(
            ["isoprofile", "--config", cfg, "--out", str(tmp_path),
             "--no-timestamp"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "isoprofile.json").read_text())
        assert doc["experiment"] == "isoprofile"
        assert doc["version"]
        assert "timestamp" not in doc
        assert len(doc["result"]["profile"]) == 2
        csv_text = (tmp_path / "isoprofile.csv").read_text()
        assert csv_text.startswith("volume,radius,area")

    def test_rigidity_expectation(self, tmp_path):
        cfg = _write(tmp_path, "c.ini", RIG_FLAT_VS_SPHERE)
        code = main(
            ["rigidity", "--config", cfg, "--out", str(tmp_path),
             "--no-timestamp"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "rigidity.json").read_text())
        assert doc["result"]["verdict"] == "hypothesis_violated"
        assert abs(doc["result"]["scalar_margin"] + 6.0) < 1e-6

    def test_moments_selftest(self, tmp_path):
        cfg = _write(tmp_path, "c.ini", MOMENTS_CFG)
        code = main(
            ["moments_selftest", "--config", cfg, "--out", str(tmp_path),
             "--no-timestamp"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "moments_selftest.json").read_text())
        assert doc["result"]["worst_relative_error"] < 1e-10

    def test_moments_selftest_quadrature_rule(self, tmp_path, monkeypatch):
        """[quadrature] rule = radial_sphere runs the radial-spherical rule
        at n = 3, where the default would be the Hermite grid."""
        import curvex.functionals as F

        calls = recorded(monkeypatch, F, "_nodes")
        cfg = _write(tmp_path, "c.ini", MOMENTS_CFG
                     + "\n[quadrature]\nrule = radial_sphere\norder = 24\n")
        code = main(
            ["moments_selftest", "--config", cfg, "--out", str(tmp_path),
             "--no-timestamp"]
        )
        assert code == 0
        assert {args[0] for args, _, _ in calls} == {"radial_sphere"}
        doc = json.loads((tmp_path / "moments_selftest.json").read_text())
        assert doc["result"]["worst_relative_error"] < 1e-10

    def test_moments_selftest_n5(self, tmp_path):
        """At n = 5 the moments run on the radial-spherical product rule."""
        cfg = _write(tmp_path, "c.ini", MOMENTS_CFG.replace("n = 3", "n = 5")
                     .replace("trials = 5", "trials = 2"))
        code = main(
            ["moments_selftest", "--config", cfg, "--out", str(tmp_path),
             "--no-timestamp"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "moments_selftest.json").read_text())
        assert doc["result"]["n"] == 5 and doc["result"]["tolerance"] == 1e-10
        assert doc["result"]["worst_relative_error"] < 1e-10

    def test_expand_flat(self, tmp_path):
        cfg = _write(tmp_path, "c.ini", EXPAND_FLAT)
        code = main(
            ["expand_L", "--config", cfg, "--out", str(tmp_path),
             "--no-timestamp"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "expand_L.json").read_text())
        assert abs(doc["result"]["fitted"]["c1"]) < 1e-5
        assert doc["result"]["meta"]["normal_chart"] == "warped"
        assert "nfev" not in doc["result"]["meta"]
        # a = Rc/3 = 0 is isotropic on the warped flat chart: one ray
        assert doc["result"]["meta"]["rule"] == "radial_sphere"
        assert doc["result"]["meta"]["fold"] == [[0, 1, 2]]
        assert doc["result"]["meta"]["rays"] == 1
        # the default grid's first kink lies past 6 at every t: the
        # Laguerre radii, 12 at order 16, one kernel pass per order
        assert doc["result"]["meta"]["radial_rule"] == "laguerre"
        assert doc["result"]["meta"]["radial_m"] == 12
        assert doc["result"]["meta"]["batches"] == 2
        lines = (tmp_path / "expand_L.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "t"
        assert len(lines) == 7  # header + 6 time points

    def test_expand_zero_profile_passes(self, tmp_path):
        """a = 0 on S^3: the fit and the prediction are both those of the
        mass-normalized deficit, c2 = -(|Rm|^2/6 - 4 |Rc/3|^2) = 10/3."""
        cfg = _write(tmp_path, "c.ini", EXPAND_S3_ZERO)
        assert main(["expand_L", "--config", cfg, "--out", str(tmp_path),
                     "--no-timestamp"]) == 0
        res = json.loads((tmp_path / "expand_L.json").read_text())["result"]
        assert res["pass"] is True
        assert res["predicted"]["c2"] == pytest.approx(10.0 / 3.0, rel=1e-14)

    def test_expand_records_the_block_fold(self, tmp_path):
        """S^2 x R folds onto the orbit rule of its blocks {0, 1}, {2}:
        meta["fold"] lists them, and reruns write the same bytes."""
        cfg = _write(tmp_path, "c.ini", EXPAND_SPHERE_LINE)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["expand_L", "--config", cfg, "--out", str(d),
                         "--no-timestamp"]) == 0
        raw = (d1 / "expand_L.json").read_bytes()
        assert raw == (d2 / "expand_L.json").read_bytes()
        meta = json.loads(raw)["result"]["meta"]
        assert meta["fold"] == [[0, 1], [2]] and meta["rays"] == 8

    def test_volume_on_ode_chart(self, tmp_path):
        """The S^2 x R chart has no closed-form normal chart: volume shoots
        it along the [quadrature] rule and fits r2 and r4 within their
        default 1 % and 5 % of the curvature prediction."""
        cfg = _write(tmp_path, "c.ini", VOLUME_SPHERE_LINE)
        code = main(
            ["volume", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]
        )
        assert code == 0
        res = json.loads((tmp_path / "volume.json").read_text())["result"]
        assert res["pass"] is True
        assert res["predicted"]["r2"] == pytest.approx(-2.0 / 30.0)  # -Sc/6(n+2)

    @pytest.mark.parametrize("n", [2, 4])
    def test_symmetrize_default_a_fits_n(self, tmp_path, n):
        """Without an `a` key, a = 0 in the chart's own dimension: u is
        radial, so the sweep and the original side run on one ray."""
        text = SYM_CFG.replace("n = 3", f"n = {n}").replace("a = 0.3 -0.1 0.05\n", "")
        cfg = _write(tmp_path, "c.ini", text)
        code = main(
            ["symmetrize", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]
        )
        assert code == 0
        meta = json.loads((tmp_path / "symmetrize.json").read_text())["result"]["meta"]
        assert meta["fold"] == [list(range(n))] and meta["rays"] == 1

    def test_mu_small(self, tmp_path):
        cfg = _write(
            tmp_path, "c.ini",
            "[experiment]\nn = 3\nK = 0.0\nR = 1.0\nts = 0.0025 0.00125\n",
        )
        code = main(
            ["mu", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "mu.json").read_text())
        assert doc["result"]["all_converged"] is True

    @pytest.mark.parametrize("q_line", ["", "Q = 3.5\n"], ids=["envelope", "Q"])
    def test_mu_rm_bound(self, tmp_path, q_line):
        """gamma reports MuBoundReport.rm_bound: Q when given, else the
        envelope of -mu/t^2 (positive on the unit 3-sphere at these t)."""
        cfg = _write(tmp_path, "c.ini", MU_GAMMA_CFG + q_line)
        main(["mu", "--config", cfg, "--out", str(tmp_path), "--no-timestamp"])
        res = json.loads((tmp_path / "mu.json").read_text())["result"]
        Q = res.get("Q", res["q_envelope"])
        assert Q > 0 and res["gamma"] == 0.1
        assert res["rm_bound"] == rm_bound_from_mu(Q, 0.1)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(tmp_path, "c.ini", ISO_CFG)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(
                ["isoprofile", "--config", cfg, "--out", str(d),
                 "--no-timestamp"]
            ) == 0
        assert (d1 / "isoprofile.json").read_bytes() == (
            d2 / "isoprofile.json"
        ).read_bytes()
        assert (d1 / "isoprofile.csv").read_bytes() == (
            d2 / "isoprofile.csv"
        ).read_bytes()

    def test_symmetrize_reruns_carry_meta(self, tmp_path):
        cfg = _write(tmp_path, "c.ini", SYM_CFG)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(
                ["symmetrize", "--config", cfg, "--out", str(d),
                 "--no-timestamp"]
            ) == 0
        raw = (d1 / "symmetrize.json").read_bytes()
        assert raw == (d2 / "symmetrize.json").read_bytes()
        meta = json.loads(raw)["result"]["meta"]
        # a diagonal a folds the order-16 S^2 rule onto the orthant: o/2
        # Legendre nodes u >= 0 times the o/2 + 1 azimuths 4k <= 2o
        o = 16
        assert meta["fold"] == [[0], [1], [2]]
        assert meta["rays"] == (o // 2) * (o // 2 + 1)
        # Newton evaluations of the last stage, from the Hermite starts
        # through the coarse roots (2 measured); the coarse stage starts
        # from the Gaussian crossing (5 measured)
        assert 2 <= meta["newton_steps"] <= 5
        assert 2 <= meta["coarse_newton_steps"] <= 5
        assert meta["crossing_residual"] <= 1e-13

    def test_timestamp_present_by_default(self, tmp_path):
        cfg = _write(tmp_path, "c.ini", ISO_CFG)
        assert main(["isoprofile", "--config", cfg, "--out",
                     str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "isoprofile.json").read_text())
        assert "timestamp" in doc

    def test_seed_recorded(self, tmp_path):
        cfg = _write(tmp_path, "c.ini", MOMENTS_CFG)
        assert main(
            ["moments_selftest", "--config", cfg, "--out", str(tmp_path),
             "--seed", "99", "--no-timestamp"]
        ) == 0
        doc = json.loads(
            (tmp_path / "moments_selftest.json").read_text()
        )
        assert doc["seed"] == 99


NO_EXPERIMENT = {
    "expand_L": EXPAND_FLAT, "expand_W": EXPAND_FLAT,
    "volume": VOLUME_SPHERE_LINE, "isoprofile": ISO_CFG, "symmetrize": SYM_CFG,
    "mu": MU_GAMMA_CFG, "rigidity": RIG_FLAT_VS_SPHERE,
    "moments_selftest": MOMENTS_CFG,
}


class TestSections:
    @pytest.mark.parametrize("experiment", sorted(NO_EXPERIMENT))
    def test_missing_experiment_section_runs_the_defaults(
            self, tmp_path, capsys, experiment):
        """Without [experiment] every experiment runs its defaults and
        ends in a result (exit 0 or 2), not in a KeyError (exit 1)."""
        text = NO_EXPERIMENT[experiment]
        head, _, tail = text.partition("[experiment]\n")
        tail = tail.partition("\n\n")[2]  # drop the section's keys
        assert "[experiment]" not in head + tail
        cfg = _write(tmp_path, "c.ini", head + tail)
        code = main([experiment, "--config", cfg, "--out", str(tmp_path),
                     "--no-timestamp"])
        assert code in (0, 2), capsys.readouterr().err
        doc = json.loads((tmp_path / f"{experiment}.json").read_text())
        assert "experiment" not in doc["config"]

    def test_output_dir_from_the_config(self, tmp_path, monkeypatch):
        """Without --out the [output] dir receives the files."""
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, "c.ini", ISO_CFG + "\n[output]\ndir = res\n")
        assert main(["isoprofile", "--config", cfg, "--no-timestamp"]) == 0
        assert (tmp_path / "res" / "isoprofile.json").exists()


class TestExitCodes:
    def test_tolerance_failure_is_2(self, tmp_path):
        text = RIG_FLAT_VS_SPHERE.replace(
            "expect = hypothesis_violated",
            "expect = consistent_with_rigidity",
        )
        cfg = _write(tmp_path, "c.ini", text)
        code = main(
            ["rigidity", "--config", cfg, "--out", str(tmp_path),
             "--no-timestamp"]
        )
        assert code == 2

    def test_missing_config_is_1(self, tmp_path):
        code = main(
            ["isoprofile", "--config", str(tmp_path / "nope.ini")]
        )
        assert code == 1

    def test_bad_profile_is_1(self, tmp_path):
        cfg = _write(
            tmp_path, "c.ini",
            "[chart]\nkind = conformal_flat\nn = 3\neps = 0.05\n"
            "profile = not_a_profile\n\n[experiment]\nK = 0.0\n",
        )
        assert main(["rigidity", "--config", cfg, "--out",
                     str(tmp_path)]) == 1

    @pytest.mark.parametrize("line", ["ordr = 12", "seed = 3"],
                             ids=["misspelt_order", "removed_seed"])
    def test_unknown_quadrature_key_is_1(self, tmp_path, capsys, line):
        """A [quadrature] key other than rule, order and c_trunc is an error,
        not a silent run at the defaults."""
        cfg = _write(tmp_path, "c.ini", MOMENTS_CFG + f"\n[quadrature]\n{line}\n")
        code = main(["moments_selftest", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "moments_selftest.json").exists()

    @pytest.mark.parametrize("experiment,text,section,line", [
        ("expand_L", EXPAND_FLAT, "experiment", "alpha = 0.5"),
        ("expand_W", EXPAND_FLAT, "experiment", "alpha = 0.5"),
        ("expand_L", EXPAND_FLAT, "chart", "modee = zero"),
        ("volume", VOLUME_SPHERE_LINE, "experiment", "pionts = 8"),
        ("isoprofile", ISO_CFG, "experiment", "beta = 0.5"),
        ("symmetrize", SYM_CFG, "experiment", "level = 64"),
        ("symmetrize", SYM_CFG, "experiment", "alpha = 0.5"),
        ("mu", MU_GAMMA_CFG, "experiment", "gama = 0.1"),
        ("rigidity", RIG_FLAT_VS_SPHERE, "experiment", "n_points = 3"),
        ("moments_selftest", MOMENTS_CFG, "experiment", "trails = 2"),
    ], ids=["expand_L_alpha", "expand_W_alpha", "expand_L_chart", "volume",
            "isoprofile", "symmetrize", "symmetrize_alpha", "mu", "rigidity",
            "moments_selftest"])
    def test_unknown_key_is_1(self, tmp_path, capsys, experiment, text,
                              section, line):
        """A key an experiment does not read, in [experiment] or [chart],
        is an error, not a silent run at the defaults; alpha is one, since
        a time shift alpha t of the profile is the profile matrix
        a/(1 + alpha t)."""
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        assert line in text
        cfg = _write(tmp_path, "c.ini", text)
        assert main([experiment, "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"unknown [{section}] keys ['{line.split()[0]}']" in err
        assert not (tmp_path / f"{experiment}.json").exists()

    @pytest.mark.parametrize("experiment,text,section", [
        ("isoprofile", ISO_CFG, "[chart]\nkind = bogus\nn = 9\n"),
        ("mu", MU_GAMMA_CFG, "[chart]\nkind = flat\n"),
        ("moments_selftest", MOMENTS_CFG, "[chart]\nn = 3\n"),
        ("symmetrize", SYM_CFG, "[quadrature]\norder = 8\n"),
        ("rigidity", RIG_FLAT_VS_SPHERE, "[quadrature]\norder = 8\n"),
        ("expand_L", EXPAND_FLAT, "[experimnt]\nr_s = 0.5\n"),
    ], ids=["isoprofile_chart", "mu_chart", "moments_selftest_chart",
            "symmetrize_quadrature", "rigidity_quadrature", "misspelt"])
    def test_unread_section_is_1(self, tmp_path, capsys, experiment, text,
                                 section):
        """A section the experiment does not read is an error, not a
        silent run that ignores it."""
        cfg = _write(tmp_path, "c.ini", text + "\n" + section)
        assert main([experiment, "--config", cfg, "--out", str(tmp_path)]) == 1
        name = section.split("]")[0][1:]
        assert (f"unknown sections of {experiment} ['{name}']"
                in capsys.readouterr().err)
        assert not (tmp_path / f"{experiment}.json").exists()

    @pytest.mark.parametrize("out", [False, True], ids=["config", "flag"])
    def test_unknown_output_key_is_1(self, tmp_path, capsys, monkeypatch,
                                     out):
        """[output] holds dir alone, also when --out overrides it."""
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, "c.ini",
                     ISO_CFG + f"\n[output]\ndri = {tmp_path / 'x'}\n")
        argv = ["isoprofile", "--config", cfg]
        assert main(argv + (["--out", str(tmp_path)] if out else [])) == 1
        assert "unknown [output] keys ['dri']" in capsys.readouterr().err
        assert not (tmp_path / "isoprofile.json").exists()

    def test_gamma_out_of_range_is_1(self, tmp_path):
        """|Rm|^2 <= Q / (1/6 - gamma) degenerates from gamma = 1/6 on."""
        cfg = _write(tmp_path, "c.ini",
                     MU_GAMMA_CFG.replace("gamma = 0.1", "gamma = 0.2"))
        assert main(["mu", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "mu.json").exists()

    def test_unknown_experiment_rejected(self, tmp_path):
        cfg = _write(tmp_path, "c.ini", ISO_CFG)
        with pytest.raises(SystemExit):
            main(["not_an_experiment", "--config", cfg])
