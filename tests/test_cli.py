"""Command-line interface: experiments, outputs, exit codes."""

import json

import pytest

from curvex.cli import main


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

    def test_expand_flat(self, tmp_path):
        cfg = _write(tmp_path, "c.ini", EXPAND_FLAT)
        code = main(
            ["expand_L", "--config", cfg, "--out", str(tmp_path),
             "--no-timestamp"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "expand_L.json").read_text())
        assert abs(doc["result"]["fitted"]["c1"]) < 1e-5
        assert doc["result"]["meta"]["normal_chart"] == "flat"
        lines = (tmp_path / "expand_L.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "t"
        assert len(lines) == 7  # header + 6 time points

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

    def test_unknown_experiment_rejected(self, tmp_path):
        cfg = _write(tmp_path, "c.ini", ISO_CFG)
        with pytest.raises(SystemExit):
            main(["not_an_experiment", "--config", cfg])
