import csv
import io
import json
import math
import re
import time

import numpy as np
import pytest

from mpdesign import design
from mpdesign.cli import main
from mpdesign.config import ConfigError, load_config, parse_config
from mpdesign.design import SWEEP_AXES, optimize_design, performance_curve, sensitivity_sweep
from mpdesign.replicate import FIGURE_IDS, replicate
from conftest import CliRunner

BASE_DOC = {
    "abundance_prior": {"shape": 3, "mode": 200},
    "composition_prior": {"classes": 10, "symmetric_gamma": 1.0},
    "cost": {
        "quadrant_area": 0.0625,
        "budget_quadrant_equivalents": 12,
        "count_ratio": 5e-5,
        "categorize_ratio": 3e-3,
    },
    "mc": {"draws": 20000, "seed": 42},
}

CAMPAIGN = """# schema_version: 1
quadrant_id,suspected_count
1,5
2,4
3,6
4,5
5,5
class_name,categorized_count
PE,13
PP,8
PS,3
PA,1
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_DOC))
    return str(path)


def option_choices(command, option):
    """The choices of a command's option, as the usage error for a value
    outside them lists them."""
    result = CliRunner().invoke(main, [command, f"--{option}", "?"])
    assert result.exit_code == 2
    listed = result.output.split(" is not one of ", 1)[1].splitlines()[0]
    return tuple(re.findall(r"'([^']*)'", listed))


def cell_text(value):
    """A CSV cell as the program writes it: a float by its repr, else by str."""
    return repr(value) if isinstance(value, float) else str(value)


def write_config(tmp_path, mutate):
    doc = json.loads(json.dumps(BASE_DOC))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigParsing:
    def test_mode_conversion(self):
        cfg = parse_config(BASE_DOC)
        assert cfg.design.abundance_prior.rate == 0.01

    def test_rate_form(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["abundance_prior"] = {"shape": 3, "rate": 0.0025}
        assert parse_config(doc).design.abundance_prior.rate == 0.0025

    def test_unknown_key_named(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["cost"]["curency"] = 1
        with pytest.raises(ConfigError, match="curency"):
            parse_config(doc)

    def test_rate_and_mode_conflict(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["abundance_prior"] = {"shape": 3, "rate": 0.01, "mode": 200}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(doc)

    def test_mode_requires_shape_above_one(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["abundance_prior"] = {"shape": 1, "mode": 200}
        with pytest.raises(ConfigError, match="shape > 1"):
            parse_config(doc)

    def test_gamma_vector_form(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["composition_prior"] = {"gamma": [2.0, 1.0, 0.5]}
        cfg = parse_config(doc)
        assert cfg.design.composition_prior.concentration == (2.0, 1.0, 0.5)
        assert cfg.class_names == ("class1", "class2", "class3")

    def test_default_class_names_for_ten(self):
        assert parse_config(BASE_DOC).class_names[0] == "PE"

    def test_nonfinite_rejected(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["cost"]["categorize_ratio"] = "high"
        with pytest.raises(ConfigError, match="categorize_ratio"):
            parse_config(doc)


class TestLegacyMcSection:
    """``mc`` (a Monte Carlo draw count and seed) is checked, then dropped."""

    def test_ignored(self):
        doc = json.loads(json.dumps(BASE_DOC))
        del doc["mc"]
        assert parse_config(doc) == parse_config(BASE_DOC)

    def test_draw_floor(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["mc"]["draws"] = 1000
        assert parse_config(doc) == parse_config(BASE_DOC)
        doc["mc"]["draws"] = 999
        with pytest.raises(ConfigError, match=r"^mc\.draws "):
            parse_config(doc)

    def test_seed_range_and_empty_section_accepted(self):
        doc = json.loads(json.dumps(BASE_DOC))
        for mc in ({"seed": 0}, {"seed": 2**64 - 1}, {}):
            doc["mc"] = mc
            assert parse_config(doc) == parse_config(BASE_DOC)

    @pytest.mark.parametrize(
        "key, value",
        [("draws", 500), ("draws", "many"), ("draws", True), ("draws", 1e5),
         ("seed", -1), ("seed", 2**64), ("seed", True), ("seed", "x")],
    )
    def test_bad_value_named(self, key, value):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["mc"][key] = value
        with pytest.raises(ConfigError, match=rf"^mc\.{key} "):
            parse_config(doc)

    def test_unknown_key_named(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["mc"]["sampler"] = "sobol"
        with pytest.raises(ConfigError, match="'sampler' in section 'mc'"):
            parse_config(doc)

    def test_bad_value_named_by_the_cli(self, runner, tmp_path):
        path = write_config(tmp_path, lambda d: d["mc"].update(draws=500))
        result = runner.invoke(main, ["--config", path, "design"])
        assert result.exit_code == 1
        assert "mc.draws" in result.output

    @pytest.mark.parametrize("option", [("--seed", "1"), ("--draws", "5000")])
    def test_removed_options_rejected(self, runner, config_path, option):
        result = runner.invoke(main, ["--config", config_path, *option, "design"])
        assert result.exit_code == 2
        assert "No such option" in result.output and option[0] in result.output


def test_bare_command_prints_help(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2
    assert result.output == runner.invoke(main, ["--help"]).output


class TestParsing:
    """How the command line reads its arguments."""

    def test_option_prefix_refused(self, runner):
        result = runner.invoke(main, ["--conf", "x", "design"])
        assert result.exit_code == 2
        assert "Error: No such option '--conf'." in result.output

    def test_value_starting_with_a_dash_is_a_value(self, runner, config_path):
        # "-1,2" reaches the sweep, which refuses the budget -1 by name
        result = runner.invoke(
            main,
            ["--config", config_path, "sensitivity", "--axis", "budget", "--values", "-1,2"],
        )
        assert result.exit_code == 1
        assert result.output == (
            "Error: budget value -1.0: budget must be positive and finite, got -1.0\n"
        )

    def test_negative_infinity_is_a_value(self, runner, config_path):
        result = runner.invoke(
            main, ["--config", config_path, "curves", "--m", "7", "--lambda-max", "-inf"]
        )
        assert result.exit_code == 2
        assert "\nError: Invalid value for '--lambda-max': -inf is not a finite number >= 0\n" in (
            result.output
        )

    def test_equals_form(self, runner, config_path):
        joined = runner.invoke(main, ["--config", config_path, "--format=json", "design"])
        apart = runner.invoke(main, ["--config", config_path, "--format", "json", "design"])
        assert joined.exit_code == 0
        assert joined.output == apart.output
        assert json.loads(joined.output)["m_star"] == 7

    def test_not_standalone_returns(self, runner, config_path, capsys):
        # how the benchmark calls it in process: no SystemExit on success
        args = ["--config", config_path, "sensitivity", "--axis", "r2", "--values", "1,2"]
        assert main(args, standalone_mode=False) in (None, 0)
        assert capsys.readouterr().out == runner.invoke(main, args).stdout

    # the order of usage errors: every error of the walk (an unknown option
    # or command, an extra argument, a missing value, a value given to a
    # flag) before any converter's, the converters' in the order given, and
    # a required option left out last. An option's value "--" is text like
    # any other, which its converter names.
    @pytest.mark.parametrize(
        "args,usage,error",
        [
            (["--format", "xml", "design", "extra"], "Usage: mpdesign design [OPTIONS]",
             "Error: Got unexpected extra argument (extra)"),
            (["--format", "xml", "--bogus", "design"],
             "Usage: mpdesign [OPTIONS] COMMAND [ARGS]...", "Error: No such option '--bogus'."),
            (["curves", "--lambda-max", "x"], "Usage: mpdesign curves [OPTIONS]",
             "Error: Invalid value for '--lambda-max': 'x' is not a valid float."),
            (["curves", "--m", "3", "--m", "x"], "Usage: mpdesign curves [OPTIONS]",
             "Error: Invalid value for '--m': 'x' is not a valid integer."),
            (["design", "--help=1"], "Usage: mpdesign design [OPTIONS]",
             "Error: Option '--help' does not take a value."),
            (["sensitivity", "--axis", "r2"], "Usage: mpdesign sensitivity [OPTIONS]",
             "Error: the following arguments are required: --values"),
            (["curves", "--m", "3", "--lambda-max", "--"], "Usage: mpdesign curves [OPTIONS]",
             "Error: Invalid value for '--lambda-max': '--' is not a valid float."),
        ],
        ids=["extra-before-value", "unknown-before-value", "value-before-required",
             "each-repeat-converted", "flag-given-a-value", "required-last",
             "double-dash-is-a-value"],
    )
    def test_error_order(self, runner, args, usage, error):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        prog = usage.removeprefix("Usage: ").split(" [")[0]
        assert result.output == f"{usage}\nTry '{prog} --help' for help.\n\n{error}\n"


# each help's options with their metavars, in order: the command group's
# (under None), then each command's
HELP_OPTIONS = {
    None: ["--config PATH", "--format [csv|json]", "--out PATH", "--print-config", "--help"],
    "design": ["--help"],
    "curves": ["--m INTEGER", "--lambda-min FLOAT", "--lambda-max FLOAT",
               "--lambda-points INTEGER RANGE", "--help"],
    "posterior": ["--data PATH", "--hpd-mass FLOAT RANGE", "--density-grid",
                  "--grid-points INTEGER RANGE", "--help"],
    "sensitivity": ["--axis [r2|budget|prior-mode]", "--values TEXT", "--help"],
    "replicate": ["--figure [fig1|fig2|fig3|fig4|fig5|fig6|all]", "--out-dir PATH", "--help"],
}


@pytest.mark.parametrize("command", list(HELP_OPTIONS), ids=lambda c: c or "group")
def test_help_does_not_depend_on_the_terminal(runner, monkeypatch, command):
    args = ["--help"] if command is None else [command, "--help"]
    helps = set()
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        helps.add(result.output)
    assert len(helps) == 1
    (text,) = helps
    options = text.split("\nOptions:\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert [line[2:].split("  ")[0] for line in options] == HELP_OPTIONS[command]
    if command is None:
        commands = text.split("\nCommands:\n", 1)[1].splitlines()
        assert [line.split()[0] for line in commands] == [c for c in HELP_OPTIONS if c]


class TestPrintConfig:
    def test_round_trip(self, runner, config_path):
        out = runner.invoke(main, ["--config", config_path, "--print-config"])
        assert out.exit_code == 0
        printed = json.loads(out.output)
        assert "mc" not in printed  # the legacy section is dropped
        assert parse_config(printed) == parse_config(BASE_DOC)

    def test_canonical_json_bytes(self, runner, tmp_path):
        names = ["PE", "PP", "PET", "PS", "PA", "PVC", "PU", "AC", "Poliéster", "聚丙烯"]
        path = write_config(tmp_path, lambda d: d.update(class_names=names))
        out = runner.invoke(main, ["--config", path, "--print-config"])
        assert out.exit_code == 0
        doc = json.loads(out.output)
        assert doc["class_names"] == names
        assert out.output == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestDesignCommand:
    def test_baseline_summary(self, runner, config_path, tmp_path):
        out_file = tmp_path / "design.csv"
        result = runner.invoke(
            main, ["--config", config_path, "--out", str(out_file), "design"]
        )
        assert result.exit_code == 0, result.output
        text = out_file.read_text()
        assert "# m_star: 7" in text
        assert "m,area,L1_star,E_L2_star,E_L2_se,L_star,L_star_se" in text

    def test_q_policy_names_m_star(self, runner, config_path):
        result = runner.invoke(main, ["--config", config_path, "--format", "json", "design"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["m_star"] == 7
        assert doc["q_policy"] == (
            "after counting n particles over 7 quadrants, categorize "
            "n_bar = floor(n * q) with q = q(7*A, n) from the budget rule"
        )

    def test_rerun_byte_identical(self, runner, config_path, tmp_path):
        files = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert runner.invoke(
                main, ["--config", config_path, "--out", str(path), "design"]
            ).exit_code == 0
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_high_prior_config(self, runner, tmp_path):
        path = write_config(tmp_path, lambda d: d["abundance_prior"].update(mode=800))
        result = runner.invoke(main, ["--config", path, "--format", "json", "design"])
        assert result.exit_code == 0
        assert json.loads(result.output)["m_star"] == 4

    def test_infeasible_budget(self, runner, tmp_path):
        path = write_config(
            tmp_path, lambda d: d["cost"].update(budget_quadrant_equivalents=0.01)
        )
        result = runner.invoke(main, ["--config", path, "design"])
        assert result.exit_code != 0
        assert "feasible" in result.output

    def test_implausible_prior_named(self, runner, tmp_path):
        path = write_config(tmp_path, lambda d: d["abundance_prior"].update(mode=1e12))
        result = runner.invoke(main, ["--config", path, "design"])
        assert result.exit_code == 1
        assert "abundance_prior" in result.output

    def test_malformed_config_names_field(self, runner, tmp_path):
        path = write_config(tmp_path, lambda d: d["cost"].pop("count_ratio"))
        result = runner.invoke(main, ["--config", path, "design"])
        assert result.exit_code != 0
        assert "count_ratio" in result.output

    # 0 must not reach the division by budget * area, and 1e-320 and 1e308,
    # which put the derived budget_coefficient at inf or 0, must be reported
    # as the config field
    @pytest.mark.parametrize("area", [0, 1e-320, 1e308])
    @pytest.mark.parametrize("command", [["design"], ["curves", "--m", "1"]], ids=["design", "curves"])
    def test_bad_quadrant_area_named(self, runner, tmp_path, area, command):
        path = write_config(tmp_path, lambda d: d["cost"].update(quadrant_area=area))
        result = runner.invoke(main, ["--config", path, *command])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # an Error: line, not a traceback
        assert result.output.startswith("Error: cost: quadrant_area ")
        assert repr(float(area)) in result.output

    # 10 classes of 1e308 sum to inf, which would make every L* NaN (and
    # NumPy warn on the way); the total is rejected before any of that
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [["design"], ["curves", "--m", "1"]], ids=["design", "curves"])
    def test_overflowing_concentration_named(self, runner, tmp_path, command):
        path = write_config(
            tmp_path, lambda d: d["composition_prior"].update(symmetric_gamma=1e308)
        )
        result = runner.invoke(main, ["--config", path, *command])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            "Error: composition_prior: total concentration (the sum of the parameters) "
            "must be finite\n"
        )


class TestCurvesCommand:
    def test_reference_row(self, runner, config_path):
        result = runner.invoke(
            main,
            ["--config", config_path, "curves", "--m", "7",
             "--lambda-min", "382", "--lambda-max", "382", "--lambda-points", "2"],
        )
        assert result.exit_code == 0
        line = result.output.strip().splitlines()[-1]
        lam, n, q, n_bar, _ = line.split(",")
        assert (n, n_bar) == ("167", "101")
        assert float(q) == pytest.approx(0.6071, abs=1e-3)

    def test_zero_abundance(self, runner, config_path):
        result = runner.invoke(
            main,
            ["--config", config_path, "curves", "--m", "7",
             "--lambda-min", "0", "--lambda-max", "1", "--lambda-points", "2"],
        )
        first = result.output.strip().splitlines()[2]
        assert first.split(",") == ["0.0", "0", "1.0", "0", "1.0"]

    def test_m_out_of_range(self, runner, config_path):
        result = runner.invoke(main, ["--config", config_path, "curves", "--m", "40"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "args,option",
        [
            (["--lambda-max", "-5"], "--lambda-max"),
            (["--lambda-max", "nan"], "--lambda-max"),
            (["--lambda-min", "5"], "--lambda-min"),
            (["--lambda-min", "500", "--lambda-max", "100"], "--lambda-min"),
        ],
        ids=["negative-max", "nan-max", "min-without-max", "min-above-max"],
    )
    def test_bad_grid_rejected_by_name(self, runner, config_path, args, option):
        result = runner.invoke(main, ["--config", config_path, "curves", "--m", "7"] + args)
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)  # an Error: line, not a traceback
        assert f"'{option}'" in result.output


@pytest.mark.parametrize(
    "command,option",
    [(["curves", "--m", "7"], "--lambda-points"), (["posterior", "--density-grid"], "--grid-points")],
)
def test_point_count_bounded(runner, config_path, tmp_path, command, option):
    # a million points is the named upper end; one more is a usage error that
    # names the option, before any grid is built
    data = tmp_path / "campaign.csv"
    data.write_text(CAMPAIGN)
    args = command + (["--data", str(data)] if command[0] == "posterior" else [])
    result = runner.invoke(main, ["--config", config_path] + args + [option, "1000001"])
    assert result.exit_code == 2
    assert f"Invalid value for '{option}': 1000001 is not in the range 2<=x<=1000000." in (
        result.output
    )
    help_text = runner.invoke(main, [command[0], "--help"]).output
    assert "2<=x<=1000000" in help_text


class TestPosteriorCommand:
    def test_reference_posterior(self, runner, config_path, tmp_path):
        data = tmp_path / "campaign.csv"
        data.write_text(CAMPAIGN)
        result = runner.invoke(
            main,
            ["--config", config_path, "--format", "json", "posterior",
             "--data", str(data)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["abundance"]["shape"] == 28.0
        assert doc["abundance"]["rate"] == pytest.approx(0.3225)
        assert doc["abundance"]["hpd_lower"] > 0.0
        assert doc["naive"]["estimate"] == 80.0
        assert doc["class_PE"]["concentration"] == 14.0

    def test_density_grid_same_in_json_and_csv(self, runner, config_path, tmp_path):
        data = tmp_path / "campaign.csv"
        data.write_text(CAMPAIGN)
        outputs = {}
        for fmt in ("json", "csv"):
            result = runner.invoke(
                main,
                ["--config", config_path, "--format", fmt, "posterior",
                 "--data", str(data), "--density-grid", "--grid-points", "300"],
            )
            assert result.exit_code == 0, result.output
            outputs[fmt] = result.output
        doc = json.loads(outputs["json"])
        assert outputs["json"] == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        from_json = sorted(
            (section, key, cell_text(value))
            for section, entries in doc.items()
            for key, value in entries.items()
        )
        rows = list(csv.reader(io.StringIO(outputs["csv"])))
        assert rows[0] == ["section", "key", "value"]
        assert sorted(map(tuple, rows[1:])) == from_json
        assert len(doc["abundance_density"]) == 300

    def test_byte_order_mark_accepted(self, runner, config_path, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a byte-order mark; a BOM
        # copy of the campaign or of the config gives the plain file's bytes
        plain = tmp_path / "campaign.csv"
        plain.write_text(CAMPAIGN, encoding="utf-8")
        bom_data = tmp_path / "campaign_bom.csv"
        bom_data.write_text(CAMPAIGN, encoding="utf-8-sig")
        bom_config = tmp_path / "config_bom.json"
        bom_config.write_text(open(config_path, encoding="utf-8").read(), encoding="utf-8-sig")
        assert bom_data.read_bytes().startswith(b"\xef\xbb\xbf")
        assert bom_config.read_bytes().startswith(b"\xef\xbb\xbf")
        outputs = []
        for config, data in [(config_path, plain), (config_path, bom_data), (bom_config, plain)]:
            result = runner.invoke(
                main, ["--config", str(config), "posterior", "--data", str(data), "--density-grid"]
            )
            assert result.exit_code == 0, result.output
            outputs.append(result.output)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_bad_header_printed(self, runner, config_path, tmp_path):
        data = tmp_path / "campaign.csv"
        data.write_text("quadrant_id, suspected_count\n1,5\n")
        result = runner.invoke(main, ["--config", config_path, "posterior", "--data", str(data)])
        assert result.exit_code == 1
        assert result.output == (
            "Error: first header must be 'quadrant_id,suspected_count', "
            "got 'quadrant_id, suspected_count'\n"
        )

    def test_without_categorization_prior_kept(self, runner, config_path, tmp_path):
        data = tmp_path / "campaign.csv"
        data.write_text("quadrant_id,suspected_count\n1,10\n")
        result = runner.invoke(
            main,
            ["--config", config_path, "--format", "json", "posterior",
             "--data", str(data)],
        )
        doc = json.loads(result.output)
        assert doc["class_PE"]["concentration"] == 1.0

    def test_categorized_exceeding_suspected(self, runner, config_path, tmp_path):
        data = tmp_path / "campaign.csv"
        data.write_text(
            "quadrant_id,suspected_count\n1,3\nclass_name,categorized_count\nPE,5\n"
        )
        result = runner.invoke(
            main, ["--config", config_path, "posterior", "--data", str(data)]
        )
        assert result.exit_code != 0
        assert "exceeds" in result.output

    def test_unknown_class_name(self, runner, config_path, tmp_path):
        data = tmp_path / "campaign.csv"
        data.write_text(
            "quadrant_id,suspected_count\n1,9\nclass_name,categorized_count\nXYZ,2\n"
        )
        result = runner.invoke(
            main, ["--config", config_path, "posterior", "--data", str(data)]
        )
        assert result.exit_code != 0
        assert "XYZ" in result.output


class TestSensitivityCommand:
    def test_budget_axis(self, runner, config_path):
        result = runner.invoke(
            main,
            ["--config", config_path, "sensitivity", "--axis", "budget",
             "--values", "8,12"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "axis,value,m_star,typical_n_bar,budget_slack"
        assert lines[1].startswith("budget,8.0,5,")
        assert lines[2].startswith("budget,12.0,7,")

    def test_unknown_axis(self, runner, config_path):
        result = runner.invoke(
            main,
            ["--config", config_path, "sensitivity", "--axis", "area", "--values", "1"],
        )
        assert result.exit_code != 0

    def test_nonfinite_r2_rejected_by_name(self, runner, config_path):
        result = runner.invoke(
            main,
            ["--config", config_path, "sensitivity", "--axis", "r2", "--values", "inf"],
        )
        assert result.exit_code == 1
        assert "categorize_ratio must be finite" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    def test_nonfinite_prior_mode_rejected_by_name(self, runner, config_path):
        result = runner.invoke(
            main,
            ["--config", config_path, "sensitivity", "--axis", "prior-mode", "--values", "inf"],
        )
        assert result.exit_code == 1
        assert "prior-mode value inf: mode must be positive and finite" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "axis,values,message",
        [
            ("budget", "12,5000", "budget value 5000.0: a budget of 5e+03 quadrant equivalents "
             "with this abundance_prior puts 3.17e+08 pmf terms"),
            ("prior-mode", "200,1e8", "prior-mode value 100000000.0: abundance_prior predicts "
             "a mean total count of 1.03e+08 at m=11"),
        ],
        ids=["budget-terms", "prior-mode-mean"],
    )
    def test_walk_bounds_checked_before_any_value_runs(
        self, runner, config_path, monkeypatch, axis, values, message
    ):
        calls = []
        optimize = design._optimize_designs
        monkeypatch.setattr(
            design, "_optimize_designs",
            lambda configs, sizes: calls.append(configs) or optimize(configs, sizes),
        )
        result = runner.invoke(
            main, ["--config", config_path, "sensitivity", "--axis", axis, "--values", values]
        )
        assert result.exit_code == 1
        assert f"Error: {message}" in result.output
        assert "Traceback" not in result.output
        assert calls == []

    def test_log_pmf_rounding_names_the_value(self, runner, tmp_path):
        # mode 1e-300 puts the rate near 1e306, where an ulp of log(rate)
        # times the shape passes the tolerance; the check runs when the value
        # is admitted, so the error names the axis and the value
        path = write_config(tmp_path, lambda doc: doc["abundance_prior"].update(shape=1e6))
        result = runner.invoke(
            main,
            ["--config", path, "sensitivity", "--axis", "prior-mode", "--values", "200,1e-300"],
        )
        assert result.exit_code == 1
        assert result.output == (
            "Error: prior-mode value 1e-300: abundance_prior shape 1000000.0 is too large: "
            "rounding log(rate) moves the log pmf by up to 2.3e-07, past 1e-08\n"
        )

    def test_axis_choices_are_the_sweep_axes(self):
        # the CLI writes its own copy so that --help loads no design module
        assert option_choices("sensitivity", "axis") == SWEEP_AXES


class TestReplicateCommand:
    def test_fig1_bundle_and_manifest(self, runner, tmp_path):
        import hashlib

        result = runner.invoke(
            main, ["replicate", "--figure", "fig1", "--out-dir", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert not {"seed", "mc_draws"} & set(manifest)
        assert len(manifest["files"]) == 4
        for entry in manifest["files"]:
            blob = (tmp_path / entry["name"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        low = (tmp_path / "fig1_low_design.csv").read_text()
        high = (tmp_path / "fig1_high_design.csv").read_text()
        assert low.startswith("# m_star: 7\n")
        assert high.startswith("# m_star: 4\n")

    def test_unknown_figure(self, runner, tmp_path):
        result = runner.invoke(
            main, ["replicate", "--figure", "fig9", "--out-dir", str(tmp_path)]
        )
        assert result.exit_code != 0
        # the library's own check, which the option's choices keep the command from reaching
        with pytest.raises(ValueError, match=r"^unknown figure id 'fig9'; expected \('fig1', "):
            replicate("fig9", tmp_path)
        assert not any(tmp_path.iterdir())

    def test_figure_choices_are_the_figure_ids(self):
        assert option_choices("replicate", "figure") == FIGURE_IDS + ("all",)


class TestOutDirEnvironment:
    def test_relative_out_resolved(self, runner, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("MPDESIGN_OUT_DIR", str(tmp_path))
        result = runner.invoke(
            main,
            ["--config", config_path, "--out", "from_env.csv", "curves", "--m", "3",
             "--lambda-max", "100", "--lambda-points", "3"],
        )
        assert result.exit_code == 0
        assert (tmp_path / "from_env.csv").exists()


# Each output column and the row attribute it is read from, written out by
# hand: a row's field order is its table's column order, so a field moved in
# a row type would put a value under the wrong header
COLUMN_ATTRIBUTES = {
    "design": {
        "m": "m", "area": "area", "L1_star": "l1_star", "E_L2_star": "e_l2_star",
        "E_L2_se": "e_l2_se", "L_star": "l_star", "L_star_se": "l_star_se",
    },
    "curves": {
        "lambda": "true_abundance", "n": "n", "q": "q", "n_bar": "n_bar", "L2_star": "l2_star",
    },
    "sensitivity": {
        "axis": "axis", "value": "value", "m_star": "m_star",
        "typical_n_bar": "typical_n_bar", "budget_slack": "budget_slack",
    },
}


class TestTableColumns:
    @staticmethod
    def expected_row(command, config):
        if command == "design":
            return optimize_design(config).optimal_row
        if command == "curves":
            return performance_curve(7, [382.0, 400.0], config)[0]
        return sensitivity_sweep(config, "budget", [12.0])[0]

    @pytest.mark.parametrize(
        "command,args",
        [
            ("design", []),
            ("curves", ["--m", "7", "--lambda-min", "382", "--lambda-max", "400",
                        "--lambda-points", "2"]),
            ("sensitivity", ["--axis", "budget", "--values", "12"]),
        ],
    )
    def test_header_names_the_row_attribute(self, runner, config_path, command, args):
        attributes = COLUMN_ATTRIBUTES[command]
        row = self.expected_row(command, load_config(config_path).design)
        # every cell differs from the others, so no swap can pass unseen
        assert len({cell_text(v) for v in row}) == len(row)
        csv_out = runner.invoke(main, ["--config", config_path, command, *args])
        json_out = runner.invoke(
            main, ["--config", config_path, "--format", "json", command, *args]
        )
        assert csv_out.exit_code == 0 and json_out.exit_code == 0
        lines = [line for line in csv_out.output.splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        assert header == list(attributes)
        line = next(dict(zip(header, l.split(","))) for l in lines[1:]
                    if l.split(",")[0] == cell_text(row[0]))
        doc = json.loads(json_out.output)
        json_rows = doc["curve"] if command == "design" else doc["rows"]
        json_row = next(r for r in json_rows if r[header[0]] == row[0])
        for name, attribute in attributes.items():
            assert line[name] == cell_text(getattr(row, attribute)), name
            assert json_row[name] == getattr(row, attribute), name
        # every JSON row, read by column name, is the CSV row in its place
        assert [[cell_text(r[name]) for name in header] for r in json_rows] == [
            l.split(",") for l in lines[1:]
        ]


def _all_finite(value):
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if isinstance(value, list):
        return all(map(_all_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _set_field(doc, field, value):
    section, _, key = field.partition(".")
    if key:
        doc[section][key] = value
    else:
        doc[section] = value


DESIGN, CURVES = ["design"], ["curves", "--m", "1"]
POSTERIOR, PRINT_CONFIG = ["posterior", "--data", "{campaign}"], ["--print-config"]


def run_with_value(runner, tmp_path, field, value, command, *options):
    """Run ``command`` on the config with ``field`` set to ``value``, and
    CAMPAIGN as the ``{campaign}`` file. A ``field`` of ``config`` or
    ``campaign`` names a whole file, and ``value`` is its bytes."""
    files = {"config": tmp_path / "bad.json", "campaign": tmp_path / "campaign.csv"}
    files["campaign"].write_text(CAMPAIGN)
    write_config(tmp_path, lambda d: field in files or _set_field(d, field, value))
    if field in files:
        files[field].write_bytes(value)
    args = [arg.format(**files) for arg in command]
    return runner.invoke(main, ["--config", str(files["config"]), *options, *args]), files


LONG = 100_000  # characters in a value that a message must not echo whole
CLASS_ROWS = b"quadrant_id,suspected_count\n1,5\nclass_name,categorized_count\n"


def cut(char, length=LONG, shown=32):
    """How a message echoes a text of ``length`` characters that starts with
    ``shown`` copies of ``char``: its first 32 characters and its length. A
    value quoted by its repr has its opening quote among the 32: ``shown=31``."""
    return f"{char * shown}… ({length} characters)"


@pytest.mark.parametrize(
    "args,exit_code,line",
    [
        (["curves", "--m", "1" * LONG], 2,
         f"Error: Invalid value for '--m': '{cut('1')}' is not a valid integer."),
        (["curves", "--m", "3", "--lambda-max", "a" * LONG], 2,
         f"Error: Invalid value for '--lambda-max': '{cut('a')}' is not a valid float."),
        (["curves", "--m", "3", "--lambda-points", "9" * 4000], 2,
         f"Error: Invalid value for '--lambda-points': {cut('9', 4000)} is not in the range "
         "2<=x<=1000000."),
        (["posterior", "--data", "campaign.csv", "--hpd-mass", "x" * LONG], 2,
         f"Error: Invalid value for '--hpd-mass': '{cut('x')}' is not a valid float range."),
        # int() takes 4,000 digits, so the command runs and refuses m by name
        (["curves", "--m", "9" * 4000], 1,
         f"Error: m={cut('9', 4000)} outside the feasible set 0..12"),
        # an option of the command group, and paths that cannot be opened
        (["--format", "f" * 1000, "design"], 2,
         f"Error: Invalid value for '--format': '{cut('f', 1000)}' is not one of 'csv', 'json'."),
        (["--config", "c" * 5000, "design"], 1,
         f"Error: cannot read config {cut('c', 5000)}: File name too long"),
        (["posterior", "--data", "d" * 5000], 1,
         f"Error: cannot read {cut('d', 5000)}: File name too long"),
    ],
    ids=["m-100000-digits", "lambda-max-100000-letters", "lambda-points-4000-digits",
         "hpd-mass-100000-letters", "m-4000-nines", "format-1000-letters",
         "config-5000-characters", "data-5000-characters"],
)
def test_long_option_value_cut(runner, config_path, tmp_path, monkeypatch, args, exit_code, line):
    # one short Error line (after the usage lines of exit 2), not the value
    # echoed whole
    monkeypatch.chdir(tmp_path)
    (tmp_path / "campaign.csv").write_text(CAMPAIGN)
    result = runner.invoke(main, ["--config", config_path] + args)
    assert result.exit_code == exit_code
    assert [l for l in result.output.splitlines() if l.startswith("Error:")] == [line]
    assert len(result.output) < 400


class TestBadValuesNamed:
    """Values that ended in a traceback, a stray warning, a message naming a
    derived quantity, or the section's name twice."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "field,value,command,message",
        [
            ("cost.budget_quadrant_equivalents", -1, DESIGN,
             "cost.budget_quadrant_equivalents must be positive, got -1.0"),
            ("cost.budget_quadrant_equivalents", 0, CURVES,
             "cost.budget_quadrant_equivalents must be positive, got 0.0"),
            ("cost.budget_quadrant_equivalents", 1e-320, DESIGN,
             "cost: quadrant_area 0.0625 times budget_quadrant_equivalents 1e-320 is "),
            ("abundance_prior.mode", 1e-320, DESIGN,
             "abundance_prior: mode 1e-320 with shape 3.0 gives no finite rate > 0"),
            ("abundance_prior.shape", 1e308, DESIGN,
             "abundance_prior shape 1e+308 is too large for log-gamma"),
            ("abundance_prior.mode", 1e308, CURVES,
             "abundance_prior mode 1e+308 is too large: 4 times it overflows"),
            ("composition_prior", {"gamma": [1]}, DESIGN,
             "composition_prior.gamma must be a list of k >= 2 numbers"),
            ("composition_prior", {"classes": 1, "symmetric_gamma": 1.0}, DESIGN,
             "composition_prior.classes must be an integer >= 2"),
            ("composition_prior", {"classes": 10**20, "symmetric_gamma": 1.0}, DESIGN,
             "composition_prior.classes must be an integer >= 2 and at most 10000\n"),
            ("composition_prior", {"classes": 10**9, "symmetric_gamma": 1.0}, DESIGN,
             "composition_prior.classes must be an integer >= 2 and at most 10000\n"),
            ("composition_prior", {"classes": 10_001, "symmetric_gamma": 1.0}, DESIGN,
             "composition_prior.classes must be an integer >= 2 and at most 10000\n"),
            ("composition_prior", {"gamma": [1.0] * 10_001}, DESIGN,
             "composition_prior.gamma must be a list of k >= 2 numbers, at most 10000\n"),
            ("abundance_prior.shape", 1e14, DESIGN,
             "abundance_prior shape 100000000000000.0 is too large: rounding log(rate) "
             "moves the log pmf by up to 0.71, past 1e-08\n"),
            ("abundance_prior.shape", 1e16, DESIGN,
             "abundance_prior shape 1e+16 is too large: rounding log(rate) "),
            ("composition_prior", {"gamma": [1, "x"]}, DESIGN,
             "composition_prior.gamma[1] must be a finite number, got 'x'"),
            ("abundance_prior", {"shape": 3, "rate": "x"}, DESIGN,
             "abundance_prior.rate must be a finite number, got 'x'"),
            ("composition_prior.symmetric_gamma", -1, DESIGN,
             "composition_prior.symmetric_gamma must be positive, got -1.0\n"),
            ("composition_prior.symmetric_gamma", 0, CURVES,
             "composition_prior.symmetric_gamma must be positive, got 0.0\n"),
            ("composition_prior", {"gamma": [1, -1]}, DESIGN,
             "composition_prior.gamma[1] must be positive, got -1.0\n"),
            # the feasible set is named by its ends: listing it, or taking its
            # length, printed a 10-million-entry line at 1e7 and ended in an
            # OverflowError at 1e308
            ("cost.budget_quadrant_equivalents", 12, ["curves", "--m", "-1"],
             "m=-1 outside the feasible set 0..12\n"),
            ("cost.budget_quadrant_equivalents", 12, ["curves", "--m", "13"],
             "m=13 outside the feasible set 0..12\n"),
            ("cost.budget_quadrant_equivalents", 1e7, ["curves", "--m", "-1"],
             "m=-1 outside the feasible set 0..10000000\n"),
            ("cost.budget_quadrant_equivalents", 1e308, ["curves", "--m", "-1"],
             "m=-1 outside the feasible set 0..1000000000000100"),
            # a file that is not UTF-8 or holds an integer past int()'s 4,300
            # digits named neither itself nor its field, a long cell was
            # echoed whole, and one past csv's 131,072 characters was a traceback
            ("config", b'{"cost": "\xff"}', DESIGN,
             "config {config} is not valid JSON: 'utf-8' codec can't decode byte 0xff "
             "in position 10: invalid start byte\n"),
            ("config", json.dumps(BASE_DOC).replace(
                '"budget_quadrant_equivalents": 12', '"budget_quadrant_equivalents": 1' + "0" * 5000
            ).encode(), DESIGN, "config {config} is not valid JSON: Exceeds the limit (4300 digits) "),
            ("campaign", b"quadrant_id,suspected_count\n1,5\xff\n", POSTERIOR,
             "cannot read {campaign}: 'utf-8' codec can't decode byte 0xff in position 31: "
             "invalid start byte\n"),
            ("campaign", b"quadrant_id,suspected_count\n1,1" + b"0" * 5000 + b"\n", POSTERIOR,
             "suspected_count for quadrant '1' must be at most 2**53 = 9007199254740992, "
             "got 10000000000000000000000000000000… (5001 characters)\n"),
            ("campaign", b"quadrant_id,suspected_count\n1," + b"x" * 5000 + b"\n", POSTERIOR,
             "suspected_count for quadrant '1' must be an integer, "
             "got 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx… (5000 characters)'\n"),
            ("campaign", b"quadrant_id,suspected_count\n1," + b"x" * 200_000 + b"\n", POSTERIOR,
             "cannot read {campaign}: field larger than field limit (131072)\n"),
            # a value of 100,000 characters was echoed whole, and an integer
            # past the largest float ended in an OverflowError traceback
            ("campaign", b"h" * LONG + b"\n", POSTERIOR,
             f"first header must be 'quadrant_id,suspected_count', got '{cut('h')}'\n"),
            ("campaign", b"quadrant_id,suspected_count\n" + b"r" * LONG + b"\n", POSTERIOR,
             f"malformed quadrant row '{cut('r')}'\n"),
            ("campaign", b"quadrant_id,suspected_count\n" + (b"q" * LONG + b",1\n") * 2, POSTERIOR,
             f"duplicate quadrant_id '{cut('q')}'\n"),
            ("campaign", b"quadrant_id,suspected_count\n" + b"q" * LONG + b",-1\n", POSTERIOR,
             f"suspected_count for quadrant '{cut('q')}' must be nonnegative, got -1\n"),
            ("campaign", CLASS_ROWS + b"c" * LONG + b"\n", POSTERIOR,
             f"malformed class row '{cut('c')}'\n"),
            ("campaign", CLASS_ROWS + b"c" * LONG + b",1\n", POSTERIOR,
             f"unknown class_name '{cut('c')}'; "
             "configured classes: PE, PP, PET, PS, PA, PVC, PU, AC… (42 characters)\n"),
            ("class_names", ["n" * LONG, "PP", "PET", "PS", "PA", "PVC", "PU", "AC", "PES", "NPP"],
             POSTERIOR, f"unknown class_name 'PE'; configured classes: {cut('n', LONG + 40)}\n"),
            ("cost." + "k" * LONG, 1, DESIGN, f"unknown key '{cut('k')}' in section 'cost'\n"),
            ("abundance_prior.mode", "v" * LONG, DESIGN,
             f"abundance_prior.mode must be a finite number, got '{cut('v', LONG + 2, 31)}\n"),
            ("composition_prior", {"gamma": [1, "g" * LONG]}, DESIGN,
             "composition_prior.gamma[1] must be a finite number, "
             f"got '{cut('g', LONG + 2, 31)}\n"),
            ("mc.draws", "d" * LONG, DESIGN,
             f"mc.draws must be an integer >= 1000, got '{cut('d', LONG + 2, 31)}\n"),
            ("mc.seed", "s" * LONG, DESIGN,
             f"mc.seed must be an integer in [0, 2**64), got '{cut('s', LONG + 2, 31)}\n"),
            ("cost.budget_quadrant_equivalents", 12,
             ["sensitivity", "--axis", "budget", "--values", "8," + "x" * LONG],
             f"bad --values entry '{cut('x')}': not a number\n"),
            ("abundance_prior.shape", 10**400, DESIGN,
             "abundance_prior.shape must be a finite number, got "
             "10000000000000000000000000000000… (401 characters)\n"),
            # rejections no other test reached
            ("cost.budget_quadrant_equivalents", 12,
             ["sensitivity", "--axis", "budget", "--values", " , "],
             "--values must contain at least one number\n"),
            ("cost", 5, DESIGN, "section 'cost' must be an object\n"),
            ("composition_prior", {}, DESIGN,
             "composition_prior needs either 'gamma' or ('classes', 'symmetric_gamma')\n"),
            ("class_names", ["PE"], DESIGN, "class_names must be 10 distinct nonempty strings\n"),
            ("config", b"[]", DESIGN, "config root must be a JSON object\n"),
            ("campaign", b"quadrant_id,suspected_count\nclass_name,categorized_count\n", POSTERIOR,
             "no quadrant rows\n"),
            ("campaign", CLASS_ROWS + b"PE,1\nPE,2\n", POSTERIOR, "duplicate class_name 'PE'\n"),
            ("cost.budget_quadrant_equivalents", 12,
             ["sensitivity", "--axis", "budget", "--values", "1e-320"],
             "budget value 1e-320: quadrant_area 0.0625 times budget 1e-320 is 6.23e-322, so the "
             "budget coefficient 1/(budget * quadrant_area) is not a positive finite number\n"),
            # a library rejection names its value
            ("cost.count_ratio", -1, DESIGN, "cost: count_ratio must be nonnegative, got -1.0\n"),
            ("cost.budget_quadrant_equivalents", 12,
             ["sensitivity", "--axis", "r2", "--values", "0"],
             "r2 value 0.0: categorize_ratio must be positive, got 0.0\n"),
        ],
        ids=["budget-negative", "budget-zero", "budget-tiny", "mode-tiny", "shape-huge",
             "mode-huge", "gamma-short", "classes-one", "classes-1e20", "classes-1e9",
             "classes-above-bound", "gamma-above-bound", "shape-1e14", "shape-1e16",
             "gamma-string", "rate-string", "symmetric-gamma-negative", "symmetric-gamma-zero",
             "gamma-negative", "m-negative-b12", "m-above-b12", "m-negative-b1e7",
             "m-negative-b1e308", "config-0xff", "config-5001-digits", "campaign-0xff",
             "campaign-5001-digits", "campaign-5000-letters", "campaign-long-cell",
             "header-long", "quadrant-row-long", "quadrant-id-duplicate-long",
             "quadrant-id-count-long", "class-row-long", "class-name-long", "class-names-long",
             "unknown-key-long", "mode-long", "gamma-long", "mc-draws-long", "mc-seed-long",
             "values-long", "shape-401-digits", "values-empty", "section-not-object",
             "composition-empty", "class-names-short", "config-array", "campaign-no-quadrants",
             "class-name-duplicate", "budget-axis-tiny", "count-ratio-negative", "r2-zero"],
    )
    def test_rejected_by_field(self, runner, tmp_path, field, value, command, message):
        result, files = run_with_value(runner, tmp_path, field, value, command)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # an Error: line, not a traceback
        assert result.output.startswith("Error: " + message.format(**files))
        assert result.output.count("\n") == 1
        assert len(result.output) < 1000

    @pytest.mark.parametrize(
        "args,message",
        [(["design"], "--config is required for this command"),
         # the OSError's reason alone: its text would repeat the path
         (["--config", "{missing}", "design"],
          "cannot read config {missing}: No such file or directory")],
        ids=["no-config", "config-missing"],
    )
    def test_config_file_rejected(self, runner, tmp_path, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)
        missing = "missing.json"
        result = runner.invoke(main, [arg.format(missing=missing) for arg in args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: {message.format(missing=missing)}\n"

    # taking the feasible set's length ended in an OverflowError; a list of
    # per-m work would not end at all
    def test_unbounded_budget_rejected_at_once(self, runner, tmp_path):
        path = write_config(
            tmp_path, lambda d: d["cost"].update(budget_quadrant_equivalents=1e308)
        )
        start = time.perf_counter()
        result = runner.invoke(main, ["--config", path, "design"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(
            "Error: cost.budget_quadrant_equivalents 1e+308 affords 1e+308 quadrants; "
        )
        assert result.output.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "field,value,command",
        [
            ("cost.count_ratio", 1e-320, DESIGN),
            ("cost.categorize_ratio", 1e-320, CURVES),
            ("abundance_prior.shape", 1e308, CURVES),
            ("abundance_prior.shape", 1e6, DESIGN),
            ("composition_prior", {"classes": 10_000, "symmetric_gamma": 1.0}, DESIGN),
            # a budget below one quadrant is a valid config: the commands that
            # never read the quadrant count run on it without a warning
            ("cost.budget_quadrant_equivalents", 0.5, POSTERIOR),
            ("cost.budget_quadrant_equivalents", 0.5, PRINT_CONFIG),
        ],
        ids=["count-ratio-tiny-design", "categorize-ratio-tiny-curves", "shape-huge-curves",
             "shape-1e6-design", "classes-at-bound-design", "budget-half-posterior",
             "budget-half-print-config"],
    )
    def test_accepted_with_finite_output(self, runner, tmp_path, field, value, command):
        result, _ = run_with_value(runner, tmp_path, field, value, command, "--format", "json")
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        assert _all_finite(json.loads(result.output))


TABLE_FIELDS = (
    "abundance_prior.shape",
    "abundance_prior.mode",
    "composition_prior.classes",
    "composition_prior.symmetric_gamma",
    "cost.quadrant_area",
    "cost.budget_quadrant_equivalents",
    "cost.count_ratio",
    "cost.categorize_ratio",
)
TABLE_VALUES = ("x", None, True, -1, 0, 1e-320, 1e308, math.nan, [1], 1.5)


class TestFieldValueTable:
    """Each config field set to each value of the table: the command runs
    clean with only finite numbers, or fails in one line that names the
    field or its section."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [DESIGN, CURVES], ids=["design", "curves"])
    @pytest.mark.parametrize(
        "value", TABLE_VALUES,
        ids=["str", "null", "true", "-1", "0", "1e-320", "1e308", "nan", "list", "1.5"],
    )
    @pytest.mark.parametrize("field", TABLE_FIELDS)
    def test_runs_clean_or_names_the_field(self, runner, tmp_path, field, value, command):
        path = write_config(tmp_path, lambda d: _set_field(d, field, value))
        result = runner.invoke(main, ["--config", path, "--format", "json", *command])
        assert "Traceback" not in result.output
        if result.exit_code == 0:
            assert _all_finite(json.loads(result.output))
            return
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # an Error: line, not a traceback
        (line,) = result.output.splitlines()
        assert line.startswith("Error: ")
        assert field.partition(".")[0] in line

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [DESIGN, CURVES], ids=["design", "curves"])
    def test_both_ratios_at_the_largest_float(self, runner, tmp_path, command):
        # the rule divided -inf by inf, and int(NaN) named no field
        path = write_config(
            tmp_path, lambda d: d["cost"].update(count_ratio=1e308, categorize_ratio=1e308)
        )
        result = runner.invoke(main, ["--config", path, "--format", "json", *command])
        if command == DESIGN:
            assert result.exit_code == 1
            assert result.output == (
                "Error: cost.count_ratio 1e+308 is too large: the budget split at the typical "
                "count n = 200 is not finite (counting=inf slack=-inf)\n"
            )
        else:
            assert result.exit_code == 0, result.output
            # counting one particle overspends: q = 0 past the rule's q = 1 at n = 0
            rows = json.loads(result.output)["rows"]
            assert [(row["q"], row["n_bar"]) for row in rows] == [
                (1.0 if row["n"] == 0 else 0.0, 0) for row in rows
            ]


# Each command and a library function it calls. The command group is the one
# place where a ValueError becomes the Error: line; any other exception is a
# bug and keeps its traceback.
LIBRARY_CALLS = {
    "print-config": ("mpdesign.config.load_config", ["--print-config"]),
    "design": ("mpdesign.design.optimize_design", ["design"]),
    "curves": ("mpdesign.design.performance_curve", ["curves", "--m", "7"]),
    "posterior": ("mpdesign.posterior.hpd_interval", ["posterior", "--data", "{data}"]),
    "sensitivity": (
        "mpdesign.design.sensitivity_sweep", ["sensitivity", "--axis", "budget", "--values", "8"]
    ),
}


class TestErrorBoundary:
    @staticmethod
    def invoke_raising(runner, monkeypatch, config_path, tmp_path, command, exc):
        target, args = LIBRARY_CALLS[command]

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(target, fail)
        data = tmp_path / "campaign.csv"
        data.write_text(CAMPAIGN)
        args = [arg.format(data=data) for arg in args]
        return runner.invoke(main, ["--config", config_path, *args])

    @pytest.mark.parametrize("command", LIBRARY_CALLS)
    def test_value_error_is_the_error_line(
        self, runner, monkeypatch, config_path, tmp_path, command
    ):
        result = self.invoke_raising(
            runner, monkeypatch, config_path, tmp_path, command, ValueError("refused by name")
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "Error: refused by name\n"

    @pytest.mark.parametrize("command", LIBRARY_CALLS)
    def test_other_errors_keep_their_traceback(
        self, runner, monkeypatch, config_path, tmp_path, command
    ):
        bug = RuntimeError("a bug")
        result = self.invoke_raising(runner, monkeypatch, config_path, tmp_path, command, bug)
        assert result.exit_code == 1
        assert result.exception is bug
        assert "Error:" not in result.output

    # a count past 2^53 is refused by the campaign parser, and a posterior
    # shape past the HPD bound by hpd_interval, both before any series of
    # _gamma_tail is summed: these asked NumPy for 820 GiB or 8.2 GiB, or
    # ended in a ZeroDivisionError or OverflowError traceback
    @pytest.mark.parametrize(
        "counts,shape,message",
        [
            ([10**400], 3, "suspected_count for quadrant '1' must be at most 2**53 = "
                           "9007199254740992, got 10000000000000000000000000000000… "
                           "(401 characters)"),
            ([10**300], 3, "suspected_count for quadrant '1' must be at most 2**53 = "
                           "9007199254740992, got 10000000000000000000000000000000… "
                           "(301 characters)"),
            ([10**20], 3, "suspected_count for quadrant '1' must be at most 2**53 = "
                          "9007199254740992, got 100000000000000000000"),
            ([5, 4], 1e16, "Gamma shape 1.0000000000000008e+16 is past 1e+10, the largest "
                           "whose HPD interval is computed"),
        ],
        ids=["count1e400", "count1e300", "count1e20", "shape1e16"],
    )
    def test_posterior_work_bound(self, runner, monkeypatch, tmp_path, counts, shape, message):
        monkeypatch.setattr(
            "mpdesign._special._gamma_tail", lambda *args, **kwargs: pytest.fail("series summed")
        )
        config = write_config(tmp_path, lambda d: d["abundance_prior"].update(shape=shape))
        data = tmp_path / "campaign.csv"
        data.write_text(
            "quadrant_id,suspected_count\n"
            + "".join(f"{qid},{count}\n" for qid, count in enumerate(counts, 1))
        )
        result = runner.invoke(main, ["--config", config, "posterior", "--data", str(data)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: {message}\n"
