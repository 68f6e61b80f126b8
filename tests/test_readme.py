import contextlib
import io
import json
import os
import re

from kerrcav.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_quick_start_runs():
    """The README's "Library quick start" block runs as written, so a
    documented call that breaks fails the suite."""
    text = open(README, encoding="utf-8").read()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    # one line per branch, the gain, then the squeezing floor and its phase
    assert len(printed) >= 3
    p_min, phi_min = map(float, printed[-1].split())
    assert 0.0 < p_min < 1.0


def json_block(section):
    """The first ```json block after the README heading ``section``."""
    text = open(README, encoding="utf-8").read()
    after = text.split(section, 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", after, re.S).group(1))


def test_sweep_config_runs_every_sweep_command(tmp_path):
    """The "Sweep config" block loads, and each command README says runs on
    it exits 0 with a table."""
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(json_block("### Sweep config")))
    for command in ("steady-sweep", "gain-sweep", "squeeze-sweep",
                    "critical"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(config), "--out", str(out)]) \
            == EXIT_OK
        assert out.read_text().count("\n") > 1


def test_fit_config_ends_with_its_stated_exit_code(tmp_path):
    """The "Fit config" block is a complete fit file of at least 5 rows,
    and `kerrcav fit` on it exits with the code README states."""
    data = json_block("### Fit config")
    assert len(data["fit"]["refl_data"]) + len(data["fit"]["gain_data"]) >= 5
    config = tmp_path / "fit.json"
    config.write_text(json.dumps(data))
    text = open(README, encoding="utf-8").read()
    stated = int(re.search(r"`kerrcav fit` on this file exits (\d)",
                           text).group(1))
    assert main(["fit", "--config", str(config), "--out",
                 str(tmp_path / "fit.csv")]) == stated


def test_exit_codes_match_the_cli():
    """The exit codes README lists are the CLI's."""
    text = " ".join(open(README, encoding="utf-8").read().split())
    sentence = re.search(r"Exit codes: (.*?I/O error)", text).group(1)
    listed = {name: int(code) for code, name in re.findall(
        r"(\d) (success|configuration error|numeric failure|I/O error)",
        sentence)}
    assert listed == {"success": EXIT_OK, "configuration error": EXIT_CONFIG,
                      "numeric failure": EXIT_NUMERIC, "I/O error": EXIT_IO}
