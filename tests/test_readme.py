"""The README's CLI examples, quick tour and oracle caps match the code."""

import re
import shlex
from pathlib import Path

from earlab import cli, digraph, kernels, oracles
from earlab.coloring import verify_homomorphism
from earlab.cli import _build_parser
from earlab.ears import DEFAULT_BUDGET

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_oracle_caps_match_constants():
    section = README.split("## Oracle caps", 1)[1]
    text = " ".join(section.split())
    caps = {
        "KERNEL_CAP": r"(?<!quasi-)kernels up to (\d+)",
        "QUASI_KERNEL_CAP": r"quasi-kernels up to (\d+)",
        "CHROMATIC_CAP": r"(?<!oriented )chromatic numbers up to (\d+)",
        "ORIENTED_CAP": r"oriented chromatic numbers up to (\d+)",
        "ORIENTED_KMAX_CAP": r"order up to (\d+)",
        "LONGEST_PATH_CAP": r"longest paths up to (\d+)",
        "LONGEST_LIST_CAP": r"`oracle longest-path --all` lists at most (\d+)",
        "TRACE_VERTEX_CAP": r"`kernel trace` takes inputs of up to (\d+)",
        "TRACE_BRANCH_CAP": r"at most (\d+) of them branch vertices",
        "MAX_LEVEL_CAP": r"`classify` checks levels up to (\d+)",
    }
    constants = {**vars(oracles), **vars(kernels), **vars(cli)}
    for name, pattern in caps.items():
        found = re.search(pattern, text)
        assert found, f"README states no cap for {name}"
        assert int(found.group(1)) == constants[name], name
    found = re.search(r"capped at (\d+) vertices", text)
    assert found, "README states no cap for MAX_VERTICES"
    assert int(found.group(1)) == digraph.MAX_VERTICES


def test_readme_budget_default_matches_the_constant():
    assert f"`--budget` (default {DEFAULT_BUDGET})" in README


def test_readme_cli_lines_parse():
    parser = _build_parser()
    lines = [line.split("#", 1)[0].strip() for line in README.splitlines()]
    commands = [line for line in lines
                if line.startswith("earlab ") and not line.endswith("\\")]
    assert len(commands) >= 12
    for line in commands:
        argv = shlex.split(line)[1:]
        expected = parser.parse_args(argv)
        # every plain line takes the scan; gen's required group is argparse's
        if argv[0] != "gen":
            assert cli._scan_args(argv) == expected, line


def test_readme_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    assert "oriented_coloring_le3" in blocks[0]
    scope: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    verify_homomorphism(scope["d"], scope["m"])
