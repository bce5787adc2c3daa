"""The README's CLI examples and oracle caps match the code."""

import re
import shlex
from pathlib import Path

from earlab import digraph, oracles
from earlab.cli import _build_parser

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
    }
    for name, pattern in caps.items():
        found = re.search(pattern, text)
        assert found, f"README states no cap for {name}"
        assert int(found.group(1)) == getattr(oracles, name), name
    found = re.search(r"capped at (\d+) vertices", text)
    assert found, "README states no cap for MAX_VERTICES"
    assert int(found.group(1)) == digraph.MAX_VERTICES


def test_readme_cli_lines_parse():
    parser = _build_parser()
    lines = [line.split("#", 1)[0].strip() for line in README.splitlines()]
    commands = [line for line in lines
                if line.startswith("earlab ") and not line.endswith("\\")]
    assert len(commands) >= 12
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
