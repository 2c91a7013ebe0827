"""README's config tables name exactly the keys the program reads."""

import pathlib
import re

import pytest

from landau import cli, families

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def table_keys(header):
    """The backquoted names in the first column of README's table under the
    row `header`, in order."""
    lines = README.read_text().splitlines()
    keys = []
    for line in lines[lines.index(header) + 2:]:  # past the |---| row
        if not line.startswith("|"):
            break
        keys.append(re.fullmatch(r"`(\w+)`", line.split("|")[1].strip()).group(1))
    return keys


@pytest.mark.parametrize("header, accepted", [
    ("| suite | options (default) |", cli.SUITES),
    ("| kind | parameters (default) |", families.PARAMS),
    ("| key | value |", cli.SOLVE_KEYS + cli.SOLVER_CONFIG_KEYS),
], ids=["suites", "families", "solve"])
def test_readme_tables_name_the_accepted_keys(header, accepted):
    keys = table_keys(header)
    assert len(keys) == len(set(keys)) and set(keys) == set(accepted)
