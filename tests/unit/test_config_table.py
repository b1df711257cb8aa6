"""README's configuration table has one row per settable field.

Every field of the four configuration dataclasses must have a row naming
what sets it (a ``bench`` workload, a ``benchmarks/`` file, a shell flag,
or tests only), and every row must name a field that exists — so the next
knob ships with its row, and a removed knob takes its row along.
"""

import re
from dataclasses import fields
from pathlib import Path

from repro.core.config import TangoConfig
from repro.resilience.health import HealthPolicy
from repro.service.config import ServiceConfig, TenantSpec

README = Path(__file__).resolve().parents[2] / "README.md"
CONFIGS = (TangoConfig, ServiceConfig, TenantSpec, HealthPolicy)
ROW = re.compile(
    rf"^\| `({'|'.join(config.__name__ for config in CONFIGS)})\.(\w+)` \|(.*)\|\s*$",
    re.MULTILINE,
)


def table_rows() -> dict[str, list[str]]:
    """``"Class.field"`` -> the row's remaining cells."""
    return {
        f"{owner}.{name}": [cell.strip() for cell in rest.split("|")]
        for owner, name, rest in ROW.findall(README.read_text())
    }


def test_every_field_has_a_row_and_every_row_a_field():
    declared = {f"{config.__name__}.{field.name}" for config in CONFIGS for field in fields(config)}
    documented = table_rows()
    assert sorted(declared - set(documented)) == [], "fields without a README row"
    assert sorted(set(documented) - declared) == [], "README rows without a field"


def test_every_row_names_who_sets_it():
    for field, (default, meaning, set_by) in table_rows().items():
        assert default and meaning and set_by, field


def test_the_field_counts():
    assert [len(fields(config)) for config in CONFIGS] == [9, 4, 2, 2]
