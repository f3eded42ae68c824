"""Machine-readable run reports for the command-line tools.

Results carry exact rationals serialized as "p/q" strings; nothing is
rounded in machine output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

SCHEMA = "dtregge/report/1"


def rational(value) -> str:
    """Serialize an exact rational as 'p' or 'p/q'."""
    return str(Fraction(value))


@dataclass(frozen=True)
class RunReport:
    command: str
    inputs: dict
    results: dict
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
