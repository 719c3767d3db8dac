"""Built-in rule modules.  Importing this package populates the registry.

Rule families (the leading digit of the id):

1. determinism — :mod:`.determinism` (REP101, REP102, REP103, REP104)
2. pickle safety — :mod:`.pickle_safety` (REP201)
3. slots integrity — :mod:`.slots` (REP301, REP302)
4. DES protocol — :mod:`.des_protocol` (REP401)
5. frozen specs — :mod:`.frozen_spec` (REP501)
6. error hygiene — :mod:`.error_hygiene` (REP601, REP602)
7. robustness — :mod:`.robustness` (REP701)
"""

from .base import RULE_REGISTRY, Finding, Rule, register_rule, rule_catalogue
from . import (
    determinism,
    pickle_safety,
    slots,
    des_protocol,
    frozen_spec,
    error_hygiene,
    robustness,
)

__all__ = [
    "RULE_REGISTRY",
    "Finding",
    "Rule",
    "register_rule",
    "rule_catalogue",
    "determinism",
    "pickle_safety",
    "slots",
    "des_protocol",
    "frozen_spec",
    "error_hygiene",
    "robustness",
]
