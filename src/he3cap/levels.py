"""Helium-4 compound-nucleus reference levels and reaction kinematics.

The level table is shipped as a versioned CSV inside the package and loaded
verbatim; energies are stored in integer keV so detunings stay exact.  Level
widths are free-text notes only, because no trustworthy numeric widths exist
for this purpose and inventing them would be worse than saying "broad".
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .angular import HalfInt
from .cross_sections import Channel, Parity
from .errors import LevelNotFoundError

#: Energy at which n + 3He capture enters the compound nucleus, keV above
#: the helium-4 ground state.
ENTRY_ENERGY_KEV = 20578

#: Kinetic energy released by n + 3He -> p + 3H, keV.
Q_VALUE_KEV = 764.0
PROTON_ENERGY_KEV = 573.0
TRITON_ENERGY_KEV = 191.0

#: Triton-to-proton mass ratio for the two-body momentum-balance check.
TRITON_TO_PROTON_MASS_RATIO = 2.9937

ENERGY_SUM_TOLERANCE_KEV = 1.0
MOMENTUM_RATIO_TOLERANCE = 0.01

_DATA_FILE = "he4_levels.csv"


@dataclass(frozen=True)
class LevelRecord:
    """One reference level (or the capture entry point, which has no definite J)."""

    energy_kev: int
    j: HalfInt | None
    parity: Parity | None
    isospin_t: int
    width_note: str

    @property
    def energy_mev(self) -> float:
        return self.energy_kev / 1000


def level_data_text() -> str:
    """Raw content of the shipped level table (checksummed in tests)."""
    return (resources.files(__package__) / "data" / _DATA_FILE).read_text(encoding="utf-8")


@lru_cache(maxsize=1)
def builtin_levels() -> tuple[LevelRecord, ...]:
    """The shipped reference records, ordered by energy."""
    rows = [line for line in level_data_text().splitlines() if not line.startswith("#")]
    reader = csv.DictReader(rows)
    records = []
    for row in reader:
        j_text = row["J"].strip()
        parity_text = row["parity"].strip()
        records.append(
            LevelRecord(
                energy_kev=int(row["energy_keV"]),
                j=HalfInt.of(j_text) if j_text else None,
                parity=Parity(parity_text) if parity_text else None,
                isospin_t=int(row["isospin_T"]),
                width_note=row["width_note"].strip(),
            )
        )
    return tuple(sorted(records, key=lambda record: record.energy_kev))


def channel_detuning(channel: Channel) -> float:
    """Signed distance (MeV) from the capture entry point to the nearest
    reference level with the channel's (J, parity)."""
    matches = [
        record
        for record in builtin_levels()
        if record.j == channel.j_final and record.parity is channel.parity
    ]
    if not matches:
        raise LevelNotFoundError(
            f"no reference level with J={channel.j_final} and parity {channel.parity.value}"
        )
    nearest = min(matches, key=lambda record: abs(ENTRY_ENERGY_KEV - record.energy_kev))
    return (ENTRY_ENERGY_KEV - nearest.energy_kev) / 1000


@dataclass(frozen=True)
class ReactionKinematics:
    """Q-value and product kinetic energies of n + 3He -> p + 3H, in keV."""

    q_value_kev: float
    proton_kev: float
    triton_kev: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class KinematicsReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": check.name, "passed": check.passed, "detail": check.detail}
                for check in self.checks
            ],
        }


def check_kinematics(kinematics: ReactionKinematics) -> KinematicsReport:
    """Validate energy conservation and two-body momentum balance.

    The products recoil back to back, so m_p E_p = m_t E_t and the energy
    ratio E_p/E_t must equal the inverse mass ratio; a 1% tolerance absorbs
    the rounding of the quoted energies.
    """
    energy_sum = kinematics.proton_kev + kinematics.triton_kev
    sum_error = abs(energy_sum - kinematics.q_value_kev)
    energy_check = CheckResult(
        "energy_sum",
        sum_error <= ENERGY_SUM_TOLERANCE_KEV,
        f"E_p + E_t = {energy_sum:g} keV vs Q = {kinematics.q_value_kev:g} keV "
        f"(|diff| = {sum_error:g} keV, tolerance {ENERGY_SUM_TOLERANCE_KEV:g} keV)",
    )

    if kinematics.triton_kev <= 0:
        momentum_check = CheckResult(
            "momentum_balance", False, "triton energy must be positive"
        )
    else:
        ratio = kinematics.proton_kev / kinematics.triton_kev
        relative_error = abs(ratio / TRITON_TO_PROTON_MASS_RATIO - 1)
        momentum_check = CheckResult(
            "momentum_balance",
            relative_error <= MOMENTUM_RATIO_TOLERANCE,
            f"E_p/E_t = {ratio:.4f} vs m_t/m_p = {TRITON_TO_PROTON_MASS_RATIO} "
            f"(relative error {relative_error:.4%}, tolerance {MOMENTUM_RATIO_TOLERANCE:.0%})",
        )

    return KinematicsReport((energy_check, momentum_check))
