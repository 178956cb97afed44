"""Shipped example instances, sized for the verification suite.

Names describe the group pair: a line with one cusp attached to itself, and
the free product of a plane group with a line group, relative to the plane.
Truncations are chosen so the deepest checks (cusp-tower homology, window
Mayer-Vietoris) stay within the face budgets.
"""

from __future__ import annotations

import json

from .groups import GroupSpec
from .spaces import AugmentedSpace, Truncation, build_augmented


def _z_horoball() -> AugmentedSpace:
    spec = GroupSpec.free_abelian(1, names=("x",))
    return build_augmented(
        spec, (0,), Truncation(rg=3, lmax=5, mmax=1), name="z_horoball"
    )


def _z_horoball_wide() -> AugmentedSpace:
    spec = GroupSpec.free_abelian(1, names=("x",))
    return build_augmented(
        spec, (0,), Truncation(rg=8, lmax=3, mmax=1), name="z_horoball_wide"
    )


def _z2_free_z() -> AugmentedSpace:
    spec = GroupSpec.free_product(
        GroupSpec.free_abelian(2, names=("x", "y")),
        GroupSpec.free(1, names=("t",)),
    )
    return build_augmented(
        spec, (0,), Truncation(rg=2, lmax=4, mmax=5), name="z2_free_z"
    )


def _z2_free_z_deep() -> AugmentedSpace:
    spec = GroupSpec.free_product(
        GroupSpec.free_abelian(2, names=("x", "y")),
        GroupSpec.free(1, names=("t",)),
    )
    return build_augmented(
        spec, (0,), Truncation(rg=1, lmax=4, mmax=3), name="z2_free_z_deep"
    )


def _free2_rel_a() -> AugmentedSpace:
    spec = GroupSpec.free(2)
    return build_augmented(
        spec, (0,), Truncation(rg=2, lmax=4, mmax=3), name="free2_rel_a"
    )


BUILDERS = {
    "z_horoball": _z_horoball,
    "z_horoball_wide": _z_horoball_wide,
    "z2_free_z": _z2_free_z,
    "z2_free_z_deep": _z2_free_z_deep,
    "free2_rel_a": _free2_rel_a,
}

# instances every structural acceptance check runs over
SHIPPED = ("z_horoball", "z2_free_z", "z2_free_z_deep", "free2_rel_a")

_cache: dict[str, AugmentedSpace] = {}


def get_instance(name: str) -> AugmentedSpace:
    if name not in BUILDERS:
        raise KeyError(f"unknown instance {name!r}; known: {sorted(BUILDERS)}")
    if name not in _cache:
        _cache[name] = BUILDERS[name]()
    return _cache[name]


def load_instance(path: str) -> AugmentedSpace:
    """Instance from a config file: group family, peripherals, truncation."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"instance file {path}: its JSON is not an object")
    spec, peripherals = GroupSpec.from_config(cfg["group"])
    if "peripherals" in cfg:
        peripherals = tuple(cfg["peripherals"])
    trunc = Truncation(
        rg=int(cfg["rg"]), lmax=int(cfg["lmax"]), mmax=cfg.get("mmax")
    )
    return build_augmented(spec, peripherals, trunc, name=cfg.get("name", path))


def resolve_instance(name_or_path: str) -> AugmentedSpace:
    if name_or_path in BUILDERS:
        return get_instance(name_or_path)
    return load_instance(name_or_path)
