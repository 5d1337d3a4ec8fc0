"""Exception types shared across the package, and the field check."""


class ConfigError(ValueError):
    """A configuration document violated the schema or an invariant."""


class NumericFailure(RuntimeError):
    """An integrator diagnostic tripped (e.g. trace drift)."""


def require(ok: bool, field: str, why: str) -> None:
    """Raise ValueError("<field>: <why>") unless `ok`.

    Write `ok` as the condition that must hold (`x >= 0`, not `not x < 0`),
    so that a NaN fails it.
    """
    if not ok:
        raise ValueError(f"{field}: {why}")
