"""Exception types shared across the package, and the field check."""

from contextlib import contextmanager


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


@contextmanager
def as_option(option: str):
    """Re-raise a field check that fails in the block, "<field>: <why>", as
    "<option>: <why>", naming the option that supplied the value."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{option}: {str(exc).partition(': ')[2]}") from exc
