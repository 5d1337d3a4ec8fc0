"""Exception types shared across the package, and the input checks."""


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


def check_grid(values, option: str, check) -> list[float]:
    """The values of grid option `option`, with -0 folded into 0 (one value,
    one seed or file name). Refuses an empty grid, a value that `check`
    refuses (its "<field>: <why>" re-raised as "<option>: <why>") and a
    grid that repeats a value."""
    grid = [value + 0.0 for value in values]
    require(len(grid) > 0, option, "must be non-empty")
    for value in grid:
        try:
            check(value)
        except ValueError as exc:
            raise ValueError(
                f"{option}: {str(exc).partition(': ')[2]}") from exc
    require(len(set(grid)) == len(grid), option, "must not repeat a value")
    return grid
