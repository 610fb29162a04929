"""Parameter and flop accounting for convolutional layers and whole models.

A multiply-accumulate counts as 2 flops.  Batch norm contributes 2c
parameters and negligible flops (foldable at inference); attention pooling
contributes h*w*c flops per reduction.  Model-level accounting replays the
exact forward graph under a cost tape holding one row per module that does
work of its own, under the module's name, then cross-checks the parameter
total against the scalars actually allocated; a mismatch means some layer
executed without an accounting rule, or two modules share a name, and
raises instead of under-counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AccountingError, ConfigError


def count_conv(c_in: int, c_out: int, k: int, h_out: int, w_out: int,
               groups: int = 1, bias: bool = False) -> tuple[int, int]:
    """Parameters and flops of one convolution at the given output size."""
    if min(c_in, c_out, k, h_out, w_out, groups) < 1:
        raise ConfigError("all convolution dimensions must be positive")
    weight_params = k * k * c_in * c_out // groups
    params = weight_params + (c_out if bias else 0)
    flops = 2 * weight_params * h_out * w_out
    if bias:
        flops += c_out * h_out * w_out
    return params, flops


@dataclass
class CostReport:
    """One (module name, params, flops) row per module that does work of its
    own, in the order the modules first finished a call; plus totals."""

    rows: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(r[1] for r in self.rows)

    @property
    def total_flops(self) -> int:
        return sum(r[2] for r in self.rows)

    def to_text(self) -> str:
        width = max([len(r[0]) for r in self.rows] + [5])
        lines = [f"{'layer':<{width}}  {'params':>12}  {'flops':>16}"]
        for name, p, f in self.rows:
            lines.append(f"{name:<{width}}  {p:>12}  {f:>16}")
        lines.append(f"{'TOTAL':<{width}}  {self.total_params:>12}  {self.total_flops:>16}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["layer,params,flops"]
        lines += [f"{name},{p},{f}" for name, p, f in self.rows]
        lines.append(f"TOTAL,{self.total_params},{self.total_flops}")
        return "\n".join(lines) + "\n"


_ACTIVE_TAPE: dict[str, list[int]] | None = None


def tape_active() -> bool:
    return _ACTIVE_TAPE is not None


def record_cost(name: str, params: int, flops: int) -> None:
    """Add to the row of module ``name``: params are credited on its first
    call only, so a module called repeatedly (shared weights) does not
    double-count them; flops add on every call."""
    tape = _ACTIVE_TAPE
    if tape is None:
        return
    tape.setdefault(name, [params, 0])[1] += flops


class tracking:
    """Context manager collecting layer costs into a CostReport."""

    def __enter__(self) -> "tracking":
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        self._tape: dict[str, list[int]] = {}
        _ACTIVE_TAPE = self._tape
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        return False

    def report(self) -> CostReport:
        return CostReport(rows=[(n, p, f) for n, (p, f) in self._tape.items()])


def count_model(cfg) -> CostReport:
    """Cost of the full detector built from ``cfg`` at its input size.

    Replays one forward pass under the cost tape and verifies the counted
    parameter total equals the number of trainable scalars the model
    allocated, so an un-accounted layer, or two modules sharing one name
    (whose params would be credited once), cannot slip through silently.
    """
    from . import tensor as T
    from .detector import Detector

    model = Detector(cfg, dtype=np.float32)
    x = T.Tensor4(np.zeros((1, cfg.in_channels, cfg.input_size, cfg.input_size),
                           dtype=np.float32))
    with T.no_grad(), tracking() as tape:
        model(x, training=False)
    report = tape.report()
    allocated = model.num_scalars()
    if report.total_params != allocated:
        raise AccountingError(
            f"counted {report.total_params} params but model allocates {allocated}; "
            "a layer is missing an accounting rule or two modules share a name")
    return report
