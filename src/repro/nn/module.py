"""Minimal module system: parameter registration, train/eval mode, state IO.

Modules mirror the familiar torch-style API at the scale this library needs:
attribute assignment auto-registers parameters and submodules, and
``state_dict``/``load_state_dict`` give flat name→array views used by the
checkpoint code in :mod:`repro.nn.io`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from .backend import DEFAULT_DTYPE
from .tensor import Tensor, inference_mode, is_inference_mode

__all__ = ["Parameter", "Module", "ModuleList", "InitMetadata"]


@dataclass(frozen=True)
class InitMetadata:
    """How a module was constructed — what a bundle needs to rebuild it.

    Factories (see :func:`repro.core.create_model`) stamp this on the
    models they build via :attr:`Module.init_metadata`; ``save_pretrained``
    serializes it so ``load_pretrained`` can re-invoke the constructor
    with the same seed and extra keyword arguments.
    """

    seed: int = 0
    kwargs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "InitMetadata":
        return cls(seed=int(payload.get("seed", 0)),
                   kwargs=dict(payload.get("kwargs", {})))


class Parameter(Tensor):
    """A tensor registered as a trainable parameter of a module.

    ``version`` counts in-place writes to ``data``.  Anything that
    writes ``param.data`` in place (``param.data -= ...``,
    ``param.data[...] = ...``) must follow it with ``param.version += 1``;
    rebinding ``param.data`` to a new array needs no bump.  Together,
    the array's identity and this counter let
    :func:`repro.serve.model_fingerprint` reuse its digest until a
    weight actually changes.
    """

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(np.asarray(data, dtype=DEFAULT_DTYPE),
                         requires_grad=True)
        self.version = 0


class Module:
    """Base class for all neural network components."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Construction metadata
    # ------------------------------------------------------------------
    @property
    def init_metadata(self) -> InitMetadata:
        """Construction metadata for bundle IO (empty unless stamped)."""
        stamped = getattr(self, "_init_metadata", None)
        return stamped if stamped is not None else InitMetadata()

    @init_metadata.setter
    def init_metadata(self, value: InitMetadata) -> None:
        if not isinstance(value, InitMetadata):
            raise TypeError(
                f"init_metadata must be an InitMetadata, got {type(value).__name__}")
        object.__setattr__(self, "_init_metadata", value)

    # ------------------------------------------------------------------
    # Parameter iteration
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield every trainable parameter exactly once."""
        seen: set[int] = set()
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in registration order."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Gradient / mode management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        """Switch to training mode (enables dropout)."""
        for module in self.modules():
            object.__setattr__(module, "training", True)
        return self

    def eval(self) -> "Module":
        """Switch to inference mode (disables dropout)."""
        for module in self.modules():
            object.__setattr__(module, "training", False)
        return self

    @contextmanager
    def inference(self) -> Iterator["Module"]:
        """Run a block in serving mode: eval + tape-free fast path.

        Switches the module to eval (dropout off), enters
        :class:`~repro.nn.tensor.inference_mode` so forward passes build
        no autograd tape, and restores the previous training mode on
        exit.  The standard wrapper around every ``predict`` path.

        A nested entry on a module an enclosing scope already covers
        (the module is in eval and inference mode is on, as an enclosing
        ``inference()`` on it or an ancestor leaves it) yields at once:
        no module walk going in or coming out.
        """
        if not self.training and is_inference_mode():
            yield self
            return
        was_training = self.training
        self.eval()
        try:
            with inference_mode():
                yield self
        finally:
            if was_training:
                self.train()

    # ------------------------------------------------------------------
    # State IO
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of parameter names to array copies."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict matching)."""
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={missing}, unexpected={unexpected}")
        for name, param in own.items():
            incoming = np.asarray(state[name], dtype=DEFAULT_DTYPE)
            if incoming.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: saved {incoming.shape}, model {param.shape}"
                )
            param.data[...] = incoming
            param.version += 1

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """An indexable container that registers each child module."""

    def __init__(self, modules: list[Module] | None = None) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
