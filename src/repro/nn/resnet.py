"""Residual networks (He et al. 2016), CIFAR-style stem.

``resnet18()`` reproduces the paper's backbone layout ([2, 2, 2, 2] basic
blocks); ``tiny_resnet()`` is a down-scaled variant that trains in seconds on
CPU and is used wherever a residual backbone is exercised in tests and
benchmarks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.activation import ReLU
from repro.nn.container import Sequential
from repro.nn.conv import Conv2d, run_stage
from repro.nn.module import Module
from repro.nn.norm import BatchNorm2d
from repro.nn.pool import GlobalAvgPool2d
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import fallback_rng


class BasicBlock(Module):
    """Two 3x3 convs with identity (or 1x1-projected) skip connection."""

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or fallback_rng()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1,
                            bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1,
                            bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = None

    def forward(self, x: Tensor) -> Tensor:
        # Each conv and its BatchNorm run as one conv stage (the first with
        # its ReLU); the shortcut's pair is a Sequential, which folds it.
        out = run_stage(x, self.conv1, self.bn1, relu=True)
        out = run_stage(out, self.conv2, self.bn2)
        skip = self.shortcut(x) if self.shortcut is not None else x
        return ops.relu(out + skip)


class ResNet(Module):
    """CIFAR-style ResNet: 3x3 stem (no max-pool), 4 stages, global pool.

    Parameters
    ----------
    blocks_per_stage:
        Number of BasicBlocks in each of the four stages.
    base_width:
        Channels of the first stage; doubled at each subsequent stage.
    in_channels:
        Input image channels.
    """

    def __init__(self, blocks_per_stage: Sequence[int] = (2, 2, 2, 2),
                 base_width: int = 64, in_channels: int = 3,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or fallback_rng()
        self.stem = Sequential(
            Conv2d(in_channels, base_width, 3, padding=1, bias=False, rng=rng),
            BatchNorm2d(base_width),
            ReLU(),
        )
        stages: list[Module] = []
        channels = base_width
        in_ch = base_width
        for stage_index, num_blocks in enumerate(blocks_per_stage):
            stride = 1 if stage_index == 0 else 2
            for block_index in range(num_blocks):
                block_stride = stride if block_index == 0 else 1
                stages.append(BasicBlock(in_ch, channels, stride=block_stride, rng=rng))
                in_ch = channels
            channels *= 2
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.output_dim = in_ch

    def forward(self, x: Tensor) -> Tensor:
        return self.pool(self.stages(self.stem(x)))


def resnet18(in_channels: int = 3, rng: np.random.Generator | None = None) -> ResNet:
    """The paper's backbone: ResNet-18 layout with a CIFAR stem."""
    return ResNet((2, 2, 2, 2), base_width=64, in_channels=in_channels, rng=rng)


def tiny_resnet(in_channels: int = 3, rng: np.random.Generator | None = None) -> ResNet:
    """CPU-scale residual backbone: 2 stages of 1 block, 8 base channels."""
    return ResNet((1, 1), base_width=8, in_channels=in_channels, rng=rng)
