"""Neural-network building blocks on top of :mod:`repro.tensor`.

The package mirrors the subset of ``torch.nn`` the paper's models need:
parameter containers with train/eval modes and state dicts, dense and
convolutional layers, batch normalization, pooling, and the three backbone
families used in the experiments (MLP, a small ConvNet, and ResNet).
"""

from repro.nn.module import Module, Parameter
from repro.nn.container import Sequential
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.norm import BatchNorm1d, BatchNorm2d
from repro.nn.pool import MaxPool2d, GlobalAvgPool2d
from repro.nn.activation import ReLU
from repro.nn.mlp import MLP
from repro.nn.convnet import TinyConvNet
from repro.nn.resnet import ResNet, BasicBlock, resnet18, tiny_resnet
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "ReLU",
    "MLP",
    "TinyConvNet",
    "ResNet",
    "BasicBlock",
    "resnet18",
    "tiny_resnet",
    "init",
]
