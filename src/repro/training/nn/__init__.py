"""A small, real neural-network substrate in numpy.

This is not a toy wrapper: forward, backward, losses and SGD are
implemented from scratch and gradient-checked in the test suite.  The
convergence experiments (Figures 5 and 6) train these networks under the
*same* synchronization semantics HetPipe defines — what is substituted
relative to the paper is only the model scale (an MLP on synthetic data
instead of ResNet/VGG on ImageNet), not the training mathematics.
"""

from repro.training.nn.data import SyntheticDataset, make_classification, make_convex_problem
from repro.training.nn.layers import Dense, ReLU
from repro.training.nn.loss import accuracy, softmax_cross_entropy
from repro.training.nn.network import MLP
from repro.training.nn.optimizer import SGD

__all__ = [
    "Dense",
    "MLP",
    "ReLU",
    "SGD",
    "SyntheticDataset",
    "accuracy",
    "make_classification",
    "make_convex_problem",
    "softmax_cross_entropy",
]
