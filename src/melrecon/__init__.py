"""Unrolled model-based MRI reconstruction with two gradient engines:
standard full-graph backpropagation and memory-efficient learning by
layer inversion."""

from .tensor import (
    Tensor,
    MemoryLedger,
    fft_centered,
    ifft_centered,
    conv_nd,
    relu,
    add,
    scale,
    complex_to_channels,
    channels_to_complex,
    inner_product,
    norm2,
    melt_read,
    melt_write,
)
from .autodiff import Tape, apply_op, register_op
from .mri import (
    DatasetConfig,
    Dataset,
    EncodingOperator,
    SamplingMask,
    SensitivityMaps,
    build_dataset,
    load_dataset,
    make_kt_mask,
    make_phantom,
    make_poisson_disk_mask,
    make_sensitivities,
    save_dataset,
)
from .unrolled import (
    FixedPointDivergence,
    RegularizerParams,
    UnrolledNetParams,
    dc_forward,
    dc_invert,
    dc_vjp,
    modl_forward,
    project_weights,
    regularizer_forward,
    regularizer_invert,
)
from .mel import GradientResult, backprop_mel, backprop_standard, engine_report
from .train import (
    AdamState,
    TrainConfig,
    adam_step,
    cg_sense,
    load_checkpoint,
    psnr,
    save_checkpoint,
    ssim,
    train_loop,
    zero_filled,
)

__version__ = "0.1.0"
