"""Reference-grade strided tensor contraction library.

Provides general strided tensor descriptors, einsum-style label
classification, the ternary update ``D := alpha*A B + beta*C`` along
with binary and unary companions, an opaque handle/descriptor/execute
object layer, an independent brute-force oracle, and a conformance CLI.

The oracle's names (``DenseTensor``, ``densify``, ``oracle_contract``,
``ordered_contract``) are exported here too, but ``import tapp`` does
not load ``oracle.py``: the first read of one of them does (PEP 562), so
a program that only runs operations never compiles or runs it.
"""

from .core import (
    DType,
    TensorDesc,
    TensorView,
    dtype_promote,
    validate_view,
)
from .engine import (
    ContractionPlan,
    StatusRecord,
    binary_op,
    contract,
    make_binary_plan,
    make_plan,
    make_unary_plan,
    unary_op,
)
from .errors import ErrorCode, TappError, error_string
from .labels import (
    ClassifiedLabels,
    LabelGroup,
    LabelSpec,
    MergedTensorLabels,
    classify,
    merge_repeats,
    parse_einsum,
)
from .api import (
    Executor,
    Handle,
    OperationDescriptor,
    TensorInfo,
    VKVStore,
    tapp_create_binary_op,
    tapp_create_contraction,
    tapp_create_handle,
    tapp_create_tensor_info,
    tapp_create_unary_op,
    tapp_create_vkv,
    tapp_destroy_handle,
    tapp_error_string,
    tapp_execute_binary,
    tapp_execute_product,
    tapp_execute_unary,
    tapp_get_default_executor,
    tapp_vkv_get,
    tapp_vkv_set,
)

__version__ = "0.1.0"

_ORACLE_NAMES = ("DenseTensor", "densify", "oracle_contract", "ordered_contract")

__all__ = [
    "DType",
    "TensorDesc",
    "TensorView",
    "dtype_promote",
    "validate_view",
    "ContractionPlan",
    "StatusRecord",
    "binary_op",
    "contract",
    "make_binary_plan",
    "make_plan",
    "make_unary_plan",
    "unary_op",
    "ErrorCode",
    "TappError",
    "error_string",
    "ClassifiedLabels",
    "LabelGroup",
    "LabelSpec",
    "MergedTensorLabels",
    "classify",
    "merge_repeats",
    "parse_einsum",
    *_ORACLE_NAMES,
    "Executor",
    "Handle",
    "OperationDescriptor",
    "TensorInfo",
    "VKVStore",
    "tapp_create_binary_op",
    "tapp_create_contraction",
    "tapp_create_handle",
    "tapp_create_tensor_info",
    "tapp_create_unary_op",
    "tapp_create_vkv",
    "tapp_destroy_handle",
    "tapp_error_string",
    "tapp_execute_binary",
    "tapp_execute_product",
    "tapp_execute_unary",
    "tapp_get_default_executor",
    "tapp_vkv_get",
    "tapp_vkv_set",
]


def __getattr__(name: str):
    """Load the oracle on the first read of one of its names, and bind
    all four here, so later reads are plain attribute reads."""
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    for oracle_name in _ORACLE_NAMES:
        globals()[oracle_name] = getattr(oracle, oracle_name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORACLE_NAMES))
