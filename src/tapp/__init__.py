"""Reference-grade strided tensor contraction library.

Provides general strided tensor descriptors, einsum-style label
classification, the ternary update ``D := alpha*A B + beta*C`` along
with binary and unary companions, an opaque handle/descriptor/execute
object layer, an independent brute-force oracle, and a conformance CLI.
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
from .oracle import DenseTensor, densify, oracle_contract, ordered_contract
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
