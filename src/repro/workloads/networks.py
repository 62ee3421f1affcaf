"""Network builders for the paper's evaluation workloads.

Each builder returns a :class:`~repro.ir.dag.Graph`.  CNN backbones are
encoded at their true layer shapes (ResNet-50 / WideResNet-50 /
MobileNet-V2 / DCGAN exactly; Inception-V3, DenseNet-121 and DeepLabV3
as faithful representative subsets — deduplication makes the task sets
equivalent for tuning purposes).  Transformers follow
Table 4's configurations.

Conventions: NCHW convs, fp32 by default; language models accept
``dtype="float16"`` for the TensorCore experiments (Section 6.4).
"""

from __future__ import annotations

from repro.ir import ops
from repro.ir.dag import Graph, GraphBuilder
from repro.ir.partition import SubgraphTask, dedupe_tasks


# ----------------------------------------------------------------------
# small graph-building helpers
# ----------------------------------------------------------------------
def _conv(
    gb: GraphBuilder,
    prev: int | None,
    batch: int,
    in_c: int,
    hw: int,
    out_c: int,
    kernel: int,
    stride: int = 1,
    relu: bool = True,
    dtype: str = "float32",
) -> tuple[int, int]:
    """Append conv (+bn+relu epilogue); returns (node_id, output hw)."""
    node = gb.add(
        ops.conv2d(batch, in_c, hw, hw, out_c, kernel, stride, dtype=dtype),
        inputs=[prev] if prev is not None else None,
    )
    out_hw = max(1, (hw + stride - 1) // stride)
    node = gb.add(
        ops.elementwise((batch, out_c, out_hw, out_hw), op="bn", dtype=dtype),
        inputs=[node],
    )
    if relu:
        node = gb.add(
            ops.elementwise((batch, out_c, out_hw, out_hw), op="relu", dtype=dtype),
            inputs=[node],
        )
    return node, out_hw


def _mm(
    gb: GraphBuilder,
    prev: int | None,
    m: int,
    n: int,
    k: int,
    *,
    batch: int = 1,
    epilogue: str | None = "add",
    dtype: str = "float32",
) -> int:
    """Append a (batched) matmul with an optional element-wise epilogue."""
    node = gb.add(
        ops.matmul(m, n, k, batch=batch, dtype=dtype),
        inputs=[prev] if prev is not None else None,
    )
    if epilogue:
        shape = (batch, m, n) if batch > 1 else (m, n)
        node = gb.add(ops.elementwise(shape, op=epilogue, dtype=dtype), inputs=[node])
    return node


# ----------------------------------------------------------------------
# ResNet family
# ----------------------------------------------------------------------
def _bottleneck(
    gb: GraphBuilder,
    prev: int,
    batch: int,
    in_c: int,
    mid_c: int,
    hw: int,
    stride: int,
) -> tuple[int, int]:
    """ResNet-50 bottleneck: 1x1 -> 3x3(stride) -> 1x1 (+ residual add)."""
    out_c = mid_c * 4
    n, _ = _conv(gb, prev, batch, in_c, hw, mid_c, 1)
    n, out_hw = _conv(gb, n, batch, mid_c, hw, mid_c, 3, stride)
    n, _ = _conv(gb, n, batch, mid_c, out_hw, out_c, 1, relu=False)
    if stride != 1 or in_c != out_c:  # projection shortcut
        _conv(gb, prev, batch, in_c, hw, out_c, 1, stride, relu=False)
    n = gb.add(ops.elementwise((batch, out_c, out_hw, out_hw), op="add"), inputs=[n])
    n = gb.add(ops.elementwise((batch, out_c, out_hw, out_hw), op="relu"), inputs=[n])
    return n, out_hw


def resnet50(batch: int = 1, width: int = 1, **_: object) -> Graph:
    """ResNet-50 at 224x224 (``width=2`` gives WideResNet-50-2)."""
    gb = GraphBuilder()
    n, hw = _conv(gb, None, batch, 3, 224, 64, 7, 2)
    n = gb.add(ops.pool2d(batch, 64, hw, hw, 3, 2), inputs=[n])
    hw = 56
    in_c = 64
    for stage, (mid, blocks, stride) in enumerate(
        [(64, 3, 1), (128, 4, 2), (256, 6, 2), (512, 3, 2)]
    ):
        mid_c = mid * width
        for b in range(blocks):
            n, hw = _bottleneck(gb, n, batch, in_c, mid_c, hw, stride if b == 0 else 1)
            in_c = mid_c * 4
    n = gb.add(ops.pool2d(batch, in_c, hw, hw, hw, hw), inputs=[n])
    _mm(gb, n, batch, 1000, in_c, epilogue=None)
    return gb.graph()


def wide_resnet50(batch: int = 1, **_: object) -> Graph:
    """WideResNet-50-2: bottlenecks with doubled inner width."""
    return resnet50(batch=batch, width=2)


def resnet3d18(batch: int = 1, **_: object) -> Graph:
    """ResNet3D-18 (TenSet test set): 3-D convs folded as conv2d with the
    temporal dim merged into the batch axis (depth 16, 112x112 input)."""
    gb = GraphBuilder()
    depth = 16
    n, hw = _conv(gb, None, batch * depth, 3, 112, 64, 7, 2)
    in_c = 64
    for mid_c, blocks, stride in [(64, 2, 1), (128, 2, 2), (256, 2, 2), (512, 2, 2)]:
        for b in range(blocks):
            s = stride if b == 0 else 1
            n, hw2 = _conv(gb, n, batch * depth, in_c, hw, mid_c, 3, s)
            n, _ = _conv(gb, n, batch * depth, mid_c, hw2, mid_c, 3, 1, relu=False)
            n = gb.add(
                ops.elementwise((batch * depth, mid_c, hw2, hw2), op="add"), inputs=[n]
            )
            in_c, hw = mid_c, hw2
    _mm(gb, n, batch, 400, in_c, epilogue=None)
    return gb.graph()


# ----------------------------------------------------------------------
# other CNNs
# ----------------------------------------------------------------------
def inception_v3(batch: int = 1, **_: object) -> Graph:
    """Inception-V3 at 299x299: exact stem + representative mixed blocks."""
    gb = GraphBuilder()
    n, hw = _conv(gb, None, batch, 3, 299, 32, 3, 2)  # 150
    n, hw = _conv(gb, n, batch, 32, hw, 32, 3, 1)
    n, hw = _conv(gb, n, batch, 32, hw, 64, 3, 1)
    n = gb.add(ops.pool2d(batch, 64, hw, hw, 3, 2), inputs=[n])
    hw = 75
    n, hw = _conv(gb, n, batch, 64, hw, 80, 1, 1)
    n, hw = _conv(gb, n, batch, 80, hw, 192, 3, 2)  # 38
    # 3x Mixed blocks at 35x35 (1x1 / 5x5 / double-3x3 branches)
    for _rep in range(3):
        _conv(gb, n, batch, 192, 35, 64, 1)
        p, _ = _conv(gb, n, batch, 192, 35, 48, 1)
        _conv(gb, p, batch, 48, 35, 64, 5)
        p, _ = _conv(gb, n, batch, 192, 35, 64, 1)
        p, _ = _conv(gb, p, batch, 64, 35, 96, 3)
        n, _ = _conv(gb, p, batch, 96, 35, 96, 3)
    # 4x Mixed blocks at 17x17 (factorized 7x7 modelled as 7-wide convs)
    n, _ = _conv(gb, n, batch, 288, 17, 768, 1)
    for _rep in range(4):
        _conv(gb, n, batch, 768, 17, 192, 1)
        p, _ = _conv(gb, n, batch, 768, 17, 160, 1)
        p, _ = _conv(gb, p, batch, 160, 17, 160, 7)
        n, _ = _conv(gb, p, batch, 160, 17, 192, 7)
    # 2x Mixed blocks at 8x8
    n, _ = _conv(gb, n, batch, 768, 8, 1280, 1)
    for _rep in range(2):
        _conv(gb, n, batch, 1280, 8, 320, 1)
        p, _ = _conv(gb, n, batch, 1280, 8, 384, 1)
        n, _ = _conv(gb, p, batch, 384, 8, 384, 3)
    n = gb.add(ops.pool2d(batch, 2048, 8, 8, 8, 8), inputs=[n])
    _mm(gb, n, batch, 1000, 2048, epilogue=None)
    return gb.graph()


def densenet121(batch: int = 1, **_: object) -> Graph:
    """DenseNet-121 (exact dense-block channel growth, growth rate 32)."""
    gb = GraphBuilder()
    n, hw = _conv(gb, None, batch, 3, 224, 64, 7, 2)
    n = gb.add(ops.pool2d(batch, 64, hw, hw, 3, 2), inputs=[n])
    hw = 56
    c = 64
    for i, layers in enumerate([6, 12, 24, 16]):
        for layer in range(layers):
            b, _ = _conv(gb, n, batch, c + 32 * layer, hw, 128, 1)
            b, _ = _conv(gb, b, batch, 128, hw, 32, 3)
            n = b
        c += 32 * layers
        if i < 3:  # transition: halve channels and resolution
            n, _ = _conv(gb, n, batch, c, hw, c // 2, 1)
            c //= 2
            n = gb.add(ops.pool2d(batch, c, hw, hw, 2, 2), inputs=[n])
            hw //= 2
    _mm(gb, n, batch, 1000, c, epilogue=None)
    return gb.graph()


def mobilenet_v2(batch: int = 1, **_: object) -> Graph:
    """MobileNet-V2 (exact inverted-residual configuration)."""
    gb = GraphBuilder()
    n, hw = _conv(gb, None, batch, 3, 224, 32, 3, 2)
    in_c = 32
    settings = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ]
    for t, c, reps, s in settings:
        for rep in range(reps):
            stride = s if rep == 0 else 1
            exp = in_c * t
            if t != 1:
                n, _ = _conv(gb, n, batch, in_c, hw, exp, 1)
            dw = gb.add(
                ops.depthwise_conv2d(batch, exp, hw, hw, 3, stride), inputs=[n]
            )
            hw = max(1, (hw + stride - 1) // stride)
            n = gb.add(ops.elementwise((batch, exp, hw, hw), op="relu6"), inputs=[dw])
            n, _ = _conv(gb, n, batch, exp, hw, c, 1, relu=False)
            in_c = c
    n, _ = _conv(gb, n, batch, 320, hw, 1280, 1)
    _mm(gb, n, batch, 1000, 1280, epilogue=None)
    return gb.graph()


def dcgan(batch: int = 1, **_: object) -> Graph:
    """DCGAN generator: z(100) -> 64x64x3 through transposed convs."""
    gb = GraphBuilder()
    n = _mm(gb, None, batch, 1024 * 4 * 4, 100, epilogue="relu")
    hw, in_c = 4, 1024
    for out_c in (512, 256, 128):
        n = gb.add(
            ops.conv2d_transpose(batch, in_c, hw, hw, out_c, 4, 2), inputs=[n]
        )
        hw *= 2
        n = gb.add(ops.elementwise((batch, out_c, hw, hw), op="relu"), inputs=[n])
        in_c = out_c
    n = gb.add(ops.conv2d_transpose(batch, in_c, hw, hw, 3, 4, 2), inputs=[n])
    gb.add(ops.elementwise((batch, 3, hw * 2, hw * 2), op="tanh"), inputs=[n])
    return gb.graph()


def deeplabv3_r50(batch: int = 1, **_: object) -> Graph:
    """DeepLabV3 with ResNet-50 backbone (output stride 16) + ASPP head."""
    gb = GraphBuilder()
    n, hw = _conv(gb, None, batch, 3, 224, 64, 7, 2)
    n = gb.add(ops.pool2d(batch, 64, hw, hw, 3, 2), inputs=[n])
    hw = 56
    in_c = 64
    # layer4 keeps 14x14 (dilated instead of strided)
    for mid, blocks, stride in [(64, 3, 1), (128, 4, 2), (256, 6, 2), (512, 3, 1)]:
        for b in range(blocks):
            n, hw = _bottleneck(gb, n, batch, in_c, mid, hw, stride if b == 0 else 1)
            in_c = mid * 4
    # ASPP: 1x1 + three (dilated) 3x3 branches + projection
    for kernel in (1, 3, 3, 3):
        _conv(gb, n, batch, 2048, hw, 256, kernel)
    n, _ = _conv(gb, n, batch, 2048, hw, 256, 1)
    n, _ = _conv(gb, n, batch, 256 * 5, hw, 256, 1)
    _conv(gb, n, batch, 256, hw, 21, 1, relu=False)
    return gb.graph()


# ----------------------------------------------------------------------
# transformers
# ----------------------------------------------------------------------
def _attention(
    gb: GraphBuilder,
    prev: int,
    tokens: int,
    hidden: int,
    heads: int,
    batch: int,
    dtype: str,
    kv_tokens: int | None = None,
) -> int:
    """Multi-head attention: QKV proj, QK^T, softmax, attn*V, out proj."""
    kv = kv_tokens or tokens
    head_dim = hidden // heads
    n = _mm(gb, prev, batch * tokens, 3 * hidden, hidden, epilogue=None, dtype=dtype)
    n = gb.add(
        ops.batch_matmul(batch * heads, tokens, kv, head_dim, dtype=dtype), inputs=[n]
    )
    n = gb.add(
        ops.elementwise((batch * heads, tokens, kv), op="softmax", dtype=dtype),
        inputs=[n],
    )
    n = gb.add(
        ops.batch_matmul(batch * heads, tokens, head_dim, kv, dtype=dtype), inputs=[n]
    )
    n = _mm(gb, n, batch * tokens, hidden, hidden, epilogue="add", dtype=dtype)
    return n


def _transformer(
    layers: int,
    heads: int,
    hidden: int,
    intermediate: int,
    tokens: int,
    batch: int = 1,
    dtype: str = "float32",
    gated_mlp: bool = False,
) -> Graph:
    """Encoder-style transformer stack (Table 4 configurations)."""
    gb = GraphBuilder()
    n = _mm(gb, None, batch * tokens, hidden, hidden, epilogue="norm", dtype=dtype)
    for _ in range(layers):
        n = _attention(gb, n, tokens, hidden, heads, batch, dtype)
        n = gb.add(
            ops.elementwise((batch * tokens, hidden), op="norm", dtype=dtype),
            inputs=[n],
        )
        if gated_mlp:  # Llama / Mistral: gate, up, down projections
            g = _mm(gb, n, batch * tokens, intermediate, hidden, epilogue="silu", dtype=dtype)
            u = _mm(gb, n, batch * tokens, intermediate, hidden, epilogue=None, dtype=dtype)
            m = gb.add(
                ops.elementwise((batch * tokens, intermediate), 2, "mul", dtype=dtype),
                inputs=[g, u],
            )
            n = _mm(gb, m, batch * tokens, hidden, intermediate, epilogue="add", dtype=dtype)
        else:
            n = _mm(gb, n, batch * tokens, intermediate, hidden, epilogue="gelu", dtype=dtype)
            n = _mm(gb, n, batch * tokens, hidden, intermediate, epilogue="add", dtype=dtype)
        n = gb.add(
            ops.elementwise((batch * tokens, hidden), op="norm", dtype=dtype),
            inputs=[n],
        )
    return gb.graph()


def bert_base(batch: int = 1, seq: int = 128, dtype: str = "float32", **_) -> Graph:
    return _transformer(12, 12, 768, 3072, seq, batch, dtype)


def bert_tiny(batch: int = 1, seq: int = 128, dtype: str = "float32", **_) -> Graph:
    return _transformer(6, 8, 512, 2048, seq, batch, dtype)


def bert_large(batch: int = 1, seq: int = 128, dtype: str = "float32", **_) -> Graph:
    return _transformer(24, 16, 1024, 4096, seq, batch, dtype)


def gpt2(batch: int = 1, seq: int = 128, dtype: str = "float32", **_) -> Graph:
    return _transformer(12, 12, 768, 3072, seq, batch, dtype)


def llama(batch: int = 1, seq: int = 128, dtype: str = "float32", **_) -> Graph:
    """Table 4 'Llama': 12 layers, hidden 768, gated MLP 3072."""
    return _transformer(12, 12, 768, 3072, seq, batch, dtype, gated_mlp=True)


def opt_1_3b(batch: int = 1, seq: int = 128, dtype: str = "float32", **_) -> Graph:
    return _transformer(24, 32, 2048, 8192, seq, batch, dtype)


def mistral_7b(batch: int = 1, seq: int = 128, dtype: str = "float32", **_) -> Graph:
    return _transformer(32, 32, 4096, 14336, seq, batch, dtype, gated_mlp=True)


def vit(batch: int = 1, **_: object) -> Graph:
    """ViT-Base on 256x256 images (16x16 patches -> 256 tokens)."""
    gb = GraphBuilder()
    gb.add(ops.conv2d(batch, 3, 256, 768, 16, 16))  # patch embedding
    body = _transformer(12, 12, 768, 3072, 256, batch)
    for node in body.nodes:  # merge the transformer body into this graph
        gb.add(
            node.workload,
            inputs=[i + 1 for i in node.inputs],
        )
    return gb.graph()


def detr(batch: int = 1, **_: object) -> Graph:
    """DeTR: ResNet-50 backbone at 256x256 + 6/6 encoder-decoder (d=256)."""
    gb = GraphBuilder()
    n, hw = _conv(gb, None, batch, 3, 256, 64, 7, 2)
    in_c = 64
    hw = 64
    for mid, blocks, stride in [(64, 3, 1), (128, 4, 2), (256, 6, 2), (512, 3, 2)]:
        for b in range(blocks):
            n, hw = _bottleneck(gb, n, batch, in_c, mid, hw, stride if b == 0 else 1)
            in_c = mid * 4
    n, _ = _conv(gb, n, batch, 2048, hw, 256, 1)  # input projection, 8x8 tokens
    tokens = hw * hw
    for _ in range(6):  # encoder
        n = _attention(gb, n, tokens, 256, 8, batch, "float32")
        n = _mm(gb, n, batch * tokens, 2048, 256, epilogue="gelu")
        n = _mm(gb, n, batch * tokens, 256, 2048, epilogue="add")
    for _ in range(6):  # decoder: self-attn on 100 queries + cross-attn
        n = _attention(gb, n, 100, 256, 8, batch, "float32")
        n = _attention(gb, n, 100, 256, 8, batch, "float32", kv_tokens=tokens)
        n = _mm(gb, n, batch * 100, 2048, 256, epilogue="gelu")
        n = _mm(gb, n, batch * 100, 256, 2048, epilogue="add")
    return gb.graph()


# ----------------------------------------------------------------------
# special-purpose task sets
# ----------------------------------------------------------------------
def llama_decode_tasks(
    batch: int = 32,
    context: int = 1024,
    hidden: int = 768,
    heads: int = 12,
    intermediate: int = 3072,
    layers: int = 12,
    dtype: str = "float32",
) -> list[SubgraphTask]:
    """Llama token-by-token decoding ops (Figures 10 and 13).

    Per decoded token: fixed linear projections (m = batch), and
    attention matmuls whose KV extent is the context length.
    """
    head_dim = hidden // heads
    tasks = [
        # Proj q/k/v/o: 4 per layer
        SubgraphTask(
            ops.matmul(batch, hidden, hidden, dtype=dtype).with_fused("add"),
            weight=4 * layers,
        ),
        # Proj gate/up
        SubgraphTask(
            ops.matmul(batch, intermediate, hidden, dtype=dtype).with_fused("silu"),
            weight=2 * layers,
        ),
        # Proj down
        SubgraphTask(
            ops.matmul(batch, hidden, intermediate, dtype=dtype).with_fused("add"),
            weight=layers,
        ),
        # QK^T over the KV cache
        SubgraphTask(
            ops.batch_matmul(batch * heads, 1, context, head_dim, dtype=dtype),
            weight=layers,
        ),
        # attn * V
        SubgraphTask(
            ops.batch_matmul(batch * heads, 1, head_dim, context, dtype=dtype),
            weight=layers,
        ),
    ]
    return dedupe_tasks(tasks)


def single_op_suite() -> dict[str, object]:
    """The Figure 11 single-operator benchmark cases.

    M-k are matmuls with 'random' (fixed, representative) shapes, C1-k
    stride-1 convs, C2-k stride-2 convs.
    """
    return {
        "M-1": ops.matmul(512, 1024, 512),
        "M-2": ops.matmul(64, 128, 8192),  # splitK-friendly long reduction
        "M-3": ops.matmul(960, 770, 384),
        "C1-1": ops.conv2d(1, 64, 56, 56, 64, 3, 1),
        "C1-2": ops.conv2d(1, 128, 28, 28, 128, 3, 1),
        "C1-3": ops.conv2d(1, 32, 112, 112, 64, 3, 1),
        "C1-4": ops.conv2d(1, 256, 14, 14, 256, 3, 1),
        "C2-1": ops.conv2d(1, 64, 56, 56, 128, 3, 2),
        "C2-2": ops.conv2d(1, 128, 28, 28, 256, 3, 2),
        "C2-3": ops.conv2d(1, 3, 224, 224, 64, 7, 2),
        "C2-4": ops.conv2d(1, 256, 14, 14, 512, 3, 2),
    }
