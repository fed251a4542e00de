"""Tour of the tape-based autodiff core and the frozen encoder.

Builds a tiny expression graph, backpropagates through it, verifies the
analytic gradients against central differences, and runs the seeded
transformer encoder on a tokenized sentence pair.
"""

import numpy as np

from adapterdistill import tensor as T
from adapterdistill.backbone import Backbone, BackboneConfig, tokenize_pair
from adapterdistill.tensor import Tensor, backward, grad_check


def main():
    print("-- reverse-mode autodiff --")
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3)))
    loss = T.tsum(T.gelu(T.matmul(x, w)))
    backward(loss)
    print(f"loss = {loss.item():.6f}")
    print(f"dloss/dw =\n{w.grad.round(4)}")

    err = grad_check(lambda: T.tsum(T.gelu(T.matmul(x, w))), [w])
    print(f"max relative error vs central differences: {err:.2e}")

    print("\n-- frozen encoder --")
    config = BackboneConfig(vocab_size=1024, hidden_dim=32, num_layers=2,
                            num_heads=4, ffn_dim=64, max_seq_len=16)
    bb = Backbone(config)
    print(f"parameters: {bb.param_count()}, weights hash: {bb.weights_hash()[:16]}...")

    ids, mask = tokenize_pair("how do i reset my password",
                              "forgot password help", config.max_seq_len,
                              config.vocab_size)
    hidden = []

    def record(layer, h):  # the adapter insertion point; returning h adds nothing
        hidden.append(h)
        return h

    pooled = bb.forward(ids, mask, adapter_hook=record)
    print(f"token ids: {ids[:8]}... ({int(mask.sum())} real tokens)")
    print(f"per-layer hidden states: {len(hidden)} x {hidden[0].data.shape}")
    print(f"pooled representation: shape {pooled.data.shape}, "
          f"norm {np.linalg.norm(pooled.data):.4f}")
    print("the encoder is frozen: rerunning the forward pass is bit-identical:",
          (bb.forward(ids, mask).data == pooled.data).all())


if __name__ == "__main__":
    main()
