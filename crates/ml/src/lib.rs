//! # mpgraph-ml
//!
//! From-scratch neural-network substrate for the MPGraph reproduction:
//! dense tensors, trainable layers with explicit backward passes (Linear,
//! Embedding, LayerNorm, activations), scaled dot-product and multi-head
//! attention, Transformer encoder layers, an LSTM with BPTT (for the
//! paper's baselines), Adam/SGD optimizers, the losses the two predictors
//! train with, knowledge-distillation and int8-quantization utilities for
//! §6.1, PCA for the Figure 2 motivation study, and the evaluation metrics
//! of Tables 4, 6 and 7.
//!
//! Model sizes in the paper are small (Table 5: dims 64-128, history 9), so
//! full-precision CPU training is fast and exactly reproducible: every
//! random choice flows from a caller-provided [`tensor::rng`] seed.
//!
//! ```
//! use mpgraph_ml::layers::{Linear, Module};
//! use mpgraph_ml::optim::Adam;
//! use mpgraph_ml::tensor::{rng, Matrix};
//!
//! // Fit y = 3x with one dense layer.
//! let mut r = rng(0);
//! let mut layer = Linear::new(1, 1, &mut r);
//! let mut opt = Adam::new(0.05);
//! for _ in 0..200 {
//!     let x = Matrix::from_vec(4, 1, vec![-1.0, 0.5, 1.0, 2.0]);
//!     let y = layer.forward(&x);
//!     let mut d = Matrix::zeros(4, 1);
//!     for i in 0..4 { d.data[i] = (y.data[i] - 3.0 * x.data[i]) / 4.0; }
//!     layer.backward(&d);
//!     opt.step(&mut layer);
//! }
//! assert!((layer.w.w.data[0] - 3.0).abs() < 0.1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod arena;
pub mod attention;
pub mod guard;
pub mod layers;
pub mod loss;
pub mod lstm;
pub mod metrics;
pub mod optim;
pub mod pca;
pub mod quant;
pub mod tensor;
#[cfg(test)]
mod testutil;
pub mod transformer;

pub use arena::ScratchArena;
pub use attention::{MultiHeadAttention, SelfAttention};
pub use guard::{GuardAction, TrainGuard};
pub use layers::{Embedding, LayerNorm, Linear, Module, Param, Project, Relu, Sigmoid};
pub use loss::{bce_with_logits, distillation_loss, softmax_cross_entropy};
pub use lstm::{Lstm, LstmGates};
pub use metrics::{accuracy_at_k, multilabel_f1, top_k_indices, Prf};
pub use optim::{Adam, Sgd};
pub use pca::Pca;
pub use quant::{float_storage_bytes, quantize_module, QuantizedLinear, QuantizedTensor};
pub use tensor::{rng, Matrix};
pub use transformer::{FeedForward, TransformerLayer};
