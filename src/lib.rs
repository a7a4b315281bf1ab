//! # Relax: composable abstractions for end-to-end dynamic machine learning
//!
//! This crate is the facade of a Rust reproduction of the ASPLOS'25 paper
//! *Relax: Composable Abstractions for End-to-End Dynamic Machine Learning*.
//! It re-exports the workspace members so applications can depend on a single
//! crate:
//!
//! - [`arith`]: symbolic integer expressions, simplification and proofs;
//! - [`tir`]: the loop-level tensor program substrate (TensorIR equivalent);
//! - [`core`]: the Relax IR itself — annotations, dataflow blocks, the
//!   cross-level `call_tir` / `call_dps_library` primitives, and forward
//!   symbolic shape deduction;
//! - [`passes`]: the optimization pipeline (fusion, memory planning,
//!   workspace lifting, library dispatch, graph capture, VM codegen);
//! - [`vm`]: the runtime virtual machine, tensors and allocators;
//! - [`serve`]: multi-session serving — `SessionManager`, generation
//!   sessions over paged KV caches with continuous batching, on one
//!   self-healing serving core (panic containment, stall detection,
//!   retries, a seeded chaos harness) and a shared kernel plan cache;
//! - [`sim`]: the device performance simulator used by the benchmark
//!   harness;
//! - [`models`]: `nn.Module`-style model builders (LLM decoder, Whisper,
//!   LLaVA) used in the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use relax::core::{BlockBuilder, IRModule, StructInfo, DataType};
//! use relax::arith::PrimExpr;
//!
//! // Build `main(x: Tensor((n, 4), f32)) -> relu(matmul(x, x^T))`-style graphs
//! // with symbolic shapes; see the `quickstart` example for a full program.
//! let n = relax::arith::Var::new("n");
//! let shape = vec![PrimExpr::from(n.clone()), PrimExpr::from(4i64)];
//! let sinfo = StructInfo::tensor(shape, DataType::F32);
//! assert_eq!(format!("{sinfo}"), "Tensor((n, 4), \"f32\")");
//! # let _ = IRModule::new();
//! # let _ = BlockBuilder::new();
//! ```

#![forbid(unsafe_code)]

pub use relax_arith as arith;
pub use relax_core as core;
pub use relax_models as models;
pub use relax_passes as passes;
pub use relax_serve as serve;
pub use relax_sim as sim;
pub use relax_tir as tir;
pub use relax_trace as trace;
pub use relax_vm as vm;
