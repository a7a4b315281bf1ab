//! Multi-session serving over the Relax VM.
//!
//! The paper's runtime story ends with one VM executing one program; a
//! serving deployment runs *many sessions of the same program* at once,
//! and keeps running them when workers fail. This crate supplies that
//! layer as **one serving core** behind **one front door**:
//!
//! - the **core** (`core.rs`, DESIGN.md "Serving core") — an unbounded
//!   admission deque, an iteration loop that dispatches one step per
//!   running unit to a supervised worker pool, deadline shedding, retry of
//!   lost steps, earliest-deadline eviction under page-pool pressure,
//!   panic containment and respawn, stall detection, and one accounting
//!   identity (`submitted == retired + evicted + failed + shed`);
//! - **[`SessionManager`]** — generation sessions: each owns a paged KV
//!   cache on a shared [`relax_vm::KvPagePool`] and steps through its
//!   prompt, decode and speculative decode with continuous batching.
//!   Failures are typed ([`SessionError`]); a [`SessionTicket`] never
//!   hangs.
//!
//! All worker VMs of a manager share one [`relax_vm::SharedPlanCache`]
//! per executable: a shape specialized by any worker is a hit for every
//! other. [`chaos`] drives a manager under seeded random fault schedules
//! and checks the robustness invariants (typed resolution, bitwise-correct
//! survivors, page-pool reconciliation); it also holds the
//! [`chaos::ManualClock`] tests use to move time.
//!
//! ```
//! use std::sync::Arc;
//! use relax_models::llama::{build_decode_paged, LlamaConfig};
//! use relax_passes::{compile, CompileOptions};
//! use relax_serve::{SessionConfig, SessionManager, SessionModelSpec, SessionRequest};
//! use relax_vm::KvCacheConfig;
//! # use relax_core::{ShapeDesc, StructInfo};
//! # use relax_tir::NDArray;
//! # use relax_vm::Value;
//!
//! let cfg = LlamaConfig::tiny();
//! let ir = build_decode_paged(&cfg)?;
//! # let weights = ir.params.iter().filter(|(n, _)| n != "tokens" && n != "kv_cache");
//! # let weights = weights.map(|(_, sinfo)| match sinfo {
//! #     StructInfo::Tensor { shape: ShapeDesc::Known(dims), dtype: Some(dt) } => {
//! #         let env = std::collections::HashMap::new();
//! #         let dims: Vec<usize> = dims.iter().map(|d| d.eval(&env).unwrap() as usize).collect();
//! #         Value::Tensor(NDArray::zeros(&dims, *dt))
//! #     }
//! #     other => panic!("unexpected weight annotation {other}"),
//! # });
//! let spec = SessionModelSpec {
//!     decode: Arc::new(compile(ir.module.clone(), &CompileOptions::default())?),
//!     decode_func: "decode_paged".into(),
//!     prefill: None,
//!     prefill_func: String::new(),
//!     weights: weights.collect(),
//!     cache: KvCacheConfig {
//!         streams: 2 * cfg.n_layers,
//!         batch: 1,
//!         heads: cfg.n_kv_heads as usize,
//!         head_dim: cfg.head_dim as usize,
//!         dtype: cfg.dtype,
//!     },
//!     speculative: None,
//! };
//! let mgr = SessionManager::new(spec, SessionConfig { workers: 2, ..SessionConfig::default() });
//! let ticket = mgr.submit(SessionRequest {
//!     prompt: vec![3, 1, 4],
//!     max_new_tokens: 2,
//!     deadline: None,
//! });
//! assert_eq!(ticket.wait()?.tokens.len(), 2);
//! let stats = mgr.shutdown();
//! assert_eq!((stats.submitted, stats.retired), (1, 1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod admission;
pub mod chaos;
mod clock;
mod core;
mod session;
mod telemetry;

pub use session::{
    SessionConfig, SessionError, SessionManager, SessionModelSpec, SessionOutput, SessionRequest,
    SessionStats, SessionTicket, SpeculativeSpec,
};
