//! The Relax virtual machine: the runtime half of the AOT compilation flow
//! (§4.7).
//!
//! After the optimization pipeline, a Relax program is "a program comprised
//! mainly of low-level function calls" — this crate defines that lowered
//! form ([`Instr`] / [`VmFunction`] / [`Executable`]), and interprets it:
//!
//! - **Shape heap** ([`Vm`]): runtime values of symbolic variables are
//!   populated from input tensor shapes (`MatchShape`) and used to evaluate
//!   symbolic expressions when allocating tensors and constructing shapes.
//! - **Memory system** ([`memory`]): a [`memory::PooledAllocator`] for the
//!   unplanned baseline, and planned static storage (`AllocStorage` +
//!   `TensorFromStorage`) for the memory-planning path of Algorithm 3, with
//!   byte-level telemetry that the Table 2 experiment reads.
//! - **Tensor programs**: generated kernels run as shape-specialized
//!   kernel plans ([`relax_tir::plan`]) from a shared LRU cache. A kernel
//!   the planner refuses fails its launch with a typed error. The
//!   [`relax_tir::interp`] reference interpreter runs only at plan-cache
//!   capacity 0: the oracle that plans are tested against.
//! - **Foreign functions** ([`registry`]): one table of native Rust
//!   functions, each registered with its signature. "Vendor library"
//!   kernels are called destination-passing; runtime builtins (`unique`,
//!   the paged KV-cache and MoE routing builtins) take register values and
//!   return one. The validator checks calls against the table, and the VM
//!   calls every foreign function through it.
//! - **Graph capture** (`CaptureRegion`): the CUDA Graph model — the first
//!   execution captures, subsequent executions replay with a single launch
//!   overhead (§4.5).

#![forbid(unsafe_code)]

mod exec;
pub mod fault;
pub mod kv_cache;
pub mod memory;
pub mod moe;
mod plan_cache;
pub mod registry;
mod value;
pub mod verify;
mod vm;

pub use exec::{Executable, Instr, Reg, VmFunction};
pub use fault::{FaultInjector, FaultPlan, FaultSite, FiredFault};
pub use kv_cache::{KvCache, KvCacheConfig, KV_CACHE_PREFIX};
pub use memory::{KvPagePool, KvPageStats, KvPoolExhausted};
pub use moe::MOE_PREFIX;
pub use plan_cache::{CachedPlan, PlanCacheStats, SharedPlanCache};
pub use value::Value;
pub use verify::{verify, VerifyError, Violation};
pub use vm::{FrameEntry, KernelStat, Telemetry, Vm, VmError, VmErrorKind};
