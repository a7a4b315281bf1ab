//! The Relax virtual machine: the runtime half of the AOT compilation flow
//! (§4.7).
//!
//! After the optimization pipeline, a Relax program is "a program comprised
//! mainly of low-level function calls" — this crate defines that lowered
//! form ([`Instr`] / [`VmFunction`] / [`Executable`]), and interprets it:
//!
//! - **One instruction loop** ([`domain`]): registers and the shape heap,
//!   whose symbolic values are populated from input tensor shapes
//!   (`MatchShape`) and used to evaluate symbolic expressions when
//!   allocating tensors and constructing shapes. It is generic over a
//!   value domain: the [`Vm`] runs it over runtime values, and
//!   `relax-sim`'s dry run over shape-level ones.
//! - **Memory system** ([`memory`]): the loop's one [`Memory`] account: a
//!   [`memory::PooledAllocator`] for the unplanned baseline, and planned
//!   static storage (`AllocStorage` + `TensorFromStorage`) for Algorithm 3's
//!   memory-planning path, whose bytes the Table 2 experiment reads.
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
//! - **Paged KV caches** ([`kv_cache`]): the host makes a [`KvCache`] on a
//!   [`KvPagePool`] and passes it in as a register value; the cache is the
//!   one owner of its pages, and a VM holds no page pool.
//! - **Graph capture** (`CaptureRegion`): the CUDA Graph model — the first
//!   execution captures, subsequent executions replay with a single launch
//!   overhead (§4.5).

#![forbid(unsafe_code)]

pub mod domain;
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
pub use kv_cache::{stream_arg, KvCache, KvCacheConfig, KV_CACHE_PREFIX};
pub use memory::{KvPagePool, KvPageStats, KvPoolExhausted, Memory, StorageLedger, KV_PAGE_TOKENS};
pub use moe::MOE_PREFIX;
pub use plan_cache::{CachedPlan, PlanCacheStats, SharedPlanCache};
pub use value::{want, want_shape, Value};
pub use verify::{verify, VerifyError, Violation};
pub use vm::{launch_payload, FrameEntry, KernelStat, Telemetry, Vm, VmError, VmErrorKind};
