//! Cross-level optimization passes and the compile pipeline (§4).
//!
//! The passes operate on the cross-level [`relax_core::IRModule`] — graph
//! functions and tensor programs together — then lower to the
//! [`relax_vm::Executable`] instruction form, on which the exec-stage
//! passes run. Each pass is a public function; [`compile`] calls them in
//! one fixed order:
//!
//! | Paper section | Function | Runs on |
//! |---|---|---|
//! | §3.1 purity cleanup | [`fold_constants`] | module |
//! | §3.1 purity cleanup | [`common_subexpr_elimination`] | module |
//! | §3.1 purity cleanup | [`dead_code_elimination`] | module |
//! | §4.6 partial library lowering | [`dispatch_library`] | module |
//! | §4.7 operator legalization | [`legalize_module`] | module |
//! | §4.2 analysis feedback (Alg. 1) | [`annotate_compute_patterns`] | module |
//! | §4.2 FuseOps (Alg. 2) | [`fuse_ops`] | module |
//! | §4.2 FuseTensorIR | [`fuse_tensor_ir`] | module |
//! | §4.4 workspace lifting | [`lift_tir_workspaces`] | module |
//! | §4.7 build | [`lower_to_vm`] | module → executable |
//! | §4.7 kernel scheduling | [`schedule_kernels`] | executable |
//! | §4.3 memory planning (Alg. 3) | [`plan_memory`] | executable |
//! | §4.5 CUDA-graph-style offload | [`offload_capture`] | executable |
//!
//! [`compile_with_report`] additionally returns per-pass timings in a
//! [`CompileReport`]. The classic cleanups exploit the purity guarantee
//! of dataflow blocks and repeat until none of them changes the module.
//!
//! A compile runs about twenty passes, so each one stays linear in the
//! size of the IR (§4.1): a pass walks each function once and rewrites it
//! in place through [`relax_core::IRModule::function_mut`], instead of
//! cloning it or rescanning a block per candidate. Facts a pass derives
//! more than once are memoized (memory planning sizes each shape once
//! and proves each pair of sizes once), and analysis feedback classifies
//! each tensor program once.

#![forbid(unsafe_code)]

mod annotate;
mod capture;
mod const_fold;
mod cse;
mod dce;
mod dispatch;
mod error;
mod fuse;
mod legalize_pass;
mod lower;
mod pipeline;
mod plan;
mod schedule_pass;
mod workspace;

pub use annotate::annotate_compute_patterns;
pub use capture::offload_capture;
pub use const_fold::fold_constants;
pub use cse::common_subexpr_elimination;
pub use dce::dead_code_elimination;
pub use dispatch::dispatch_library;
pub use error::PassError;
pub use fuse::{fuse_ops, fuse_tensor_ir};
pub use legalize_pass::legalize_module;
pub use lower::lower_to_vm;
pub use pipeline::{
    compile, compile_with_report, CompileOptions, CompileReport, FixpointRecord, PassRecord,
};
pub use plan::plan_memory;
pub use schedule_pass::schedule_kernels;
pub use workspace::lift_tir_workspaces;
