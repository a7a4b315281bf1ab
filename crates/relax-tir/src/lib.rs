//! Loop-level tensor programs: the foreign-function substrate of Relax.
//!
//! Relax's cross-level abstraction lets graph-level programs call loop-level
//! *tensor programs* through `call_tir`. This crate is the reproduction's
//! TensorIR equivalent: it defines [`Buffer`]s, loop-nest statements
//! ([`Stmt`]), compute expressions ([`TirExpr`]) and destination-passing
//! style functions ([`PrimFunc`]), together with
//!
//! - the **compute-pattern analysis** of the paper's Algorithm 1
//!   ([`analysis::pattern_kind`]), which classifies a tensor program as
//!   element-wise / broadcast / injective / reduction / output-ewise-fusible
//!   / opaque and drives operator fusion as *analysis feedback*;
//! - a **cost analysis** ([`analysis::cost_of`]) reporting flops and bytes
//!   moved, consumed by the device performance simulator;
//! - **workspace detection** and the joint rewrite used by cross-level
//!   workspace lifting (§4.4);
//! - the **function merging** transform behind `FuseTensorIR` (§4.2);
//! - a reference **interpreter** ([`interp::run`]) that executes tensor
//!   programs on host [`NDArray`]s, binding symbolic shape variables by
//!   unification against the actual argument shapes.

#![forbid(unsafe_code)]

pub mod analysis;
mod buffer;
mod builder;
mod expr;
mod func;
pub mod interp;
mod ndarray;
pub mod plan;
mod printer;
pub mod schedule;
mod stmt;
pub mod transform;

pub use buffer::{Buffer, MemScope};
pub use builder::{grid, LoopNest};
pub use expr::{Scalar, TirExpr};
pub use func::PrimFunc;
pub use ndarray::{round_to_dtype, NDArray, NDArrayError};
pub use plan::{KernelPlan, PlanError};
pub use stmt::Stmt;
