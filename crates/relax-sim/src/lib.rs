//! Device performance simulator for the Relax evaluation.
//!
//! The paper's experiments run real GPUs; this reproduction replaces them
//! with a calibrated analytical model. The key property preserved is that
//! **every compiler decision the paper evaluates changes a quantity this
//! model charges for**:
//!
//! - *fusion* reduces the number of kernels launched and the global-memory
//!   bytes they move;
//! - *partial library lowering* moves a kernel from generated-code
//!   efficiency to vendor-library efficiency;
//! - *memory planning + graph capture* removes per-kernel launch overhead
//!   on replays;
//! - *dynamic-shape specialization* changes the flops/bytes of each kernel
//!   as batch size and sequence length vary.
//!
//! [`simulate`] dry-runs a compiled [`relax_vm::Executable`] at the shape
//! level (no data is touched), charging the launches a VM run makes
//! (`tests/sim_parity.rs` pins that) with a roofline model on a
//! [`DeviceSpec`]; [`baseline`] provides analytical models of the
//! comparison systems (HF eager / torch.compile, vLLM, llama.cpp) built
//! from the same model [`Profile`].

#![forbid(unsafe_code)]

pub mod baseline;
mod cost;
mod device;
mod dryrun;
mod profile;
mod roofline;
mod value;

pub use cost::{kernel_time, KernelClass};
pub use device::DeviceSpec;
pub use dryrun::{simulate, simulate_with_memory, MemoryTracker, SimReport};
pub use profile::Profile;
pub use roofline::{KernelProfile, Roofline, RooflineBound};
pub use value::SimValue;
