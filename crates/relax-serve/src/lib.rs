//! Multi-session serving over the Relax VM.
//!
//! The paper's runtime story ends with one VM executing one program; a
//! serving deployment runs *many sessions of the same program* at once,
//! and keeps running them when workers fail. This crate supplies that
//! layer as **one serving core** with two thin entry points:
//!
//! - the **core** (`core.rs`, DESIGN.md "Serving core") — a bounded
//!   admission deque with shed/reject watermarks, an iteration loop that
//!   dispatches one step per running unit to a supervised worker pool,
//!   deadline shedding, retry with backoff, earliest-deadline eviction
//!   under page-pool pressure, panic containment and respawn, stall
//!   detection, and one accounting identity
//!   (`submitted == retired + evicted + failed + shed`);
//! - **[`SessionManager`]** — *stateful* generation sessions: each owns a
//!   paged KV cache on a shared [`relax_vm::KvPagePool`] and steps through
//!   its prompt, decode and speculative decode with continuous batching;
//! - **[`ServeEngine`]** — *stateless* requests: `submit(func, args)` is a
//!   one-step session with no cache. Refusals and failures are typed
//!   ([`ServeError`]); a [`Ticket`] never hangs. [`EngineStats`] and
//!   per-incarnation [`WorkerReport`]s are the request view of the core's
//!   counters.
//!
//! All worker VMs of an engine share one [`relax_vm::SharedPlanCache`]: a
//! shape specialized by any worker is a cache hit for every other.
//! [`chaos`] drives either entry point under seeded random fault
//! schedules and checks the robustness invariants (typed resolution,
//! bitwise-correct survivors, availability, page-pool reconciliation);
//! it also holds the [`chaos::ManualClock`] tests use to move time.
//!
//! ```
//! use relax_serve::{ServeConfig, ServeEngine};
//! # use relax_vm::{Executable, Instr, Value, VmFunction};
//! # let mut exec = Executable::default();
//! # exec.funcs.insert("id".into(), VmFunction {
//! #     name: "id".into(), num_params: 1, num_regs: 1,
//! #     instrs: vec![Instr::Ret { src: 0 }],
//! # });
//! let engine = ServeEngine::new(exec, ServeConfig::default());
//! let ticket = engine.submit("id", &[Value::Shape(vec![1])]).unwrap();
//! assert_eq!(ticket.wait().unwrap().as_shape(), Some(&[1i64][..]));
//! let report = engine.shutdown();
//! assert_eq!(report.stats.completed, 1);
//! ```

#![forbid(unsafe_code)]

mod admission;
pub mod chaos;
mod clock;
mod core;
mod engine;
mod session;
mod telemetry;

pub use engine::{
    AdmissionLevel, OverloadPolicy, RetryOn, RetryPolicy, ServeConfig, ServeEngine, ServeError,
    Ticket,
};
pub use session::{
    SessionConfig, SessionError, SessionManager, SessionModelSpec, SessionOutput, SessionRequest,
    SessionStats, SessionTicket, SpeculativeSpec,
};
pub use telemetry::{EngineReport, EngineStats, LatencySummary, WorkerExit, WorkerReport};
