//! Exec-stage kernel scheduling: opts lowered tensor programs into the
//! plan compiler's macro-op (superinstruction) recognition.
//!
//! The schedule layer itself lives in `relax_tir::schedule` — TensorIR-
//! style `tile` / `reorder` / `unroll` / `cache_block` primitives with
//! bitwise-equality legality proofs. This pass is the *pipeline* entry
//! point: after lowering, it walks every tensor program attached to the
//! executable and applies [`relax_tir::schedule::auto_schedule`], which
//! detects the canonical reduction nest (the dot-product pattern of
//! matmul / attention scores) and stamps the `relax.schedule` attribute.
//! Shape-specialized plan compilation then emits the cache-blocked
//! matmul superinstruction and fuses elementwise epilogues into its row
//! loop — see `relax_tir::plan`.
//!
//! Scheduling never changes results: macro-op execution is proven
//! bitwise equal to the scalar tape (same per-cell rounding sequence and
//! NaN payloads) over the declared buffers. Destination-passing lowering
//! binds exactly those, and a plan refuses a launch that does not (see
//! the launch contract in `relax_tir::plan`), so a scheduled plan has no
//! fallback body. The pass runs
//! under every [`CompileOptions`](crate::CompileOptions): a kernel is one
//! scheduled program, not a choice made per configuration.

use relax_tir::schedule::auto_schedule;
use relax_vm::Executable;

use crate::error::PassError;
use crate::manager::{ExecPass, PassContext};

/// Exec pass marking schedulable tensor programs for macro-op plan
/// compilation.
#[derive(Debug, Default)]
pub struct ScheduleKernels;

impl ExecPass for ScheduleKernels {
    fn name(&self) -> &str {
        "schedule_kernels"
    }

    fn run_on_exec(
        &mut self,
        exec: &mut Executable,
        _ctx: &mut PassContext,
    ) -> Result<bool, PassError> {
        let mut changed = false;
        let scheduled: Vec<(String, relax_tir::PrimFunc)> = exec
            .tir_funcs
            .iter()
            .filter_map(|(name, func)| auto_schedule(func).map(|f| (name.clone(), f)))
            .collect();
        for (name, func) in scheduled {
            exec.tir_funcs.insert(name, func);
            changed = true;
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_is_idempotent() {
        // Second application finds every schedulable function already
        // stamped and reports no change.
        let mut exec = Executable::default();
        let mut ctx = PassContext::new();
        let mut pass = ScheduleKernels;
        assert!(!pass.run_on_exec(&mut exec, &mut ctx).unwrap());
    }
}
