//! Exec-stage kernel scheduling: opts lowered tensor programs into the
//! plan compiler's macro-op (superinstruction) recognition.
//!
//! After lowering, this pass walks every tensor program attached to the
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

/// Marks every schedulable tensor program of `exec` for macro-op plan
/// compilation; returns whether any program was newly stamped.
pub fn schedule_kernels(exec: &mut Executable) -> bool {
    let scheduled: Vec<(String, relax_tir::PrimFunc)> = exec
        .tir_funcs
        .iter()
        .filter_map(|(name, func)| auto_schedule(func).map(|f| (name.clone(), f)))
        .collect();
    let changed = !scheduled.is_empty();
    exec.tir_funcs.extend(scheduled);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_core::{legalize, DataType, Op, OpAttrs, StructInfo};

    #[test]
    fn pass_is_idempotent() {
        // The first run stamps the legalized matmul and leaves the
        // elementwise kernel alone; the second finds the matmul already
        // stamped and reports no change.
        let t = |dims: &[i64]| {
            StructInfo::tensor(dims.iter().map(|&d| d.into()).collect(), DataType::F32)
        };
        let attrs = OpAttrs::new();
        let mut exec = Executable::default();
        for (name, op, args) in [
            ("matmul", Op::Matmul, vec![t(&[2, 3]), t(&[3, 4])]),
            ("exp", Op::Exp, vec![t(&[2, 4])]),
        ] {
            let func = legalize(op, &attrs, &args, name).unwrap();
            exec.tir_funcs.insert(name.to_string(), func);
        }
        assert!(schedule_kernels(&mut exec));
        assert_eq!(
            exec.tir_funcs["matmul"].attr("relax.schedule"),
            Some("macro")
        );
        assert_eq!(exec.tir_funcs["exp"].attr("relax.schedule"), None);
        let stamped = exec.tir_funcs.clone();
        assert!(!schedule_kernels(&mut exec));
        assert_eq!(exec.tir_funcs, stamped);
    }
}
