//! Static validation of lowered executables.
//!
//! Every lowering and post-lowering transformation (VM lowering, memory
//! planning, graph capture) rewrites instruction sequences, and a bug in
//! any of them produces an executable that fails — or worse, silently
//! misbehaves — only at run time. This module checks the invariants those
//! transformations must preserve, so the pipeline can fail at compile time
//! with a named violation instead:
//!
//! - **def-before-use**: every register is written before it is read, and
//!   register indices are in range (`undefined-register`);
//! - **no use-after-kill**: a killed register is never read again
//!   (`use-after-kill`);
//! - **arity**: `CallTir` argument counts match the tensor program's
//!   parameter list, `CallLib`/`CallBuiltin` counts match the registry's
//!   declared signatures, `CallFunc` counts match the callee, and a
//!   `GetItem` index is in range of the `MakeTuple` that last wrote its
//!   source (`arity-mismatch`); every callee exists (`unknown-callee`);
//! - **live storage**: `TensorFromStorage` reads a register that currently
//!   holds storage produced by `AllocStorage` and not yet killed
//!   (`dead-storage`);
//! - **bound symbolic shapes**: every symbolic variable evaluated at run
//!   time (allocation sizes, shape construction, capture keys) is bound by
//!   an earlier `MatchShape` (`unbound-symbolic-var`);
//! - **return**: every function ends by returning a value
//!   (`missing-return`).
//!
//! The walk mirrors the VM exactly — capture-region bodies are validated
//! inline in execution order against the same state — so a verdict of
//! "valid" means the VM cannot hit one of these faults on any input.

use std::collections::{HashMap, HashSet};
use std::fmt;

use relax_arith::{free_vars, PrimExpr, Var as SymVar};

use crate::exec::{Executable, Instr, Reg, VmFunction};
use crate::registry::Registry;

/// One invariant violation found by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The function containing the violation.
    pub func: String,
    /// Instruction index (capture bodies count from zero).
    pub pc: usize,
    /// The violated rule, e.g. `"use-after-kill"`.
    pub rule: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}[pc {}]: {}",
            self.rule, self.func, self.pc, self.detail
        )
    }
}

/// Validation failure: every violation found in the executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// All violations, in program order.
    pub violations: Vec<Violation>,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} invariant violation(s)", self.violations.len())?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Validates an executable against the invariants listed in the module
/// docs, using `registry` for library/builtin signatures.
///
/// # Errors
///
/// [`VerifyError`] listing every violation (the walk does not stop at the
/// first one).
pub fn verify(exec: &Executable, registry: &Registry) -> Result<(), VerifyError> {
    let mut violations = Vec::new();
    for func in exec.funcs.values() {
        verify_function(func, exec, registry, &mut violations);
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(VerifyError { violations })
    }
}

/// Abstract state of one register during the walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegState {
    /// Never written.
    Unset,
    /// Holds a live value.
    Live,
    /// Holds live storage (written by `AllocStorage`).
    LiveStorage,
    /// Was live, then killed.
    Killed,
}

struct FuncChecker<'a> {
    func: &'a VmFunction,
    exec: &'a Executable,
    registry: &'a Registry,
    regs: Vec<RegState>,
    /// Arity of the tuple each register holds, while a `MakeTuple` is its
    /// last writer.
    tuples: HashMap<Reg, usize>,
    bound: HashSet<SymVar>,
    violations: &'a mut Vec<Violation>,
}

fn verify_function(
    func: &VmFunction,
    exec: &Executable,
    registry: &Registry,
    violations: &mut Vec<Violation>,
) {
    let mut regs = vec![RegState::Unset; func.num_regs];
    for r in regs.iter_mut().take(func.num_params.min(func.num_regs)) {
        *r = RegState::Live;
    }
    if func.num_params > func.num_regs {
        violations.push(Violation {
            func: func.name.clone(),
            pc: 0,
            rule: "undefined-register",
            detail: format!(
                "{} parameters but only {} registers",
                func.num_params, func.num_regs
            ),
        });
    }
    let mut checker = FuncChecker {
        func,
        exec,
        registry,
        regs,
        tuples: HashMap::new(),
        bound: HashSet::new(),
        violations,
    };
    let returned = checker.walk(&func.instrs);
    if !returned {
        checker.violations.push(Violation {
            func: func.name.clone(),
            pc: func.instrs.len(),
            rule: "missing-return",
            detail: "function can reach the end without a `ret`".to_string(),
        });
    }
}

impl FuncChecker<'_> {
    fn report(&mut self, pc: usize, rule: &'static str, detail: String) {
        self.violations.push(Violation {
            func: self.func.name.clone(),
            pc,
            rule,
            detail,
        });
    }

    /// Checks a register read.
    fn use_reg(&mut self, pc: usize, reg: Reg, what: &str) {
        match self.regs.get(reg) {
            None => self.report(
                pc,
                "undefined-register",
                format!(
                    "{what} %{reg} is out of range (num_regs = {})",
                    self.func.num_regs
                ),
            ),
            Some(RegState::Unset) => self.report(
                pc,
                "undefined-register",
                format!("{what} %{reg} is read before any definition"),
            ),
            Some(RegState::Killed) => self.report(
                pc,
                "use-after-kill",
                format!("{what} %{reg} is read after `kill`"),
            ),
            Some(RegState::Live | RegState::LiveStorage) => {}
        }
    }

    /// Checks a register write; records the new abstract state.
    fn def_reg(&mut self, pc: usize, reg: Reg, state: RegState) {
        self.tuples.remove(&reg);
        match self.regs.get_mut(reg) {
            Some(slot) => *slot = state,
            None => self.report(
                pc,
                "undefined-register",
                format!(
                    "destination %{reg} is out of range (num_regs = {})",
                    self.func.num_regs
                ),
            ),
        }
    }

    /// Checks that every symbolic variable in `e` is bound.
    fn use_expr(&mut self, pc: usize, e: &PrimExpr, what: &str) {
        for v in free_vars(e) {
            if !self.bound.contains(&v) {
                self.report(
                    pc,
                    "unbound-symbolic-var",
                    format!("{what} `{e}` uses `{v}` before any match_shape binds it"),
                );
            }
        }
    }

    fn use_exprs(&mut self, pc: usize, es: &[PrimExpr], what: &str) {
        for e in es {
            self.use_expr(pc, e, what);
        }
    }

    /// Walks a block; returns `true` when it always ends in `Ret`.
    fn walk(&mut self, instrs: &[Instr]) -> bool {
        let mut returned = false;
        for (pc, instr) in instrs.iter().enumerate() {
            match instr {
                Instr::AllocTensor { dst, shape, .. } => {
                    self.use_exprs(pc, shape, "allocation shape");
                    self.def_reg(pc, *dst, RegState::Live);
                }
                Instr::AllocStorage { dst, bytes } => {
                    self.use_expr(pc, bytes, "storage size");
                    self.def_reg(pc, *dst, RegState::LiveStorage);
                }
                Instr::TensorFromStorage {
                    dst,
                    storage,
                    shape,
                    ..
                } => {
                    self.use_exprs(pc, shape, "tensor shape");
                    match self.regs.get(*storage) {
                        Some(RegState::LiveStorage) => {}
                        Some(RegState::Killed) => self.report(
                            pc,
                            "dead-storage",
                            format!("tensor created in storage %{storage} after `kill`"),
                        ),
                        Some(RegState::Live) => self.report(
                            pc,
                            "dead-storage",
                            format!("%{storage} does not hold storage at this point"),
                        ),
                        Some(RegState::Unset) | None => self.report(
                            pc,
                            "dead-storage",
                            format!("storage register %{storage} has no live allocation"),
                        ),
                    }
                    self.def_reg(pc, *dst, RegState::Live);
                }
                Instr::Kill { reg } => {
                    match self.regs.get(*reg) {
                        Some(RegState::Killed) => {
                            self.report(pc, "use-after-kill", format!("%{reg} is killed twice"))
                        }
                        Some(RegState::Unset) | None => self.report(
                            pc,
                            "undefined-register",
                            format!("kill of %{reg} which was never defined"),
                        ),
                        Some(RegState::Live | RegState::LiveStorage) => {}
                    }
                    self.def_reg(pc, *reg, RegState::Killed);
                }
                Instr::CallTir {
                    func,
                    args,
                    dsts,
                    sym_args,
                } => {
                    self.use_exprs(pc, sym_args, "symbolic argument");
                    for r in args {
                        self.use_reg(pc, *r, "argument");
                    }
                    for r in dsts {
                        self.use_reg(pc, *r, "destination");
                    }
                    match self.exec.tir_funcs.get(func) {
                        None => self.report(
                            pc,
                            "unknown-callee",
                            format!("tensor program `{func}` is not in the executable"),
                        ),
                        Some(prim) => {
                            let expected = prim.params().len();
                            let actual = args.len() + dsts.len();
                            if expected != actual {
                                self.report(
                                    pc,
                                    "arity-mismatch",
                                    format!(
                                        "`{func}` has {expected} buffer parameters, \
                                         call passes {actual}"
                                    ),
                                );
                            }
                        }
                    }
                }
                Instr::CallLib { func, args, dsts } => {
                    for r in args {
                        self.use_reg(pc, *r, "argument");
                    }
                    for r in dsts {
                        self.use_reg(pc, *r, "destination");
                    }
                    match self.registry.lib_signature(func) {
                        None => self.report(
                            pc,
                            "unknown-callee",
                            format!("library kernel `{func}` is not registered"),
                        ),
                        Some((ins, outs)) if (ins, outs) != (args.len(), dsts.len()) => {
                            let detail = format!(
                                "`{func}` expects {ins} inputs and {outs} outputs, \
                                 call passes {} and {}",
                                args.len(),
                                dsts.len()
                            );
                            self.report(pc, "arity-mismatch", detail);
                        }
                        Some(_) => {}
                    }
                }
                Instr::CallBuiltin { func, args, dst } => {
                    for r in args {
                        self.use_reg(pc, *r, "argument");
                    }
                    match self.registry.builtin_signature(func) {
                        None => self.report(
                            pc,
                            "unknown-callee",
                            format!("builtin `{func}` is not registered"),
                        ),
                        Some(ins) if args.len() != ins => self.report(
                            pc,
                            "arity-mismatch",
                            format!("`{func}` expects {ins} inputs, call passes {}", args.len()),
                        ),
                        Some(_) => {}
                    }
                    self.def_reg(pc, *dst, RegState::Live);
                }
                Instr::CallFunc { func, args, dst } => {
                    for r in args {
                        self.use_reg(pc, *r, "argument");
                    }
                    match self.exec.funcs.get(func) {
                        None => self.report(
                            pc,
                            "unknown-callee",
                            format!("VM function `{func}` is not in the executable"),
                        ),
                        Some(callee) => {
                            if args.len() != callee.num_params {
                                self.report(
                                    pc,
                                    "arity-mismatch",
                                    format!(
                                        "`{func}` takes {} parameters, call passes {}",
                                        callee.num_params,
                                        args.len()
                                    ),
                                );
                            }
                        }
                    }
                    self.def_reg(pc, *dst, RegState::Live);
                }
                Instr::MatchShape { src, dims, ctx: _ } => {
                    self.use_reg(pc, *src, "matched value");
                    // Fresh variables bind; everything else is evaluated
                    // and must already be bound.
                    for d in dims {
                        match d {
                            PrimExpr::Var(v) => {
                                self.bound.insert(v.clone());
                            }
                            e => self.use_expr(pc, e, "checked dimension"),
                        }
                    }
                }
                Instr::LoadConst { dst, index } => {
                    if *index >= self.exec.constants.len() {
                        self.report(
                            pc,
                            "unknown-callee",
                            format!(
                                "constant index {index} out of range ({} constants)",
                                self.exec.constants.len()
                            ),
                        );
                    }
                    self.def_reg(pc, *dst, RegState::Live);
                }
                Instr::MakeTuple { dst, items } => {
                    for r in items {
                        self.use_reg(pc, *r, "tuple field");
                    }
                    self.def_reg(pc, *dst, RegState::Live);
                    self.tuples.insert(*dst, items.len());
                }
                Instr::GetItem { dst, src, index } => {
                    self.use_reg(pc, *src, "tuple");
                    if let Some(&arity) = self.tuples.get(src).filter(|&&n| *index >= n) {
                        self.report(
                            pc,
                            "arity-mismatch",
                            format!("item {index} of %{src}, a tuple of {arity}"),
                        );
                    }
                    self.def_reg(pc, *dst, RegState::Live);
                }
                Instr::MakeShape { dst, dims } => {
                    self.use_exprs(pc, dims, "shape dimension");
                    self.def_reg(pc, *dst, RegState::Live);
                }
                Instr::CaptureRegion { keys, body, .. } => {
                    self.use_exprs(pc, keys, "capture key");
                    if self.walk(body) {
                        returned = true;
                    }
                }
                Instr::Ret { src } => {
                    self.use_reg(pc, *src, "returned value");
                    returned = true;
                }
            }
        }
        returned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::DataType;

    fn checked(instrs: Vec<Instr>, num_params: usize, num_regs: usize) -> Vec<Violation> {
        let mut exec = Executable::new();
        exec.funcs.insert(
            "f".into(),
            VmFunction {
                name: "f".into(),
                num_params,
                num_regs,
                instrs,
            },
        );
        match verify(&exec, &Registry::new()) {
            Ok(()) => Vec::new(),
            Err(e) => e.violations,
        }
    }

    #[test]
    fn clean_function_passes() {
        let v = checked(
            vec![
                Instr::AllocTensor {
                    dst: 1,
                    shape: vec![4.into()],
                    dtype: DataType::F32,
                },
                Instr::CallLib {
                    func: "cublas.matmul".into(),
                    args: vec![0, 1],
                    dsts: vec![1],
                },
                Instr::Ret { src: 1 },
            ],
            1,
            2,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn use_after_kill_is_named() {
        let v = checked(vec![Instr::Kill { reg: 0 }, Instr::Ret { src: 0 }], 1, 1);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "use-after-kill");
        assert_eq!(v[0].pc, 1);
    }

    #[test]
    fn undefined_register_is_named() {
        let v = checked(vec![Instr::Ret { src: 1 }], 1, 2);
        assert_eq!(v[0].rule, "undefined-register");
    }

    #[test]
    fn lib_arity_mismatch_is_named() {
        let v = checked(
            vec![
                Instr::CallLib {
                    func: "cublas.matmul".into(),
                    args: vec![0],
                    dsts: vec![0],
                },
                Instr::Ret { src: 0 },
            ],
            1,
            1,
        );
        assert_eq!(v[0].rule, "arity-mismatch");
    }

    #[test]
    fn builtin_callees_are_checked_against_their_signatures() {
        let call = |func: &str, args: Vec<Reg>| {
            let call = Instr::CallBuiltin {
                func: func.into(),
                args,
                dst: 1,
            };
            checked(vec![call, Instr::Ret { src: 1 }], 1, 2)
        };
        assert!(call("vm.builtin.moe.route", vec![0]).is_empty());
        assert_eq!(
            call("vm.builtin.moe.route", vec![0, 0])[0].rule,
            "arity-mismatch"
        );
        assert_eq!(call("vm.builtin.nope", vec![0])[0].rule, "unknown-callee");
    }

    #[test]
    fn unbound_symbolic_var_is_named() {
        let n = SymVar::new("n");
        let v = checked(
            vec![
                Instr::AllocTensor {
                    dst: 1,
                    shape: vec![n.into()],
                    dtype: DataType::F32,
                },
                Instr::Ret { src: 1 },
            ],
            1,
            2,
        );
        assert_eq!(v[0].rule, "unbound-symbolic-var");
    }

    #[test]
    fn dead_storage_is_named() {
        let v = checked(
            vec![
                Instr::AllocStorage {
                    dst: 1,
                    bytes: 64.into(),
                },
                Instr::Kill { reg: 1 },
                Instr::TensorFromStorage {
                    dst: 2,
                    storage: 1,
                    shape: vec![4.into()],
                    dtype: DataType::F32,
                },
                Instr::Ret { src: 2 },
            ],
            1,
            3,
        );
        assert_eq!(v[0].rule, "dead-storage");
        assert_eq!(v[0].pc, 2);
    }

    #[test]
    fn missing_return_is_named() {
        let v = checked(vec![Instr::Kill { reg: 0 }], 1, 1);
        assert!(v.iter().any(|x| x.rule == "missing-return"));
    }

    #[test]
    fn match_shape_binds_for_later_use() {
        let n = SymVar::new("n");
        let v = checked(
            vec![
                Instr::MatchShape {
                    src: 0,
                    dims: vec![n.clone().into()],
                    ctx: "x".into(),
                },
                Instr::AllocTensor {
                    dst: 1,
                    shape: vec![n.into()],
                    dtype: DataType::F32,
                },
                Instr::Ret { src: 1 },
            ],
            1,
            2,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn all_violations_are_collected_not_just_the_first() {
        let n = SymVar::new("n");
        let v = checked(
            vec![
                Instr::Kill { reg: 0 },
                Instr::MakeTuple {
                    dst: 1,
                    items: vec![0], // use-after-kill
                },
                Instr::AllocTensor {
                    dst: 1,
                    shape: vec![n.into()], // unbound
                    dtype: DataType::F32,
                },
                Instr::Ret { src: 1 },
            ],
            1,
            2,
        );
        assert!(v.len() >= 2);
        assert!(v.iter().any(|x| x.rule == "use-after-kill"));
        assert!(v.iter().any(|x| x.rule == "unbound-symbolic-var"));
    }
}
