//! The lowered instruction set and executable module format.
//!
//! This is the "sequence of virtual machine instructions, each of which is
//! a call into a generated or builtin function" that the end of the
//! pipeline produces (§4.7). It doubles as the compiler's low-level IR: the
//! memory-planning and graph-capture passes transform instruction
//! sequences before the VM runs them.

use std::collections::BTreeMap;
use std::fmt;

use relax_arith::{DataType, PrimExpr};
use relax_tir::{NDArray, PrimFunc};

/// A virtual register index.
pub type Reg = usize;

/// A lowered instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Allocates a tensor through the runtime allocator (unplanned path).
    AllocTensor {
        /// Destination register.
        dst: Reg,
        /// Symbolic shape, evaluated against the shape heap.
        shape: Vec<PrimExpr>,
        /// Element type.
        dtype: DataType,
    },
    /// Allocates a storage block (planned path; Algorithm 3).
    AllocStorage {
        /// Destination register.
        dst: Reg,
        /// Symbolic byte size (constant when upper bounds were planned).
        bytes: PrimExpr,
    },
    /// Instantiates a tensor inside an existing storage block.
    TensorFromStorage {
        /// Destination register.
        dst: Reg,
        /// The storage register.
        storage: Reg,
        /// Symbolic shape.
        shape: Vec<PrimExpr>,
        /// Element type.
        dtype: DataType,
    },
    /// Declares that a register's value is dead; pooled storage is
    /// recycled.
    Kill {
        /// The dead register.
        reg: Reg,
    },
    /// Destination-passing call of a tensor program: outputs are
    /// pre-allocated tensors in `dsts`.
    CallTir {
        /// Tensor program name.
        func: String,
        /// Input registers.
        args: Vec<Reg>,
        /// Output registers (pre-allocated).
        dsts: Vec<Reg>,
        /// Extra symbolic arguments bound into the callee.
        sym_args: Vec<PrimExpr>,
    },
    /// Destination-passing call of a registered library kernel.
    CallLib {
        /// Library function name (e.g. `"cublas.matmul"`).
        func: String,
        /// Input registers.
        args: Vec<Reg>,
        /// Output registers (pre-allocated).
        dsts: Vec<Reg>,
    },
    /// Call of a value-returning runtime builtin (e.g. `"builtin.unique"`).
    CallBuiltin {
        /// Builtin name.
        func: String,
        /// Input registers.
        args: Vec<Reg>,
        /// Destination register.
        dst: Reg,
    },
    /// Calls another VM function.
    CallFunc {
        /// Callee name.
        func: String,
        /// Argument registers.
        args: Vec<Reg>,
        /// Destination register.
        dst: Reg,
    },
    /// Unifies a tensor's runtime shape with symbolic dimensions: fresh
    /// variables bind into the shape heap, known expressions are checked
    /// (the runtime side of `match_cast` and function-boundary checks).
    MatchShape {
        /// The tensor register.
        src: Reg,
        /// Expected dimensions.
        dims: Vec<PrimExpr>,
        /// Context string for error messages.
        ctx: String,
    },
    /// Loads a constant tensor from the executable's constant pool.
    LoadConst {
        /// Destination register.
        dst: Reg,
        /// Index into the constant pool.
        index: usize,
    },
    /// Builds a tuple value.
    MakeTuple {
        /// Destination register.
        dst: Reg,
        /// Field registers.
        items: Vec<Reg>,
    },
    /// Projects a tuple field.
    GetItem {
        /// Destination register.
        dst: Reg,
        /// Tuple register.
        src: Reg,
        /// Field index.
        index: usize,
    },
    /// Materializes a first-class shape value from the shape heap.
    MakeShape {
        /// Destination register.
        dst: Reg,
        /// Symbolic dimensions to evaluate.
        dims: Vec<PrimExpr>,
    },
    /// A statically-shaped region offloaded to device graph capture
    /// (§4.5): captured on first execution, replayed afterwards.
    CaptureRegion {
        /// Region identity (capture cache key).
        id: usize,
        /// Symbolic expressions whose runtime values extend the cache key —
        /// a region is re-captured when the dynamic shapes feeding it
        /// change, and replayed when they recur.
        keys: Vec<PrimExpr>,
        /// The instructions inside the captured region.
        body: Vec<Instr>,
    },
    /// Returns a register's value.
    Ret {
        /// The returned register.
        src: Reg,
    },
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct VmFunction {
    /// Function name.
    pub name: String,
    /// Number of parameters (occupying registers `0..num_params`).
    pub num_params: usize,
    /// Total register count.
    pub num_regs: usize,
    /// Instruction sequence.
    pub instrs: Vec<Instr>,
}

/// A complete lowered module: VM functions, the tensor programs they
/// launch, and constants — "packaged together into a single holistic
/// end-to-end module" (§4.7).
#[derive(Debug, Clone, Default)]
pub struct Executable {
    /// Lowered graph functions by name.
    pub funcs: BTreeMap<String, VmFunction>,
    /// Tensor programs by name.
    pub tir_funcs: BTreeMap<String, PrimFunc>,
    /// Constant pool.
    pub constants: Vec<NDArray>,
}

impl Executable {
    /// Creates an empty executable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constant, returning its pool index.
    pub fn add_constant(&mut self, value: NDArray) -> usize {
        self.constants.push(value);
        self.constants.len() - 1
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn regs(v: &[Reg]) -> String {
            v.iter()
                .map(|r| format!("%{r}"))
                .collect::<Vec<_>>()
                .join(", ")
        }
        fn exprs(v: &[PrimExpr]) -> String {
            v.iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        }
        match self {
            Instr::AllocTensor { dst, shape, dtype } => {
                write!(f, "%{dst} = alloc_tensor(({}), \"{dtype}\")", exprs(shape))
            }
            Instr::AllocStorage { dst, bytes } => {
                write!(f, "%{dst} = alloc_storage({bytes})")
            }
            Instr::TensorFromStorage {
                dst,
                storage,
                shape,
                dtype,
            } => write!(
                f,
                "%{dst} = tensor_from(%{storage}, ({}), \"{dtype}\")",
                exprs(shape)
            ),
            Instr::Kill { reg } => write!(f, "kill %{reg}"),
            Instr::CallTir {
                func,
                args,
                dsts,
                sym_args,
            } => {
                write!(f, "call_tir {func}({}) -> ({})", regs(args), regs(dsts))?;
                if !sym_args.is_empty() {
                    write!(f, " sym=({})", exprs(sym_args))?;
                }
                Ok(())
            }
            Instr::CallLib { func, args, dsts } => {
                write!(f, "call_lib \"{func}\"({}) -> ({})", regs(args), regs(dsts))
            }
            Instr::CallBuiltin { func, args, dst } => {
                write!(f, "%{dst} = builtin \"{func}\"({})", regs(args))
            }
            Instr::CallFunc { func, args, dst } => {
                write!(f, "%{dst} = call {func}({})", regs(args))
            }
            Instr::MatchShape { src, dims, ctx } => {
                write!(f, "match_shape %{src} ~ ({}) [{ctx}]", exprs(dims))
            }
            Instr::LoadConst { dst, index } => write!(f, "%{dst} = const[{index}]"),
            Instr::MakeTuple { dst, items } => {
                write!(f, "%{dst} = tuple({})", regs(items))
            }
            Instr::GetItem { dst, src, index } => {
                write!(f, "%{dst} = %{src}[{index}]")
            }
            Instr::MakeShape { dst, dims } => {
                write!(f, "%{dst} = shape({})", exprs(dims))
            }
            Instr::CaptureRegion { id, keys, body } => {
                write!(f, "capture_region #{id}")?;
                if !keys.is_empty() {
                    write!(f, " keys=({})", exprs(keys))?;
                }
                writeln!(f, " {{")?;
                for i in body {
                    writeln!(f, "  {i}")?;
                }
                write!(f, "}}")
            }
            Instr::Ret { src } => write!(f, "ret %{src}"),
        }
    }
}

impl fmt::Display for VmFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "vm_func {}(params={}, regs={}):",
            self.name, self.num_params, self.num_regs
        )?;
        for i in &self.instrs {
            writeln!(f, "  {i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_display() {
        let i = Instr::CallTir {
            func: "mm".into(),
            args: vec![0, 1],
            dsts: vec![2],
            sym_args: vec![],
        };
        assert_eq!(i.to_string(), "call_tir mm(%0, %1) -> (%2)");
        let a = Instr::AllocStorage {
            dst: 3,
            bytes: PrimExpr::Int(1024),
        };
        assert_eq!(a.to_string(), "%3 = alloc_storage(1024)");
    }

    #[test]
    fn constant_pool_indices() {
        let mut e = Executable::new();
        let c = NDArray::zeros(&[1], DataType::F32);
        assert_eq!(e.add_constant(c.clone()), 0);
        assert_eq!(e.add_constant(c), 1);
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use relax_arith::Var as SymVar;

    #[test]
    fn function_and_region_display() {
        let n = SymVar::new("n");
        let f = VmFunction {
            name: "main".into(),
            num_params: 1,
            num_regs: 3,
            instrs: vec![
                Instr::MatchShape {
                    src: 0,
                    dims: vec![n.clone().into()],
                    ctx: "param x".into(),
                },
                Instr::CaptureRegion {
                    id: 7,
                    keys: vec![n.clone().into()],
                    body: vec![Instr::CallLib {
                        func: "cublas.matmul".into(),
                        args: vec![0],
                        dsts: vec![1],
                    }],
                },
                Instr::MakeShape {
                    dst: 2,
                    dims: vec![n.into()],
                },
                Instr::Ret { src: 1 },
            ],
        };
        let text = f.to_string();
        assert!(text.contains("vm_func main(params=1, regs=3):"));
        assert!(text.contains("match_shape %0 ~ (n) [param x]"));
        assert!(text.contains("capture_region #7 keys=(n) {"));
        assert!(text.contains("call_lib \"cublas.matmul\"(%0) -> (%1)"));
        assert!(text.contains("%2 = shape(n)"));
        assert!(text.contains("ret %1"));
    }

    #[test]
    fn remaining_instruction_displays() {
        assert_eq!(
            Instr::TensorFromStorage {
                dst: 1,
                storage: 0,
                shape: vec![4.into()],
                dtype: DataType::F16,
            }
            .to_string(),
            "%1 = tensor_from(%0, (4), \"f16\")"
        );
        assert_eq!(Instr::Kill { reg: 3 }.to_string(), "kill %3");
        assert_eq!(
            Instr::GetItem {
                dst: 2,
                src: 1,
                index: 4
            }
            .to_string(),
            "%2 = %1[4]"
        );
        assert_eq!(
            Instr::MakeTuple {
                dst: 2,
                items: vec![0, 1]
            }
            .to_string(),
            "%2 = tuple(%0, %1)"
        );
        assert_eq!(
            Instr::CallBuiltin {
                func: "builtin.unique".into(),
                args: vec![0],
                dst: 1
            }
            .to_string(),
            "%1 = builtin \"builtin.unique\"(%0)"
        );
        assert_eq!(
            Instr::CallFunc {
                func: "sub".into(),
                args: vec![0],
                dst: 1
            }
            .to_string(),
            "%1 = call sub(%0)"
        );
        assert_eq!(
            Instr::LoadConst { dst: 0, index: 2 }.to_string(),
            "%0 = const[2]"
        );
    }
}
