//! Mixture-of-experts routing builtins: the runtime half of the
//! data-dependent dispatch pattern (§2, §4.2).
//!
//! An MoE layer routes each token to one expert, so the number of rows
//! an expert's FFN sees — `n_e` — is decided by the router's argmax at
//! runtime, not by the compiler. The graph expresses this with a coarse
//! `Tensor(ndim=2)` gather output refined through `match_cast` into a
//! fresh symbolic dim, exactly like `unique` in the paper's Figure 3;
//! these builtins supply the data-dependent kernels behind that shape:
//!
//! - `route(logits (t, E)) -> (t,) i64` — per-token argmax (first
//!   maximum wins, strict `>` comparison, so ties are deterministic).
//! - `gather(tokens (t, d), assign (t,), shape[e]) -> (n_e, d)` — the
//!   rows assigned to expert `e`, in token order. `n_e` may be zero.
//! - `scatter(rows (n_e, d), assign (t,), shape[e, t]) -> (t, d)` —
//!   the inverse placement: row `i` of `rows` lands at the `i`-th token
//!   assigned to `e`; unassigned positions are zero, so summing the
//!   per-expert scatters reassembles the full batch (adding zeros is
//!   bitwise-exact in f32: `r32(x + 0) == x`).
//!
//! They are entries of the default [`crate::registry::Registry`] like any
//! builtin: the VM hands them its register values, so the expert index and
//! token count arrive as first-class `Value::Shape`s.

use relax_arith::DataType;
use relax_tir::{NDArray, Scalar};

use crate::registry::KernelError;
use crate::value::{want_shape, want_tensor, Value};

/// Name prefix of the MoE routing builtins (`route`, `gather`,
/// `scatter`). It is a naming convention only: lowering emits these calls
/// without destination tensors, and the cost model recognises them by it.
/// The VM calls them through the registry like any builtin.
pub const MOE_PREFIX: &str = "vm.builtin.moe.";

const ROUTE: &str = "vm.builtin.moe.route";
const GATHER: &str = "vm.builtin.moe.gather";
const SCATTER: &str = "vm.builtin.moe.scatter";

fn want_rank(op: &str, s: &[usize], rank: usize, what: &str) -> Result<(), KernelError> {
    if s.len() != rank {
        let detail = format!("{what} must be rank {rank}, got {s:?}");
        return Err(KernelError::new(op, detail));
    }
    Ok(())
}

/// `route`'s rule, which the builtin and the dry run both run: the logits
/// are `(t, E)` with `E > 0`. Returns `(t, E)`, else the VM's error.
pub fn check_route(logits: &[usize]) -> Result<(usize, usize), KernelError> {
    want_rank(ROUTE, logits, 2, "router logits")?;
    if logits[1] == 0 {
        return Err(KernelError::new(ROUTE, "router logits have zero experts"));
    }
    Ok((logits[0], logits[1]))
}

/// An assignment of `t` tokens: one i64 expert index per token.
fn check_assignment(op: &str, a: &[usize], dt: DataType, t: usize) -> Result<(), KernelError> {
    let detail = if a != [t] {
        format!("assignment {a:?} does not cover {t} tokens")
    } else if dt != DataType::I64 {
        format!("assignment dtype {dt} != i64")
    } else {
        return Ok(());
    };
    Err(KernelError::new(op, detail))
}

/// `gather`'s rule, which the builtin and the dry run both run: the tokens
/// are `(t, d)` and the assignment an i64 `(t,)`. Returns `(t, d)`, else
/// the VM's error.
pub fn check_gather(
    tokens: &[usize],
    assign: &[usize],
    dt: DataType,
) -> Result<(usize, usize), KernelError> {
    want_rank(GATHER, tokens, 2, "token matrix")?;
    check_assignment(GATHER, assign, dt, tokens[0])?;
    Ok((tokens[0], tokens[1]))
}

/// `scatter`'s rule, which the builtin and the dry run both run: the token
/// count `tokens` from the shape operand is not negative, the rows are
/// `(n_e, d)` and the assignment an i64 `(tokens,)`. Returns `(tokens,
/// d)`, else the VM's error. Whether `n_e` rows match the tokens assigned
/// to the expert is a fact of the data, checked by the builtin alone.
pub fn check_scatter(
    rows: &[usize],
    assign: &[usize],
    dt: DataType,
    tokens: i64,
) -> Result<(usize, usize), KernelError> {
    let tokens = usize::try_from(tokens)
        .map_err(|_| KernelError::new(SCATTER, format!("negative token count {tokens}")))?;
    want_rank(SCATTER, rows, 2, "expert output")?;
    check_assignment(SCATTER, assign, dt, tokens)?;
    Ok((tokens, rows[1]))
}

/// `route(logits)`: per-token argmax over the expert axis; strict `>` so
/// the first maximum wins and ties are deterministic across runs and
/// workers.
pub(crate) fn builtin_route(args: &[Value]) -> Result<Value, KernelError> {
    let logits = want_tensor(ROUTE, args, 0)?;
    let (t, e) = check_route(logits.shape())?;
    let v = logits.to_f64_vec();
    let out = NDArray::zeros(&[t], DataType::I64);
    for i in 0..t {
        let row = &v[i * e..(i + 1) * e];
        let mut best = 0usize;
        for (j, &x) in row.iter().enumerate() {
            if x > row[best] {
                best = j;
            }
        }
        out.set(i, Scalar::I(best as i64))
            .map_err(|err| KernelError::new(ROUTE, err.to_string()))?;
    }
    Ok(Value::Tensor(out))
}

/// Positions (token indices, ascending) assigned to expert `e`.
fn positions(assign: &NDArray, expert: i64) -> Vec<usize> {
    let assign = assign.to_i64_vec();
    let at = assign.iter().enumerate().filter(|(_, &a)| a == expert);
    at.map(|(i, _)| i).collect()
}

/// `gather(tokens, assign, shape[expert])`: the rows of `tokens` assigned
/// to one expert. The output row count `n_e` is data-dependent — the
/// `MatchShape` that follows this call in lowered code binds it to a fresh
/// symbolic variable.
pub(crate) fn builtin_gather(args: &[Value]) -> Result<Value, KernelError> {
    let tokens = want_tensor(GATHER, args, 0)?;
    let assign = want_tensor(GATHER, args, 1)?;
    let expert = want_shape(GATHER, args, 2, 1)?[0];
    let (_, d) = check_gather(tokens.shape(), assign.shape(), assign.dtype())?;
    let pos = positions(assign, expert);
    let out = NDArray::zeros(&[pos.len(), d], tokens.dtype());
    for (row, &p) in pos.iter().enumerate() {
        out.copy_range_from(row * d, tokens, p * d, d)
            .map_err(|e| KernelError::new(GATHER, e.to_string()))?;
    }
    Ok(Value::Tensor(out))
}

/// `scatter(rows, assign, shape[expert, tokens])`: expert output rows back
/// at their token positions; rows not assigned to this expert stay zero.
pub(crate) fn builtin_scatter(args: &[Value]) -> Result<Value, KernelError> {
    let rows = want_tensor(SCATTER, args, 0)?;
    let assign = want_tensor(SCATTER, args, 1)?;
    let at = want_shape(SCATTER, args, 2, 2)?;
    let expert = at[0];
    let (tokens, d) = check_scatter(rows.shape(), assign.shape(), assign.dtype(), at[1])?;
    let pos = positions(assign, expert);
    let n_e = rows.shape()[0];
    if pos.len() != n_e {
        let detail = format!(
            "expert {expert} produced {n_e} rows for {} assigned tokens",
            pos.len()
        );
        return Err(KernelError::new(SCATTER, detail));
    }
    let out = NDArray::zeros(&[tokens, d], rows.dtype());
    for (row, &p) in pos.iter().enumerate() {
        out.copy_range_from(p * d, rows, row * d, d)
            .map_err(|e| KernelError::new(SCATTER, e.to_string()))?;
    }
    Ok(Value::Tensor(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn f32s(shape: &[usize], vals: Vec<f64>) -> NDArray {
        NDArray::from_f64(shape, DataType::F32, vals).unwrap()
    }

    /// Calls `vm.builtin.<op>` through the default registry.
    fn call(op: &str, args: &[Value]) -> Result<Value, KernelError> {
        Registry::new().call_builtin(&format!("{MOE_PREFIX}{op}"), args)
    }

    fn tensor(v: Value) -> NDArray {
        v.as_tensor().unwrap().clone()
    }

    fn route(logits: &NDArray) -> Result<NDArray, KernelError> {
        call("route", &[logits.clone().into()]).map(tensor)
    }

    fn gather(tokens: &NDArray, assign: &NDArray, expert: i64) -> Result<NDArray, KernelError> {
        let args = [
            tokens.clone().into(),
            assign.clone().into(),
            Value::Shape(vec![expert]),
        ];
        call("gather", &args).map(tensor)
    }

    fn scatter(
        rows: &NDArray,
        assign: &NDArray,
        expert: i64,
        tokens: i64,
    ) -> Result<NDArray, KernelError> {
        let args = [
            rows.clone().into(),
            assign.clone().into(),
            Value::Shape(vec![expert, tokens]),
        ];
        call("scatter", &args).map(tensor)
    }

    #[test]
    fn route_is_first_max_argmax() {
        let logits = f32s(&[3, 3], vec![1., 3., 2., 5., 5., 4., -1., -2., -1.]);
        let a = route(&logits).unwrap();
        // Row 1 ties at index 0/1 -> first wins; row 2 ties 0/2 -> 0.
        assert_eq!(a.to_i64_vec(), vec![1, 0, 0]);
    }

    #[test]
    fn gather_scatter_roundtrip_including_empty_expert() {
        let tokens = f32s(&[4, 2], vec![0., 1., 10., 11., 20., 21., 30., 31.]);
        let assign = NDArray::from_i64(&[4], DataType::I64, vec![2, 0, 2, 0]).unwrap();
        let g2 = gather(&tokens, &assign, 2).unwrap();
        assert_eq!(g2.shape(), &[2, 2]);
        assert_eq!(g2.to_f64_vec(), vec![0., 1., 20., 21.]);
        // Expert 1 receives nothing: a genuinely empty gather.
        let g1 = gather(&tokens, &assign, 1).unwrap();
        assert_eq!(g1.shape(), &[0, 2]);
        // Scattering every expert back and summing rebuilds the batch.
        let mut sum = vec![0.0f64; 8];
        for e in 0..3 {
            let ge = gather(&tokens, &assign, e).unwrap();
            let se = scatter(&ge, &assign, e, 4).unwrap();
            for (acc, v) in sum.iter_mut().zip(se.to_f64_vec()) {
                *acc += v;
            }
        }
        assert_eq!(sum, tokens.to_f64_vec());
    }

    #[test]
    fn scatter_rejects_row_count_mismatch() {
        let rows = f32s(&[2, 2], vec![0.; 4]);
        let assign = NDArray::from_i64(&[3], DataType::I64, vec![0, 1, 0]).unwrap();
        // Expert 1 has 1 assigned token but 2 rows arrive.
        assert!(scatter(&rows, &assign, 1, 3).is_err());
    }

    #[test]
    fn dispatch_checks_arguments() {
        assert_eq!(call("nope", &[]).unwrap_err().detail, "not registered");
        let err = call("route", &[Value::None]).unwrap_err();
        assert_eq!(err.kernel, "vm.builtin.moe.route");
        assert_eq!(err.detail, "expected a tensor, got none");
        let tokens = f32s(&[1, 1], vec![1.0]);
        let assign = NDArray::from_i64(&[1], DataType::I64, vec![0]).unwrap();
        let err = scatter(&tokens, &assign, 0, -1).unwrap_err();
        assert_eq!(err.detail, "negative token count -1");
        assert_eq!(gather(&tokens, &assign, 0).unwrap().shape(), &[1, 1]);
    }
}
