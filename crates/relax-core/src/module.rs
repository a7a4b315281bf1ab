//! The IRModule: the unit of compilation holding graph-level functions and
//! loop-level tensor programs side by side — the cross-level abstraction.

use std::collections::BTreeMap;
use std::fmt;

use relax_tir::PrimFunc;

use crate::expr::Function;

/// A module containing both graph-level [`Function`]s and loop-level
/// [`PrimFunc`] tensor programs, plus the names of external library
/// functions it references.
///
/// Having all levels in one module is what lets passes *partially lower*,
/// read loop-level analysis results from the graph level, and jointly
/// rewrite both levels (§3.3).
///
/// # Examples
///
/// ```
/// use relax_core::IRModule;
/// let m = IRModule::new();
/// assert!(m.functions().next().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct IRModule {
    funcs: BTreeMap<String, Function>,
    tir_funcs: BTreeMap<String, PrimFunc>,
}

impl IRModule {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a graph-level function under `name`.
    pub fn add_function(&mut self, name: impl Into<String>, func: Function) {
        self.funcs.insert(name.into(), func);
    }

    /// Adds a tensor program, uniquifying its name if taken. Returns the
    /// name under which it was registered.
    pub fn add_tir_func(&mut self, func: PrimFunc) -> String {
        let base = func.name().to_string();
        let name = self.fresh_tir_name(&base);
        let func = if name == base {
            func
        } else {
            func.renamed(name.clone())
        };
        self.tir_funcs.insert(name.clone(), func);
        name
    }

    /// Replaces a tensor program under an exact name.
    pub fn set_tir_func(&mut self, name: impl Into<String>, func: PrimFunc) {
        self.tir_funcs.insert(name.into(), func);
    }

    /// Keeps the tensor programs whose names `keep` accepts and drops the
    /// rest.
    pub fn retain_tir_funcs(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.tir_funcs.retain(|name, _| keep(name));
    }

    /// Removes a graph-level function.
    pub fn remove_function(&mut self, name: &str) -> Option<Function> {
        self.funcs.remove(name)
    }

    /// Looks up a graph-level function.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.funcs.get(name)
    }

    /// Looks up a graph-level function for rewriting in place.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.funcs.get_mut(name)
    }

    /// Looks up a tensor program.
    pub fn tir_func(&self, name: &str) -> Option<&PrimFunc> {
        self.tir_funcs.get(name)
    }

    /// Iterates over graph-level functions in name order.
    pub fn functions(&self) -> impl Iterator<Item = (&String, &Function)> {
        self.funcs.iter()
    }

    /// Iterates over tensor programs in name order.
    pub fn tir_funcs(&self) -> impl Iterator<Item = (&String, &PrimFunc)> {
        self.tir_funcs.iter()
    }

    /// Names of all graph-level functions.
    pub fn function_names(&self) -> Vec<String> {
        self.funcs.keys().cloned().collect()
    }

    /// Returns a name not yet used by any tensor program, derived from
    /// `base`.
    pub fn fresh_tir_name(&self, base: &str) -> String {
        if !self.tir_funcs.contains_key(base) {
            return base.to_string();
        }
        let mut i = 1;
        loop {
            let candidate = format!("{base}{i}");
            if !self.tir_funcs.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    /// Returns a name not yet used by any graph-level function.
    pub fn fresh_function_name(&self, base: &str) -> String {
        if !self.funcs.contains_key(base) {
            return base.to_string();
        }
        let mut i = 1;
        loop {
            let candidate = format!("{base}{i}");
            if !self.funcs.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }
}

impl fmt::Display for IRModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, func) in &self.funcs {
            crate::printer::print_function(name, func, f)?;
            writeln!(f)?;
        }
        for func in self.tir_funcs.values() {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_arith::DataType;
    use relax_tir::{Buffer, Stmt};

    fn dummy_tir(name: &str) -> PrimFunc {
        let x = Buffer::new("X", vec![1.into()], DataType::F32);
        PrimFunc::new(name, vec![x], 1, Stmt::Evaluate)
    }

    #[test]
    fn tir_names_are_uniquified() {
        let mut m = IRModule::new();
        let a = m.add_tir_func(dummy_tir("mm"));
        let b = m.add_tir_func(dummy_tir("mm"));
        assert_eq!(a, "mm");
        assert_eq!(b, "mm1");
        assert!(m.tir_func("mm").is_some());
        assert!(m.tir_func("mm1").is_some());
        assert_eq!(m.tir_func("mm1").unwrap().name(), "mm1");
    }
}
