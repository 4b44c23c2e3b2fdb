//! Modules: a set of functions plus global data.

use std::collections::HashMap;

use crate::func::Function;
use crate::verify::{verify_module, VerifyError};

/// A named global data region in main memory.
#[derive(Clone, PartialEq, Debug)]
pub struct Global {
    /// Symbol name, referenced by [`Op::LoadSym`](crate::Op::LoadSym).
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Optional initial contents as raw little-endian bytes (zero-filled if
    /// shorter than `size`).
    pub init: Vec<u8>,
}

impl Global {
    /// A zero-initialized global of `size` bytes.
    pub fn zeroed(name: impl Into<String>, size: u32) -> Global {
        Global {
            name: name.into(),
            size,
            init: Vec::new(),
        }
    }

    /// A global initialized with the given `f64` values (8 bytes each).
    pub fn from_f64s(name: impl Into<String>, values: &[f64]) -> Global {
        let mut init = Vec::with_capacity(values.len() * 8);
        for v in values {
            init.extend_from_slice(&v.to_le_bytes());
        }
        Global {
            name: name.into(),
            size: init.len() as u32,
            init,
        }
    }

    /// A global initialized with the given `i32` values (4 bytes each).
    pub fn from_i32s(name: impl Into<String>, values: &[i32]) -> Global {
        let mut init = Vec::with_capacity(values.len() * 4);
        for v in values {
            init.extend_from_slice(&v.to_le_bytes());
        }
        Global {
            name: name.into(),
            size: init.len() as u32,
            init,
        }
    }
}

/// A compilation unit: functions plus globals.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Module {
    /// The functions, in definition order.
    pub functions: Vec<Function>,
    /// Global data regions.
    pub globals: Vec<Global>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Appends a function.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name already exists.
    pub fn push_function(&mut self, f: Function) {
        assert!(
            self.function(&f.name).is_none(),
            "duplicate function {}",
            f.name
        );
        self.functions.push(f);
    }

    /// Appends a global.
    ///
    /// # Panics
    ///
    /// Panics if a global with the same name already exists.
    pub fn push_global(&mut self, g: Global) {
        assert!(
            self.global(&g.name).is_none(),
            "duplicate global {}",
            g.name
        );
        self.globals.push(g);
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Map from function name to index in [`Module::functions`].
    pub fn function_indices(&self) -> HashMap<&str, usize> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect()
    }

    /// Runs the verifier over every function and the module-level rules.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] encountered.
    pub fn verify(&self) -> Result<(), VerifyError> {
        verify_module(self)
    }

    /// Total instruction count across all functions.
    pub fn instr_count(&self) -> usize {
        self.functions.iter().map(|f| f.instr_count()).sum()
    }

    /// Whether the module touches the CCM: an instruction that
    /// [`is_ccm_op`](crate::Op::is_ccm_op) or a frame slot that is
    /// `in_ccm`. Checking and simulating a module for which this is false
    /// gives the same result at every CCM size.
    pub fn uses_ccm(&self) -> bool {
        self.functions.iter().any(|f| {
            f.frame.slots.iter().any(|s| s.in_ccm)
                || f.blocks
                    .iter()
                    .flat_map(|b| &b.instrs)
                    .any(|i| i.op.is_ccm_op())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_init_encoding() {
        let g = Global::from_f64s("w", &[1.0, 2.0]);
        assert_eq!(g.size, 16);
        assert_eq!(&g.init[0..8], &1.0f64.to_le_bytes());
        let gi = Global::from_i32s("v", &[7, -1]);
        assert_eq!(gi.size, 8);
        assert_eq!(&gi.init[4..8], &(-1i32).to_le_bytes());
    }

    #[test]
    fn function_lookup() {
        let mut m = Module::new();
        m.push_function(Function::new("a"));
        m.push_function(Function::new("b"));
        assert!(m.function("a").is_some());
        assert!(m.function("c").is_none());
        assert_eq!(m.function_indices()["b"], 1);
    }

    #[test]
    fn uses_ccm_sees_ccm_slots_and_ccm_ops() {
        use crate::{Instr, Op, Reg, RegClass};

        let mut m = Module::new();
        m.push_function(Function::new("main"));
        let slot = m.functions[0].frame.new_slot(RegClass::Gpr);
        assert!(!m.uses_ccm(), "a frame slot and no CCM op");

        let mut slot_only = m.clone();
        slot_only.functions[0].frame.slot_mut(slot).in_ccm = true;
        assert!(slot_only.uses_ccm(), "a CCM slot and no CCM op");

        let mut op_only = m.clone();
        op_only.functions[0].blocks[0]
            .instrs
            .push(Instr::new(Op::CcmStore {
                val: Reg::gpr(1),
                off: 0,
            }));
        assert!(op_only.uses_ccm(), "a CCM op and no CCM slot");
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_panics() {
        let mut m = Module::new();
        m.push_function(Function::new("a"));
        m.push_function(Function::new("a"));
    }

    #[test]
    #[should_panic(expected = "duplicate global")]
    fn duplicate_global_panics() {
        let mut m = Module::new();
        m.push_global(Global::zeroed("g", 8));
        m.push_global(Global::zeroed("g", 4));
    }
}
