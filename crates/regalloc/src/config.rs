//! Allocator configuration: the paper's machine model.

use iloc::{Reg, RegClass};

/// Register-allocation parameters.
///
/// The paper's abstract machine has 64 registers: 32 general-purpose and
/// 32 floating-point. One general-purpose register (`%r0`) is reserved as
/// the activation-record pointer, leaving 31 allocatable GPRs — the
/// standard ILOC convention.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct AllocConfig {
    /// Allocatable general-purpose registers (colors). Default 31.
    pub gpr_k: u32,
    /// Allocatable floating-point registers (colors). Default 32.
    pub fpr_k: u32,
    /// Number of caller-saved colors per class. Live ranges that cross a
    /// call may not use colors `0..caller_saved`. The paper's model uses 0
    /// (its codes were measured without an explicit convention); nonzero
    /// values are used by the calling-convention ablation.
    pub caller_saved: u32,
    /// Enable Briggs conservative coalescing (default true). Disabling it
    /// is an ablation: copies survive to consume registers and raise
    /// pressure.
    pub coalesce: bool,
    /// Rematerialize spilled constants (Briggs): a spilled live range
    /// whose single definition is a `loadI`/`loadF`/`loadSym` is
    /// recomputed before each use instead of being stored and reloaded.
    /// Default false — the paper's evaluation does not use it; the
    /// design ablation measures its interaction with CCM spilling.
    pub rematerialize: bool,
}

impl Default for AllocConfig {
    fn default() -> AllocConfig {
        AllocConfig {
            gpr_k: 31,
            fpr_k: 32,
            caller_saved: 0,
            coalesce: true,
            rematerialize: false,
        }
    }
}

impl AllocConfig {
    /// Number of colors for `class`.
    pub fn k(&self, class: RegClass) -> u32 {
        match class {
            RegClass::Gpr => self.gpr_k,
            RegClass::Fpr => self.fpr_k,
        }
    }

    /// Maps a color to its physical register index. GPR color `c` becomes
    /// `%r(c+1)` (skipping the reserved `%r0`); FPR color `c` becomes
    /// `%f(c)`.
    pub fn physical_index(&self, class: RegClass, color: u32) -> u32 {
        match class {
            RegClass::Gpr => color + 1,
            RegClass::Fpr => color,
        }
    }

    /// Whether `r` is a physical register allocated code may legitimately
    /// contain under this configuration: the reserved RARP or one of the
    /// allocatable colors mapped through [`AllocConfig::physical_index`].
    pub fn is_valid_physical(&self, r: Reg) -> bool {
        match r.class() {
            RegClass::Gpr => r == Reg::RARP || (1..=self.gpr_k).contains(&r.index()),
            RegClass::Fpr => r.index() < self.fpr_k,
        }
    }

    /// The physical registers of `class` holding caller-saved colors
    /// (`0..caller_saved`); their contents are dead after every call.
    pub fn caller_saved_physical(&self, class: RegClass) -> Vec<Reg> {
        (0..self.caller_saved.min(self.k(class)))
            .map(|c| Reg::new(class, self.physical_index(class, c)))
            .collect()
    }

    /// A tiny configuration (few registers) used by tests to force
    /// spilling on small inputs.
    pub fn tiny(k: u32) -> AllocConfig {
        AllocConfig {
            gpr_k: k,
            fpr_k: k,
            caller_saved: 0,
            coalesce: true,
            rematerialize: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_machine() {
        let c = AllocConfig::default();
        assert_eq!(c.gpr_k + 1, 32); // 32 GPRs incl. the reserved RARP
        assert_eq!(c.fpr_k, 32);
        assert_eq!(c.caller_saved, 0);
    }

    #[test]
    fn physical_mapping_skips_rarp() {
        let c = AllocConfig::default();
        assert_eq!(c.physical_index(RegClass::Gpr, 0), 1);
        assert_eq!(c.physical_index(RegClass::Gpr, 30), 31);
        assert_eq!(c.physical_index(RegClass::Fpr, 0), 0);
    }
}
