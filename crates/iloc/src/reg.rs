//! Registers and register classes.

use std::fmt;

/// The first virtual-register index.
///
/// Indices below this value denote *physical* registers (colors assigned by
/// the register allocator, plus the reserved activation-record pointer).
/// Indices at or above it denote virtual registers produced by the front end
/// and the optimizer.
pub const FIRST_VREG: u32 = 64;

/// A register class: the machine has disjoint integer and floating-point
/// register files, mirroring the paper's 32 general-purpose + 32
/// floating-point register model.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RegClass {
    /// General-purpose (integer / address) registers, printed `%rN`.
    Gpr,
    /// Floating-point registers, printed `%fN`.
    Fpr,
}

impl RegClass {
    /// Both classes, in a fixed order — handy for per-class loops.
    pub const ALL: [RegClass; 2] = [RegClass::Gpr, RegClass::Fpr];

    /// A small dense index (0 for GPR, 1 for FPR) for per-class tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegClass::Gpr => 0,
            RegClass::Fpr => 1,
        }
    }

    /// Size in bytes of a value of this class (`INTEGER` = 4, `REAL*8` = 8),
    /// matching the Fortran-derived codes of the paper.
    #[inline]
    pub fn value_size(self) -> u32 {
        match self {
            RegClass::Gpr => 4,
            RegClass::Fpr => 8,
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Gpr => write!(f, "gpr"),
            RegClass::Fpr => write!(f, "fpr"),
        }
    }
}

/// A register: a class plus an index, packed into one `u32`.
///
/// Bit 31 holds the class (clear for [`RegClass::Gpr`], set for
/// [`RegClass::Fpr`]) and the low 31 bits the index, so the derived
/// `Ord` orders by (class, index) and a register costs four bytes in
/// every instruction. Indices `< FIRST_VREG` are physical; `>= FIRST_VREG`
/// are virtual. The distinguished register [`Reg::RARP`] (`%r0`) is the
/// activation-record pointer and is never allocated.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u32);

/// The class bit of a packed [`Reg`].
const FPR_BIT: u32 = 1 << 31;

impl Reg {
    /// The largest register index a [`Reg`] can hold, `2³¹ - 1`.
    pub(crate) const MAX_INDEX: u32 = FPR_BIT - 1;

    /// The activation-record pointer (frame pointer), `%r0`. Reserved: the
    /// allocator never assigns it, and spill code addresses the frame
    /// through it.
    pub const RARP: Reg = Reg(0);

    /// Creates a general-purpose register with the given index.
    #[inline]
    pub fn gpr(index: u32) -> Reg {
        Reg::new(RegClass::Gpr, index)
    }

    /// Creates a floating-point register with the given index.
    #[inline]
    pub fn fpr(index: u32) -> Reg {
        Reg::new(RegClass::Fpr, index)
    }

    /// Creates a register of `class` with the given index.
    ///
    /// # Panics
    ///
    /// If `index` is 2³¹ or more: bit 31 holds the class.
    #[inline]
    pub fn new(class: RegClass, index: u32) -> Reg {
        assert!(
            index <= Reg::MAX_INDEX,
            "register index {index} out of range"
        );
        match class {
            RegClass::Gpr => Reg(index),
            RegClass::Fpr => Reg(index | FPR_BIT),
        }
    }

    /// This register's class.
    #[inline]
    pub fn class(self) -> RegClass {
        if self.0 & FPR_BIT == 0 {
            RegClass::Gpr
        } else {
            RegClass::Fpr
        }
    }

    /// This register's index within its class.
    #[inline]
    pub fn index(self) -> u32 {
        self.0 & Reg::MAX_INDEX
    }

    /// Whether this is a virtual register (index `>= FIRST_VREG`).
    #[inline]
    pub fn is_virtual(self) -> bool {
        self.index() >= FIRST_VREG
    }

    /// Whether this is a physical register (including [`Reg::RARP`]).
    #[inline]
    pub fn is_physical(self) -> bool {
        !self.is_virtual()
    }
}

const _: () = assert!(std::mem::size_of::<Reg>() == 4);

/// Prints `Reg { class: Gpr, index: 5 }`, the form the verifier's
/// messages embed.
impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reg")
            .field("class", &self.class())
            .field("index", &self.index())
            .finish()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Gpr => write!(f, "%r{}", self.index()),
            RegClass::Fpr => write!(f, "%f{}", self.index()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Reg::gpr(3).to_string(), "%r3");
        assert_eq!(Reg::fpr(64).to_string(), "%f64");
        assert_eq!(Reg::RARP.to_string(), "%r0");
    }

    #[test]
    fn virtual_physical_split() {
        assert!(Reg::gpr(FIRST_VREG).is_virtual());
        assert!(Reg::gpr(FIRST_VREG - 1).is_physical());
        assert!(Reg::RARP.is_physical());
    }

    #[test]
    fn value_sizes_match_fortran_model() {
        assert_eq!(RegClass::Gpr.value_size(), 4);
        assert_eq!(RegClass::Fpr.value_size(), 8);
    }

    #[test]
    fn class_indices_are_dense() {
        assert_eq!(RegClass::Gpr.index(), 0);
        assert_eq!(RegClass::Fpr.index(), 1);
        for (i, c) in RegClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn ordering_is_class_then_index() {
        assert!(Reg::gpr(5) < Reg::fpr(0));
        assert!(Reg::gpr(1) < Reg::gpr(2));
    }

    #[test]
    fn packing_round_trips_class_and_index() {
        let indices = [
            0,
            Reg::RARP.index(),
            FIRST_VREG - 1,
            FIRST_VREG,
            (1 << 31) - 1,
        ];
        for class in RegClass::ALL {
            for index in indices {
                let r = Reg::new(class, index);
                assert_eq!((r.class(), r.index()), (class, index));
                assert_eq!(r.is_virtual(), index >= FIRST_VREG);
            }
        }
        assert_eq!(Reg::MAX_INDEX, (1 << 31) - 1);
    }

    #[test]
    fn packed_order_is_class_then_index_on_a_seeded_sample() {
        // SplitMix64; indices drawn from a few widths so equal and
        // neighbouring indices occur.
        let mut state = 0x5EED_0123_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let regs: Vec<Reg> = (0..2000)
            .map(|_| {
                let bits = next();
                let class = RegClass::ALL[(bits & 1) as usize];
                let width = [3, 7, 31][(bits >> 1) as usize % 3];
                Reg::new(class, (bits >> 32) as u32 & ((1 << width) - 1))
            })
            .collect();
        for a in &regs {
            for b in &regs[..50] {
                let key = |r: &Reg| (r.class(), r.index());
                assert_eq!(a.cmp(b), key(a).cmp(&key(b)), "{a:?} vs {b:?}");
                assert_eq!(a == b, key(a) == key(b));
            }
        }
    }

    #[test]
    fn display_and_debug_forms_are_unchanged() {
        assert_eq!(Reg::gpr(5).to_string(), "%r5");
        assert_eq!(Reg::fpr(0).to_string(), "%f0");
        assert_eq!(Reg::fpr((1 << 31) - 1).to_string(), "%f2147483647");
        assert_eq!(format!("{:?}", Reg::gpr(5)), "Reg { class: Gpr, index: 5 }");
        assert_eq!(
            format!("{:?}", Reg::fpr(64)),
            "Reg { class: Fpr, index: 64 }"
        );
        assert_eq!(
            format!("{:#?}", Reg::RARP),
            "Reg {\n    class: Gpr,\n    index: 0,\n}"
        );
    }

    #[test]
    #[should_panic(expected = "register index 2147483648 out of range")]
    fn an_index_past_31_bits_panics() {
        Reg::new(RegClass::Fpr, 1 << 31);
    }
}
