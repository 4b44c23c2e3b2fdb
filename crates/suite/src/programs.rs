//! Multi-routine programs for the whole-program experiments (Figures 3/4).
//!
//! The paper reports whole-program running times for 13 programs, six of
//! which improved under CCM spilling. Each program here links several
//! suite kernels into one module (globals and functions renamed apart), so
//! interprocedural CCM allocation sees a real call graph.

use iloc::{Module, Op, RegClass};

use crate::kernels::{kernel, Kernel};

/// A program: a named set of member kernels linked into one module.
#[derive(Clone, Debug)]
pub struct Program {
    /// Program name.
    pub name: &'static str,
    /// Member kernel names (must exist in [`crate::kernels::kernels`]).
    pub members: &'static [&'static str],
}

/// The 13 programs of the whole-program experiments.
pub fn programs() -> Vec<Program> {
    vec![
        Program {
            name: "fftpack",
            members: &["radf4", "radb4", "radf5", "radb5", "cosqf1"],
        },
        Program {
            name: "fftpackX",
            members: &["radf4X", "radb4X", "radf3X", "radb3X", "radf2X", "radb2X"],
        },
        Program {
            name: "applu",
            members: &["jacld", "jacu", "blts", "buts", "erhs", "rhs"],
        },
        Program {
            name: "forsythe",
            members: &["decomp", "svd", "zeroin", "fmin", "urand"],
        },
        Program {
            name: "wave",
            members: &["twldrv", "fieldX", "initX", "parmvr"],
        },
        Program {
            name: "turb3d",
            members: &["ddeflu", "debflu", "bilan", "deseco", "pastem", "prophy"],
        },
        Program {
            name: "mesh",
            members: &["tomcatv", "smoothX", "vslv1pX", "vslv1xX"],
        },
        Program {
            name: "chem",
            members: &["fpppp", "supp", "subb", "saturr"],
        },
        Program {
            name: "pic",
            members: &["parmvr", "parmveX", "efill"],
        },
        Program {
            name: "pack",
            members: &["efill", "getb", "putb"],
        },
        Program {
            name: "hash",
            members: &["ihash", "urand"],
        },
        Program {
            name: "rotor",
            members: &["colbur", "svd", "cosqf1"],
        },
        Program {
            name: "spice",
            members: &["saturr", "ddeflu", "zeroin", "getb"],
        },
    ]
}

/// Looks up a program by name.
pub fn program(name: &str) -> Option<Program> {
    programs().into_iter().find(|p| p.name == name)
}

/// Renames every global and function of `m` with `prefix`, rewriting
/// `loadSym` and `call` references.
fn rename_module(m: &mut Module, prefix: &str) {
    for g in &mut m.globals {
        g.name = format!("{prefix}{}", g.name);
    }
    for f in &mut m.functions {
        f.name = format!("{prefix}{}", f.name);
        for b in 0..f.blocks.len() {
            for i in 0..f.blocks[b].instrs.len() {
                match &mut f.blocks[b].instrs[i].op {
                    Op::LoadSym { sym, .. } => *sym = format!("{prefix}{sym}").into(),
                    Op::Call(call) => call.callee = format!("{prefix}{}", call.callee),
                    _ => {}
                }
            }
        }
    }
}

/// Builds a program module: each member kernel is built and optimized
/// with its own unroll setting ([`crate::build_optimized`]), then linked
/// by [`build_program_from`].
///
/// The returned module is already scalar-optimized — run register
/// allocation (and CCM passes) on it directly.
///
/// # Panics
///
/// Panics if a member name is unknown.
pub fn build_program(p: &Program) -> Module {
    let members = p
        .members
        .iter()
        .map(|name| {
            let k: Kernel = kernel(name).unwrap_or_else(|| panic!("unknown kernel {name}"));
            crate::build_optimized(&k)
        })
        .collect();
    build_program_from(p, members)
}

/// Links already-optimized member modules into `p`'s program:
/// `members[i]` is [`crate::build_optimized`] of `p.members[i]`. Each
/// member is renamed apart and merged; a fresh `main` calls every
/// member's entry in order and returns the combined checksum. Callers
/// that already hold the optimized kernels (the harness's build cache)
/// link them without optimizing any member again.
///
/// # Panics
///
/// Panics if `members` does not have one module per member name, or if
/// the linked module fails verification.
pub fn build_program_from(p: &Program, members: Vec<Module>) -> Module {
    assert_eq!(
        members.len(),
        p.members.len(),
        "program {}: one module per member",
        p.name
    );
    let mut merged = Module::new();
    let mut entries = Vec::new();
    for (i, (name, mut m)) in p.members.iter().zip(members).enumerate() {
        let prefix = format!("{}{}_", name, i);
        rename_module(&mut m, &prefix);
        entries.push(format!("{prefix}main"));
        for g in m.globals {
            merged.push_global(g);
        }
        for f in m.functions {
            merged.push_function(f);
        }
    }

    let mut main = iloc::builder::FuncBuilder::new("main");
    main.set_ret_classes(&[RegClass::Fpr]);
    let acc = main.vreg(RegClass::Fpr);
    main.emit(Op::LoadF { imm: 0.0, dst: acc });
    for e in &entries {
        let r = main.call(e.clone(), &[], &[RegClass::Fpr]);
        let t = main.fadd(acc, r[0]);
        main.emit(Op::F2F { src: t, dst: acc });
    }
    main.ret(&[acc]);
    merged.push_function(main.finish());
    merged
        .verify()
        .unwrap_or_else(|e| panic!("program {} fails verification: {e}", p.name));
    merged
}
