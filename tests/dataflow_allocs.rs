//! The dataflow core allocates a fixed number of buffers per solve,
//! whatever the number of blocks: [`analysis::live`] and
//! [`analysis::must`] are run on functions of 8, 64 and 512 blocks under
//! a counting global allocator, and each solve must stay under one bound.
//!
//! This binary holds a single test, so nothing else allocates while a
//! solve is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use analysis::{BitRows, BitSet};
use iloc::{BlockId, Function, Instr, Op, RegClass};

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations one solve may make, at any block count.
const BOUND: usize = 12;

/// Universe of the generated problems: three words per row.
const FACTS: usize = 150;

/// `n` blocks: block `i` branches to `i + 1` and to `(7i + 3) mod n`
/// (loops, back edges into the entry and the odd self-loop), and the last
/// block returns.
fn ladder(n: usize) -> Function {
    let mut f = Function::new("ladder");
    for i in 1..n {
        f.add_block(format!("b{i}"));
    }
    let cond = f.new_vreg(RegClass::Gpr);
    for i in 0..n {
        let op = if i + 1 == n {
            Op::Ret { vals: [].into() }
        } else {
            Op::Cbr {
                cond,
                taken: BlockId((i + 1) as u32),
                not_taken: BlockId(((7 * i + 3) % n) as u32),
            }
        };
        f.block_mut(BlockId(i as u32)).instrs.push(Instr::new(op));
    }
    f
}

/// Block `b` generates facts `b mod FACTS` and `(5b) mod FACTS` and kills
/// `(b + 1) mod FACTS`.
fn problem(n: usize) -> (BitRows, BitRows) {
    let (mut gen, mut kill) = (BitRows::new(n, FACTS), BitRows::new(n, FACTS));
    for b in 0..n {
        gen.insert(b, b % FACTS);
        gen.insert(b, 5 * b % FACTS);
        kill.insert(b, (b + 1) % FACTS);
    }
    (gen, kill)
}

/// The fewest allocations `solve` made over three runs: a stray
/// allocation on another thread can only raise a single count.
fn allocations<T>(mut solve: impl FnMut() -> T) -> usize {
    (0..3)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            let result = solve();
            let after = ALLOCS.load(Ordering::Relaxed);
            drop(result);
            after - before
        })
        .min()
        .expect("three runs")
}

#[test]
fn a_solve_allocates_a_fixed_number_of_buffers() {
    let mut counts = Vec::new();
    for n in [8, 64, 512] {
        let f = ladder(n);
        let (gen, kill) = problem(n);
        let entry = BitSet::new(FACTS);
        let live = allocations(|| analysis::live(&f, &gen, &kill));
        let must = allocations(|| analysis::must(&f, &gen, &kill, &entry));
        counts.push((n, live, must));
    }
    for &(n, live, must) in &counts {
        assert!(
            live <= BOUND && must <= BOUND,
            "{n} blocks: live {live}, must {must} allocations (bound {BOUND}); all: {counts:?}"
        );
    }
}
