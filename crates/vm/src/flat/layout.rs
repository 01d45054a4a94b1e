//! Block layout: the order in which a function's blocks are emitted.
//!
//! The flat backend has one layout and no profile input. Layout never
//! changes observable behavior: every block is emitted exactly once and
//! every control transfer names its target explicitly, so a run's counts,
//! events and faults are the same in any order.

use trace_ir::{Function, Terminator};

/// Orders `func`'s blocks as greedy fall-through chains: each chain starts
/// at the lowest-numbered unplaced block and follows the chained
/// successor until it reaches a placed block or a return. A conditional
/// branch chains along its not-taken arm, a jump along its target and a
/// jump table along its default arm.
pub(crate) fn block_order(func: &Function) -> Vec<usize> {
    let mut placed = vec![false; func.blocks.len()];
    let mut order = Vec::with_capacity(func.blocks.len());
    for seed in 0..func.blocks.len() {
        let mut cur = seed;
        while !placed[cur] {
            placed[cur] = true;
            order.push(cur);
            match chained_successor(func, cur) {
                Some(next) => cur = next,
                None => break,
            }
        }
    }
    order
}

/// The successor a chain grows along from `block`; `None` for returns.
fn chained_successor(func: &Function, block: usize) -> Option<usize> {
    match &func.blocks[block].term {
        Terminator::Jump(t) => Some(t.index()),
        Terminator::Branch { not_taken, .. } => Some(not_taken.index()),
        Terminator::JumpTable { default, .. } => Some(default.index()),
        Terminator::Return { .. } => None,
    }
}
