//! Block layout: the order in which a function's blocks are emitted.
//!
//! Layout is the only thing a profile changes in the flat backend, and it
//! never changes observable behavior: every block is emitted exactly once
//! and every control transfer names its target explicitly, so a run's
//! counts, events and faults are the same in any order.

use trace_ir::{Function, Terminator};

use crate::counters::BranchCounts;

/// Orders `func`'s blocks as greedy fall-through chains: each chain starts
/// at the lowest-numbered unplaced block and follows the predicted
/// successor until it reaches a placed block or a return. A conditional
/// branch predicts the arm `profile` took on a strict majority of its
/// executions, and its not-taken arm when the site is unprofiled or tied;
/// a jump table predicts its default arm.
pub(crate) fn block_order(func: &Function, profile: Option<&BranchCounts>) -> Vec<usize> {
    let mut placed = vec![false; func.blocks.len()];
    let mut order = Vec::with_capacity(func.blocks.len());
    for seed in 0..func.blocks.len() {
        let mut cur = seed;
        while !placed[cur] {
            placed[cur] = true;
            order.push(cur);
            match predicted_successor(func, cur, profile) {
                Some(next) => cur = next,
                None => break,
            }
        }
    }
    order
}

/// The successor a chain grows along from `block`; `None` for returns.
fn predicted_successor(
    func: &Function,
    block: usize,
    profile: Option<&BranchCounts>,
) -> Option<usize> {
    match &func.blocks[block].term {
        Terminator::Jump(t) => Some(t.index()),
        Terminator::Branch {
            id,
            taken,
            not_taken,
            ..
        } => {
            // The majority test `2·taken > executed`, written so that it
            // cannot overflow: counts read back from a profile database
            // may exceed 2^63 (`taken <= executed` always holds).
            let prefer_taken = profile.is_some_and(|p| {
                let (executed, taken_n) = p.get(*id);
                taken_n > executed - taken_n
            });
            Some(if prefer_taken { taken } else { not_taken }.index())
        }
        Terminator::JumpTable { default, .. } => Some(default.index()),
        Terminator::Return { .. } => None,
    }
}
