//! Structural fingerprints of functions and branch sites.
//!
//! A fingerprint must survive exactly the edits profile reuse should
//! survive: renaming a function, deleting or adding an *unrelated*
//! function (which renumbers `FuncId`s, `BranchId`s and constant-array
//! indices), and re-lowering. It must *change* whenever the branch itself
//! changes meaning — a different comparison operator, different operands,
//! a different surrounding block. So the hash covers operator shape and
//! CFG context and deliberately excludes every program-global index:
//!
//! * function names (rename salvage),
//! * `FuncId`s and `BranchId`s (renumbered by unrelated deletes),
//! * raw block indices (successors hash as reverse-post-order ordinals),
//! * constant-array indices (the interned *payload* hashes instead),
//! * global slot indices (the slot *name* hashes instead).

use std::collections::BTreeMap;

use trace_ir::{BinOp, Block, BranchId, Fnv64, Function, Instr, Program, Terminator};

/// A 64-bit structural site fingerprint.
pub type SiteFp = u64;

/// Running FNV-1a over little-endian words.
struct H(Fnv64);

impl H {
    fn new(seed: u64) -> Self {
        let mut h = H(Fnv64::new());
        h.u64(seed);
        h
    }
    fn u64(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.write(s.as_bytes());
    }
    fn finish(self) -> u64 {
        self.0.finish()
    }
}

/// Reverse post-order ordinals for every block, entry first; unreachable
/// blocks are appended in layout order so every block has an ordinal.
fn rpo_ordinals(func: &Function) -> Vec<u32> {
    let n = func.blocks.len();
    let mut visited = vec![false; n];
    let mut postorder = Vec::with_capacity(n);
    // Iterative DFS from the entry, successors in declared order.
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    visited[0] = true;
    while let Some(&mut (block, ref mut next)) = stack.last_mut() {
        let mut succs = Vec::new();
        func.blocks[block]
            .term
            .for_each_successor(|s| succs.push(s.index()));
        if *next < succs.len() {
            let s = succs[*next];
            *next += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            postorder.push(block);
            stack.pop();
        }
    }
    let mut ordinal = vec![u32::MAX; n];
    let reachable = postorder.len() as u32;
    for (i, &b) in postorder.iter().rev().enumerate() {
        ordinal[b] = i as u32;
    }
    let mut next = reachable;
    for o in ordinal.iter_mut() {
        if *o == u32::MAX {
            *o = next;
            next += 1;
        }
    }
    ordinal
}

/// The tag of the comparison operator feeding a branch condition.
///
/// Seeded defect `stale-fingerprint-ignores-operator`: the fingerprint
/// hashes one fixed tag for every comparison, so `<` and `<=` (and any
/// other operator pair) collide — a profile recorded before an operator
/// edit silently salvages onto the changed site, merging counts that
/// describe a different predicate. The `stale-remap` fuzz oracle convicts
/// this by flipping one operator and asserting the site degrades.
fn cmp_tag(op: BinOp) -> u64 {
    #[cfg(feature = "seeded-defects")]
    if op.is_comparison() && mfdefect::active("stale-fingerprint-ignores-operator") {
        return BinOp::Eq as u64;
    }
    op as u64
}

fn instr_shape(h: &mut H, program: &Program, instr: &Instr) {
    match instr {
        Instr::Const { dst, value } => {
            h.u64(1);
            h.u64(u64::from(dst.0));
            match value {
                trace_ir::Value::Int(i) => {
                    h.u64(0);
                    h.u64(*i as u64);
                }
                trace_ir::Value::Float(f) => {
                    h.u64(1);
                    h.u64(f.to_bits());
                }
            }
        }
        Instr::Unop { dst, op, src } => {
            h.u64(2);
            h.u64(u64::from(dst.0));
            h.u64(*op as u64);
            h.u64(u64::from(src.0));
        }
        Instr::Binop { dst, op, lhs, rhs } => {
            h.u64(3);
            h.u64(u64::from(dst.0));
            h.u64(cmp_tag(*op));
            h.u64(u64::from(lhs.0));
            h.u64(u64::from(rhs.0));
        }
        Instr::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => {
            h.u64(4);
            h.u64(u64::from(dst.0));
            h.u64(u64::from(cond.0));
            h.u64(u64::from(if_true.0));
            h.u64(u64::from(if_false.0));
        }
        Instr::Mov { dst, src } => {
            h.u64(5);
            h.u64(u64::from(dst.0));
            h.u64(u64::from(src.0));
        }
        Instr::Load { dst, arr, index } => {
            h.u64(6);
            h.u64(u64::from(dst.0));
            h.u64(u64::from(arr.0));
            h.u64(u64::from(index.0));
        }
        Instr::Store { arr, index, src } => {
            h.u64(7);
            h.u64(u64::from(arr.0));
            h.u64(u64::from(index.0));
            h.u64(u64::from(src.0));
        }
        Instr::NewIntArray { dst, len } => {
            h.u64(8);
            h.u64(u64::from(dst.0));
            h.u64(u64::from(len.0));
        }
        Instr::NewFloatArray { dst, len } => {
            h.u64(9);
            h.u64(u64::from(dst.0));
            h.u64(u64::from(len.0));
        }
        Instr::ArrayLen { dst, arr } => {
            h.u64(10);
            h.u64(u64::from(dst.0));
            h.u64(u64::from(arr.0));
        }
        Instr::ConstArray { dst, index } => {
            // Hash the interned payload, not the index: deleting an
            // unrelated function that owned earlier literals renumbers
            // indices but not content. Long payloads hash a prefix plus
            // the length — enough to tell literals apart.
            h.u64(11);
            h.u64(u64::from(dst.0));
            let payload = &program.const_arrays[*index as usize];
            h.u64(payload.len() as u64);
            for &v in payload.iter().take(64) {
                h.u64(v as u64);
            }
        }
        Instr::GlobalGet { dst, global } => {
            h.u64(12);
            h.u64(u64::from(dst.0));
            h.str(&program.globals[global.index()]);
        }
        Instr::GlobalSet { global, src } => {
            h.u64(13);
            h.str(&program.globals[global.index()]);
            h.u64(u64::from(src.0));
        }
        Instr::FuncAddr { dst, func } => {
            h.u64(14);
            h.u64(u64::from(dst.0));
            callee_shape(h, program, func.index());
        }
        Instr::Call { dst, func, args } => {
            h.u64(15);
            h.u64(dst.map_or(u64::MAX, |d| u64::from(d.0)));
            callee_shape(h, program, func.index());
            h.u64(args.len() as u64);
            for a in args {
                h.u64(u64::from(a.0));
            }
        }
        Instr::CallIndirect { dst, target, args } => {
            h.u64(16);
            h.u64(dst.map_or(u64::MAX, |d| u64::from(d.0)));
            h.u64(u64::from(target.0));
            h.u64(args.len() as u64);
            for a in args {
                h.u64(u64::from(a.0));
            }
        }
        Instr::Emit { src } => {
            h.u64(17);
            h.u64(u64::from(src.0));
        }
    }
}

/// A weak callee signature: stable under rename and id renumbering, yet
/// telling most distinct callees apart. Never recursive (a callee's own
/// call sites hash only *their* callees' sizes).
fn callee_shape(h: &mut H, program: &Program, callee: usize) {
    let f = &program.functions[callee];
    h.u64(u64::from(f.num_params));
    h.u64(f.blocks.len() as u64);
    h.u64(f.blocks.iter().map(|b| b.instrs.len() as u64).sum());
}

fn terminator_shape(h: &mut H, term: &Terminator, ordinal: &[u32]) {
    match term {
        Terminator::Jump(t) => {
            h.u64(20);
            h.u64(u64::from(ordinal[t.index()]));
        }
        Terminator::Branch {
            cond,
            taken,
            not_taken,
            ..
        } => {
            // Note: no BranchId — ids renumber under unrelated edits.
            h.u64(21);
            h.u64(u64::from(cond.0));
            h.u64(u64::from(ordinal[taken.index()]));
            h.u64(u64::from(ordinal[not_taken.index()]));
        }
        Terminator::JumpTable {
            index,
            targets,
            default,
        } => {
            h.u64(22);
            h.u64(u64::from(index.0));
            h.u64(targets.len() as u64);
            for t in targets {
                h.u64(u64::from(ordinal[t.index()]));
            }
            h.u64(u64::from(ordinal[default.index()]));
        }
        Terminator::Return { value } => {
            h.u64(23);
            h.u64(value.map_or(u64::MAX, |v| u64::from(v.0)));
        }
    }
}

fn block_shape(h: &mut H, program: &Program, block: &Block, ordinal: &[u32]) {
    h.u64(block.instrs.len() as u64);
    for instr in &block.instrs {
        instr_shape(h, program, instr);
    }
    terminator_shape(h, &block.term, ordinal);
}

/// The structural fingerprint of one function: parameter count plus every
/// block's instruction and terminator shape in reverse post-order. Two
/// functions that differ only in name (or in their position within the
/// program) fingerprint identically.
pub fn function_fingerprint(program: &Program, func: &Function) -> u64 {
    let ordinal = rpo_ordinals(func);
    let mut h = H::new(0x5354_414c_4500_0001); // "STALE",v1
    h.u64(u64::from(func.num_params));
    h.u64(func.blocks.len() as u64);
    // Blocks in RPO: layout renumbering that preserves the CFG is
    // invisible, real structural edits are not.
    let mut order: Vec<usize> = (0..func.blocks.len()).collect();
    order.sort_by_key(|&b| ordinal[b]);
    for b in order {
        block_shape(&mut h, program, &func.blocks[b], &ordinal);
    }
    h.finish()
}

/// The condition-defining instruction's shape: the last instruction in
/// the branch's own block writing the condition register (typically the
/// fused comparison). Hashing it separately makes the *operator* of the
/// branch predicate a first-class fingerprint component.
fn condition_shape(h: &mut H, program: &Program, block: &Block, cond: u32) {
    for instr in block.instrs.iter().rev() {
        if instr.dst().is_some_and(|d| d.0 == cond) {
            instr_shape(h, program, instr);
            return;
        }
    }
    h.u64(0); // condition defined upstream (parameter or earlier block)
}

fn term_tag(term: &Terminator) -> u64 {
    match term {
        Terminator::Jump(_) => 20,
        Terminator::Branch { .. } => 21,
        Terminator::JumpTable { .. } => 22,
        Terminator::Return { .. } => 23,
    }
}

/// Per-branch-site structural fingerprints for every live conditional
/// branch of `program`, keyed by [`BranchId`].
///
/// A site's fingerprint is deliberately *local*: a weak signature of the
/// enclosing function (sizes, not content), the branch kind, the
/// condition-defining instruction (operator shape), the branch's own
/// block, whether the taken edge closes a loop, and coarse summaries of
/// both successor blocks. Locality is what makes degradation *per-site*:
/// editing one predicate invalidates that site alone, while its loop
/// header two blocks away keeps its accumulated counts. Identical twin
/// sites (duplicated code) get equal fingerprints; the remapper
/// disambiguates them by id order.
pub fn site_fingerprints(program: &Program) -> BTreeMap<BranchId, SiteFp> {
    let mut map = BTreeMap::new();
    for func in &program.functions {
        let ordinal = rpo_ordinals(func);
        for (bi, block) in func.blocks.iter().enumerate() {
            let Terminator::Branch {
                cond,
                id,
                taken,
                not_taken,
            } = block.term
            else {
                continue;
            };
            let mut h = H::new(0x5354_414c_4500_0002);
            // Weak function signature: enough to keep most cross-function
            // collisions apart without inheriting every edit the function
            // ever sees.
            h.u64(u64::from(func.num_params));
            h.u64(func.blocks.len() as u64);
            h.u64(func.blocks.iter().map(|b| b.instrs.len() as u64).sum());
            h.u64(program.branch_info[id.0 as usize].kind as u64);
            condition_shape(&mut h, program, block, cond.0);
            block_shape(&mut h, program, block, &ordinal);
            // Loop-closure flag (relational, not positional) plus coarse
            // successor summaries — sizes and terminator tags only, so a
            // change *inside* a neighbouring block degrades only that
            // block's own site.
            h.u64(u64::from(ordinal[taken.index()] <= ordinal[bi]));
            for succ in [taken, not_taken] {
                let s = &func.blocks[succ.index()];
                h.u64(s.instrs.len() as u64);
                h.u64(term_tag(&s.term));
            }
            map.insert(id, h.finish());
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Program {
        mflang::compile(src).expect("test source compiles")
    }

    #[test]
    fn fingerprints_are_deterministic_and_cover_live_sites() {
        let src = "
fn f(a: int) -> int { if (a < 3) { return 1; } return 2; }
fn main(n: int) { emit(f(n)); }
";
        let p = compile(src);
        let a = site_fingerprints(&p);
        let b = site_fingerprints(&compile(src));
        assert_eq!(a, b);
        assert_eq!(a.len(), p.live_branches().len());
    }

    #[test]
    fn rename_preserves_every_fingerprint() {
        let src = "
fn f(a: int) -> int { if (a < 3) { return 1; } return 2; }
fn main(n: int) { emit(f(n)); }
";
        let renamed = crate::edit::rename_fn(src, "f", "g"); // definition + call sites
        let a: Vec<SiteFp> = site_fingerprints(&compile(src)).into_values().collect();
        let b: Vec<SiteFp> = site_fingerprints(&compile(&renamed))
            .into_values()
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn operator_perturbs_the_fingerprint() {
        let a = compile("fn main(n: int) { if (n < 3) { emit(1); } else { emit(0); } }");
        let b = compile("fn main(n: int) { if (n <= 3) { emit(1); } else { emit(0); } }");
        let fa: Vec<SiteFp> = site_fingerprints(&a).into_values().collect();
        let fb: Vec<SiteFp> = site_fingerprints(&b).into_values().collect();
        assert_eq!(fa.len(), fb.len());
        assert_ne!(fa, fb, "comparison operator must be fingerprinted");
    }

    #[test]
    fn operand_perturbs_the_fingerprint() {
        let a = compile("fn main(n: int) { if (n < 3) { emit(1); } else { emit(0); } }");
        let b = compile("fn main(n: int) { if (n < 4) { emit(1); } else { emit(0); } }");
        assert_ne!(
            site_fingerprints(&a).into_values().collect::<Vec<_>>(),
            site_fingerprints(&b).into_values().collect::<Vec<_>>()
        );
    }

    #[test]
    fn function_fingerprint_ignores_name() {
        let p1 = compile("fn aaa(x: int) -> int { return x + 1; } fn main(n: int) { emit(n); }");
        let p2 = compile("fn zzz(x: int) -> int { return x + 1; } fn main(n: int) { emit(n); }");
        assert_eq!(
            function_fingerprint(&p1, &p1.functions[0]),
            function_fingerprint(&p2, &p2.functions[0])
        );
    }
}
