//! IR → flat-code compilation: block layout, intra-block fusion, and
//! fuel-cost assignment.

use std::collections::HashMap;
use std::sync::Arc;

use trace_ir::{Block, BlockId, BranchId, Function, Instr, Program, Terminator, Value};

use super::layout::block_order;
use super::ops::{
    components, specialize_binop, specialize_cmp_branch, specialize_const_binop, EdgeHead, FlatOp,
    NONE,
};
use super::{FlatFunc, FlatProgram, TableData};
use crate::counters::BranchCounts;
use crate::value::GuestValue;

pub(super) struct Flattener<'p> {
    program: &'p Program,
    profile: Option<&'p BranchCounts>,
    code: Vec<FlatOp>,
    heads: Vec<EdgeHead>,
    consts: Vec<GuestValue>,
    const_map: HashMap<(u8, u64), u32>,
    args: Vec<u32>,
    tables: Vec<TableData>,
    funcs: Vec<FlatFunc>,
    branch_ids: Vec<BranchId>,
    branch_slots: HashMap<u32, u32>,
}

impl<'p> Flattener<'p> {
    pub(super) fn new(program: &'p Program, profile: Option<&'p BranchCounts>) -> Self {
        Flattener {
            program,
            profile,
            code: Vec::new(),
            heads: Vec::new(),
            consts: Vec::new(),
            const_map: HashMap::new(),
            args: Vec::new(),
            tables: Vec::new(),
            funcs: Vec::new(),
            branch_ids: Vec::new(),
            branch_slots: HashMap::new(),
        }
    }

    pub(super) fn build(mut self) -> FlatProgram {
        let mut pixie_base = 0u32;
        for (fi, func) in self.program.functions.iter().enumerate() {
            self.flatten_function(fi, func, pixie_base);
            pixie_base += func.blocks.len() as u32;
        }
        let prealloc_regs = self
            .program
            .functions
            .iter()
            .map(|f| f.num_regs as usize)
            .sum::<usize>()
            .min(1 << 14);
        FlatProgram {
            code: self.code,
            heads: self.heads,
            consts: self.consts,
            args: self.args,
            tables: self.tables,
            funcs: self.funcs,
            entry: self.program.entry.0,
            globals: self.program.globals.len(),
            const_arrays: self.program.const_arrays.iter().map(Arc::clone).collect(),
            block_shape: self
                .program
                .functions
                .iter()
                .map(|f| f.blocks.len())
                .collect(),
            branch_ids: self.branch_ids,
            prealloc_regs,
        }
    }

    /// Dense counter slot for a source-level branch id. Distinct lowered
    /// branches can share one [`BranchId`] (pass-duplicated code), so the
    /// mapping is memoized, not positional.
    fn branch_slot(&mut self, id: BranchId) -> u32 {
        if let Some(&slot) = self.branch_slots.get(&id.0) {
            return slot;
        }
        let slot = self.branch_ids.len() as u32;
        self.branch_ids.push(id);
        self.branch_slots.insert(id.0, slot);
        slot
    }

    fn intern(&mut self, value: Value) -> u32 {
        let key = match value {
            Value::Int(i) => (0u8, i as u64),
            Value::Float(f) => (1u8, f.to_bits()),
        };
        if let Some(&idx) = self.const_map.get(&key) {
            return idx;
        }
        let idx = self.consts.len() as u32;
        self.consts.push(match value {
            Value::Int(i) => GuestValue::Int(i),
            Value::Float(f) => GuestValue::Float(f),
        });
        self.const_map.insert(key, idx);
        idx
    }

    fn flatten_function(&mut self, fi: usize, func: &Function, pixie_base: u32) {
        // One edge head per block, indexed by block, assigned up front so
        // terminators can name forward targets without a patch pass.
        let head_base = self.heads.len() as u32;
        self.heads
            .extend((0..func.blocks.len() as u32).map(|b| EdgeHead {
                body: 0,
                slot: pixie_base + b,
                func: fi as u32,
                block: b,
                cost: 0,
            }));
        let mut entry_pc = 0u32;
        for bi in block_order(func, self.profile) {
            if bi == 0 {
                entry_pc = self.code.len() as u32;
            }
            self.emit_block(fi, func, bi, head_base);
        }
        self.funcs.push(FlatFunc {
            entry_pc,
            num_regs: func.num_regs,
            num_params: func.num_params,
            name: func.name.clone(),
        });
    }

    /// Emits one block: straight-line ops (with the two intra-block fusion
    /// patterns), then the terminator, then assigns bulk fuel costs to the
    /// block's segments.
    fn emit_block(&mut self, fi: usize, func: &Function, bi: usize, head_base: u32) {
        let block: &Block = &func.blocks[bi];
        let instrs = &block.instrs;
        let eh = head_base + bi as u32;
        let head = |t: &BlockId| head_base + t.0;
        let is_entry = bi == 0;

        let mut buf: Vec<FlatOp> = Vec::with_capacity(instrs.len() + 2);
        if is_entry {
            buf.push(FlatOp::BlockHead {
                slot: self.heads[eh as usize].slot,
                func: fi as u32,
                block: 0,
                cost: 0,
            });
        }

        // Fusion pattern A: a comparison Binop whose result feeds the
        // block's own conditional branch is folded into the terminator.
        let fused_last = match (&block.term, instrs.last()) {
            (Terminator::Branch { cond, .. }, Some(Instr::Binop { dst, op, .. }))
                if op.is_comparison() && dst == cond =>
            {
                Some(instrs.len() - 1)
            }
            _ => None,
        };

        let mut i = 0;
        while i < instrs.len() {
            if Some(i) == fused_last {
                i += 1;
                continue;
            }
            match &instrs[i] {
                Instr::Const { dst, value } => {
                    let cidx = self.intern(*value);
                    // Fusion pattern B: a Const consumed as the right-hand
                    // side of the next Binop (unless that Binop is already
                    // reserved by pattern A).
                    if let Some(Instr::Binop {
                        dst: bdst,
                        op,
                        lhs,
                        rhs,
                    }) = instrs.get(i + 1)
                    {
                        if Some(i + 1) != fused_last && rhs == dst {
                            buf.push(specialize_const_binop(*op, bdst.0, lhs.0, dst.0, cidx));
                            i += 2;
                            continue;
                        }
                    }
                    buf.push(FlatOp::LoadConst { dst: dst.0, cidx });
                }
                Instr::Mov { dst, src } => buf.push(FlatOp::Mov {
                    dst: dst.0,
                    src: src.0,
                }),
                Instr::Unop { dst, op, src } => buf.push(FlatOp::Unop {
                    op: *op,
                    dst: dst.0,
                    src: src.0,
                }),
                Instr::Binop { dst, op, lhs, rhs } => {
                    buf.push(specialize_binop(*op, dst.0, lhs.0, rhs.0))
                }
                Instr::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => buf.push(FlatOp::Select {
                    dst: dst.0,
                    cond: cond.0,
                    if_true: if_true.0,
                    if_false: if_false.0,
                }),
                Instr::Load { dst, arr, index } => buf.push(FlatOp::Load {
                    dst: dst.0,
                    arr: arr.0,
                    index: index.0,
                }),
                Instr::Store { arr, index, src } => buf.push(FlatOp::Store {
                    arr: arr.0,
                    index: index.0,
                    src: src.0,
                }),
                Instr::NewIntArray { dst, len } => buf.push(FlatOp::NewIntArray {
                    dst: dst.0,
                    len: len.0,
                }),
                Instr::NewFloatArray { dst, len } => buf.push(FlatOp::NewFloatArray {
                    dst: dst.0,
                    len: len.0,
                }),
                Instr::ArrayLen { dst, arr } => buf.push(FlatOp::ArrayLen {
                    dst: dst.0,
                    arr: arr.0,
                }),
                Instr::ConstArray { dst, index } => buf.push(FlatOp::ConstArrayRef {
                    dst: dst.0,
                    index: *index,
                }),
                Instr::GlobalGet { dst, global } => buf.push(FlatOp::GlobalGet {
                    dst: dst.0,
                    global: global.0,
                }),
                Instr::GlobalSet { global, src } => buf.push(FlatOp::GlobalSet {
                    global: global.0,
                    src: src.0,
                }),
                Instr::FuncAddr { dst, func } => buf.push(FlatOp::FuncAddr {
                    dst: dst.0,
                    func: func.0,
                }),
                Instr::Emit { src } => buf.push(FlatOp::Emit { src: src.0 }),
                Instr::Call { dst, func, args } => {
                    let at = self.args.len() as u32;
                    self.args.extend(args.iter().map(|r| r.0));
                    buf.push(FlatOp::Call {
                        func: func.0,
                        args: at,
                        nargs: args.len() as u32,
                        ret: dst.map_or(NONE, |r| r.0),
                    });
                    buf.push(FlatOp::Resume { cost: 0 });
                }
                Instr::CallIndirect { dst, target, args } => {
                    let at = self.args.len() as u32;
                    self.args.extend(args.iter().map(|r| r.0));
                    buf.push(FlatOp::CallIndirect {
                        target: target.0,
                        args: at,
                        nargs: args.len() as u32,
                        ret: dst.map_or(NONE, |r| r.0),
                    });
                    buf.push(FlatOp::Resume { cost: 0 });
                }
            }
            i += 1;
        }

        match &block.term {
            Terminator::Jump(t) => buf.push(FlatOp::JumpHead { eh: head(t) }),
            Terminator::Branch {
                cond,
                id,
                taken,
                not_taken,
            } => {
                let slot = self.branch_slot(*id);
                if let Some(fl) = fused_last {
                    let Instr::Binop { dst, op, lhs, rhs } = &instrs[fl] else {
                        unreachable!("pattern A reserves only comparison Binops");
                    };
                    #[allow(unused_mut)]
                    let (mut tk, mut nt) = (head(taken), head(not_taken));
                    // Seeded defect: swap the fused branch's control
                    // targets. Recording still follows the comparison
                    // result, so only the flat-vs-reference differential
                    // sees the divergence.
                    #[cfg(feature = "seeded-defects")]
                    if mfdefect::active("vm-flat-fuse-swapped-arms") {
                        std::mem::swap(&mut tk, &mut nt);
                    }
                    buf.push(specialize_cmp_branch(
                        *op,
                        (dst.0, lhs.0, rhs.0),
                        (slot, tk, nt),
                    ));
                } else {
                    buf.push(FlatOp::Branch {
                        cond: cond.0,
                        slot,
                        tk: head(taken),
                        nt: head(not_taken),
                    });
                }
            }
            Terminator::JumpTable {
                index,
                targets,
                default,
            } => {
                let ti = self.tables.len() as u32;
                self.tables.push(TableData {
                    targets: targets.iter().map(head).collect(),
                    default: head(default),
                });
                buf.push(FlatOp::JumpTable {
                    index: index.0,
                    table: ti,
                });
            }
            Terminator::Return { value } => buf.push(FlatOp::Return {
                src: value.map_or(NONE, |r| r.0),
            }),
        }

        // Append to the code stream and assign bulk fuel: the block's first
        // segment charges at its edge head (and the entry `BlockHead`),
        // each later segment at the `Resume` op that opens it. Segment
        // boundaries fall after every call, exactly as the reference
        // backend's per-instruction accounting implies.
        let start = self.code.len();
        self.heads[eh as usize].body = (start + usize::from(is_entry)) as u32;
        self.code.extend(buf);
        let mut sink: Option<usize> = None; // None = head, Some(pc) = Resume
        let mut acc = 0u32;
        let mut total = 0u32;
        for j in start..self.code.len() {
            if matches!(self.code[j], FlatOp::Resume { .. }) {
                self.assign_cost(eh, start, sink, acc, is_entry);
                sink = Some(j);
                acc = 0;
            } else {
                let c = components(&self.code[j]);
                acc += c;
                total += c;
            }
        }
        self.assign_cost(eh, start, sink, acc, is_entry);
        debug_assert_eq!(
            total as usize,
            instrs.len() + 1,
            "block {bi} must cover its component count"
        );
    }

    fn assign_cost(&mut self, eh: u32, start: usize, sink: Option<usize>, cost: u32, entry: bool) {
        match sink {
            None => {
                self.heads[eh as usize].cost = cost;
                if entry {
                    let FlatOp::BlockHead { cost: c, .. } = &mut self.code[start] else {
                        unreachable!("the entry block starts with its BlockHead");
                    };
                    *c = cost;
                }
            }
            Some(pc) => {
                let FlatOp::Resume { cost: c } = &mut self.code[pc] else {
                    unreachable!("segment sink is a Resume op");
                };
                *c = cost;
            }
        }
    }
}
