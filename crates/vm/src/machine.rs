//! The interpreter itself.

use trace_ir::{BinOp, BranchId, FuncId, Instr, Program, Reg, Terminator, UnOp, Value};

use crate::counters::{PixieCounts, RunStats};
use crate::error::RuntimeError;
use crate::value::{ArrayData, GuestValue, HeapObject, Input};

/// Which execution engine runs the program.
///
/// Both backends are observably identical — same [`Run`] (output, result,
/// stats), same [`Observer`] event stream, same [`RuntimeError`]s at the
/// same fault points — so the choice is purely a throughput/diagnosability
/// trade-off. The equivalence is enforced by the fuzzer's flat-vs-reference
/// differential oracle and by test batteries over the corpus and workloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The tree-walking interpreter over the structured IR: simple, easy to
    /// audit, and the semantic baseline every other engine is diffed
    /// against.
    #[default]
    Reference,
    /// The pre-compiled flat bytecode interpreter ([`crate::FlatProgram`]):
    /// linearized code, fused compare-and-branch superinstructions,
    /// block-level fuel accounting, and a contiguous register stack. See
    /// DESIGN.md §9.
    Flat,
}

impl Backend {
    /// The CLI/config spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Reference => "reference",
            Backend::Flat => "flat",
        }
    }

    /// All backends, in the canonical (reference first) order.
    pub const ALL: [Backend; 2] = [Backend::Reference, Backend::Flat];
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" => Ok(Backend::Reference),
            "flat" => Ok(Backend::Flat),
            other => Err(format!(
                "unknown backend '{other}' (expected 'reference' or 'flat')"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Resource limits for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmConfig {
    /// Maximum RISC-level instructions to execute before aborting.
    pub fuel: u64,
    /// Maximum call-stack depth.
    pub max_stack: usize,
    /// Maximum elements in one array allocation.
    pub max_alloc: i64,
    /// The execution engine. Semantically irrelevant (both backends are
    /// observably identical), but part of the harness run key so cached
    /// results record which engine produced them.
    pub backend: Backend,
    /// Trace-formation configuration for [`Backend::Flat`] compilation.
    /// Semantically irrelevant (trace selection never changes observable
    /// behavior), but part of the harness run key.
    pub trace: crate::TraceConfig,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            fuel: 20_000_000_000,
            max_stack: 1 << 16,
            max_alloc: 1 << 26,
            backend: Backend::Reference,
            trace: crate::TraceConfig::default(),
        }
    }
}

/// The result of a successful run: the guest's output stream, the entry
/// function's return value, and everything that was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    /// Values the guest `emit`ted, in order.
    pub output: Vec<GuestValue>,
    /// The entry function's return value, if any.
    pub result: Option<GuestValue>,
    /// All counters (IFPROBBER, MFPixie, break events, total instructions).
    pub stats: RunStats,
}

/// Watches a run from inside the interpreter loop: every traversed
/// control-flow edge and every executed conditional branch, in program
/// order, on either backend through [`Vm::run_observed`] or
/// [`crate::FlatProgram::run_observed`].
///
/// Both methods default to no-ops and the interpreters are generic over the
/// observer, so `()` — what [`Vm::run`] passes — compiles to the
/// unobserved loop, and an observer pays only for the methods it
/// overrides. Observing changes nothing the run reports. `branch` always
/// carries the true direction control flow follows, even when a seeded
/// defect perturbs the aggregate counters, so a replay of the recorded
/// events can convict such a defect.
pub trait Observer {
    /// Control entered block `to` of `func`, coming from block `from` of
    /// the same function — or from [`ENTRY_EDGE_FROM`] when `func` was
    /// just entered (program start or a call).
    fn edge(&mut self, func: FuncId, from: u32, to: u32) {
        let _ = (func, from, to);
    }

    /// Conditional branch `id` executed and went `taken`. `instrs` is the
    /// guest-instruction count at the branch, its own transfer included,
    /// so two branches' counts differ by the instruction run between them.
    fn branch(&mut self, id: BranchId, taken: bool, instrs: u64) {
        let _ = (id, taken, instrs);
    }
}

/// The unobserved run.
impl Observer for () {}

/// Two observers watching one run, `.0` before `.1` at every event.
impl<A: Observer, B: Observer> Observer for (A, B) {
    fn edge(&mut self, func: FuncId, from: u32, to: u32) {
        self.0.edge(func, from, to);
        self.1.edge(func, from, to);
    }

    fn branch(&mut self, id: BranchId, taken: bool, instrs: u64) {
        self.0.branch(id, taken, instrs);
        self.1.branch(id, taken, instrs);
    }
}

/// The `from` pseudo-block [`Observer::edge`] reports for function entry
/// edges.
pub const ENTRY_EDGE_FROM: u32 = u32::MAX;

/// One executed conditional branch, as a [`Recorder`] keeps it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchEvent {
    /// The source-level branch that executed.
    pub id: BranchId,
    /// Whether it was taken.
    pub taken: bool,
    /// The guest-instruction count at the branch ([`Observer::branch`]).
    pub instrs: u64,
}

/// An [`Observer`] that keeps every edge and branch in order. Memory grows
/// with the run, so it is for tests and differential checks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recorder {
    /// `(func, from, to)` per traversed edge.
    pub edges: Vec<(FuncId, u32, u32)>,
    /// Every executed conditional branch.
    pub branches: Vec<BranchEvent>,
}

impl Observer for Recorder {
    fn edge(&mut self, func: FuncId, from: u32, to: u32) {
        self.edges.push((func, from, to));
    }

    fn branch(&mut self, id: BranchId, taken: bool, instrs: u64) {
        self.branches.push(BranchEvent { id, taken, instrs });
    }
}

impl Run {
    /// The output stream as integers.
    ///
    /// # Panics
    ///
    /// Panics if any emitted value is not an integer.
    pub fn output_ints(&self) -> Vec<i64> {
        self.output
            .iter()
            .map(|v| v.as_int().expect("non-integer value in output"))
            .collect()
    }

    /// The output stream as floats (integers are not coerced).
    ///
    /// # Panics
    ///
    /// Panics if any emitted value is not a float or zero.
    pub fn output_floats(&self) -> Vec<f64> {
        self.output
            .iter()
            .map(|v| v.as_float().expect("non-float value in output"))
            .collect()
    }
}

struct Frame {
    func: FuncId,
    block: usize,
    ip: usize,
    regs: Vec<GuestValue>,
    ret_dst: Option<Reg>,
    indirect: bool,
    is_entry: bool,
}

/// An interpreter bound to one program.
///
/// `Vm` borrows the program; construct one per run or reuse it — runs do not
/// share state. Under [`Backend::Flat`] the flattened bytecode is compiled
/// on first use and cached for the `Vm`'s lifetime, so reusing one `Vm`
/// across runs amortizes the compilation.
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p Program,
    config: VmConfig,
    flat: std::sync::OnceLock<crate::flat::FlatProgram>,
}

impl<'p> Vm<'p> {
    /// Creates a VM with default limits.
    pub fn new(program: &'p Program) -> Self {
        Vm::with_config(program, VmConfig::default())
    }

    /// Creates a VM with explicit limits.
    pub fn with_config(program: &'p Program, config: VmConfig) -> Self {
        Vm {
            program,
            config,
            flat: std::sync::OnceLock::new(),
        }
    }

    fn flat(&self) -> &crate::flat::FlatProgram {
        self.flat.get_or_init(|| {
            crate::flat::FlatProgram::compile_with(self.program, None, self.config.trace)
        })
    }

    /// Runs the program's entry function on `inputs`.
    ///
    /// Array inputs are placed on the heap before execution and passed by
    /// reference; the guest is charged no instructions for them.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on any dynamic fault (bad types, bounds,
    /// division by zero, fuel/stack exhaustion, entry arity mismatch).
    pub fn run(&self, inputs: &[Input]) -> Result<Run, RuntimeError> {
        self.run_observed(inputs, &mut ())
    }

    /// [`Vm::run`], with every edge and branch reported to `obs` as it
    /// executes. Identical semantics and counters; only observation is
    /// added.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on any dynamic fault, exactly as
    /// [`Vm::run`] does.
    pub fn run_observed<O: Observer>(
        &self,
        inputs: &[Input],
        obs: &mut O,
    ) -> Result<Run, RuntimeError> {
        match self.config.backend {
            Backend::Reference => Interp::new(self.program, self.config, obs).run(inputs),
            Backend::Flat => self.flat().run_observed(self.config, inputs, obs),
        }
    }
}

/// Runs `program`'s entry function on `inputs` under `config` — the
/// one-shot entry point parallel schedulers use. Everything involved
/// (`Program`, the inputs, the resulting [`Run`]) is `Send + Sync`, so a
/// shared program can be executed from many worker threads at once; each
/// call gets its own interpreter state.
///
/// # Errors
///
/// Returns a [`RuntimeError`] on any dynamic fault, exactly as
/// [`Vm::run`] does.
pub fn run_program(
    program: &Program,
    config: VmConfig,
    inputs: &[Input],
) -> Result<Run, RuntimeError> {
    Vm::with_config(program, config).run(inputs)
}

// The thread-safety contract run_program advertises, checked at compile
// time: a regression (say, an Rc sneaking into the heap or stats) fails
// the build here rather than in a downstream crate's scheduler.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
    assert_send_sync::<VmConfig>();
    assert_send_sync::<Input>();
    assert_send_sync::<Run>();
    assert_send_sync::<RunStats>();
    assert_send_sync::<RuntimeError>();
};

struct Interp<'p, 'o, O: Observer> {
    program: &'p Program,
    config: VmConfig,
    heap: Vec<HeapObject>,
    globals: Vec<GuestValue>,
    frames: Vec<Frame>,
    output: Vec<GuestValue>,
    stats: RunStats,
    fuel_used: u64,
    obs: &'o mut O,
}

impl<'p, 'o, O: Observer> Interp<'p, 'o, O> {
    fn new(program: &'p Program, config: VmConfig, obs: &'o mut O) -> Self {
        // Interned constant arrays are mapped into the heap by reference:
        // `Arc::clone` per array, never a payload copy (they are read-only,
        // so the copy-on-write in `Store` can never trigger for them).
        let heap = program
            .const_arrays
            .iter()
            .map(|a| HeapObject {
                data: ArrayData::Ints(std::sync::Arc::clone(a)),
                read_only: true,
            })
            .collect();
        Interp {
            program,
            config,
            heap,
            globals: vec![GuestValue::Zero; program.globals.len()],
            frames: Vec::new(),
            output: Vec::new(),
            stats: RunStats {
                pixie: PixieCounts::for_program(program),
                ..RunStats::default()
            },
            fuel_used: 0,
            obs,
        }
    }

    fn run(mut self, inputs: &[Input]) -> Result<Run, RuntimeError> {
        let entry = self.program.entry;
        let entry_fn = self.program.function(entry);
        if inputs.len() != entry_fn.num_params as usize {
            return Err(RuntimeError::BadEntryArity {
                got: inputs.len(),
                expected: entry_fn.num_params,
            });
        }
        let mut regs = vec![GuestValue::Zero; entry_fn.num_regs as usize];
        for (i, input) in inputs.iter().enumerate() {
            regs[i] = match input {
                Input::Int(v) => GuestValue::Int(*v),
                Input::Float(v) => GuestValue::Float(*v),
                Input::Ints(v) => self.alloc(ArrayData::ints(v.clone())),
                Input::Floats(v) => self.alloc(ArrayData::floats(v.clone())),
            };
        }
        self.frames.push(Frame {
            func: entry,
            block: 0,
            ip: 0,
            regs,
            ret_dst: None,
            indirect: false,
            is_entry: true,
        });
        self.stats.pixie.blocks[entry.index()][0] += 1;
        self.obs.edge(entry, ENTRY_EDGE_FROM, 0);

        // `program` is a plain reborrow of the &'p Program, so instruction
        // references below do not conflict with `&mut self` calls.
        let program = self.program;
        let result = loop {
            let frame = self
                .frames
                .last_mut()
                .expect("frame stack never empty here");
            let (fi, bi, ip) = (frame.func, frame.block, frame.ip);
            let block = &program.functions[fi.index()].blocks[bi];
            let has_instr = ip < block.instrs.len();
            if has_instr {
                // Advance before executing so calls resume at the next
                // instruction when their frame is re-entered. (Advancing
                // before the fuel check is unobservable: a fuel fault
                // aborts the run, so the stale ip is never read.)
                frame.ip += 1;
            }
            self.spend_fuel()?;
            if has_instr {
                self.exec_instr(&block.instrs[ip])?;
            } else if let Some(result) = self.exec_terminator(&block.term)? {
                break result;
            }
        };

        self.stats.total_instrs = self.fuel_used;
        Ok(Run {
            output: self.output,
            result,
            stats: self.stats,
        })
    }

    fn spend_fuel(&mut self) -> Result<(), RuntimeError> {
        self.fuel_used += 1;
        if self.fuel_used > self.config.fuel {
            Err(RuntimeError::OutOfFuel {
                limit: self.config.fuel,
            })
        } else {
            Ok(())
        }
    }

    fn alloc(&mut self, data: ArrayData) -> GuestValue {
        let idx = self.heap.len() as u32;
        self.heap.push(HeapObject {
            data,
            read_only: false,
        });
        GuestValue::Ref(idx)
    }

    fn reg(&self, r: Reg) -> GuestValue {
        self.frames.last().expect("active frame")[r]
    }

    fn set_reg(&mut self, r: Reg, v: GuestValue) {
        let frame = self.frames.last_mut().expect("active frame");
        frame.regs[r.index()] = v;
    }

    fn int(&self, r: Reg) -> Result<i64, RuntimeError> {
        let v = self.reg(r);
        v.as_int().ok_or(RuntimeError::TypeMismatch {
            expected: "int",
            found: v.type_name(),
        })
    }

    fn array_ref(&self, r: Reg) -> Result<u32, RuntimeError> {
        match self.reg(r) {
            GuestValue::Ref(h) => Ok(h),
            v => Err(RuntimeError::TypeMismatch {
                expected: "array",
                found: v.type_name(),
            }),
        }
    }

    fn check_index(index: i64, len: usize) -> Result<usize, RuntimeError> {
        if index < 0 || index as usize >= len {
            Err(RuntimeError::IndexOutOfBounds { index, len })
        } else {
            Ok(index as usize)
        }
    }

    fn exec_instr(&mut self, instr: &Instr) -> Result<(), RuntimeError> {
        match instr {
            Instr::Const { dst, value } => {
                let v = match *value {
                    Value::Int(i) => GuestValue::Int(i),
                    Value::Float(f) => GuestValue::Float(f),
                };
                self.set_reg(*dst, v);
            }
            Instr::Mov { dst, src } => {
                let v = self.reg(*src);
                self.set_reg(*dst, v);
            }
            Instr::Unop { dst, op, src } => {
                let v = self.exec_unop(*op, *src)?;
                self.set_reg(*dst, v);
            }
            Instr::Binop { dst, op, lhs, rhs } => {
                let v = self.exec_binop(*op, *lhs, *rhs)?;
                self.set_reg(*dst, v);
            }
            Instr::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                self.stats.events.selects += 1;
                let c = self.int(*cond)?;
                let v = if c != 0 {
                    self.reg(*if_true)
                } else {
                    self.reg(*if_false)
                };
                self.set_reg(*dst, v);
            }
            Instr::Load { dst, arr, index } => {
                let h = self.array_ref(*arr)?;
                let i = self.int(*index)?;
                let obj = &self.heap[h as usize];
                let v = match &obj.data {
                    ArrayData::Ints(v) => GuestValue::Int(v[Self::check_index(i, v.len())?]),
                    ArrayData::Floats(v) => GuestValue::Float(v[Self::check_index(i, v.len())?]),
                };
                self.set_reg(*dst, v);
            }
            Instr::Store { arr, index, src } => {
                let h = self.array_ref(*arr)?;
                let i = self.int(*index)?;
                let v = self.reg(*src);
                let obj = &mut self.heap[h as usize];
                if obj.read_only {
                    return Err(RuntimeError::ReadOnlyStore);
                }
                // `make_mut` is the copy-on-write point; mutable arrays are
                // uniquely owned (only interned constants share payloads,
                // and those were rejected above), so it never copies.
                match &mut obj.data {
                    ArrayData::Ints(data) => {
                        let idx = Self::check_index(i, data.len())?;
                        std::sync::Arc::make_mut(data)[idx] =
                            v.as_int().ok_or(RuntimeError::TypeMismatch {
                                expected: "int",
                                found: v.type_name(),
                            })?;
                    }
                    ArrayData::Floats(data) => {
                        let idx = Self::check_index(i, data.len())?;
                        std::sync::Arc::make_mut(data)[idx] =
                            v.as_float().ok_or(RuntimeError::TypeMismatch {
                                expected: "float",
                                found: v.type_name(),
                            })?;
                    }
                }
            }
            Instr::NewIntArray { dst, len } => {
                let n = self.check_alloc_len(*len)?;
                let v = self.alloc(ArrayData::ints(vec![0; n]));
                self.set_reg(*dst, v);
            }
            Instr::NewFloatArray { dst, len } => {
                let n = self.check_alloc_len(*len)?;
                let v = self.alloc(ArrayData::floats(vec![0.0; n]));
                self.set_reg(*dst, v);
            }
            Instr::ArrayLen { dst, arr } => {
                let h = self.array_ref(*arr)?;
                let len = self.heap[h as usize].data.len() as i64;
                self.set_reg(*dst, GuestValue::Int(len));
            }
            Instr::ConstArray { dst, index } => {
                // Interned arrays occupy heap slots 0..const_arrays.len().
                self.set_reg(*dst, GuestValue::Ref(*index));
            }
            Instr::GlobalGet { dst, global } => {
                let v = self.globals[global.index()];
                self.set_reg(*dst, v);
            }
            Instr::GlobalSet { global, src } => {
                self.globals[global.index()] = self.reg(*src);
            }
            Instr::FuncAddr { dst, func } => {
                self.set_reg(*dst, GuestValue::Func(*func));
            }
            Instr::Call { dst, func, args } => {
                self.stats.events.direct_calls += 1;
                self.push_call(*func, args, *dst, false)?;
            }
            Instr::CallIndirect { dst, target, args } => {
                let callee = match self.reg(*target) {
                    GuestValue::Func(id) => id,
                    v => {
                        return Err(RuntimeError::BadIndirectTarget {
                            found: v.type_name(),
                        })
                    }
                };
                let callee_fn = &self.program.functions[callee.index()];
                if args.len() != callee_fn.num_params as usize {
                    return Err(RuntimeError::IndirectArityMismatch {
                        callee: callee_fn.name.clone(),
                        got: args.len(),
                        expected: callee_fn.num_params,
                    });
                }
                self.stats.events.indirect_calls += 1;
                self.push_call(callee, args, *dst, true)?;
            }
            Instr::Emit { src } => {
                let v = self.reg(*src);
                self.output.push(v);
            }
        }
        Ok(())
    }

    fn check_alloc_len(&self, len: Reg) -> Result<usize, RuntimeError> {
        let n = self.int(len)?;
        if n < 0 || n > self.config.max_alloc {
            Err(RuntimeError::BadArrayLength { len: n })
        } else {
            Ok(n as usize)
        }
    }

    fn push_call(
        &mut self,
        callee: FuncId,
        args: &[Reg],
        ret_dst: Option<Reg>,
        indirect: bool,
    ) -> Result<(), RuntimeError> {
        if self.frames.len() >= self.config.max_stack {
            return Err(RuntimeError::StackOverflow {
                limit: self.config.max_stack,
            });
        }
        let callee_fn = &self.program.functions[callee.index()];
        let mut regs = vec![GuestValue::Zero; callee_fn.num_regs as usize];
        for (i, a) in args.iter().enumerate() {
            regs[i] = self.reg(*a);
        }
        self.frames.push(Frame {
            func: callee,
            block: 0,
            ip: 0,
            regs,
            ret_dst,
            indirect,
            is_entry: false,
        });
        self.stats.pixie.blocks[callee.index()][0] += 1;
        self.obs.edge(callee, ENTRY_EDGE_FROM, 0);
        Ok(())
    }

    /// Executes a terminator. Returns `Some(result)` when the entry frame
    /// returns (ending the run).
    fn exec_terminator(
        &mut self,
        term: &Terminator,
    ) -> Result<Option<Option<GuestValue>>, RuntimeError> {
        match term {
            Terminator::Jump(target) => {
                self.stats.events.jumps += 1;
                self.enter_block(target.index());
            }
            Terminator::Branch {
                cond,
                id,
                taken,
                not_taken,
            } => {
                let c = self.int(*cond)?;
                let is_taken = c != 0;
                self.obs.branch(*id, is_taken, self.fuel_used);
                // Seeded-defect hooks perturb only the aggregate counters;
                // control flow and the observed events stay correct, so the
                // trace-replay oracle can convict them.
                #[cfg(feature = "seeded-defects")]
                let recorded = if mfdefect::active("vm-branch-count-polarity") {
                    Some(!is_taken)
                } else if mfdefect::active("vm-profile-drop-increment") && !is_taken {
                    None
                } else {
                    Some(is_taken)
                };
                #[cfg(not(feature = "seeded-defects"))]
                let recorded = Some(is_taken);
                if let Some(direction) = recorded {
                    self.stats.branches.record(*id, direction);
                }
                let target = if is_taken { taken } else { not_taken };
                self.enter_block(target.index());
            }
            Terminator::JumpTable {
                index,
                targets,
                default,
            } => {
                self.stats.events.indirect_jumps += 1;
                let i = self.int(*index)?;
                let target = if i >= 0 && (i as usize) < targets.len() {
                    targets[i as usize]
                } else {
                    *default
                };
                self.enter_block(target.index());
            }
            Terminator::Return { value } => {
                let v = value.map(|r| self.reg(r));
                let frame = self.frames.pop().expect("active frame");
                if frame.is_entry {
                    return Ok(Some(v));
                }
                if frame.indirect {
                    self.stats.events.indirect_returns += 1;
                } else {
                    self.stats.events.direct_returns += 1;
                }
                if let Some(dst) = frame.ret_dst {
                    let caller = self.frames.last_mut().expect("caller frame");
                    caller.regs[dst.index()] = v.unwrap_or(GuestValue::Zero);
                }
            }
        }
        Ok(None)
    }

    fn enter_block(&mut self, block: usize) {
        let frame = self.frames.last_mut().expect("active frame");
        let func = frame.func;
        let from = frame.block as u32;
        frame.block = block;
        frame.ip = 0;
        self.stats.pixie.blocks[func.index()][block] += 1;
        self.obs.edge(func, from, block as u32);
    }

    fn exec_unop(&mut self, op: UnOp, src: Reg) -> Result<GuestValue, RuntimeError> {
        eval_unop(op, self.reg(src))
    }

    fn exec_binop(&mut self, op: BinOp, lhs: Reg, rhs: Reg) -> Result<GuestValue, RuntimeError> {
        eval_binop(op, self.reg(lhs), self.reg(rhs))
    }
}

pub(crate) fn want_int(v: GuestValue) -> Result<i64, RuntimeError> {
    v.as_int().ok_or(RuntimeError::TypeMismatch {
        expected: "int",
        found: v.type_name(),
    })
}

pub(crate) fn want_float(v: GuestValue) -> Result<f64, RuntimeError> {
    v.as_float().ok_or(RuntimeError::TypeMismatch {
        expected: "float",
        found: v.type_name(),
    })
}

/// Evaluates one unary operation. Shared by both backends so their value
/// semantics cannot drift.
pub(crate) fn eval_unop(op: UnOp, v: GuestValue) -> Result<GuestValue, RuntimeError> {
    Ok(match op {
        UnOp::Neg => GuestValue::Int(want_int(v)?.wrapping_neg()),
        UnOp::FNeg => GuestValue::Float(-want_float(v)?),
        UnOp::Not => GuestValue::Int(!want_int(v)?),
        UnOp::LNot => GuestValue::Int(i64::from(want_int(v)? == 0)),
        UnOp::IntToFloat => GuestValue::Float(want_int(v)? as f64),
        UnOp::FloatToInt => GuestValue::Int(want_float(v)? as i64),
        UnOp::Sqrt => GuestValue::Float(want_float(v)?.sqrt()),
        UnOp::Sin => GuestValue::Float(want_float(v)?.sin()),
        UnOp::Cos => GuestValue::Float(want_float(v)?.cos()),
        UnOp::Exp => GuestValue::Float(want_float(v)?.exp()),
        UnOp::Log => GuestValue::Float(want_float(v)?.ln()),
        UnOp::Floor => GuestValue::Float(want_float(v)?.floor()),
        UnOp::Abs => GuestValue::Int(want_int(v)?.wrapping_abs()),
        UnOp::FAbs => GuestValue::Float(want_float(v)?.abs()),
    })
}

/// Evaluates one binary operation on already-fetched operands. Shared by
/// both backends; the operand *type-check* order matches the historical
/// reference interpreter (left first, except `Div`/`Rem`, which inspect the
/// divisor first so `DivideByZero` outranks a left-operand type error).
pub(crate) fn eval_binop(
    op: BinOp,
    l: GuestValue,
    r: GuestValue,
) -> Result<GuestValue, RuntimeError> {
    use BinOp::*;
    Ok(match op {
        Add => GuestValue::Int(want_int(l)?.wrapping_add(want_int(r)?)),
        Sub => GuestValue::Int(want_int(l)?.wrapping_sub(want_int(r)?)),
        Mul => GuestValue::Int(want_int(l)?.wrapping_mul(want_int(r)?)),
        Div => {
            let d = want_int(r)?;
            if d == 0 {
                return Err(RuntimeError::DivideByZero);
            }
            GuestValue::Int(want_int(l)?.wrapping_div(d))
        }
        Rem => {
            let d = want_int(r)?;
            if d == 0 {
                return Err(RuntimeError::DivideByZero);
            }
            GuestValue::Int(want_int(l)?.wrapping_rem(d))
        }
        FAdd => GuestValue::Float(want_float(l)? + want_float(r)?),
        FSub => GuestValue::Float(want_float(l)? - want_float(r)?),
        FMul => GuestValue::Float(want_float(l)? * want_float(r)?),
        FDiv => GuestValue::Float(want_float(l)? / want_float(r)?),
        And => GuestValue::Int(want_int(l)? & want_int(r)?),
        Or => GuestValue::Int(want_int(l)? | want_int(r)?),
        Xor => GuestValue::Int(want_int(l)? ^ want_int(r)?),
        Shl => GuestValue::Int(want_int(l)?.wrapping_shl(want_int(r)? as u32 & 63)),
        Shr => GuestValue::Int(want_int(l)?.wrapping_shr(want_int(r)? as u32 & 63)),
        Eq => GuestValue::Int(i64::from(want_int(l)? == want_int(r)?)),
        Ne => GuestValue::Int(i64::from(want_int(l)? != want_int(r)?)),
        Lt => GuestValue::Int(i64::from(want_int(l)? < want_int(r)?)),
        Le => GuestValue::Int(i64::from(want_int(l)? <= want_int(r)?)),
        Gt => GuestValue::Int(i64::from(want_int(l)? > want_int(r)?)),
        Ge => GuestValue::Int(i64::from(want_int(l)? >= want_int(r)?)),
        FEq => GuestValue::Int(i64::from(want_float(l)? == want_float(r)?)),
        FNe => GuestValue::Int(i64::from(want_float(l)? != want_float(r)?)),
        FLt => GuestValue::Int(i64::from(want_float(l)? < want_float(r)?)),
        FLe => GuestValue::Int(i64::from(want_float(l)? <= want_float(r)?)),
        FGt => GuestValue::Int(i64::from(want_float(l)? > want_float(r)?)),
        FGe => GuestValue::Int(i64::from(want_float(l)? >= want_float(r)?)),
        FMin => GuestValue::Float(want_float(l)?.min(want_float(r)?)),
        FMax => GuestValue::Float(want_float(l)?.max(want_float(r)?)),
    })
}

impl std::ops::Index<Reg> for Frame {
    type Output = GuestValue;
    fn index(&self, r: Reg) -> &GuestValue {
        &self.regs[r.index()]
    }
}
