#![warn(missing_docs)]

//! # trace-vm
//!
//! A deterministic interpreter for [`trace_ir`] programs that plays the role
//! of the Multiflow Trace 14/300 in the Fisher & Freudenberger experiments —
//! plus both of the paper's measurement tools at once:
//!
//! * **MFPixie**: the VM counts how many times every basic block executes
//!   ([`PixieCounts`]), giving exact dynamic RISC-level instruction
//!   frequencies.
//! * **IFPROBBER**: the VM counts, for every conditional branch (keyed by its
//!   stable source-level [`trace_ir::BranchId`]), how many times it executed
//!   and how many times it was taken ([`BranchCounts`]).
//! * **Breaks in control**: every control-transfer event is tallied by kind
//!   ([`BreakEvents`]) so the paper's instructions-per-break metrics can be
//!   computed under any accounting convention.
//!
//! Execution is fully deterministic: same program + same inputs ⇒ same
//! output, same counts, bit for bit.
//!
//! ```
//! use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
//! use trace_ir::BinOp;
//! use trace_vm::{Vm, Input};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new();
//! let mut f = FunctionBuilder::new("main", 2);
//! let sum = f.binop(BinOp::Add, f.param(0), f.param(1));
//! f.emit_value(sum);
//! f.ret(Some(sum));
//! pb.add_function(f.finish());
//! let program = pb.finish("main")?;
//!
//! let run = Vm::new(&program).run(&[Input::Int(2), Input::Int(40)])?;
//! assert_eq!(run.output_ints(), vec![42]);
//! assert!(run.stats.total_instrs > 0);
//! # Ok(())
//! # }
//! ```

mod counters;
mod error;
mod flat;
mod machine;
mod value;

pub use counters::{BranchCounts, BreakEvents, PixieCounts, RunStats};
pub use error::RuntimeError;
pub use flat::FlatProgram;
pub use machine::{
    run_program, Backend, BranchEvent, Observer, Recorder, Run, Vm, VmConfig, ENTRY_EDGE_FROM,
};
pub use value::{GuestValue, Input};
