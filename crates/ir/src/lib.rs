#![warn(missing_docs)]

//! # trace-ir
//!
//! A RISC-level intermediate representation modeled after the operation set of
//! the Multiflow Trace 14/300, the machine used by Fisher & Freudenberger in
//! *Predicting Conditional Branch Directions From Previous Runs of a Program*
//! (ASPLOS 1992).
//!
//! The paper reports all of its results in counts of RISC-level instructions
//! ("operations" in VLIW terminology): fixed-format three-register operations
//! with memory reached only through explicit loads and stores. This crate
//! provides exactly that vocabulary:
//!
//! * [`Instr`] — straight-line operations (ALU, memory, calls, the Trace's
//!   `select`),
//! * [`Terminator`] — control transfers, each classified by the paper's
//!   taxonomy of *breaks in control* (conditional branches, unconditional
//!   jumps, jump tables standing in for indirect jumps, returns),
//! * [`Function`] / [`Block`] / [`Program`] — a conventional control-flow
//!   graph container,
//! * [`BranchId`] — the *stable, source-level identity* of each conditional
//!   branch. Profiles are keyed by `BranchId`, which mirrors how the paper's
//!   IFPROBBER tool attached counters to source branches so that profile data
//!   survives recompilation and optimization,
//! * [`fnv64`] / [`Fnv64`] — the 64-bit FNV-1a every crate above this one
//!   digests and checksums bytes with.
//!
//! Programs are usually produced by the `mflang` compiler and executed by the
//! `trace-vm` interpreter, but the [`builder`] module lets tests and examples
//! construct IR directly.
//!
//! ```
//! use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
//! use trace_ir::{BinOp, Value};
//!
//! # fn main() -> Result<(), trace_ir::ValidateError> {
//! let mut pb = ProgramBuilder::new();
//! let mut f = FunctionBuilder::new("main", 0);
//! let one = f.const_val(Value::Int(1));
//! let two = f.const_val(Value::Int(2));
//! let sum = f.binop(BinOp::Add, one, two);
//! f.emit_value(sum);
//! f.ret(Some(sum));
//! pb.add_function(f.finish());
//! let program = pb.finish("main")?;
//! assert_eq!(program.functions.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod builder;
mod display;
mod fnv;
mod id;
mod instr;
mod program;
mod validate;

pub use fnv::{fnv64, Fnv64};
pub use id::{BlockId, BranchId, FuncId, GlobalId, Reg};
pub use instr::{BinOp, Instr, Terminator, UnOp, Value};
pub use program::{Block, BranchInfo, BranchKind, Function, Program};
pub use validate::ValidateError;
