#![warn(missing_docs)]

//! # mflang
//!
//! A small, C/Fortran-flavoured guest language compiled to [`trace_ir`]. It
//! stands in for the Multiflow trace-scheduling compiler front ends in the
//! Fisher & Freudenberger reproduction: every workload in the program sample
//! base is written in this language, compiled here, and executed on
//! [`trace-vm`](../trace_vm/index.html).
//!
//! The language is deliberately close to the paper's source languages:
//!
//! * `int`/`float` scalars, `[int]`/`[float]` arrays, typed function
//!   references (`fn(int) -> int`) for indirect calls,
//! * `if`/`else`, `while`, `do`/`while`, `for`, `switch` (lowered to
//!   cascaded conditional branches by default, exactly as the paper's
//!   compiler did, or to a branch-target table with
//!   [`SwitchMode::JumpTable`]),
//! * short-circuit `&&`/`||` (each test is a real conditional branch),
//! * `break`/`continue`/`return`, globals, recursion, string/char literals.
//!
//! Every conditional branch in the emitted IR carries a stable source-level
//! [`trace_ir::BranchId`] assigned in source order, plus its line and
//! construct kind — the hook the IFPROBBER-style profiling machinery keys on.
//!
//! The public API is [`compile`], [`compile_with`], [`CompileOptions`],
//! [`SwitchMode`] and [`CompileError`]. The tokens and syntax tree stay
//! inside the crate: their names are symbols of an interner that lives for
//! one [`compile_with`] call and means nothing outside it.
//!
//! ```
//! use mflang::compile;
//! use trace_vm::{Vm, Input};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = compile(
//!     r#"
//!     fn main(n: int) -> int {
//!         var s: int = 0;
//!         for (var i: int = 0; i < n; i = i + 1) {
//!             if (i % 3 == 0) { s = s + i; }
//!         }
//!         emit(s);
//!         return s;
//!     }
//!     "#,
//! )?;
//! let run = Vm::new(&program).run(&[trace_vm::Input::Int(10)])?;
//! assert_eq!(run.output_ints(), vec![18]);
//! # Ok(())
//! # }
//! ```

mod ast;
mod error;
mod intern;
mod lexer;
mod lower;
mod parser;
mod token;

pub use error::CompileError;
pub use lower::{CompileOptions, SwitchMode};

use trace_ir::Program;

/// Compiles guest source to a validated [`Program`] with default options
/// (cascaded-if switch lowering, as in the paper).
///
/// # Errors
///
/// Returns a [`CompileError`] with a line number for lexical, syntactic, or
/// type errors.
pub fn compile(source: &str) -> Result<Program, CompileError> {
    compile_with(source, &CompileOptions::default())
}

/// Compiles guest source with explicit [`CompileOptions`].
///
/// # Errors
///
/// Returns a [`CompileError`] with a line number for lexical, syntactic, or
/// type errors.
pub fn compile_with(source: &str, options: &CompileOptions) -> Result<Program, CompileError> {
    let lexer::Lexed {
        tokens,
        strings,
        names,
    } = lexer::lex(source)?;
    let ast = parser::parse(tokens, strings, &names)?;
    lower::lower(&ast, &names, options)
}
