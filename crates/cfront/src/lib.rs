//! # safegen-cfront
//!
//! A hand-written frontend for the C subset that SafeGen transforms —
//! the workspace's replacement for the Clang LibTooling infrastructure the
//! paper builds on (Sec. III, IV-B).
//!
//! The subset covers what numerical kernels of the paper's benchmark class
//! need:
//!
//! * function definitions with `double` / `float` / `int` scalars, fixed
//!   and parameter arrays (1-D and 2-D), and pointer parameters (treated as
//!   arrays);
//! * declarations with initializers, assignments (including `+=` etc.),
//!   `for` / `while` loops, `if`/`else`, `return`;
//! * arithmetic, comparison and call expressions (`sqrt`, `fabs`, `fmin`,
//!   `fmax`);
//! * `#pragma safegen prioritize(var)` annotations — the output of the
//!   static-analysis preprocessing step (paper Sec. VI-C).
//!
//! Its printer writes the subset back as plain C ([`print_unit`]) or as
//! sound C against the `aa_*` runtime API ([`emit_c`], paper Fig. 2), and
//! [`reparse_emitted`] reads sound C back in.
//!
//! Every AST node carries its source [`Span`], which the analysis pipeline
//! round-trips through TAC and the computation DAG so pragmas can be
//! inserted at the right lines, exactly as the paper's pipeline does with
//! Clang source locations.
//!
//! ```
//! let src = r#"
//!     double axpy(double a, double x, double y) {
//!         return a * x + y;
//!     }
//! "#;
//! let unit = safegen_cfront::parse(src).unwrap();
//! let f = &unit.functions[0];
//! assert_eq!(f.name, "axpy");
//! assert_eq!(f.params.len(), 3);
//! ```

mod alpha;
mod ast;
mod emit_c;
mod error;
mod lexer;
mod parser;
mod pragma;
mod printer;
mod reabsorb;
mod runtime;
mod sema;
pub mod simd;
mod token;

pub use alpha::rename_unique;
pub use ast::*;
pub use emit_c::emit_c;
pub use error::{Diagnostic, ParseError};
pub use lexer::lex;
pub use parser::parse;
pub use pragma::{prioritized, resolve_pragmas};
pub use printer::{print_expr, print_unit};
pub use reabsorb::reparse_emitted;
pub use runtime::{Construct, EmitPrecision, RuntimeCall, RUNTIME};
pub use sema::{analyze, FnInfo, Sema, VarInfo};
pub use simd::lower_simd;
pub use token::{Span, Token, TokenKind};
