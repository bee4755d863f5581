//! # safegen-analysis
//!
//! The novel static analysis of the paper (Sec. VI): decide, for each
//! operation of a program, which error symbols to **protect from fusion**
//! so that later cancellations — the whole point of affine arithmetic —
//! actually happen despite the bounded symbol budget.
//!
//! The pipeline:
//!
//! 1. [`reuse`] — find every *reuse*: a node `s` whose symbol can reach a
//!    node `t` along two distinct operand paths (Definition 1), together
//!    with the *reuse connection*, the set of nodes that must carry `s`'s
//!    symbol for the cancellation at `t` to be possible.
//! 2. [`maxreuse`] — select which reuses to realize under the per-node
//!    capacity of `k − 1` protected symbols, maximizing total *reuse
//!    profit* `ρ(s)` (Definitions 3–4). Solved exactly as a 0–1 ILP
//!    (`safegen-ilp`) or greedily for large instances.
//! 3. [`annotate`] — turn the node-level priority assignment into
//!    `#pragma safegen prioritize(var)` annotations on the TAC source
//!    (Sec. VI-C): per node, the variable holding the most profitable
//!    protected symbol.
//!
//! ```
//! use safegen_cfront::{analyze, parse};
//!
//! let unit = parse("double f(double x, double y, double z) { return x*z - y*z; }").unwrap();
//! let sema = analyze(&unit).unwrap();
//! let tac = safegen_ir::to_tac(&unit, &sema);
//! let annotated = safegen_analysis::annotate_unit(&tac, 4).unwrap();
//! let printed = safegen_cfront::print_unit(&annotated);
//! assert!(printed.contains("#pragma safegen prioritize(z)"), "{printed}");
//! ```

pub mod annotate;
pub mod maxreuse;
pub mod reuse;

pub use annotate::{annotate_function, annotate_unit};
pub use maxreuse::{solve_max_reuse, PriorityAssignment, SolveMode};
pub use reuse::{find_reuses, Reuse};
