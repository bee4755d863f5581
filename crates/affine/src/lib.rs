//! # safegen-affine
//!
//! The affine-arithmetic (AA) runtime of SafeGen-rs — the library the
//! compiler-generated code calls into (paper Sec. IV-A and V).
//!
//! An affine form represents a value as
//!
//! ```text
//! â = a₀ + Σᵢ aᵢ·εᵢ ,   εᵢ ∈ [−1, 1]
//! ```
//!
//! where `a₀` is the central value and each *error symbol* `εᵢ` is an
//! independent deviation. Sharing symbols between variables encodes linear
//! correlation, which lets subtractions *cancel* — the decisive advantage
//! over interval arithmetic.
//!
//! Every operation soundly accounts for its own round-off by adding a fresh
//! error symbol, so the range of the resulting form always contains the
//! exact real result. Because the symbol count would otherwise grow with
//! every operation (squaring the program's complexity), forms are bounded to
//! `k` symbols and excess symbols are *fused* (paper eq. 6) according to a
//! configurable policy:
//!
//! * **Placement** ([`Placement`]): how symbols are stored — [`Placement::Sorted`]
//!   (sorted by identifier, merged on every op) or
//!   [`Placement::DirectMapped`] (fixed `k`-slot array, slot = id mod k).
//! * **Fusion** ([`Fusion`]): which symbols to fuse when the bound is hit —
//!   random, oldest, smallest-magnitude, or mean-threshold.
//! * **Protection** ([`Protect`]): symbols the static analysis decided to
//!   prioritize are shielded from fusion (paper Sec. VI).
//!
//! The generic form [`Affine<C>`] supports three central-value precisions:
//! [`AffineF64`] (`f64a`), [`AffineDd`] (`dda`, double-double) and
//! [`AffineF32`] (`f32a`).
//!
//! The [`baselines`] module reimplements the comparison systems of the
//! paper's evaluation (Yalaa's `aff0`/`aff1`, Ceres) so Fig. 9 can be
//! regenerated without the original C++/Scala artifacts.
//!
//! ## Example: the dependency problem, solved
//!
//! ```
//! use safegen_affine::{AaConfig, AaContext, AffineF64, Protect};
//!
//! let ctx = AaContext::new(AaConfig::default());
//! let x = AffineF64::from_interval(0.0, 1.0, &ctx);
//! let d = x.sub(&x, &ctx, Protect::None);
//! let (lo, hi) = d.range();
//! assert_eq!((lo, hi), (0.0, 0.0)); // exact cancellation; IA would give [-1,1]
//! ```

pub mod baselines;
mod center;
mod config;
mod direct;
mod form;
mod fusion;
mod ops;
mod sorted;
mod symbol;
pub mod vector;

pub use center::CenterValue;
pub use config::{AaConfig, AaContext, AaCounters, Fusion, NoisePolicy, Placement, Protect};
pub use form::{Affine, AffineDd, AffineF32, AffineF64};
pub use symbol::{SymbolId, Term, NO_SYMBOL};

pub use safegen_fpcore::Dd;
