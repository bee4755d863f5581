//! Runtime configuration: placement and fusion policies, symbol allocation.

use crate::symbol::SymbolId;
use crate::vector::Avx2;
use std::cell::Cell;

/// How the error symbols of an affine form are stored (paper Sec. V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Symbols kept sorted by identifier; operations merge the two sorted
    /// arrays. Finds all shared symbols, but every operation pays a merge.
    Sorted,
    /// Fixed array of `k` slots, a symbol with id `i` lives in slot
    /// `i mod k`. Shared symbols align for free and the per-slot loop
    /// vectorizes, at the cost of occasional slot conflicts resolved by the
    /// fusion policy.
    DirectMapped,
}

/// Which symbols to fuse when an operation exceeds the symbol budget
/// (paper Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fusion {
    /// Random selection (the paper's baseline policy, RP).
    Random,
    /// Fuse the oldest (smallest-id) symbols first (OP).
    Oldest,
    /// Fuse the smallest-magnitude symbols first (SP).
    Smallest,
    /// Fuse every symbol whose magnitude is below the mean of all
    /// magnitudes; falls back to [`Fusion::Oldest`] if that frees too few
    /// slots (MP). Equivalent to SP under direct-mapped placement.
    MeanThreshold,
}

/// Full configuration of the affine runtime.
///
/// The notation of the paper's plots maps as follows: `f64a-dspv` is
/// `AaConfig { k, placement: DirectMapped, fusion: Smallest, vectorized:
/// true, .. }` with priority protection supplied per-operation via
/// [`Protect`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct AaConfig {
    /// Maximum number of error symbols per affine variable.
    pub k: usize,
    /// Symbol placement policy.
    pub placement: Placement,
    /// Symbol fusion policy.
    pub fusion: Fusion,
    /// Use the AVX2 merge body when the CPU has AVX2 and FMA
    /// (direct-mapped placement only; results are bit-identical to the
    /// scalar body).
    pub vectorized: bool,
}

impl AaConfig {
    /// The paper's best general-purpose configuration: direct-mapped
    /// placement, smallest-value fusion, vectorized (`f64a-ds?v`).
    pub fn new(k: usize) -> AaConfig {
        AaConfig {
            k,
            placement: Placement::DirectMapped,
            fusion: Fusion::Smallest,
            vectorized: true,
        }
    }

    /// Full affine arithmetic: unbounded symbols, no fusion ever
    /// (the paper's `f64a-dspv-k̄` / Yalaa-`aff0` setting).
    pub fn full() -> AaConfig {
        AaConfig {
            k: usize::MAX,
            placement: Placement::Sorted,
            fusion: Fusion::Oldest, // never triggered
            vectorized: false,
        }
    }

    /// Sets the placement policy.
    pub fn with_placement(mut self, p: Placement) -> AaConfig {
        self.placement = p;
        self
    }

    /// Sets the fusion policy.
    pub fn with_fusion(mut self, f: Fusion) -> AaConfig {
        self.fusion = f;
        self
    }

    /// Enables or disables the vectorized kernels.
    pub fn with_vectorized(mut self, v: bool) -> AaConfig {
        self.vectorized = v;
        self
    }

    /// Parses the paper's four-letter configuration mnemonic, e.g. `"dsnv"`:
    /// placement ∈ {`s`, `d`}, fusion ∈ {`s`, `m`, `o`, `r`},
    /// prioritization ∈ {`p`, `n`} (returned as the second tuple element;
    /// protection itself is supplied per operation), vectorized ∈ {`v`, `n`}.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending character if the mnemonic is
    /// not of the documented shape.
    pub fn parse_mnemonic(k: usize, s: &str) -> Result<(AaConfig, bool), String> {
        let chars: Vec<char> = s.chars().collect();
        if chars.len() != 4 {
            return Err(format!("mnemonic `{s}` must have exactly 4 characters"));
        }
        let placement = match chars[0] {
            's' => Placement::Sorted,
            'd' => Placement::DirectMapped,
            c => return Err(format!("unknown placement `{c}` in `{s}`")),
        };
        let fusion = match chars[1] {
            's' => Fusion::Smallest,
            'm' => Fusion::MeanThreshold,
            'o' => Fusion::Oldest,
            'r' => Fusion::Random,
            c => return Err(format!("unknown fusion `{c}` in `{s}`")),
        };
        let prioritized = match chars[2] {
            'p' => true,
            'n' => false,
            c => return Err(format!("unknown prioritization flag `{c}` in `{s}`")),
        };
        let vectorized = match chars[3] {
            'v' => true,
            'n' => false,
            c => return Err(format!("unknown vectorization flag `{c}` in `{s}`")),
        };
        Ok((
            AaConfig {
                k,
                placement,
                fusion,
                vectorized,
            },
            prioritized,
        ))
    }
}

impl Default for AaConfig {
    /// `k = 16`, direct-mapped, smallest-value fusion, vectorized.
    fn default() -> Self {
        AaConfig::new(16)
    }
}

/// Shared state for a sound computation: the configuration plus the
/// monotone error-symbol allocator (and the RNG backing the random fusion
/// policy).
///
/// A context is cheap and single-threaded (interior mutability via `Cell`);
/// create one per computation. All affine values combined in an operation
/// must come from the same context.
///
/// # Threading
///
/// `AaContext` is `Send` but deliberately **not** `Sync`: symbol
/// allocation and the fusion RNG go through `Cell`s with no
/// synchronization, which keeps the hot allocation path a plain load and
/// store. To evaluate in parallel, **share only the [`AaConfig`]**
/// (`Copy`, `Send + Sync`) and build one `AaContext` per thread — or,
/// stronger, one per computation, which is what `safegen`'s batch engine
/// does so that symbol ids and RNG state never leak between work items
/// and results stay bit-identical for every thread count. These
/// properties are asserted at compile time below.
#[derive(Debug)]
pub struct AaContext {
    config: AaConfig,
    next_id: Cell<SymbolId>,
    rng: Cell<u64>,
    /// Event counters (see [`AaCounters`]); bumped only on the fusion
    /// paths, never per operation, so they cost nothing on the fast path.
    counters: Cell<AaCounters>,
    /// See [`AaContext::avx2`].
    avx2: Option<Avx2>,
}

/// Counters of symbol-losing events in one [`AaContext`].
///
/// Fusing and condensing are where an affine computation *loses
/// correlation information* — the width the final form reports is still
/// sound, but it can no longer cancel against the victims. These
/// counters make that loss observable per run; `safegen`'s VM surfaces
/// them in its `RunStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AaCounters {
    /// Budget-overflow fusion events under sorted placement: how many
    /// times an operation's result exceeded `k` symbols and a victim set
    /// was fused into a fresh symbol (paper eq. 6).
    pub fusion_events: u64,
    /// Total symbols fused away across all `fusion_events`.
    pub fused_symbols: u64,
    /// Condensations under direct-mapped placement: slot conflicts where
    /// one symbol's magnitude was absorbed into the other's slot
    /// (including a fresh noise symbol landing on an occupied slot).
    pub condensations: u64,
}

impl AaContext {
    /// Creates a context with the given configuration.
    pub fn new(config: AaConfig) -> AaContext {
        assert!(config.k >= 1, "symbol budget k must be at least 1");
        if config.placement == Placement::DirectMapped {
            assert!(
                config.k < u32::MAX as usize,
                "direct-mapped placement requires a finite k"
            );
        }
        AaContext {
            config,
            next_id: Cell::new(0),
            rng: Cell::new(0x9E37_79B9_7F4A_7C15),
            counters: Cell::new(AaCounters::default()),
            avx2: if config.vectorized && config.fusion != Fusion::Random {
                Avx2::detect()
            } else {
                None
            },
        }
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &AaConfig {
        &self.config
    }

    /// The symbol budget of every operation: the configured `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// Allocates a fresh error-symbol identifier (monotonically increasing).
    #[inline]
    pub fn fresh_symbol(&self) -> SymbolId {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// Number of symbols allocated so far.
    #[inline]
    pub fn symbols_allocated(&self) -> u64 {
        self.next_id.get()
    }

    /// The AVX2 token when this context's direct-mapped merges take the
    /// AVX2 body: a vectorized configuration, a fusion policy without
    /// random draws (those stay in slot order on the scalar body), and a
    /// CPU with AVX2 and FMA. Detected once, when the context is made.
    #[inline]
    pub(crate) fn avx2(&self) -> Option<Avx2> {
        self.avx2
    }

    /// Snapshot of the fusion/condensation counters.
    #[inline]
    pub fn counters(&self) -> AaCounters {
        self.counters.get()
    }

    /// Records one budget-overflow fusion event that fused `victims`
    /// symbols (sorted placement).
    #[inline]
    pub(crate) fn note_fusion(&self, victims: u64) {
        let mut c = self.counters.get();
        c.fusion_events += 1;
        c.fused_symbols += victims;
        self.counters.set(c);
    }

    /// Records `n` slot-conflict condensations (direct-mapped placement);
    /// a merge counts its conflicts and records them once.
    #[inline]
    pub(crate) fn note_condensations(&self, n: u64) {
        let mut c = self.counters.get();
        c.condensations += n;
        self.counters.set(c);
    }

    /// xorshift64* step for the random fusion policy (deterministic per
    /// context, so runs are reproducible).
    #[inline]
    pub(crate) fn rand(&self) -> u64 {
        let mut x = self.rng.get();
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Symbols to protect from fusion during one operation.
///
/// The compiler's static analysis (paper Sec. VI) decides which variable's
/// symbols should survive fusion at each operation; the generated code
/// gathers that variable's symbol ids and passes them here.
#[derive(Clone, Copy, Debug, Default)]
pub enum Protect<'a> {
    /// No protection (the `..n?` configurations).
    #[default]
    None,
    /// Protect these symbol ids (must be sorted ascending).
    Ids(&'a [SymbolId]),
}

impl Protect<'_> {
    /// True if `id` is protected.
    #[inline]
    pub fn contains(&self, id: SymbolId) -> bool {
        match self {
            Protect::None => false,
            Protect::Ids(ids) => ids.binary_search(&id).is_ok(),
        }
    }

    /// True if no symbol is protected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match self {
            Protect::None => true,
            Protect::Ids(ids) => ids.is_empty(),
        }
    }
}

// The documented threading contract: configurations may be shared
// across threads, contexts may be moved into one.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<AaConfig>();
    assert_send::<AaContext>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_symbols_are_monotone() {
        let ctx = AaContext::new(AaConfig::default());
        let a = ctx.fresh_symbol();
        let b = ctx.fresh_symbol();
        assert!(a < b);
        assert_eq!(ctx.symbols_allocated(), 2);
    }

    #[test]
    fn mnemonic_round_trip() {
        let (cfg, prio) = AaConfig::parse_mnemonic(8, "dspv").unwrap();
        assert_eq!(cfg.placement, Placement::DirectMapped);
        assert_eq!(cfg.fusion, Fusion::Smallest);
        assert!(prio);
        assert!(cfg.vectorized);

        let (cfg, prio) = AaConfig::parse_mnemonic(8, "smnn").unwrap();
        assert_eq!(cfg.placement, Placement::Sorted);
        assert_eq!(cfg.fusion, Fusion::MeanThreshold);
        assert!(!prio);
        assert!(!cfg.vectorized);
    }

    #[test]
    fn mnemonic_rejects_garbage() {
        assert!(AaConfig::parse_mnemonic(8, "xxxx").is_err());
        assert!(AaConfig::parse_mnemonic(8, "ds").is_err());
        assert!(AaConfig::parse_mnemonic(8, "dsnvv").is_err());
    }

    #[test]
    fn protect_lookup() {
        let ids = [3u64, 7, 9];
        let p = Protect::Ids(&ids);
        assert!(p.contains(7));
        assert!(!p.contains(8));
        assert!(!p.is_empty());
        assert!(Protect::None.is_empty());
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let _ = AaContext::new(AaConfig::new(0));
    }

    #[test]
    fn rng_is_deterministic() {
        let a = AaContext::new(AaConfig::default());
        let b = AaContext::new(AaConfig::default());
        assert_eq!(a.rand(), b.rand());
        assert_eq!(a.rand(), b.rand());
    }

    #[test]
    fn full_config_is_sorted_unbounded() {
        let cfg = AaConfig::full();
        assert_eq!(cfg.placement, Placement::Sorted);
        assert_eq!(cfg.k, usize::MAX);
    }
}
