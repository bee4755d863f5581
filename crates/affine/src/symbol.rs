//! Error symbols and terms.

/// Identifier of an error symbol `εᵢ`.
///
/// Identifiers are allocated monotonically by [`crate::AaContext`], so a
/// smaller id always means an *older* symbol — the property the
/// oldest-symbol fusion policy relies on.
pub type SymbolId = u64;

/// Sentinel id marking an empty slot in the direct-mapped representation.
pub const NO_SYMBOL: SymbolId = u64::MAX;

/// The direct-mapped slot of symbol `id` among `k` slots, `id mod k`
/// (a mask when `k` is a power of two).
#[inline]
pub(crate) fn slot_of(id: SymbolId, k: usize) -> usize {
    if k.is_power_of_two() {
        id as usize & (k - 1)
    } else {
        (id % k as u64) as usize
    }
}

/// One term `aᵢ·εᵢ` of an affine form: the symbol identifier and the
/// deviation magnitude (coefficient), always stored in `f64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Term {
    /// Identifier of the error symbol, or [`NO_SYMBOL`] for an empty slot.
    pub id: SymbolId,
    /// Coefficient of the symbol.
    pub coeff: f64,
}

impl Term {
    /// An empty direct-mapped slot.
    pub const EMPTY: Term = Term {
        id: NO_SYMBOL,
        coeff: 0.0,
    };

    /// Creates a term.
    #[inline]
    pub fn new(id: SymbolId, coeff: f64) -> Term {
        Term { id, coeff }
    }
}

impl Default for Term {
    fn default() -> Self {
        Term::EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_term_is_empty() {
        assert_eq!(Term::default(), Term::EMPTY);
    }
}
