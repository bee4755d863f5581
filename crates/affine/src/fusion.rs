//! Symbol fusion policies (paper Sec. V-B, Table I).
//!
//! After an operation merges two operands' symbols, the result may exceed
//! the budget of `k` symbols. `n − k + 1` of them are then *fused* into the
//! fresh round-off symbol of the operation (eq. 6): their magnitudes add,
//! their identities — and with them any chance of later cancellation — are
//! lost. The policy decides which symbols to sacrifice.

use crate::center::ErrAcc;
use crate::config::{AaContext, Fusion, Protect};
use crate::symbol::Term;

/// Selects `excess` victim indices from `terms` according to `policy`,
/// never choosing protected symbols while unprotected ones remain.
///
/// Returns the victim indices (unordered). `excess` must be ≤ `terms.len()`.
/// Mean-threshold may return *more* than `excess` victims (it fuses
/// everything below the mean — that is what makes it cheap).
pub(crate) fn select_victims(
    terms: &[Term],
    excess: usize,
    policy: Fusion,
    ctx: &AaContext,
    protect: Protect<'_>,
) -> Vec<usize> {
    debug_assert!(excess <= terms.len());
    if excess == 0 {
        return Vec::new();
    }

    // Partition candidate indices: unprotected first, protected as reserve.
    let mut unprotected: Vec<usize> = Vec::with_capacity(terms.len());
    let mut protected: Vec<usize> = Vec::new();
    for (i, t) in terms.iter().enumerate() {
        if protect.contains(t.id) {
            protected.push(i);
        } else {
            unprotected.push(i);
        }
    }

    let mut victims = match policy {
        Fusion::Oldest => {
            // Oldest = smallest ids first.
            unprotected.sort_unstable_by_key(|&i| terms[i].id);
            unprotected
        }
        Fusion::Smallest => {
            if unprotected.len() > excess {
                unprotected.select_nth_unstable_by(excess - 1, |&a, &b| {
                    terms[a]
                        .coeff
                        .abs()
                        .partial_cmp(&terms[b].coeff.abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            }
            unprotected
        }
        Fusion::MeanThreshold => {
            // Fuse everything strictly below the mean magnitude, topping up
            // with the oldest symbols if that frees too few slots.
            let mut acc = ErrAcc::default();
            for t in terms {
                acc.add_abs(t.coeff);
            }
            let mean = acc.value() / terms.len() as f64;
            let (mut below, mut above): (Vec<usize>, Vec<usize>) = unprotected
                .into_iter()
                .partition(|&i| terms[i].coeff.abs() < mean);
            if below.len() < excess {
                above.sort_unstable_by_key(|&i| terms[i].id);
                below.extend(above.into_iter().take(excess - below.len()));
            }
            // NOTE: may exceed `excess` — MP deliberately over-fuses.
            return top_up_with_protected(below, protected, excess, terms, policy, ctx);
        }
        Fusion::Random => {
            // Partial Fisher–Yates over the unprotected candidates.
            let n = unprotected.len();
            for i in 0..excess.min(n) {
                let j = i + (ctx.rand() as usize) % (n - i);
                unprotected.swap(i, j);
            }
            unprotected
        }
    };

    victims.truncate(excess);
    top_up_with_protected(victims, protected, excess, terms, policy, ctx)
}

/// If the unprotected pool was too small, victims must also be drawn from
/// the protected set (the budget is a hard constraint; protection is
/// best-effort, per the paper's capacity rule).
fn top_up_with_protected(
    mut victims: Vec<usize>,
    mut protected: Vec<usize>,
    excess: usize,
    terms: &[Term],
    policy: Fusion,
    ctx: &AaContext,
) -> Vec<usize> {
    if victims.len() >= excess {
        return victims;
    }
    let need = excess - victims.len();
    match policy {
        Fusion::Oldest | Fusion::MeanThreshold => {
            protected.sort_unstable_by_key(|&i| terms[i].id);
        }
        Fusion::Smallest => {
            if protected.len() > need {
                protected.select_nth_unstable_by(need - 1, |&a, &b| {
                    terms[a]
                        .coeff
                        .abs()
                        .partial_cmp(&terms[b].coeff.abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            }
        }
        Fusion::Random => {
            let n = protected.len();
            for i in 0..need.min(n) {
                let j = i + (ctx.rand() as usize) % (n - i);
                protected.swap(i, j);
            }
        }
    }
    victims.extend(protected.into_iter().take(need));
    victims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AaConfig;

    fn terms(pairs: &[(u64, f64)]) -> Vec<Term> {
        pairs.iter().map(|&(id, c)| Term::new(id, c)).collect()
    }

    fn ctx() -> AaContext {
        AaContext::new(AaConfig::new(8))
    }

    #[test]
    fn oldest_picks_smallest_ids() {
        let ts = terms(&[(5, 1.0), (1, 2.0), (9, 3.0), (3, 4.0)]);
        let v = select_victims(&ts, 2, Fusion::Oldest, &ctx(), Protect::None);
        let mut ids: Vec<u64> = v.iter().map(|&i| ts[i].id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn smallest_picks_least_magnitudes() {
        let ts = terms(&[(0, 5.0), (1, 0.1), (2, 3.0), (3, 0.2)]);
        let v = select_victims(&ts, 2, Fusion::Smallest, &ctx(), Protect::None);
        let mut ids: Vec<u64> = v.iter().map(|&i| ts[i].id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn mean_threshold_fuses_below_mean() {
        // magnitudes 1,1,1,9 → mean 3 → fuses the three 1s even though
        // excess is only 1 (MP over-fuses by design).
        let ts = terms(&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 9.0)]);
        let v = select_victims(&ts, 1, Fusion::MeanThreshold, &ctx(), Protect::None);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|&i| ts[i].coeff == 1.0));
    }

    #[test]
    fn mean_threshold_tops_up_with_oldest() {
        // All equal magnitudes → nothing below mean → falls back to oldest.
        let ts = terms(&[(7, 2.0), (3, 2.0), (5, 2.0)]);
        let v = select_victims(&ts, 2, Fusion::MeanThreshold, &ctx(), Protect::None);
        let mut ids: Vec<u64> = v.iter().map(|&i| ts[i].id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 5]);
    }

    #[test]
    fn random_selects_requested_count() {
        let ts = terms(&[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)]);
        let v = select_victims(&ts, 3, Fusion::Random, &ctx(), Protect::None);
        assert_eq!(v.len(), 3);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "victims must be distinct");
    }

    #[test]
    fn protection_is_honored() {
        let ts = terms(&[(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4)]);
        let protected = [0u64, 1];
        let v = select_victims(&ts, 2, Fusion::Smallest, &ctx(), Protect::Ids(&protected));
        let mut ids: Vec<u64> = v.iter().map(|&i| ts[i].id).collect();
        ids.sort_unstable();
        // Smallest magnitudes are ids 0 and 1, but those are protected.
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn protection_yields_when_budget_forces_it() {
        let ts = terms(&[(0, 0.1), (1, 0.2), (2, 0.3)]);
        let protected = [0u64, 1, 2];
        let v = select_victims(&ts, 2, Fusion::Oldest, &ctx(), Protect::Ids(&protected));
        assert_eq!(v.len(), 2); // must still free the slots
    }

    #[test]
    fn zero_excess_is_noop() {
        let ts = terms(&[(0, 1.0)]);
        assert!(select_victims(&ts, 0, Fusion::Smallest, &ctx(), Protect::None).is_empty());
    }
}
