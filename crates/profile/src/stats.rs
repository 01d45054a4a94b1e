//! Coverage and overlap statistics between predictor and target profiles.
//!
//! The paper's "informal observations" section describes a hunch: when a
//! dataset predictor did poorly, it was usually because it *emphasized a
//! different part of the program* than the target, not because branches
//! changed direction. These statistics quantify that.

use trace_ir::BranchId;
use trace_vm::BranchCounts;

/// How well a predictor profile covers a target profile.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Coverage {
    /// Fraction of the target's *dynamic* branch executions whose static
    /// branch was seen (executed ≥ once) by the predictor.
    pub dynamic: f64,
    /// Fraction of the target's *static* executed branches seen by the
    /// predictor.
    pub static_: f64,
    /// Of the covered dynamic executions, the fraction where predictor and
    /// target majorities agree — separates "didn't see the branch" from
    /// "saw it but it flipped direction".
    pub agreement: f64,
}

/// Computes coverage of `target` by `predictor`.
pub fn coverage(predictor: &BranchCounts, target: &BranchCounts) -> Coverage {
    let mut covered_dyn = 0u64;
    let mut total_dyn = 0u64;
    let mut covered_static = 0usize;
    let mut total_static = 0usize;
    let mut agree_dyn = 0u64;
    for (_, e, t, (pe, pt)) in beside(target, predictor) {
        if e == 0 {
            continue;
        }
        total_dyn += e;
        total_static += 1;
        if pe > 0 {
            covered_dyn += e;
            covered_static += 1;
            let target_taken = t * 2 >= e;
            let pred_taken = pt * 2 >= pe;
            if target_taken == pred_taken {
                agree_dyn += e;
            }
        }
    }
    Coverage {
        dynamic: ratio(covered_dyn, total_dyn),
        static_: ratio(covered_static as u64, total_static as u64),
        agreement: ratio(agree_dyn, covered_dyn),
    }
}

/// Cosine-style overlap between the dynamic branch-execution weight vectors
/// of two profiles, in 0..=1. Two runs spending their branch executions on
/// the same static branches in the same proportions score 1.
pub fn overlap(a: &BranchCounts, b: &BranchCounts) -> f64 {
    let ta = a.total_executed();
    let tb = b.total_executed();
    if ta == 0 || tb == 0 {
        return 0.0;
    }
    let mut dot = 0.0;
    let mut na = 0.0;
    // A site `b` lacks adds `wa * 0.0`, so the sums take the same terms in
    // the same order as a per-site lookup would.
    for (_, e, _, (eb, _)) in beside(a, b) {
        let wa = e as f64 / ta as f64;
        na += wa * wa;
        let wb = eb as f64 / tb as f64;
        dot += wa * wb;
    }
    let mut nb = 0.0;
    for (_, e, _) in b.iter() {
        let wb = e as f64 / tb as f64;
        nb += wb * wb;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Each `(id, executed, taken)` of `a` in id order, with `b`'s
/// `(executed, taken)` for the same site (`(0, 0)` where `b` has none):
/// one walk of both id-ordered profiles instead of a map lookup per site.
fn beside<'a>(
    a: &'a BranchCounts,
    b: &'a BranchCounts,
) -> impl Iterator<Item = (BranchId, u64, u64, (u64, u64))> + 'a {
    let mut rest = b.iter().peekable();
    a.iter().map(move |(id, e, t)| {
        while rest.next_if(|&(other, _, _)| other < id).is_some() {}
        let found = rest
            .next_if(|&(other, _, _)| other == id)
            .map_or((0, 0), |(_, be, bt)| (be, bt));
        (id, e, t, found)
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(u32, u64, u64)]) -> BranchCounts {
        entries
            .iter()
            .map(|&(id, e, t)| (BranchId(id), e, t))
            .collect()
    }

    #[test]
    fn full_coverage_same_profile() {
        let p = counts(&[(0, 10, 9), (1, 4, 0)]);
        let c = coverage(&p, &p);
        assert_eq!(c.dynamic, 1.0);
        assert_eq!(c.static_, 1.0);
        assert_eq!(c.agreement, 1.0);
    }

    #[test]
    fn partial_coverage() {
        let pred = counts(&[(0, 10, 9)]);
        let target = counts(&[(0, 6, 6), (1, 4, 0)]);
        let c = coverage(&pred, &target);
        assert!((c.dynamic - 0.6).abs() < 1e-12);
        assert!((c.static_ - 0.5).abs() < 1e-12);
        assert_eq!(c.agreement, 1.0);
    }

    #[test]
    fn direction_flip_shows_in_agreement() {
        let pred = counts(&[(0, 10, 9)]); // predicts taken
        let target = counts(&[(0, 10, 1)]); // mostly not taken
        let c = coverage(&pred, &target);
        assert_eq!(c.dynamic, 1.0);
        assert_eq!(c.agreement, 0.0);
    }

    #[test]
    fn overlap_extremes() {
        let a = counts(&[(0, 10, 0)]);
        let b = counts(&[(1, 10, 0)]);
        assert_eq!(overlap(&a, &b), 0.0);
        assert!((overlap(&a, &a) - 1.0).abs() < 1e-12);
        let empty = BranchCounts::new();
        assert_eq!(overlap(&a, &empty), 0.0);
    }

    #[test]
    fn beside_pairs_each_site_with_the_other_profile() {
        let a = counts(&[(1, 5, 2), (3, 7, 7), (8, 2, 0)]);
        let b = counts(&[(0, 9, 9), (3, 4, 1), (5, 6, 6), (8, 1, 1), (9, 3, 0)]);
        let got: Vec<_> = beside(&a, &b)
            .map(|(id, e, t, o)| (id.0, e, t, o))
            .collect();
        assert_eq!(
            got,
            [(1, 5, 2, (0, 0)), (3, 7, 7, (4, 1)), (8, 2, 0, (1, 1))]
        );
        assert_eq!(beside(&BranchCounts::new(), &b).count(), 0);
        assert!(beside(&b, &BranchCounts::new()).all(|(.., o)| o == (0, 0)));
    }

    #[test]
    fn overlap_is_symmetric() {
        let a = counts(&[(0, 10, 5), (1, 30, 0)]);
        let b = counts(&[(0, 20, 1), (2, 5, 5)]);
        assert!((overlap(&a, &b) - overlap(&b, &a)).abs() < 1e-12);
    }
}
