//! The Topsoe divergence kernel behind [`Heatmap::topsoe`] and
//! [`Heatmap::topsoe_bounded`].
//!
//! AP-Attack compares heatmaps with the **Topsoe divergence** (Endres &
//! Schindelin 2003, the paper's \[13\]), twice the Jensen–Shannon
//! divergence; HMC picks its decoy by it.
//!
//! Distributions are sparse, in structure-of-arrays form: strictly
//! ascending keys beside each key's normalized mass, which the owner
//! computes once (`Heatmap` keeps them beside its raw counts).
//!
//! [`Heatmap::topsoe`]: crate::Heatmap::topsoe
//! [`Heatmap::topsoe_bounded`]: crate::Heatmap::topsoe_bounded

/// Natural log of 2; the maximum of the Topsoe divergence is `2 ln 2`.
pub(crate) const LN_2: f64 = std::f64::consts::LN_2;

/// How many one-sided keys are accumulated between best-bound checks in
/// [`topsoe_soa_bounded`]. Per-chunk checks are exactly as selective as
/// per-key checks because every term is clamped non-negative, so the
/// partial sum is monotone: it crosses `bound` inside a chunk iff it is
/// still above `bound` at the chunk boundary.
const ONE_SIDED_CHUNK: usize = 32;

/// Topsoe divergence with **best-bound pruning** over sparse
/// distributions in **structure-of-arrays** form: one exact merge walk.
///
/// `pk`/`qk` are strictly ascending keys; `pn`/`qn` hold each key's
/// *normalized* mass `(w / total).max(0.0)`. The totals `tp`/`tq` only
/// gate validity: `None` when either is non-positive or non-finite.
///
/// Returns `None` as soon as the partial sum exceeds `bound`. The
/// pruning is exact, not approximate: per-key terms are clamped
/// non-negative, so partial sums never decrease and a pruned walk's
/// final score would exceed `bound` too. A `Some(score)` is
/// **bit-identical** to the unbounded score and to the scalar pair walk
/// (the proptests below gate both), so replacing a full arg-min with a
/// bounded scan changes no verdict. Profile scans bound every profile's
/// score from below first ([`crate::HeatmapIndex`]) and call this walk
/// only on the profiles that bound leaves open.
///
/// The walk merges both supports in key order, in two phases per step.
/// The *align* phase is the only branchy part: it carves the union into
/// one-sided runs (keys present in exactly one distribution) and
/// matched keys. The *accumulate* phase is branch-light. A one-sided key
/// with mass `v > 0` contributes `v·ln((2v)/(v+0)) = v·ln 2`, and
/// `(2v)/v` is **exactly** `2.0` whenever `2v` is finite (doubling is
/// exact), so one-sided runs accumulate against the `LN_2` constant with
/// no `ln` call; the logarithm only survives on matched keys.
pub(crate) fn topsoe_soa_bounded<K: Ord + Copy>(
    pk: &[K],
    pn: &[f64],
    tp: f64,
    qk: &[K],
    qn: &[f64],
    tq: f64,
    bound: f64,
) -> Option<f64> {
    debug_assert_eq!(pk.len(), pn.len());
    debug_assert_eq!(qk.len(), qn.len());
    if tp <= 0.0 || tq <= 0.0 || !tp.is_finite() || !tq.is_finite() {
        return None;
    }
    let mut sum = 0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < pk.len() && j < qk.len() {
        match pk[i].cmp(&qk[j]) {
            std::cmp::Ordering::Less => {
                // Align: extend the p-only run as far as it goes.
                let start = i;
                i += 1;
                while i < pk.len() && pk[i] < qk[j] {
                    i += 1;
                }
                if !accumulate_one_sided(&pn[start..i], bound, &mut sum) {
                    return None;
                }
            }
            std::cmp::Ordering::Greater => {
                let start = j;
                j += 1;
                while j < qk.len() && qk[j] < pk[i] {
                    j += 1;
                }
                if !accumulate_one_sided(&qn[start..j], bound, &mut sum) {
                    return None;
                }
            }
            std::cmp::Ordering::Equal => {
                sum += matched_term(pn[i], qn[j]);
                if sum > bound {
                    return None;
                }
                i += 1;
                j += 1;
            }
        }
    }
    if !accumulate_one_sided(&pn[i..], bound, &mut sum) {
        return None;
    }
    if !accumulate_one_sided(&qn[j..], bound, &mut sum) {
        return None;
    }
    Some(sum)
}

/// The exact Topsoe term of a key both distributions hold, with
/// normalized masses `pv` and `qv`: the only place the logarithm
/// survives. Clamped at 0 — mathematically the term is non-negative
/// (pointwise Jensen), and the clamp makes that hold under rounding.
#[inline]
fn matched_term(pv: f64, qv: f64) -> f64 {
    let mut term = 0.0;
    if pv > 0.0 {
        term += pv * ((2.0 * pv) / (pv + qv)).ln();
    }
    if qv > 0.0 {
        term += qv * ((2.0 * qv) / (pv + qv)).ln();
    }
    term.max(0.0)
}

/// The rounding margin `m = 2⁻⁴⁰` of Pinsker's lower bound on a matched
/// term, some 2¹² times the rounding error of either formula.
/// [`crate::HeatmapIndex`] scales it by the number of terms it sums; the
/// per-term lemma and its sweep are in this module's tests.
pub(crate) const BOUND_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// Accumulates a one-sided run of normalized masses into `sum`, chunked
/// bound checks included; returns `false` when the partial sum exceeds
/// `bound`.
///
/// Per key: `v` contributes `v·LN_2` (see the kernel docs for why this
/// equals `v·ln((2v)/v)` bit-for-bit). The overflow guard keeps even
/// pathological masses exact: when `2v` rounds to infinity the scalar
/// walk's term is `v·ln(∞) = ∞`, and so is ours.
#[inline]
fn accumulate_one_sided(vs: &[f64], bound: f64, sum: &mut f64) -> bool {
    for chunk in vs.chunks(ONE_SIDED_CHUNK) {
        for &v in chunk {
            let term = if v > 0.0 {
                if 2.0 * v < f64::INFINITY {
                    v * LN_2
                } else if v < f64::INFINITY {
                    // finite v whose doubling overflows: the scalar walk
                    // computes v·ln(∞) = ∞
                    f64::INFINITY
                } else {
                    // v = ∞: the scalar walk's (2v)/(v) is ∞/∞ = NaN and
                    // `term.max(0.0)` clamps the NaN term to zero
                    0.0
                }
            } else {
                0.0
            };
            *sum += term.max(0.0);
        }
        if *sum > bound {
            return false;
        }
    }
    true
}

/// Range of `p + q` in which [`matched_lower_bound`] computes its
/// bound: inside it no intermediate overflows and the absolute margin
/// `s·m` stays far above the subnormal spacing; outside it the bound is
/// the trivial 0. Normalized masses are at most 1, so real profiles
/// never leave it.
#[cfg(test)]
const MATCHED_BOUND_RANGE: std::ops::RangeInclusive<f64> = 1e-150..=1e150;

/// A logarithm-free lower bound on [`matched_term`]`(p, q)`, as
/// computed, for normalized masses `p, q ≥ 0`: the per-term lemma of
/// [`crate::HeatmapIndex`]'s margin proof.
///
/// With `s = p + q` and `x = p/s`, the exact term is `s·KL(x ‖ ½)`, and
/// Pinsker's inequality `KL(x ‖ ½) ≥ 2(x − ½)²` makes it at least
/// `(p − q)²/(2s)`. The bound returned is
/// `(p − q)²/(2s)·(1 − m) − s·m` (clamped at 0) with
/// `m =` [`BOUND_MARGIN`]: the relative margin covers this formula's
/// rounding, and the absolute one `s·m` covers the exact term's
/// cancellation when `p ≈ q` (its error is a few ulps of `s`), so the
/// computed bound never exceeds the computed exact term
/// (`matched_lower_bound_never_exceeds_exact_term` sweeps it).
#[cfg(test)]
#[inline]
fn matched_lower_bound(p: f64, q: f64) -> f64 {
    let s = p + q;
    if !MATCHED_BOUND_RANGE.contains(&s) {
        return 0.0;
    }
    let d = p - q;
    (d * d / (2.0 * s) * (1.0 - BOUND_MARGIN) - s * BOUND_MARGIN).max(0.0)
}

/// The logarithm-free lower-bound pass [`topsoe_soa_bounded`] once ran
/// before its exact walk under a finite bound, kept verbatim as the
/// oracle of `one_walk_prunes_wherever_the_lower_bound_pass_did`: the
/// same merge, with [`matched_lower_bound`] in place of the exact term
/// on matched keys. Each of its terms is at most the exact walk's and
/// floating-point addition is monotone, so wherever it prunes, the
/// exact walk prunes too.
#[cfg(test)]
fn lower_bound_walk<K: Ord + Copy>(
    pk: &[K],
    pn: &[f64],
    qk: &[K],
    qn: &[f64],
    bound: f64,
) -> Option<f64> {
    let mut sum = 0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < pk.len() && j < qk.len() {
        match pk[i].cmp(&qk[j]) {
            std::cmp::Ordering::Less => {
                // Align: extend the p-only run as far as it goes.
                let start = i;
                i += 1;
                while i < pk.len() && pk[i] < qk[j] {
                    i += 1;
                }
                if !accumulate_one_sided(&pn[start..i], bound, &mut sum) {
                    return None;
                }
            }
            std::cmp::Ordering::Greater => {
                let start = j;
                j += 1;
                while j < qk.len() && qk[j] < pk[i] {
                    j += 1;
                }
                if !accumulate_one_sided(&qn[start..j], bound, &mut sum) {
                    return None;
                }
            }
            std::cmp::Ordering::Equal => {
                sum += matched_lower_bound(pn[i], qn[j]);
                if sum > bound {
                    return None;
                }
                i += 1;
                j += 1;
            }
        }
    }
    if !accumulate_one_sided(&pn[i..], bound, &mut sum) {
        return None;
    }
    if !accumulate_one_sided(&qn[j..], bound, &mut sum) {
        return None;
    }
    Some(sum)
}

/// The scalar pair-walk the SoA kernel replaced, kept verbatim as the
/// bit-identity reference: `topsoe_soa_bounded` must reproduce its
/// result **to the bit** for every input, pruned or not (the proptests
/// below gate this).
#[cfg(test)]
pub(crate) fn topsoe_pairs_reference<K: Ord + Copy>(
    p: &[(K, f64)],
    tp: f64,
    q: &[(K, f64)],
    tq: f64,
    bound: f64,
) -> Option<f64> {
    if tp <= 0.0 || tq <= 0.0 || !tp.is_finite() || !tq.is_finite() {
        return None;
    }
    let mut sum = 0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < p.len() || j < q.len() {
        // Merge step: pick the smaller key, or consume both on a match.
        let (pv, qv) = match (p.get(i), q.get(j)) {
            (Some(&(pk, pv)), Some(&(qk, qv))) => match pk.cmp(&qk) {
                std::cmp::Ordering::Less => {
                    i += 1;
                    (pv, 0.0)
                }
                std::cmp::Ordering::Greater => {
                    j += 1;
                    (0.0, qv)
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    (pv, qv)
                }
            },
            (Some(&(_, pv)), None) => {
                i += 1;
                (pv, 0.0)
            }
            (None, Some(&(_, qv))) => {
                j += 1;
                (0.0, qv)
            }
            (None, None) => unreachable!("loop condition"),
        };
        let pv = (pv / tp).max(0.0);
        let qv = (qv / tq).max(0.0);
        let mut term = 0.0;
        if pv > 0.0 {
            term += pv * ((2.0 * pv) / (pv + qv)).ln();
        }
        if qv > 0.0 {
            term += qv * ((2.0 * qv) / (pv + qv)).ln();
        }
        sum += term.max(0.0);
        if sum > bound {
            return None;
        }
    }
    Some(sum)
}

/// [`topsoe_soa_bounded`] over `(key, raw mass)` pairs with the given
/// totals, each mass normalized the way `Heatmap` normalizes it: how
/// the tests feed the kernel the oracle's inputs.
#[cfg(test)]
fn kernel_over_pairs(
    p: &[(u32, f64)],
    tp: f64,
    q: &[(u32, f64)],
    tq: f64,
    bound: f64,
) -> Option<f64> {
    let ((pk, pn), (qk, qn)) = (split(p, tp), split(q, tq));
    topsoe_soa_bounded(&pk, &pn, tp, &qk, &qn, tq, bound)
}

/// A pair slice as the kernel's columns: keys, and each mass normalized
/// by `total` the way `Heatmap` normalizes it.
#[cfg(test)]
fn split(d: &[(u32, f64)], total: f64) -> (Vec<u32>, Vec<f64>) {
    d.iter().map(|&(k, w)| (k, (w / total).max(0.0))).unzip()
}

/// Total mass of a pair slice, summed in key order.
#[cfg(test)]
fn pair_total(d: &[(u32, f64)]) -> f64 {
    d.iter().map(|e| e.1).sum()
}

/// The kernel over pairs, totals summed in key order.
#[cfg(test)]
fn soa(p: &[(u32, f64)], q: &[(u32, f64)], bound: f64) -> Option<f64> {
    kernel_over_pairs(p, pair_total(p), q, pair_total(q), bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    #[test]
    fn topsoe_identity_is_zero() {
        let p = [(0, 0.3), (1, 0.7)];
        assert_eq!(soa(&p, &p, INF).unwrap(), 0.0);
    }

    #[test]
    fn topsoe_symmetric() {
        let p = [(0, 0.3), (1, 0.7)];
        let q = [(0, 0.6), (2, 0.4)];
        let d1 = soa(&p, &q, INF).unwrap();
        let d2 = soa(&q, &p, INF).unwrap();
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn topsoe_disjoint_supports_is_max() {
        let p = [(0, 1.0)];
        let q = [(1, 1.0)];
        assert!((soa(&p, &q, INF).unwrap() - 2.0 * LN_2).abs() < 1e-12);
    }

    #[test]
    fn topsoe_unnormalized_inputs_are_normalized() {
        let p = [(0, 3.0), (1, 7.0)];
        let pn = [(0, 0.3), (1, 0.7)];
        let q = [(0, 5.0), (1, 5.0)];
        let d1 = soa(&p, &q, INF).unwrap();
        let d2 = soa(&pn, &q, INF).unwrap();
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn topsoe_rejects_empty() {
        let q = [(0, 1.0)];
        assert!(soa(&[], &q, INF).is_none());
        assert!(soa(&q, &[], INF).is_none());
    }

    #[test]
    fn sorted_walk_matches_reference_implementation() {
        // Totals summed and masses normalized from raw pairs, as a
        // heatmap does: the walk must land on the oracle's bits.
        let p = [(0, 0.5), (1, 0.2), (2, 0.3)];
        let q = [(0, 0.1), (1, 0.8), (3, 0.1)];
        let walk = soa(&p, &q, INF);
        let reference = topsoe_pairs_reference(&p, pair_total(&p), &q, pair_total(&q), INF);
        assert_eq!(walk.map(f64::to_bits), reference.map(f64::to_bits));
    }

    #[test]
    fn bounded_returns_identical_score_or_prunes() {
        let p = [(0, 0.5), (1, 0.2), (2, 0.3)];
        let q = [(0, 0.1), (1, 0.8), (3, 0.1)];
        let at = |bound| soa(&p, &q, bound);
        let full = at(f64::INFINITY).unwrap();
        assert_eq!(at(full), Some(full));
        // any bound below the score prunes
        assert_eq!(at(full * 0.99), None);
        assert_eq!(at(0.0), None);
    }

    #[test]
    fn ln_of_two_is_the_ln2_constant() {
        // The SoA kernel's one-sided fast path rests on `(2v)/v == 2.0`
        // (exact IEEE doubling) and `ln(2.0) == LN_2`; pin the latter.
        assert_eq!(2.0f64.ln().to_bits(), LN_2.to_bits());
    }

    #[test]
    fn soa_kernel_handles_extreme_masses() {
        // Masses large enough that 2v overflows: the scalar walk yields
        // an infinite term and so must the fast path's guard. A tiny
        // total drives v = huge/tiny to ∞, one-sided and matched, and
        // the walk must agree with the oracle under any bound.
        let huge = f64::MAX / 2.0;
        let p = [(0, huge)];
        for q in [[(1, 1.0)], [(0, 1.0)]] {
            for bound in [INF, 1.0, 0.5] {
                let got = kernel_over_pairs(&p, 1e-300, &q, 1.0, bound);
                let want = topsoe_pairs_reference(&p, 1e-300, &q, 1.0, bound);
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn sorted_rejects_empty() {
        let p = [(0, 1.0)];
        assert!(kernel_over_pairs(&p, 1.0, &[], 0.0, INF).is_none());
        assert!(kernel_over_pairs(&[], 0.0, &p, 1.0, INF).is_none());
        assert!(kernel_over_pairs(&p, 1.0, &[(0, 0.0)], 0.0, INF).is_none());
    }

    /// The heatmap index's per-term lemma, swept deterministically: the
    /// matched-key bound never exceeds the exact term as computed —
    /// at `p = q`, at masses a few ulps apart, at ratios down to
    /// 1e-300, at ratios of small counts, and beyond the range in which
    /// the bound is computed at all.
    #[test]
    fn matched_lower_bound_never_exceeds_exact_term() {
        let check = |p: f64, q: f64| {
            for (a, b) in [(p, q), (q, p)] {
                let (u, t) = (matched_lower_bound(a, b), matched_term(a, b));
                assert!(
                    (0.0..=t).contains(&u),
                    "bound {u:e} vs exact {t:e} at p = {a:e}, q = {b:e}"
                );
            }
        };
        let bases = [
            1.0,
            0.5,
            1.0 / 3.0,
            0.1,
            1e-3,
            1e-9,
            1e-100,
            1e-150,
            1e-300,
            f64::MIN_POSITIVE,
            3.0,
            1e149,
            1e200,
            f64::MAX,
        ];
        for &p in &bases {
            let (mut up, mut down) = (p, p);
            for _ in 0..16 {
                check(p, up);
                check(p, down);
                up = up.next_up();
                down = down.next_down();
            }
            let mut ratio = 1.0;
            while ratio >= 1e-300 {
                check(p, p * ratio);
                check(p, p * (1.0 - ratio));
                ratio *= 0.3;
            }
        }
        // normalized masses of count-valued heatmaps: a/n against b/m
        let counts: Vec<f64> = (1..=24).map(f64::from).collect();
        for &n in counts.iter().chain(&[100.0, 531.0, 1e4, 1e6]) {
            for &m in counts.iter().chain(&[97.0, 1000.0, 1e6 + 1.0]) {
                for &a in counts.iter().filter(|&&a| a <= n) {
                    for &b in counts.iter().filter(|&&b| b <= m) {
                        check(a / n, b / m);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn arb_dist() -> impl Strategy<Value = BTreeMap<u32, f64>> {
        proptest::collection::btree_map(0u32..20, 0.01f64..10.0, 1..15)
    }

    /// Like [`arb_dist`] but also generating the empty distribution and
    /// single-key distributions, the SoA kernel's edge cases (rejection,
    /// all-one-sided walks).
    fn arb_dist_edgy() -> impl Strategy<Value = BTreeMap<u32, f64>> {
        proptest::collection::btree_map(0u32..20, 0.01f64..10.0, 0..15)
    }

    fn pairs(d: BTreeMap<u32, f64>) -> Vec<(u32, f64)> {
        d.into_iter().collect()
    }

    proptest! {
        #[test]
        fn topsoe_nonnegative_and_bounded(p in arb_dist(), q in arb_dist()) {
            let t = soa(&pairs(p), &pairs(q), f64::INFINITY).unwrap();
            prop_assert!(t >= 0.0);
            prop_assert!(t <= 2.0 * LN_2 + 1e-9, "t = {t}");
        }

        #[test]
        fn topsoe_symmetry(p in arb_dist(), q in arb_dist()) {
            let (p, q) = (pairs(p), pairs(q));
            let a = soa(&p, &q, f64::INFINITY).unwrap();
            let b = soa(&q, &p, f64::INFINITY).unwrap();
            prop_assert!((a - b).abs() < 1e-9);
        }

        #[test]
        fn topsoe_self_is_zero(p in arb_dist()) {
            let p = pairs(p);
            prop_assert!(soa(&p, &p, f64::INFINITY).unwrap() < 1e-12);
        }

        // Totals summed and masses normalized from raw pairs, as a
        // heatmap does: the walk reproduces the oracle bit for bit.
        #[test]
        fn sorted_walk_agrees_with_reference(p in arb_dist(), q in arb_dist()) {
            let (p, q) = (pairs(p), pairs(q));
            let walk = soa(&p, &q, f64::INFINITY);
            let reference =
                topsoe_pairs_reference(&p, pair_total(&p), &q, pair_total(&q), f64::INFINITY);
            prop_assert_eq!(walk.map(f64::to_bits), reference.map(f64::to_bits));
        }

        // The SoA gate: the run-based kernel must reproduce the scalar
        // pair walk bit-for-bit — same Some/None outcome under any
        // bound, same score bits — across empty, single-key, disjoint
        // and overlapping supports.
        #[test]
        fn soa_kernel_is_bit_identical_to_scalar_walk(
            p in arb_dist_edgy(),
            q in arb_dist_edgy(),
            bound_frac in -0.5f64..1.5,
        ) {
            let (p, q) = (pairs(p), pairs(q));
            let (tp, tq) = (pair_total(&p), pair_total(&q));
            // bound: infinite (negative draw), or a fraction of the max
            // divergence so pruned and unpruned outcomes are exercised
            let bound = if bound_frac < 0.0 {
                f64::INFINITY
            } else {
                bound_frac * 2.0 * LN_2
            };
            let reference = topsoe_pairs_reference(&p, tp, &q, tq, bound);
            let soa = kernel_over_pairs(&p, tp, &q, tq, bound);
            prop_assert_eq!(
                soa.map(f64::to_bits),
                reference.map(f64::to_bits),
                "SoA diverged from scalar walk (bound {})", bound
            );
        }

        // The walk at its own score: on count-valued, heatmap-like maps,
        // bounds at the exact score and one ulp either side of it give
        // the oracle's outcome, where a partial sum that overshot the
        // final score by a rounding error would surface as a spurious
        // `None`.
        #[test]
        fn one_walk_kernel_is_bit_identical_at_the_score(
            cells in collection::vec((0u32..40, 1u32..200), 1..30),
            shape in 0u8..4,
            nudges in collection::vec(0u32..3, 30..31),
        ) {
            let p: BTreeMap<u32, f64> =
                cells.iter().map(|&(k, c)| (k, f64::from(c))).collect();
            let q: BTreeMap<u32, f64> = match shape {
                // shared support, unrelated counts
                0 => p.keys().map(|&k| (k, f64::from(k * 7 % 199 + 1))).collect(),
                // identical maps
                1 => p.clone(),
                // near-equal masses: large counts a few units apart
                2 => p
                    .iter()
                    .zip(&nudges)
                    .map(|((&k, &c), &n)| (k, c * 1000.0 + f64::from(n)))
                    .collect(),
                // one-sided keys only
                _ => p.iter().map(|(&k, &c)| (k + 40, c)).collect(),
            };
            let p: BTreeMap<u32, f64> = if shape == 2 {
                p.into_iter().map(|(k, c)| (k, c * 1000.0)).collect()
            } else {
                p
            };
            let (p, q) = (pairs(p), pairs(q));
            let (tp, tq) = (pair_total(&p), pair_total(&q));
            let score = topsoe_pairs_reference(&p, tp, &q, tq, f64::INFINITY).unwrap();
            for bound in [f64::INFINITY, score, score.next_down(), score.next_up()] {
                let reference = topsoe_pairs_reference(&p, tp, &q, tq, bound);
                let got = kernel_over_pairs(&p, tp, &q, tq, bound);
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "kernel diverged at bound {:e} (score {:e})", bound, score
                );
            }
        }

        // The pre-pass the walk replaced pruned nothing the walk keeps:
        // wherever the logarithm-free lower-bound walk returns `None`,
        // so does the kernel, and every score the kernel returns is the
        // oracle's to the bit. Bounds sit below the score, at it and one
        // ulp either side of it.
        #[test]
        fn one_walk_prunes_wherever_the_lower_bound_pass_did(
            p in arb_dist_edgy(),
            q in arb_dist_edgy(),
            below in 0.0f64..1.0,
        ) {
            let (p, q) = (pairs(p), pairs(q));
            let (tp, tq) = (pair_total(&p), pair_total(&q));
            let ((pk, pn), (qk, qn)) = (split(&p, tp), split(&q, tq));
            let score = topsoe_pairs_reference(&p, tp, &q, tq, f64::INFINITY).unwrap_or(LN_2);
            for bound in [0.0, score * below, score.next_down(), score, score.next_up()] {
                let got = topsoe_soa_bounded(&pk, &pn, tp, &qk, &qn, tq, bound);
                if lower_bound_walk(&pk, &pn, &qk, &qn, bound).is_none() {
                    prop_assert_eq!(got, None, "the pre-pass pruned at bound {:e}", bound);
                }
                let reference = topsoe_pairs_reference(&p, tp, &q, tq, bound);
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "kernel diverged at bound {:e} (score {:e})", bound, score
                );
            }
        }

        // Disjoint supports are the all-one-sided extreme: every key
        // takes the ln-free fast path and the result must still be the
        // exact maximum the scalar walk produces.
        #[test]
        fn soa_kernel_disjoint_supports(p in arb_dist(), q in arb_dist()) {
            let p: Vec<(u32, f64)> = p.into_iter().map(|(k, v)| (2 * k, v)).collect();
            let q: Vec<(u32, f64)> = q.into_iter().map(|(k, v)| (2 * k + 1, v)).collect();
            let (tp, tq) = (pair_total(&p), pair_total(&q));
            let reference = topsoe_pairs_reference(&p, tp, &q, tq, f64::INFINITY);
            let soa = kernel_over_pairs(&p, tp, &q, tq, f64::INFINITY);
            prop_assert_eq!(soa.map(f64::to_bits), reference.map(f64::to_bits));
            let d = soa.unwrap();
            prop_assert!((d - 2.0 * LN_2).abs() < 1e-9, "disjoint should be max: {d}");
        }

        // The pruned-matching gate: running an arg-min scan over
        // arbitrary heatmap-like profiles with best-bound pruning must
        // select the same winner with the bit-identical score as the
        // unpruned reference scan — the exactness contract AP-Attack's
        // profile matching relies on.
        #[test]
        fn pruned_matching_is_exact(
            anon in arb_dist(),
            profiles in proptest::collection::vec(arb_dist(), 1..12),
        ) {
            let anon = pairs(anon);
            let profiles: Vec<Vec<(u32, f64)>> = profiles.into_iter().map(pairs).collect();

            // Unpruned reference: full score per profile, first strict
            // minimum wins.
            let mut ref_best: Option<(usize, f64)> = None;
            for (i, profile) in profiles.iter().enumerate() {
                let d = soa(&anon, profile, f64::INFINITY).unwrap();
                if ref_best.is_none_or(|(_, b)| d < b) {
                    ref_best = Some((i, d));
                }
            }

            // Pruned scan: later profiles are bounded by the running best.
            let mut pruned_best: Option<(usize, f64)> = None;
            for (i, profile) in profiles.iter().enumerate() {
                let bound = pruned_best.map_or(f64::INFINITY, |(_, b)| b);
                if let Some(d) = soa(&anon, profile, bound) {
                    if pruned_best.is_none_or(|(_, b)| d < b) {
                        pruned_best = Some((i, d));
                    }
                }
            }

            let (ri, rd) = ref_best.unwrap();
            let (pi, pd) = pruned_best.unwrap();
            prop_assert_eq!(ri, pi, "winner diverged");
            prop_assert_eq!(rd.to_bits(), pd.to_bits(), "winning score diverged");
        }
    }
}
