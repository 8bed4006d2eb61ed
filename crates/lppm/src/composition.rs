use std::sync::Arc;

use rand::RngCore;

use mood_trace::{Record, Trace};

use crate::Lppm;

/// An ordered composition of LPPMs (paper Eq. 3):
///
/// ```text
/// C_p(L_ik)(T) = L_ip ∘ L_ip−1 ∘ ... ∘ L_i1 (T)
/// ```
///
/// The first mechanism in `parts` is applied first; order matters, just
/// like function composition. [`Lppm::apply`] runs the whole chain on
/// the one RNG it is given: this is the API form of a composition.
///
/// MooD's engine does not apply a composition as one LPPM. It builds its
/// candidates as a tree instead: composition `p → x` applies `x`, under
/// its own RNG stream, to the candidate its prefix `p` already produced
/// (see `mood_core::MoodEngine`).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use mood_lppm::{Composition, GeoI, Lppm, Trl};
/// use mood_synth::presets;
/// use rand::SeedableRng;
///
/// let chain = Composition::new(vec![
///     Arc::new(GeoI::paper_default()) as Arc<dyn Lppm>,
///     Arc::new(Trl::paper_default()),
/// ]);
/// assert_eq!(chain.name(), "Geo-I→TRL");
///
/// let ds = presets::privamov_like().scaled(0.1).generate();
/// let trace = ds.iter().next().unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let protected = chain.protect(trace, &mut rng);
/// assert_eq!(protected.len(), trace.len() * 3); // TRL tripled last
/// ```
pub struct Composition {
    parts: Vec<Arc<dyn Lppm>>,
    name: String,
}

impl Composition {
    /// Creates a composition applying `parts` left to right.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty.
    pub fn new(parts: Vec<Arc<dyn Lppm>>) -> Self {
        assert!(!parts.is_empty(), "composition needs at least one LPPM");
        let name = parts
            .iter()
            .map(|p| p.name().to_string())
            .collect::<Vec<_>>()
            .join("→");
        Self { parts, name }
    }

    /// Number of chained mechanisms.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// `false`: compositions are never empty (checked at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The chained mechanisms, in application order.
    pub fn parts(&self) -> &[Arc<dyn Lppm>] {
        &self.parts
    }
}

impl Lppm for Composition {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&self, trace: &Trace, rng: &mut dyn RngCore, out: &mut Vec<Record>) {
        self.parts[0].apply(trace, rng, out);
        for part in &self.parts[1..] {
            let input = Trace::new(trace.user(), std::mem::take(out))
                .expect("LPPMs never produce an empty trace");
            part.apply(&input, rng, out);
        }
    }
}

/// Every ordered arrangement of distinct indices into `0..n` with
/// length in `[min_len, max_len]`: the search space `C` of MooD's
/// Multi-LPPM Composition Search over `n` base mechanisms, each chain
/// naming the mechanisms in application order.
///
/// The count over all lengths 1..=n is `Σ_{i=1..n} n!/(n−i)!` (paper
/// §3.1): 15 for n = 3. MooD's Algorithm 1 searches singles first
/// (`min_len = max_len = 1`) and then the proper compositions
/// (`min_len = 2`).
///
/// Enumeration order is deterministic: shorter arrangements first, then
/// lexicographic by index — so "the best protecting variant" is
/// reproducible across runs.
///
/// # Panics
///
/// Panics when `min_len` is zero or `min_len > max_len`.
pub fn arrangements(n: usize, min_len: usize, max_len: usize) -> Vec<Vec<usize>> {
    assert!(min_len >= 1, "min_len must be at least 1");
    assert!(min_len <= max_len, "min_len must not exceed max_len");
    let max_len = max_len.min(n);
    // Depth-first enumeration of arrangements, collected per length to
    // keep "shorter first".
    let mut by_len: Vec<Vec<Vec<usize>>> = vec![Vec::new(); max_len + 1];
    fn recurse(n: usize, max_len: usize, stack: &mut Vec<usize>, by_len: &mut [Vec<Vec<usize>>]) {
        if stack.len() == max_len {
            return;
        }
        for i in 0..n {
            if stack.contains(&i) {
                continue;
            }
            stack.push(i);
            by_len[stack.len()].push(stack.clone());
            recurse(n, max_len, stack, by_len);
            stack.pop();
        }
    }
    recurse(n, max_len, &mut Vec::new(), &mut by_len);
    by_len.into_iter().skip(min_len).flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeoI, Hmc, SpatialCloaking, Trl};
    use mood_geo::GeoPoint;
    use mood_synth::presets;
    use mood_trace::{TimeDelta, Timestamp, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn walk(n: i64) -> Trace {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(
                    GeoPoint::new(46.2, 6.1).unwrap(),
                    Timestamp::from_unix(i * 600),
                )
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn paper_count_for_three_lppms() {
        // |C| = 3 + 6 + 6 = 15 (paper §3.3: "for n = 3 ... |C| = 15")
        assert_eq!(arrangements(3, 1, 3).len(), 15);
        // C - L (compositions of at least 2): 12
        assert_eq!(arrangements(3, 2, 3).len(), 12);
        // singles only
        assert_eq!(arrangements(3, 1, 1).len(), 3);
    }

    #[test]
    fn space_size_formula() {
        assert_eq!(arrangements(1, 1, 1).len(), 1);
        assert_eq!(arrangements(2, 1, 2).len(), 4);
        assert_eq!(arrangements(4, 1, 4).len(), 4 + 12 + 24 + 24);
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let all = arrangements(3, 1, 3);
        let distinct: std::collections::HashSet<&Vec<usize>> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn enumeration_is_shorter_first() {
        let lens: Vec<usize> = arrangements(3, 1, 3).iter().map(Vec::len).collect();
        let mut sorted = lens.clone();
        sorted.sort();
        assert_eq!(lens, sorted);
    }

    #[test]
    fn composition_name_is_chain() {
        let c = Composition::new(vec![
            Arc::new(GeoI::paper_default()) as Arc<dyn Lppm>,
            Arc::new(Trl::paper_default()),
        ]);
        assert_eq!(c.name(), "Geo-I→TRL");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn order_matters_in_output_shape() {
        let t = walk(10);
        let geoi_then_trl = Composition::new(vec![
            Arc::new(GeoI::paper_default()) as Arc<dyn Lppm>,
            Arc::new(Trl::paper_default()),
        ]);
        let trl_then_geoi = Composition::new(vec![
            Arc::new(Trl::paper_default()) as Arc<dyn Lppm>,
            Arc::new(GeoI::paper_default()),
        ]);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let a = geoi_then_trl.protect(&t, &mut r1);
        let b = trl_then_geoi.protect(&t, &mut r2);
        // both triple the record count but produce different point sets
        assert_eq!(a.len(), 30);
        assert_eq!(b.len(), 30);
        assert_ne!(a, b);
    }

    #[test]
    fn apply_clears_stale_contents_for_every_mechanism() {
        // The cleared-then-filled contract on every mechanism, alone and
        // chained, over both presets: a recycled buffer pre-seeded with
        // junk must come back holding exactly what `protect` returns (one
        // stale record appended would silently corrupt every downstream
        // verdict).
        let junk = Record::new(
            GeoPoint::new(10.0, 10.0).unwrap(),
            Timestamp::from_unix(-999),
        );
        let check = |lppm: &dyn Lppm, trace: &Trace| {
            let seed = trace.user().as_u64();
            let expected = lppm
                .protect(trace, &mut StdRng::seed_from_u64(seed))
                .into_records();
            for stale_len in [0usize, 3, 64] {
                let mut out = vec![junk; stale_len];
                let rng = &mut StdRng::seed_from_u64(seed);
                lppm.apply(trace, rng, &mut out);
                let who = format!("{} on {}", lppm.name(), trace.user());
                assert_eq!(out, expected, "{who}, {stale_len} stale");
            }
        };
        for spec in [
            presets::privamov_like().scaled(0.1),
            presets::cabspotting_like().scaled(0.02),
        ] {
            let (bg, test) = spec
                .generate()
                .split_chronological(TimeDelta::from_days(15));
            let geo_i: Arc<dyn Lppm> = Arc::new(GeoI::paper_default());
            let trl: Arc<dyn Lppm> = Arc::new(Trl::paper_default());
            let hmc: Arc<dyn Lppm> = Arc::new(Hmc::paper_default(&bg));
            let cloak: Arc<dyn Lppm> = Arc::new(SpatialCloaking::from_background(&bg, 800.0));
            let chain = |parts: &[&Arc<dyn Lppm>]| {
                Composition::new(parts.iter().map(|&p| Arc::clone(p)).collect())
            };
            let compositions = [
                chain(&[&geo_i, &trl]),
                chain(&[&trl, &geo_i]),
                chain(&[&hmc, &geo_i]),
                chain(&[&trl, &hmc]),
                chain(&[&cloak, &hmc, &trl]),
            ];
            let singles = [&geo_i, &trl, &hmc, &cloak].map(|l| &**l);
            let mechanisms = singles
                .into_iter()
                .chain(compositions.iter().map(|c| c as &dyn Lppm));
            for lppm in mechanisms {
                for trace in test.iter().take(2) {
                    check(lppm, trace);
                }
            }
        }
    }

    #[test]
    fn composition_equals_manual_chaining() {
        let t = walk(10);
        let g = GeoI::paper_default();
        let trl = Trl::paper_default();
        let chain = Composition::new(vec![Arc::new(g) as Arc<dyn Lppm>, Arc::new(trl)]);
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let composed = chain.protect(&t, &mut r1);
        let manual = trl.protect(&g.protect(&t, &mut r2), &mut r2);
        assert_eq!(composed, manual);
    }

    #[test]
    #[should_panic(expected = "at least one LPPM")]
    fn empty_composition_rejected() {
        Composition::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "min_len must be at least 1")]
    fn zero_min_len_rejected() {
        arrangements(3, 0, 3);
    }
}
