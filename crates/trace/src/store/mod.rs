//! Compressed, chunked trace storage for larger-than-RAM corpora.
//!
//! [`TraceStore`] keeps every user's records as a sequence of
//! delta-compressed [`TraceChunk`]s instead of a decoded
//! `Vec<Record>`. Records stream in one at a time ([`TraceStore::append`],
//! typically fed by [`stream_csv`](crate::io::stream_csv)); a user's
//! append buffer seals into a chunk every `seal_records` records, and a
//! periodic sweep seals the buffers of users gone cold. A chunk is
//! written once, at one size, and never re-encoded — except for a user
//! whose records arrived out of order, whom [`TraceStore::finish`]
//! re-sorts and re-chunks at the same size. Every read decodes a user's
//! whole trace through a byte-budgeted LRU
//! [`DecodedCache`](cache::DecodedCache), which keeps only the hot
//! working set decoded.
//!
//! The store is bit-exact: decoding any user reproduces exactly the
//! trace the in-memory [`Dataset`] path would have built from the same
//! record sequence, including the stable-sort tie order of
//! [`Trace::new`]. Protection and attack-evaluation pipelines running
//! against a store therefore produce byte-identical reports.

mod cache;
mod chunk;

pub use chunk::TraceChunk;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::{Dataset, Record, Timestamp, Trace, UserId};

use cache::{DecodedCache, RECORD_BYTES};

/// Appends between cold-user sweeps, in units of `seal_records`: 8,192
/// appends at the default chunk size.
const SWEEP_EVERY_SEALS: u64 = 16;

/// Tuning knobs of a [`TraceStore`].
///
/// The defaults target the paper's corpus scale: 512-record chunks, so
/// append buffers stay bounded, and a 64 MiB decoded-cache budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Records per chunk: a user's append buffer seals into a chunk at
    /// this size, and out-of-order users are re-chunked at it.
    pub seal_records: usize,
    /// Byte budget of the decoded-trace LRU cache.
    pub cache_budget_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            seal_records: 512,
            cache_budget_bytes: 64 << 20,
        }
    }
}

impl StoreConfig {
    /// Returns the config with the decoded-cache budget set to `bytes`.
    pub fn with_cache_budget(mut self, bytes: usize) -> Self {
        self.cache_budget_bytes = bytes;
        self
    }

    /// Returns the config with the chunk size set.
    pub fn with_seal_records(mut self, records: usize) -> Self {
        assert!(records > 0, "seal_records must be positive");
        self.seal_records = records;
        self
    }

    /// Appends between cold-user sweeps; 0 (no sweep) when
    /// `seal_records` is 0.
    fn sweep_interval(&self) -> u64 {
        SWEEP_EVERY_SEALS * self.seal_records as u64
    }
}

/// Counters and gauges of a [`TraceStore`], taken atomically under the
/// cache lock. Printed by `mood ingest` and read by `exp_ledger`'s
/// `trace.decodes` and `trace.evictions` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of users in the store.
    pub users: usize,
    /// Total records across chunks and append buffers.
    pub records: usize,
    /// Number of compressed chunks.
    pub chunks: usize,
    /// Total compressed payload bytes across all chunks.
    pub encoded_bytes: usize,
    /// Decoded bytes currently held in unsealed append buffers.
    pub buffer_bytes: usize,
    /// High-water mark of `buffer_bytes` over the store's lifetime.
    pub peak_buffer_bytes: usize,
    /// Decoded bytes currently resident in the LRU cache.
    pub resident_bytes: usize,
    /// High-water mark of `resident_bytes`; never exceeds `budget_bytes`.
    pub peak_resident_bytes: usize,
    /// Byte budget of the decoded-trace cache.
    pub budget_bytes: usize,
    /// Cache lookups served without decoding.
    pub cache_hits: u64,
    /// Cache misses (each one decodes a user's chunks).
    pub decodes: u64,
    /// Entries evicted from the cache to respect the budget.
    pub evictions: u64,
    /// Decodes of traces larger than the whole budget (served uncached).
    pub uncached_decodes: u64,
    /// Users whose chunks were globally re-sorted at finish (out-of-order
    /// input).
    pub resorts: u64,
}

/// Per-user state: sealed chunks plus the unsealed append buffer.
struct UserSlot {
    chunks: Vec<TraceChunk>,
    buffer: Vec<Record>,
    /// Max timestamp across sealed chunks; a later append below this
    /// marks the user dirty (needs a global resort at finish).
    max_sealed_time: Option<Timestamp>,
    dirty: bool,
    last_append: u64,
}

impl UserSlot {
    fn new() -> UserSlot {
        UserSlot {
            chunks: Vec::new(),
            buffer: Vec::new(),
            max_sealed_time: None,
            dirty: false,
            last_append: 0,
        }
    }

    fn record_count(&self) -> usize {
        self.chunks.iter().map(TraceChunk::len).sum::<usize>() + self.buffer.len()
    }
}

/// Sorts and seals the slot's append buffer into one chunk, returning
/// the decoded bytes freed. The stable sort preserves the arrival order
/// of co-timestamped records, matching [`Trace::new`].
fn seal_slot(slot: &mut UserSlot) -> usize {
    debug_assert!(!slot.buffer.is_empty());
    slot.buffer.sort_by_key(|r| r.time());
    let chunk = TraceChunk::encode(&slot.buffer);
    let freed = slot.buffer.len() * RECORD_BYTES;
    slot.max_sealed_time = Some(match slot.max_sealed_time {
        Some(m) => m.max(chunk.max_time()),
        None => chunk.max_time(),
    });
    slot.chunks.push(chunk);
    slot.buffer.clear();
    freed
}

/// A compressed, chunked, per-user trace store.
///
/// Build one either by streaming ([`TraceStore::append`] +
/// [`TraceStore::finish`], or [`stream_csv`](crate::io::stream_csv)) or
/// from an existing in-memory dataset ([`TraceStore::from_dataset`]).
/// After `finish`, the store is immutable and shareable across threads
/// (`&TraceStore` is `Sync`); reads decode through the byte-budgeted
/// LRU cache.
///
/// # Examples
///
/// ```
/// use mood_geo::GeoPoint;
/// use mood_trace::store::{StoreConfig, TraceStore};
/// use mood_trace::{Record, Timestamp, UserId};
///
/// let mut store = TraceStore::new(StoreConfig::default());
/// for i in 0..100 {
///     store.append(
///         UserId::new(i % 4),
///         Record::new(GeoPoint::new(46.2, 6.1)?, Timestamp::from_unix(i as i64 * 60)),
///     );
/// }
/// store.finish();
/// assert_eq!(store.user_count(), 4);
/// assert_eq!(store.trace(UserId::new(0)).len(), 25);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct TraceStore {
    config: StoreConfig,
    /// Each user's index into `slots`, in user order.
    users: BTreeMap<UserId, usize>,
    /// Per-user state in first-append order; a slot never moves.
    slots: Vec<UserSlot>,
    /// The last appended user and its slot: consecutive appends of one
    /// user form a run, and a run costs one map lookup.
    run: Option<(UserId, usize)>,
    cache: Mutex<DecodedCache>,
    appends: u64,
    resorts: u64,
    buffer_bytes: usize,
    peak_buffer_bytes: usize,
    finished: bool,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("users", &self.users.len())
            .field("appends", &self.appends)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl TraceStore {
    /// Creates an empty store accepting appends.
    pub fn new(config: StoreConfig) -> TraceStore {
        TraceStore {
            config,
            users: BTreeMap::new(),
            slots: Vec::new(),
            run: None,
            cache: Mutex::new(DecodedCache::new(config.cache_budget_bytes)),
            appends: 0,
            resorts: 0,
            buffer_bytes: 0,
            peak_buffer_bytes: 0,
            finished: false,
        }
    }

    /// Compresses an in-memory dataset into a store.
    pub fn from_dataset(dataset: &Dataset, config: StoreConfig) -> TraceStore {
        let mut store = TraceStore::new(config);
        for trace in dataset.iter() {
            for r in trace.records() {
                store.append(trace.user(), *r);
            }
        }
        store.finish();
        store
    }

    /// The store's configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Appends one record to `user`'s trace. Records may arrive in any
    /// order; out-of-order users are globally re-sorted at
    /// [`TraceStore::finish`] so decoded traces always match
    /// [`Trace::new`] bit-for-bit. A run of consecutive appends by one
    /// user costs one user lookup.
    ///
    /// # Panics
    ///
    /// Panics when called after [`TraceStore::finish`].
    pub fn append(&mut self, user: UserId, record: Record) {
        assert!(!self.finished, "append after finish()");
        self.appends += 1;
        let appends = self.appends;
        let index = match self.run {
            Some((u, index)) if u == user => index,
            _ => {
                let next = self.slots.len();
                let index = *self.users.entry(user).or_insert(next);
                if index == next {
                    self.slots.push(UserSlot::new());
                }
                self.run = Some((user, index));
                index
            }
        };
        let slot = &mut self.slots[index];
        if slot.max_sealed_time.is_some_and(|m| record.time() < m) {
            slot.dirty = true;
        }
        slot.buffer.push(record);
        slot.last_append = appends;
        self.buffer_bytes += RECORD_BYTES;
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(self.buffer_bytes);
        if slot.buffer.len() >= self.config.seal_records {
            self.buffer_bytes -= seal_slot(slot);
        }
        let interval = self.config.sweep_interval();
        if interval > 0 && appends.is_multiple_of(interval) {
            self.sweep_cold(interval);
        }
    }

    /// Seals the buffers of users that have not appended for a full
    /// sweep `interval`, bounding decoded buffer memory for cold users
    /// without touching hot ones.
    fn sweep_cold(&mut self, interval: u64) {
        let threshold = self.appends.saturating_sub(interval);
        let mut freed = 0usize;
        for slot in &mut self.slots {
            if slot.last_append <= threshold && !slot.buffer.is_empty() {
                freed += seal_slot(slot);
                slot.buffer.shrink_to_fit();
            }
        }
        self.buffer_bytes -= freed;
    }

    /// Seals every buffer, re-sorts and re-chunks users whose records
    /// arrived out of order, and freezes the store for reading.
    /// Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        let seal_records = self.config.seal_records.max(1);
        let mut freed = 0usize;
        for slot in &mut self.slots {
            if !slot.buffer.is_empty() {
                freed += seal_slot(slot);
            }
            slot.buffer = Vec::new();
            if slot.dirty {
                // Out-of-order arrivals: decode everything, stable-sort
                // globally (same tie order as Trace::new over the full
                // arrival sequence), and re-chunk at the seal size.
                let mut records = Vec::with_capacity(slot.record_count());
                for c in &slot.chunks {
                    c.decode_into(&mut records);
                }
                records.sort_by_key(|r| r.time());
                slot.chunks = records
                    .chunks(seal_records)
                    .map(TraceChunk::encode)
                    .collect();
                slot.dirty = false;
                self.resorts += 1;
            }
        }
        self.buffer_bytes -= freed;
        self.finished = true;
    }

    /// Number of users in the store.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// `true` when the store holds no users.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Total records across all users.
    pub fn record_count(&self) -> usize {
        self.slots.iter().map(UserSlot::record_count).sum()
    }

    /// The user IDs present, ascending (same order as
    /// [`Dataset::user_ids`]).
    pub fn user_ids(&self) -> Vec<UserId> {
        self.users.keys().copied().collect()
    }

    fn slot(&self, user: UserId) -> &UserSlot {
        &self.slots[*self.users.get(&user).expect("unknown user in TraceStore")]
    }

    fn decode_slot(&self, user: UserId, slot: &UserSlot) -> Trace {
        let mut records = Vec::with_capacity(slot.record_count());
        for c in &slot.chunks {
            c.decode_into(&mut records);
        }
        Trace::from_sorted(user, records).expect("finished store chunks are sorted")
    }

    /// The decoded trace of `user`, served through the LRU cache. The
    /// decode itself runs outside the cache lock (chunks are immutable
    /// after finish), so parallel workers do not serialize on it.
    ///
    /// # Panics
    ///
    /// Panics for unknown users or before [`TraceStore::finish`].
    pub fn trace(&self, user: UserId) -> Arc<Trace> {
        assert!(self.finished, "TraceStore reads require finish()");
        let slot = self.slot(user);
        if let Some(hit) = self.cache.lock().expect("store cache lock").get(user) {
            return hit;
        }
        let trace = Arc::new(self.decode_slot(user, slot));
        self.cache
            .lock()
            .expect("store cache lock")
            .insert(user, &trace);
        trace
    }

    /// Decodes the whole store into an in-memory [`Dataset`],
    /// bypassing the cache. The result is bit-identical to building the
    /// dataset from the original record sequence.
    pub fn to_dataset(&self) -> Dataset {
        assert!(self.finished, "TraceStore reads require finish()");
        Dataset::from_traces(
            self.users
                .iter()
                .map(|(&user, &index)| self.decode_slot(user, &self.slots[index])),
        )
        .expect("store users are unique")
    }

    /// Atomic snapshot of the store's counters and gauges.
    pub fn stats(&self) -> StoreStats {
        let (chunks, encoded_bytes) = self.slots.iter().fold((0usize, 0usize), |(n, b), s| {
            (
                n + s.chunks.len(),
                b + s
                    .chunks
                    .iter()
                    .map(TraceChunk::encoded_bytes)
                    .sum::<usize>(),
            )
        });
        let cache = self.cache.lock().expect("store cache lock");
        StoreStats {
            users: self.users.len(),
            records: self.record_count(),
            chunks,
            encoded_bytes,
            buffer_bytes: self.buffer_bytes,
            peak_buffer_bytes: self.peak_buffer_bytes,
            resident_bytes: cache.resident_bytes(),
            peak_resident_bytes: cache.peak_resident_bytes(),
            budget_bytes: cache.budget_bytes(),
            cache_hits: cache.hits(),
            decodes: cache.decodes(),
            evictions: cache.evictions(),
            uncached_decodes: cache.uncached_decodes(),
            resorts: self.resorts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_geo::GeoPoint;

    fn rec(lat: f64, lng: f64, t: i64) -> Record {
        Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t))
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            seal_records: 8,
            cache_budget_bytes: 1 << 20,
        }
    }

    /// Interleaved sorted streams for a few users, as a CSV reader
    /// would produce them.
    fn feed_interleaved(store: &mut TraceStore, users: u64, per_user: i64) {
        for t in 0..per_user {
            for u in 0..users {
                store.append(
                    UserId::new(u),
                    rec(46.0 + u as f64 * 0.01 + t as f64 * 1e-5, 6.0, t * 600),
                );
            }
        }
    }

    fn chunk_lens(store: &TraceStore, user: u64) -> Vec<usize> {
        store
            .slot(UserId::new(user))
            .chunks
            .iter()
            .map(TraceChunk::len)
            .collect()
    }

    #[test]
    fn roundtrips_sorted_streams() {
        let mut store = TraceStore::new(small_config());
        feed_interleaved(&mut store, 3, 100);
        store.finish();
        assert_eq!(store.user_count(), 3);
        assert_eq!(store.record_count(), 300);
        for u in 0..3u64 {
            let t = store.trace(UserId::new(u));
            assert_eq!(t.len(), 100);
            assert_eq!(t.start_time().as_unix(), 0);
            assert_eq!(t.end_time().as_unix(), 99 * 600);
        }
        assert_eq!(store.stats().resorts, 0);
    }

    #[test]
    fn matches_trace_new_for_out_of_order_input() {
        // Shuffled arrival order, with duplicate timestamps to exercise
        // the stable tie order.
        let mut arrivals = Vec::new();
        for i in 0..200i64 {
            let t = (i * 7919) % 50; // many collisions
            arrivals.push(rec(46.0 + i as f64 * 1e-4, 6.0, t));
        }
        let mut store = TraceStore::new(small_config());
        for r in &arrivals {
            store.append(UserId::new(1), *r);
        }
        store.finish();
        assert_eq!(store.stats().resorts, 1);
        let expected = Trace::new(UserId::new(1), arrivals).unwrap();
        assert_eq!(*store.trace(UserId::new(1)), expected);
    }

    #[test]
    fn out_of_order_user_is_rechunked_at_seal_size() {
        let mut store = TraceStore::new(small_config());
        for i in 0..203i64 {
            store.append(UserId::new(1), rec(46.0, 6.0, (i * 7919) % 1000));
        }
        store.finish();
        assert_eq!(store.stats().resorts, 1);
        let mut expected = vec![8; 25];
        expected.push(3);
        assert_eq!(chunk_lens(&store, 1), expected);
    }

    #[test]
    fn contiguous_users_store_one_chunk_per_seal() {
        let sizes = [1usize, 63, 64, 65, 512, 513, 1500, 5000];
        let mut csv = String::from("user_id,lat,lng,timestamp\n");
        for (u, &n) in sizes.iter().enumerate() {
            for i in 0..n {
                let lat = 46.0 + u as f64 * 0.01 + i as f64 * 1e-5;
                csv.push_str(&format!("{u},{lat},6.1,{}\n", i * 30));
            }
        }
        let ds = crate::io::read_csv(csv.as_bytes()).unwrap();
        for seal in [64, 512] {
            let config = StoreConfig::default().with_seal_records(seal);
            let store = crate::io::stream_csv(csv.as_bytes(), config).unwrap();
            for (u, &n) in sizes.iter().enumerate() {
                let lens = chunk_lens(&store, u as u64);
                assert_eq!(lens.len(), n.div_ceil(seal), "user {u} at seal {seal}");
                assert!(lens.iter().all(|&len| len <= seal), "{lens:?}");
            }
            assert_eq!(store.to_dataset(), ds);
        }
    }

    #[test]
    fn from_dataset_roundtrips_exactly() {
        let traces: Vec<Trace> = (0..5u64)
            .map(|u| {
                let records: Vec<Record> = (0..77)
                    .map(|i| rec(46.0 + u as f64 * 0.02, 6.0 + i as f64 * 1e-4, i * 300))
                    .collect();
                Trace::new(UserId::new(u), records).unwrap()
            })
            .collect();
        let ds = Dataset::from_traces(traces).unwrap();
        let store = TraceStore::from_dataset(&ds, small_config());
        assert_eq!(store.to_dataset(), ds);
    }

    #[test]
    fn cold_sweep_seals_inactive_buffers() {
        assert_eq!(StoreConfig::default().sweep_interval(), 8192);
        // Seal size 4: a sweep every 64 appends.
        let mut store = TraceStore::new(StoreConfig {
            seal_records: 4,
            cache_budget_bytes: 1 << 20,
        });
        // User 9 appends 3 records, then goes cold while user 1 streams.
        for i in 0..3 {
            store.append(UserId::new(9), rec(46.0, 6.0, i));
        }
        for i in 0..124 {
            store.append(UserId::new(1), rec(46.1, 6.1, i));
        }
        // The sweep at append 64 found user 9 active within its window.
        assert_eq!(store.slot(UserId::new(9)).buffer.len(), 3);
        store.append(UserId::new(1), rec(46.1, 6.1, 124));
        // The sweep at append 128 sealed user 9's buffer even though it
        // is below seal_records.
        assert!(store.slot(UserId::new(9)).buffer.is_empty());
        assert_eq!(chunk_lens(&store, 9), vec![3]);
        store.finish();
        assert_eq!(store.trace(UserId::new(9)).len(), 3);
        assert_eq!(store.trace(UserId::new(1)).len(), 125);
    }

    #[test]
    fn zero_seal_size_stores_one_record_chunks() {
        let config = StoreConfig {
            seal_records: 0,
            cache_budget_bytes: 1 << 20,
        };
        assert_eq!(config.sweep_interval(), 0);
        let mut store = TraceStore::new(config);
        for i in 0..40i64 {
            store.append(UserId::new(1), rec(46.0, 6.0, 40 - i));
        }
        store.finish();
        assert_eq!(store.trace(UserId::new(1)).len(), 40);
        assert_eq!(store.stats().chunks, 40);
    }

    #[test]
    fn buffer_bytes_accounting_balances() {
        let mut store = TraceStore::new(small_config());
        feed_interleaved(&mut store, 4, 50);
        assert!(store.stats().peak_buffer_bytes > 0);
        store.finish();
        assert_eq!(store.stats().buffer_bytes, 0);
    }

    #[test]
    fn cache_budget_bounds_resident_bytes() {
        let mut store = TraceStore::new(StoreConfig {
            seal_records: 64,
            // Budget fits ~2 of the 8 decoded traces.
            cache_budget_bytes: 250 * RECORD_BYTES,
        });
        feed_interleaved(&mut store, 8, 100);
        store.finish();
        for _ in 0..3 {
            for u in 0..8u64 {
                let t = store.trace(UserId::new(u));
                assert_eq!(t.len(), 100);
                let stats = store.stats();
                assert!(
                    stats.resident_bytes <= stats.budget_bytes,
                    "resident {} > budget {}",
                    stats.resident_bytes,
                    stats.budget_bytes
                );
            }
        }
        let stats = store.stats();
        assert!(stats.evictions > 0);
        assert!(stats.peak_resident_bytes <= stats.budget_bytes);
    }

    #[test]
    fn compression_beats_half_of_vec_form() {
        let mut store = TraceStore::new(StoreConfig::default());
        // GPS-like jitter around a dwell point, 30 s cadence.
        for u in 0..4u64 {
            for i in 0..5000i64 {
                let jitter = ((i * 2_654_435_761) % 1000) as f64 * 1e-7;
                store.append(UserId::new(u), rec(46.2 + jitter, 6.14 - jitter, i * 30));
            }
        }
        store.finish();
        let stats = store.stats();
        let vec_bytes = stats.records * RECORD_BYTES;
        assert!(
            stats.encoded_bytes * 2 <= vec_bytes,
            "encoded {} vs vec {}",
            stats.encoded_bytes,
            vec_bytes
        );
    }

    #[test]
    #[should_panic(expected = "reads require finish")]
    fn reads_before_finish_panic() {
        let mut store = TraceStore::new(small_config());
        store.append(UserId::new(1), rec(46.0, 6.0, 0));
        let _ = store.trace(UserId::new(1));
    }

    #[test]
    #[should_panic(expected = "append after finish")]
    fn append_after_finish_panics() {
        let mut store = TraceStore::new(small_config());
        store.append(UserId::new(1), rec(46.0, 6.0, 0));
        store.finish();
        store.append(UserId::new(1), rec(46.0, 6.0, 1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mood_geo::GeoPoint;
    use proptest::prelude::*;

    fn arb_records() -> impl Strategy<Value = Vec<Record>> {
        proptest::collection::vec(
            (
                -1_000_000i64..1_000_000,
                -0.4f64..0.4,
                -0.4f64..0.4,
                0u64..4,
            ),
            1..300,
        )
        .prop_map(|tuples| {
            tuples
                .into_iter()
                .map(|(t, dlat, dlng, _)| {
                    Record::new(
                        GeoPoint::new(46.0 + dlat, 6.0 + dlng).unwrap(),
                        Timestamp::from_unix(t),
                    )
                })
                .collect()
        })
    }

    /// Appends of a few users in runs of random length, as a CSV reader
    /// would see them: most runs continue their user's clock (with
    /// duplicate timestamps), some go back in time.
    fn arb_interleaved() -> impl Strategy<Value = Vec<(UserId, Record)>> {
        proptest::collection::vec((0u64..6, 1usize..40, 0i64..4, 0i64..50_000), 1..30).prop_map(
            |runs| {
                let mut clock = [0i64; 6];
                let mut arrivals = Vec::new();
                for (user, len, step, start) in runs {
                    for i in 0..len as i64 {
                        let t = if step == 0 {
                            start - i * 7
                        } else {
                            clock[user as usize] += (step - 1) * 30;
                            clock[user as usize]
                        };
                        let point = GeoPoint::new(46.0 + user as f64 * 0.01 + i as f64 * 1e-5, 6.0)
                            .unwrap();
                        arrivals.push((
                            UserId::new(user),
                            Record::new(point, Timestamp::from_unix(t)),
                        ));
                    }
                }
                arrivals
            },
        )
    }

    proptest! {
        #[test]
        fn chunk_roundtrip_is_bit_exact(records in arb_records()) {
            let chunk = TraceChunk::encode(&records);
            let mut back = Vec::new();
            chunk.decode_into(&mut back);
            prop_assert_eq!(back.len(), records.len());
            for (a, b) in records.iter().zip(&back) {
                prop_assert_eq!(a.time(), b.time());
                prop_assert_eq!(a.point().lat().to_bits(), b.point().lat().to_bits());
                prop_assert_eq!(a.point().lng().to_bits(), b.point().lng().to_bits());
            }
        }

        #[test]
        fn store_matches_trace_new(records in arb_records()) {
            let mut store = TraceStore::new(StoreConfig {
                seal_records: 7,
                cache_budget_bytes: 1 << 16,
            });
            for r in &records {
                store.append(UserId::new(5), *r);
            }
            store.finish();
            let expected = Trace::new(UserId::new(5), records).unwrap();
            prop_assert_eq!(&*store.trace(UserId::new(5)), &expected);
        }

        #[test]
        fn interleaved_users_match_trace_new(arrivals in arb_interleaved()) {
            let mut by_user: BTreeMap<UserId, Vec<Record>> = BTreeMap::new();
            for &(user, r) in &arrivals {
                by_user.entry(user).or_default().push(r);
            }
            let expected: Vec<Trace> = by_user
                .iter()
                .map(|(&user, records)| Trace::new(user, records.clone()).unwrap())
                .collect();
            // Every trace fits the budget but not all of them together,
            // so the scans evict whenever there are two users.
            let budget = expected.iter().map(Trace::len).max().unwrap() * RECORD_BYTES;
            for seal_records in [1, 7, 512] {
                let mut store = TraceStore::new(StoreConfig {
                    seal_records,
                    cache_budget_bytes: budget,
                });
                for &(user, r) in &arrivals {
                    store.append(user, r);
                }
                store.finish();
                prop_assert_eq!(store.user_ids(), by_user.keys().copied().collect::<Vec<_>>());
                prop_assert_eq!(store.record_count(), arrivals.len());
                let stats = store.stats();
                prop_assert_eq!(stats.users, by_user.len());
                prop_assert_eq!(stats.records, arrivals.len());
                for _ in 0..2 {
                    for trace in &expected {
                        prop_assert_eq!(&*store.trace(trace.user()), trace);
                    }
                }
                let stats = store.stats();
                prop_assert!(stats.resident_bytes <= budget);
                prop_assert_eq!(stats.evictions > 0, expected.len() > 1);
                prop_assert_eq!(
                    store.to_dataset(),
                    Dataset::from_traces(expected.clone()).unwrap()
                );
            }
        }
    }
}
