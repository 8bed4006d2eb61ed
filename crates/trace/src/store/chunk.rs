//! The compressed columnar block of the trace store: a [`TraceChunk`]
//! holds up to `seal_records` records of **one** user in
//! delta-compressed form, with its record count and latest timestamp.
//!
//! # Encoding
//!
//! Records are stored as a single bit stream: the first record is
//! written raw (64-bit timestamp, 64-bit `f64::to_bits` per
//! coordinate), every later record as three bit-packed residuals:
//!
//! * timestamps: delta-of-delta on the `i64` seconds (regular sampling
//!   intervals collapse to a single bit per record);
//! * coordinates: delta-of-delta on the `u64` bit pattern of the `f64`,
//!   in wrapping two's-complement arithmetic. Nearby doubles of equal
//!   sign have nearby bit patterns, and linear motion keeps the bit
//!   deltas themselves nearly constant, so residuals stay small —
//!   while round-tripping is *exact for every input* (the residual is a
//!   reversible mod-2⁶⁴ difference, never a quantization).
//!
//! Each residual is zigzag-mapped and written as `0` when zero, else as
//! `1` + 6-bit significant-length + the significant bits minus the
//! implied leading one. GPS noise leaves ~34 significant bits per
//! coordinate residual, so the common record costs ~2 + 2×40 bits —
//! under half of the 24-byte in-memory [`Record`] with room to spare,
//! where byte-aligned varints would sit right at the boundary.

use mood_geo::GeoPoint;

use crate::{Record, Timestamp};

#[cfg(test)]
mod oracle;

/// Little-endian bit-stream writer: values are packed LSB-first into a
/// 64-bit accumulator that flushes a whole word at a time.
struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, LSB-first; only the low `nbits` (< 64) are set.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn with_capacity(bytes: usize) -> BitWriter {
        BitWriter {
            bytes: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `n` bits of `bits` (`n <= 64`; the bits above
    /// them must be zero).
    fn push(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 64 && (n == 64 || bits >> n == 0));
        self.acc |= bits << self.nbits;
        let total = self.nbits + n;
        if total >= 64 {
            self.bytes.extend_from_slice(&self.acc.to_le_bytes());
            // The bits of `bits` that did not fit. Shifting in two steps
            // keeps each shift below 64 when the accumulator was empty.
            self.acc = (bits >> 1) >> (63 - self.nbits);
            self.nbits = total - 64;
        } else {
            self.nbits = total;
        }
    }

    /// The stream's bytes: the flushed words, then the `ceil(nbits / 8)`
    /// bytes that hold the pending bits.
    fn finish(mut self) -> Vec<u8> {
        let tail = self.nbits.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.bytes.shrink_to_fit();
        self.bytes
    }
}

/// Reader matching [`BitWriter`]'s packing, refilled a word at a time.
///
/// # Panics
///
/// Panics on truncated input — chunks are only decoded from buffers
/// this module produced, so truncation is a logic error, not bad data.
/// The reader never reads past its slice.
struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into `acc`.
    pos: usize,
    /// Buffered bits, LSB-first. The low `nbits` are the stream's next
    /// bits; above them sit zeros or the bits of `bytes[pos..]`, so
    /// loading those bytes again ORs in bits already there.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Buffers at least 56 bits, or every bit left in the slice. Needs
    /// `nbits < 56`.
    fn refill(&mut self) {
        debug_assert!(self.nbits < 56);
        let rest = &self.bytes[self.pos..];
        let word = match rest.first_chunk::<8>() {
            Some(word) => u64::from_le_bytes(*word),
            None => tail_word(rest),
        };
        self.acc |= word << self.nbits;
        // Whole bytes that fit above the buffered bits, and exist.
        let take = ((63 - self.nbits) as usize / 8).min(rest.len());
        self.pos += take;
        self.nbits += take as u32 * 8;
    }

    /// Drops the next `n` buffered bits (`n < 64`).
    fn consume(&mut self, n: u32) {
        assert!(n <= self.nbits, "truncated chunk");
        self.acc >>= n;
        self.nbits -= n;
    }

    /// Reads the next `n` bits (`n <= 56`).
    fn read_short(&mut self, n: u32) -> u64 {
        if self.nbits < n {
            self.refill();
        }
        let v = self.acc & ((1u64 << n) - 1);
        self.consume(n);
        v
    }

    /// Reads the next `n` bits (`n <= 64`); more than 56 take two reads.
    fn read(&mut self, n: u32) -> u64 {
        if n > 56 {
            let lo = self.read_short(32);
            lo | self.read_short(n - 32) << 32
        } else {
            self.read_short(n)
        }
    }

    /// Reads one residual written by [`write_residual`], taking its
    /// 1 + 6-bit header in one step.
    #[inline(always)]
    fn read_residual(&mut self) -> i64 {
        if self.nbits < 56 {
            self.refill();
        }
        let head = self.acc;
        if head & 1 == 0 {
            self.consume(1);
            return 0;
        }
        let len = (head >> 1 & 0x3f) as u32 + 1;
        let z = if len + 6 <= self.nbits {
            // Header and body are both buffered: one shift drops both.
            let body = head >> 7 & ((1u64 << (len - 1)) - 1);
            self.acc >>= len + 6;
            self.nbits -= len + 6;
            body
        } else {
            self.consume(7);
            self.read(len - 1)
        };
        unzigzag(z | 1u64 << (len - 1))
    }
}

/// The chunk's last 1–7 bytes (or none) as a zero-padded little-endian
/// word, read one byte at a time.
#[cold]
fn tail_word(rest: &[u8]) -> u64 {
    rest.iter()
        .rev()
        .fold(0, |word, &b| word << 8 | u64::from(b))
}

/// Maps a signed residual to its unsigned bit payload (zigzag).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes one zigzagged residual: `0` for zero, else `1` + 6-bit
/// length-minus-one + the value's bits below the implied leading one,
/// in one push when the whole field fits a word.
#[inline(always)]
fn write_residual(out: &mut BitWriter, v: i64) {
    let z = zigzag(v);
    if z == 0 {
        out.push(0, 1);
        return;
    }
    let len = 64 - z.leading_zeros();
    let head = 1 | u64::from(len - 1) << 1;
    let body = z ^ (1u64 << (len - 1));
    if len <= 58 {
        out.push(head | body << 7, len + 6);
    } else {
        out.push(head, 7);
        out.push(body, len - 1);
    }
}

/// A compressed block of one user's records plus its record count and
/// latest timestamp, which the store reads to detect out-of-order
/// appends.
///
/// Round-tripping is bit-exact: [`TraceChunk::decode_into`] reproduces
/// every timestamp and every coordinate's `f64` bit pattern verbatim.
///
/// # Examples
///
/// ```
/// use mood_geo::GeoPoint;
/// use mood_trace::store::TraceChunk;
/// use mood_trace::{Record, Timestamp};
///
/// let records = vec![
///     Record::new(GeoPoint::new(46.20, 6.14)?, Timestamp::from_unix(0)),
///     Record::new(GeoPoint::new(46.21, 6.15)?, Timestamp::from_unix(600)),
/// ];
/// let chunk = TraceChunk::encode(&records);
/// let mut back = Vec::new();
/// chunk.decode_into(&mut back);
/// assert_eq!(back, records);
/// assert_eq!(chunk.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceChunk {
    count: u32,
    max_time: Timestamp,
    bytes: Vec<u8>,
}

impl TraceChunk {
    /// Compresses `records` into a chunk. The records are stored in the
    /// given order (the store keeps per-user chunks time-sorted; the
    /// codec itself works for any order).
    ///
    /// # Panics
    ///
    /// Panics when `records` is empty — empty chunks have no latest
    /// timestamp and are never stored.
    pub fn encode(records: &[Record]) -> TraceChunk {
        assert!(!records.is_empty(), "chunks hold at least one record");
        let first = &records[0];
        let mut bits = BitWriter::with_capacity(24 + records.len() * 11);
        bits.push(first.time().as_unix() as u64, 64);
        bits.push(first.point().lat().to_bits(), 64);
        bits.push(first.point().lng().to_bits(), 64);

        let mut max_time = first.time();

        let mut prev_ts = first.time().as_unix();
        let mut prev_ts_delta = 0i64;
        let mut prev_lat = first.point().lat().to_bits();
        let mut prev_lat_delta = 0i64;
        let mut prev_lng = first.point().lng().to_bits();
        let mut prev_lng_delta = 0i64;

        for r in &records[1..] {
            let ts = r.time().as_unix();
            let lat = r.point().lat().to_bits();
            let lng = r.point().lng().to_bits();
            let ts_delta = ts.wrapping_sub(prev_ts);
            let lat_delta = lat.wrapping_sub(prev_lat) as i64;
            let lng_delta = lng.wrapping_sub(prev_lng) as i64;
            write_residual(&mut bits, ts_delta.wrapping_sub(prev_ts_delta));
            write_residual(&mut bits, lat_delta.wrapping_sub(prev_lat_delta));
            write_residual(&mut bits, lng_delta.wrapping_sub(prev_lng_delta));

            prev_ts = ts;
            prev_ts_delta = ts_delta;
            prev_lat = lat;
            prev_lat_delta = lat_delta;
            prev_lng = lng;
            prev_lng_delta = lng_delta;

            max_time = max_time.max(r.time());
        }
        let bytes = bits.finish();
        TraceChunk {
            count: u32::try_from(records.len()).expect("chunk sizes fit u32"),
            max_time,
            bytes,
        }
    }

    /// Decompresses the chunk, appending every record (in stored order)
    /// to `out`.
    pub fn decode_into(&self, out: &mut Vec<Record>) {
        out.reserve(self.count as usize);
        let mut bits = BitReader::new(&self.bytes);
        let mut ts = bits.read(64) as i64;
        let mut lat = bits.read(64);
        let mut lng = bits.read(64);
        let point = |lat_bits: u64, lng_bits: u64| {
            GeoPoint::new(f64::from_bits(lat_bits), f64::from_bits(lng_bits))
                .expect("chunk was encoded from valid points")
        };
        out.push(Record::new(point(lat, lng), Timestamp::from_unix(ts)));

        let mut ts_delta = 0i64;
        let mut lat_delta = 0i64;
        let mut lng_delta = 0i64;
        for _ in 1..self.count {
            ts_delta = ts_delta.wrapping_add(bits.read_residual());
            lat_delta = lat_delta.wrapping_add(bits.read_residual());
            lng_delta = lng_delta.wrapping_add(bits.read_residual());
            ts = ts.wrapping_add(ts_delta);
            lat = lat.wrapping_add(lat_delta as u64);
            lng = lng.wrapping_add(lng_delta as u64);
            out.push(Record::new(point(lat, lng), Timestamp::from_unix(ts)));
        }
    }

    /// Number of records in the chunk (always ≥ 1).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Always `false`: chunks hold at least one record.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Latest record timestamp in the chunk.
    pub fn max_time(&self) -> Timestamp {
        self.max_time
    }

    /// Size of the compressed payload in bytes (excluding the count and
    /// timestamp fields of the chunk struct itself).
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn rec(lat: f64, lng: f64, t: i64) -> Record {
        Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t))
    }

    fn assert_bit_exact(records: &[Record]) {
        let chunk = TraceChunk::encode(records);
        let mut back = Vec::new();
        chunk.decode_into(&mut back);
        assert_eq!(back.len(), records.len());
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.time(), b.time());
            assert_eq!(a.point().lat().to_bits(), b.point().lat().to_bits());
            assert_eq!(a.point().lng().to_bits(), b.point().lng().to_bits());
        }
    }

    #[test]
    fn roundtrip_single_record() {
        assert_bit_exact(&[rec(46.2043913, 6.1431582, 1_354_320_000)]);
    }

    #[test]
    fn roundtrip_regular_sampling() {
        let records: Vec<Record> = (0..500)
            .map(|i| rec(46.2 + i as f64 * 1e-5, 6.14 - i as f64 * 2e-5, i * 600))
            .collect();
        assert_bit_exact(&records);
    }

    #[test]
    fn roundtrip_negative_coordinates_and_times() {
        let records = vec![
            rec(-33.44, -70.66, -1000),
            rec(-33.4400001, -70.6600001, -400),
            rec(-33.45, -70.67, 0),
            rec(0.0, 0.0, 1),
            rec(-0.0, -0.0, 2),
        ];
        assert_bit_exact(&records);
    }

    #[test]
    fn roundtrip_duplicate_timestamps() {
        let records = vec![
            rec(46.2, 6.1, 100),
            rec(46.3, 6.2, 100),
            rec(46.2, 6.1, 100),
            rec(46.2, 6.1, 101),
        ];
        assert_bit_exact(&records);
    }

    #[test]
    fn summaries_match_records() {
        let records = vec![rec(46.3, 6.1, 50), rec(46.1, 6.4, 10), rec(46.2, 6.2, 90)];
        let chunk = TraceChunk::encode(&records);
        assert_eq!(chunk.len(), 3);
        assert_eq!(chunk.max_time().as_unix(), 90);
    }

    #[test]
    fn stationary_records_compress_below_half() {
        // The target regime: a dwell with GPS noise. Bit deltas carry
        // ~2×40 bits of true noise entropy; the 24-byte Record must
        // shrink to <= 12 bytes with room to spare.
        let records: Vec<Record> = (0..4096)
            .map(|i| {
                let jitter = ((i * 2_654_435_761_u64 as usize) % 1000) as f64 * 1e-7;
                rec(46.2 + jitter, 6.14 - jitter, (i as i64) * 600)
            })
            .collect();
        let chunk = TraceChunk::encode(&records);
        let per_record = chunk.encoded_bytes() as f64 / records.len() as f64;
        assert!(
            per_record <= 12.0,
            "stationary records at {per_record:.1} B/record, need <= 12"
        );
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_chunk_rejected() {
        TraceChunk::encode(&[]);
    }

    #[test]
    fn residual_extremes_roundtrip() {
        let values = [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)];
        // All in one stream, so misaligned bit boundaries are exercised.
        let mut bits = BitWriter::with_capacity(64);
        for v in values {
            write_residual(&mut bits, v);
        }
        let bytes = bits.finish();
        let mut reader = BitReader::new(&bytes);
        for v in values {
            assert_eq!(reader.read_residual(), v);
        }
    }

    #[test]
    fn bit_writer_handles_full_width_values() {
        let mut bits = BitWriter::with_capacity(32);
        bits.push(u64::MAX, 64);
        bits.push(0b101, 3);
        bits.push(u64::MAX >> 1, 63);
        let bytes = bits.finish();
        let mut reader = BitReader::new(&bytes);
        assert_eq!(reader.read(64), u64::MAX);
        assert_eq!(reader.read(3), 0b101);
        assert_eq!(reader.read(63), u64::MAX >> 1);
    }

    /// The low `n` bits of `x` (`n <= 64`).
    fn low_bits(x: u64, n: u32) -> u64 {
        x & u64::MAX.checked_shr(64 - n).unwrap_or(0)
    }

    /// A residual whose zigzag image is `len` bits long (0: the zero
    /// residual), with the bits below its leading one taken from `seed`.
    fn residual_of_len(len: u32, seed: u64) -> i64 {
        if len == 0 {
            return 0;
        }
        unzigzag(1u64 << (len - 1) | low_bits(seed, len - 1))
    }

    #[test]
    fn every_width_at_every_offset_matches_the_byte_oracle() {
        let pattern = 0x9e37_79b9_7f4a_7c15u64;
        for offset in 0..64u32 {
            for len in 0..=64u32 {
                let prefix = low_bits(pattern.rotate_left(offset), offset);
                let raw = low_bits(pattern.rotate_left(len), len);
                let v = residual_of_len(len, pattern.rotate_right(offset + len));
                let mut new = BitWriter::with_capacity(0);
                let mut old = oracle::ByteWriter::new();
                new.push(prefix, offset);
                old.push(prefix, offset);
                write_residual(&mut new, v);
                oracle::write_residual(&mut old, v);
                new.push(raw, len);
                old.push(raw, len);
                new.push(0b1011, 4);
                old.push(0b1011, 4);
                let bytes = new.finish();
                assert_eq!(bytes, old.finish(), "offset {offset}, length {len}");

                let mut reader = BitReader::new(&bytes);
                assert_eq!(reader.read(offset), prefix);
                assert_eq!(reader.read_residual(), v, "offset {offset}, length {len}");
                assert_eq!(reader.read(len), raw, "offset {offset}, width {len}");
                assert_eq!(reader.read(4), 0b1011);
                let mut oracle = oracle::ByteReader::new(&bytes);
                assert_eq!(oracle.read(offset), prefix);
                assert_eq!(oracle::read_residual(&mut oracle), v);
            }
        }
    }

    /// Records with 64-bit residuals (sign flips, timestamp extremes), so
    /// the word reader splits reads, beside short and zero ones.
    fn varied_records() -> Vec<Record> {
        vec![
            rec(46.2, 6.1, 0),
            rec(-46.2, -6.1, i64::MAX),
            rec(90.0, 180.0, i64::MIN),
            rec(-0.0, 0.0, 600),
            rec(f64::from_bits(1), -180.0, 600),
            rec(46.2, 6.1, 1_200),
            rec(46.2000001, 6.1000001, 1_800),
            rec(-90.0, -0.0, -5),
            rec(12.5, 99.25, 1 << 40),
            rec(12.5, 99.25, 1 << 40),
        ]
    }

    #[test]
    fn truncated_chunks_panic_on_both_readers() {
        let records = varied_records();
        let chunk = TraceChunk::encode(&records);
        assert_eq!(chunk.bytes, oracle::encode(&records));
        for cut in 0..chunk.bytes.len() {
            let truncated = TraceChunk {
                bytes: chunk.bytes[..cut].to_vec(),
                ..chunk.clone()
            };
            let new = catch_unwind(AssertUnwindSafe(|| {
                let mut out = Vec::new();
                truncated.decode_into(&mut out);
                out
            }));
            assert!(
                new.is_err(),
                "cut at {cut} of {} bytes decoded",
                chunk.bytes.len()
            );
            let old = catch_unwind(|| oracle::decode(&chunk.bytes[..cut], records.len()));
            assert!(old.is_err(), "oracle decoded a cut at {cut}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A value in `[-limit, limit]` chosen by `kind` so residuals reach
    /// every length: uniform draws, the edges ±0.0 and ±limit and their
    /// neighbouring ulps, the previous value with its sign flipped (its
    /// bit image moves by about 2⁶³), a few ulps from it, the same value
    /// again, or GPS-like motion.
    fn coordinate(kind: u64, raw: u64, prev: f64, limit: f64) -> f64 {
        let ulps = raw % 4;
        let unit = (raw >> 11) as f64 / (1u64 << 53) as f64;
        match kind % 6 {
            0 => unit * 2.0 * limit - limit,
            1 => {
                let edge = [0.0, -0.0, limit, -limit][(raw >> 2) as usize % 4];
                if edge == 0.0 {
                    // Away from zero, into the subnormals.
                    f64::from_bits(edge.to_bits() + ulps)
                } else {
                    // Toward zero, inside the range.
                    f64::from_bits(edge.to_bits() - ulps)
                }
            }
            2 => -prev,
            3 => {
                let bits = prev.to_bits();
                let stepped = f64::from_bits(if raw & 4 == 0 {
                    bits.wrapping_add(ulps)
                } else {
                    bits.wrapping_sub(ulps)
                });
                if stepped.abs() <= limit {
                    stepped
                } else {
                    prev
                }
            }
            4 => prev,
            _ => (prev + (unit - 0.5) * 1e-3).clamp(-limit, limit),
        }
    }

    /// A timestamp chosen by `kind`: near `i64::MIN` or `i64::MAX`, a
    /// regular step or a duplicate of the previous one, or any `i64`.
    fn timestamp(kind: u64, raw: u64, prev: i64) -> i64 {
        match kind % 5 {
            0 => i64::MIN + (raw % 1024) as i64,
            1 => i64::MAX - (raw % 1024) as i64,
            2 => prev.wrapping_add(30),
            3 => raw as i64,
            _ => prev,
        }
    }

    /// Chunks of 1..=600 records over the whole valid range.
    fn arb_full_range_records() -> impl Strategy<Value = Vec<Record>> {
        let draw = 0u64..u64::MAX;
        collection::vec((draw.clone(), draw.clone(), draw.clone(), draw), 1..601).prop_map(
            |draws| {
                let (mut lat, mut lng, mut t) = (0.0f64, 0.0f64, 0i64);
                draws
                    .into_iter()
                    .map(|(kinds, lat_raw, lng_raw, t_raw)| {
                        lat = coordinate(kinds, lat_raw, lat, 90.0);
                        lng = coordinate(kinds >> 8, lng_raw, lng, 180.0);
                        t = timestamp(kinds >> 16, t_raw, t);
                        Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t))
                    })
                    .collect()
            },
        )
    }

    fn assert_same_bits(got: &[Record], want: &[Record]) {
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.time(), b.time());
            assert_eq!(a.point().lat().to_bits(), b.point().lat().to_bits());
            assert_eq!(a.point().lng().to_bits(), b.point().lng().to_bits());
        }
    }

    proptest! {
        #[test]
        fn codec_matches_byte_oracle_over_full_range(records in arb_full_range_records()) {
            let chunk = TraceChunk::encode(&records);
            prop_assert_eq!(&chunk.bytes, &oracle::encode(&records));
            let mut back = Vec::new();
            chunk.decode_into(&mut back);
            assert_same_bits(&back, &records);
            assert_same_bits(&oracle::decode(&chunk.bytes, records.len()), &records);
        }
    }
}
