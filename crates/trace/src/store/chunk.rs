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

/// Little-endian bit-stream writer; values are packed LSB-first.
struct BitWriter {
    bytes: Vec<u8>,
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

    /// Appends the low `n` bits of `bits` (`n <= 64`).
    fn push(&mut self, bits: u64, n: u32) {
        if n > 32 {
            self.push_raw(bits & 0xFFFF_FFFF, 32);
            self.push_raw(bits >> 32, n - 32);
        } else {
            self.push_raw(bits, n);
        }
    }

    fn push_raw(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 32 && (n == 32 || bits >> n == 0));
        self.acc |= bits << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.bytes.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.bytes.push((self.acc & 0xff) as u8);
        }
        self.bytes.shrink_to_fit();
        self.bytes
    }
}

/// Reader matching [`BitWriter`]'s packing.
///
/// # Panics
///
/// Panics on truncated input — chunks are only decoded from buffers
/// this module produced, so truncation is a logic error, not bad data.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
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

    /// Reads the next `n` bits (`n <= 64`).
    fn read(&mut self, n: u32) -> u64 {
        if n > 32 {
            let lo = self.read_raw(32);
            lo | (self.read_raw(n - 32) << 32)
        } else {
            self.read_raw(n)
        }
    }

    fn read_raw(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 32);
        while self.nbits < n {
            self.acc |= u64::from(self.bytes[self.pos]) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
        let v = self.acc & ((1u64 << n) - 1);
        self.acc >>= n;
        self.nbits -= n;
        v
    }
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
/// length-minus-one + the value's bits below the implied leading one.
fn write_residual(out: &mut BitWriter, v: i64) {
    let z = zigzag(v);
    if z == 0 {
        out.push(0, 1);
    } else {
        let len = 64 - z.leading_zeros();
        out.push(1, 1);
        out.push(u64::from(len - 1), 6);
        out.push(z ^ (1u64 << (len - 1)), len - 1);
    }
}

/// Inverse of [`write_residual`].
fn read_residual(input: &mut BitReader<'_>) -> i64 {
    if input.read(1) == 0 {
        return 0;
    }
    let len = input.read(6) as u32 + 1;
    let z = input.read(len - 1) | (1u64 << (len - 1));
    unzigzag(z)
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
            ts_delta = ts_delta.wrapping_add(read_residual(&mut bits));
            lat_delta = lat_delta.wrapping_add(read_residual(&mut bits));
            lng_delta = lng_delta.wrapping_add(read_residual(&mut bits));
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
            assert_eq!(read_residual(&mut reader), v);
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
}
