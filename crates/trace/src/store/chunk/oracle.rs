//! The byte-at-a-time codec that the word-at-a-time [`BitWriter`] and
//! [`BitReader`](super::BitReader) replaced, kept as the test oracle:
//! the same residual format, written and read one byte and one field at
//! a time. [`encode`] and [`decode`] are the chunk payload's old
//! encoder and decoder.
//!
//! [`BitWriter`]: super::BitWriter

use mood_geo::GeoPoint;

use super::{unzigzag, zigzag};
use crate::{Record, Timestamp};

/// Little-endian bit-stream writer; values are packed LSB-first and
/// flushed a byte at a time.
pub(super) struct ByteWriter {
    bytes: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl ByteWriter {
    pub(super) fn new() -> ByteWriter {
        ByteWriter {
            bytes: Vec::new(),
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `n` bits of `bits` (`n <= 64`).
    pub(super) fn push(&mut self, bits: u64, n: u32) {
        if n > 32 {
            self.push_raw(bits & 0xFFFF_FFFF, 32);
            self.push_raw(bits >> 32, n - 32);
        } else {
            self.push_raw(bits, n);
        }
    }

    fn push_raw(&mut self, bits: u64, n: u32) {
        assert!(n <= 32 && (n == 32 || bits >> n == 0));
        self.acc |= bits << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.bytes.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    pub(super) fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.bytes.push((self.acc & 0xff) as u8);
        }
        self.bytes
    }
}

/// Reader matching [`ByteWriter`]'s packing, a byte at a time.
///
/// # Panics
///
/// Panics on truncated input (the slice index runs out).
pub(super) struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> ByteReader<'a> {
    pub(super) fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Reads the next `n` bits (`n <= 64`).
    pub(super) fn read(&mut self, n: u32) -> u64 {
        if n > 32 {
            let lo = self.read_raw(32);
            lo | (self.read_raw(n - 32) << 32)
        } else {
            self.read_raw(n)
        }
    }

    fn read_raw(&mut self, n: u32) -> u64 {
        assert!(n <= 32);
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

/// Writes one zigzagged residual field by field: `0` for zero, else
/// `1`, the 6-bit length-minus-one, then the bits below the implied
/// leading one.
pub(super) fn write_residual(out: &mut ByteWriter, v: i64) {
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

/// Inverse of [`write_residual`], field by field.
pub(super) fn read_residual(input: &mut ByteReader<'_>) -> i64 {
    if input.read(1) == 0 {
        return 0;
    }
    let len = input.read(6) as u32 + 1;
    let z = input.read(len - 1) | (1u64 << (len - 1));
    unzigzag(z)
}

/// The payload bytes of a chunk holding `records` (non-empty).
pub(super) fn encode(records: &[Record]) -> Vec<u8> {
    let first = &records[0];
    let mut bits = ByteWriter::new();
    bits.push(first.time().as_unix() as u64, 64);
    bits.push(first.point().lat().to_bits(), 64);
    bits.push(first.point().lng().to_bits(), 64);

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
    }
    bits.finish()
}

/// Decodes `count` records (≥ 1) from a chunk payload.
pub(super) fn decode(bytes: &[u8], count: usize) -> Vec<Record> {
    let mut out = Vec::with_capacity(count);
    let mut bits = ByteReader::new(bytes);
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
    for _ in 1..count {
        ts_delta = ts_delta.wrapping_add(read_residual(&mut bits));
        lat_delta = lat_delta.wrapping_add(read_residual(&mut bits));
        lng_delta = lng_delta.wrapping_add(read_residual(&mut bits));
        ts = ts.wrapping_add(ts_delta);
        lat = lat.wrapping_add(lat_delta as u64);
        lng = lng.wrapping_add(lng_delta as u64);
        out.push(Record::new(point(lat, lng), Timestamp::from_unix(ts)));
    }
    out
}
