//! CSV input/output for mobility datasets.
//!
//! The CSV format is the one most public mobility datasets ship in —
//! one record per line:
//!
//! ```text
//! user_id,lat,lng,timestamp
//! 1,46.204391,6.143158,1354320000
//! ```
//!
//! Timestamps are Unix seconds. Rows may appear in any order; traces are
//! sorted at construction. The header line is optional on input and always
//! written on output.
//!
//! Two readers share one row loop (so they agree on every error and
//! line number): [`read_csv`] decodes the whole file into an in-memory
//! [`Dataset`], while [`stream_csv`] feeds rows straight into a
//! compressed [`TraceStore`](crate::store::TraceStore) without ever
//! materializing the corpus — the path for files whose decoded form
//! exceeds RAM.
//!
//! The loop reads each line once from a block-buffered byte stream. A
//! row in the canonical shape (plain digit runs and decimals, as
//! [`write_csv`] and most exports write them) is scanned and converted
//! in that one pass, its coordinates exactly as `str::parse::<f64>`
//! rounds them. Every other line, from the header and blank lines to
//! every malformed row, takes the general path: UTF-8 check, `trim`,
//! split at `,` and `str::parse` per field. That path owns every error
//! message.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

use mood_geo::GeoPoint;

use crate::store::{StoreConfig, TraceStore};
use crate::{Dataset, Record, Result, Timestamp, Trace, TraceError, UserId};

mod scan;

/// Header written by [`write_csv`] and recognized (and skipped) by
/// [`read_csv`].
pub const CSV_HEADER: &str = "user_id,lat,lng,timestamp";

/// Bytes the row loop asks its reader for at a time.
const BLOCK_BYTES: usize = 64 * 1024;

/// Parses one non-empty CSV row into a user id and record. `line_no` is
/// 1-based and only used for error messages.
fn parse_row(trimmed: &str, line_no: usize) -> Result<(UserId, Record)> {
    let mut fields = trimmed.split(',');
    let (user, lat, lng, ts) = match (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) {
        (Some(u), Some(a), Some(o), Some(t), None) => (u, a, o, t),
        (Some(_), Some(_), Some(_), Some(_), Some(_)) => {
            let count = 5 + fields.count();
            return Err(TraceError::Parse {
                line: line_no,
                message: format!("expected 4 comma-separated fields, got {count} in '{trimmed}'"),
            });
        }
        _ => {
            return Err(TraceError::Parse {
                line: line_no,
                message: format!("expected 4 comma-separated fields, got '{trimmed}'"),
            })
        }
    };
    let user: u64 = user.trim().parse().map_err(|_| TraceError::Parse {
        line: line_no,
        message: format!("invalid user id '{user}'"),
    })?;
    let lat: f64 = lat.trim().parse().map_err(|_| TraceError::Parse {
        line: line_no,
        message: format!("invalid latitude '{lat}'"),
    })?;
    let lng: f64 = lng.trim().parse().map_err(|_| TraceError::Parse {
        line: line_no,
        message: format!("invalid longitude '{lng}'"),
    })?;
    let ts: i64 = ts.trim().parse().map_err(|_| TraceError::Parse {
        line: line_no,
        message: format!("invalid timestamp '{ts}'"),
    })?;
    let point = GeoPoint::new(lat, lng).map_err(|e| TraceError::Parse {
        line: line_no,
        message: e.to_string(),
    })?;
    Ok((
        UserId::new(user),
        Record::new(point, Timestamp::from_unix(ts)),
    ))
}

/// Hands one whole line, with its `\n` if it has one, to `sink`. A
/// canonical row is scanned in place. Any other line takes the general
/// path, which owns every error: a UTF-8 check that fails as `read_line`
/// fails, `trim`, blank lines and a line-1 header skipped, then
/// [`parse_row`].
fn parse_line<F>(line: &[u8], line_no: usize, sink: &mut F) -> Result<()>
where
    F: FnMut(UserId, Record),
{
    if let Ok((user, record, _)) = scan::row(line) {
        sink(user, record);
        return Ok(());
    }
    let text = std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    let trimmed = text.trim();
    if trimmed.is_empty() || (line_no == 1 && trimmed.eq_ignore_ascii_case(CSV_HEADER)) {
        return Ok(());
    }
    let (user, record) = parse_row(trimmed, line_no)?;
    sink(user, record);
    Ok(())
}

fn newline(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'\n')
}

/// The shared row loop: reads each line once from blocks of the byte
/// stream and hands each row to `sink`, in line order. Canonical rows
/// are scanned in place, one after the other; a line the scanner stops
/// on goes whole to [`parse_line`]. A line that straddles two blocks is
/// copied into one reused carry buffer, and its newline search resumes
/// in the next block, so time stays linear in the input however the
/// reader splits it. (The header never has the canonical shape, so
/// line 1 needs no special case.)
fn for_each_row<R, F>(reader: R, mut sink: F) -> Result<()>
where
    R: Read,
    F: FnMut(UserId, Record),
{
    let mut reader = BufReader::with_capacity(BLOCK_BYTES, reader);
    let mut carry = Vec::new();
    let mut line_no = 0usize;
    loop {
        let block = match reader.fill_buf() {
            Ok(block) => block,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let len = block.len();
        if len == 0 {
            // End of input: a carried line is the last one, without a
            // newline.
            if !carry.is_empty() {
                line_no += 1;
                parse_line(&carry, line_no, &mut sink)?;
            }
            return Ok(());
        }
        let mut at = 0;
        if !carry.is_empty() {
            let Some(nl) = newline(block) else {
                carry.extend_from_slice(block);
                reader.consume(len);
                continue;
            };
            at = nl + 1;
            carry.extend_from_slice(&block[..at]);
            line_no += 1;
            parse_line(&carry, line_no, &mut sink)?;
            carry.clear();
        }
        while at < len {
            let rest = &block[at..];
            match scan::row(rest) {
                Ok((user, record, used)) => {
                    line_no += 1;
                    sink(user, record);
                    at += used;
                }
                Err(stop) => match newline(&rest[stop..]) {
                    Some(nl) => {
                        let end = stop + nl + 1;
                        line_no += 1;
                        parse_line(&rest[..end], line_no, &mut sink)?;
                        at += end;
                    }
                    None => {
                        carry.extend_from_slice(rest);
                        at = len;
                    }
                },
            }
        }
        reader.consume(len);
    }
}

/// Reads a dataset from CSV text (see module docs for the format).
///
/// # Errors
///
/// Returns [`TraceError::Parse`] with a 1-based line number for malformed
/// rows, invalid coordinates or non-integer timestamps, and
/// [`TraceError::Io`] for underlying read failures.
///
/// # Examples
///
/// ```
/// let csv = "user_id,lat,lng,timestamp\n1,46.2,6.14,0\n1,46.3,6.15,600\n";
/// let ds = mood_trace::io::read_csv(csv.as_bytes())?;
/// assert_eq!(ds.user_count(), 1);
/// assert_eq!(ds.record_count(), 2);
/// # Ok::<(), mood_trace::TraceError>(())
/// ```
pub fn read_csv<R: Read>(reader: R) -> Result<Dataset> {
    // Each user's records in arrival order. Consecutive rows of one user
    // form a run, and a run costs one map lookup.
    let mut slots: BTreeMap<UserId, usize> = BTreeMap::new();
    let mut by_slot: Vec<Vec<Record>> = Vec::new();
    let mut run: Option<(UserId, usize)> = None;
    for_each_row(reader, |user, record| {
        let slot = match run {
            Some((u, slot)) if u == user => slot,
            _ => {
                let slot = *slots.entry(user).or_insert(by_slot.len());
                if slot == by_slot.len() {
                    by_slot.push(Vec::new());
                }
                run = Some((user, slot));
                slot
            }
        };
        by_slot[slot].push(record);
    })?;
    let mut ds = Dataset::new();
    for (user, slot) in slots {
        ds.insert(Trace::new(user, std::mem::take(&mut by_slot[slot]))?)?;
    }
    Ok(ds)
}

/// Streams CSV text into a compressed [`TraceStore`] without ever
/// holding the decoded corpus in memory: rows append into bounded
/// per-user buffers that seal into delta-compressed chunks as they
/// fill. The returned store is finished (ready for reads) and decodes
/// to exactly the dataset [`read_csv`] would produce from the same
/// input — including the stable ordering of co-timestamped rows.
///
/// # Errors
///
/// Identical to [`read_csv`]: same malformed-row messages and 1-based
/// line numbers (both readers share one row loop).
///
/// # Examples
///
/// ```
/// use mood_trace::store::StoreConfig;
///
/// let csv = "user_id,lat,lng,timestamp\n1,46.2,6.14,0\n1,46.3,6.15,600\n";
/// let store = mood_trace::io::stream_csv(csv.as_bytes(), StoreConfig::default())?;
/// assert_eq!(store.user_count(), 1);
/// assert_eq!(store.record_count(), 2);
/// # Ok::<(), mood_trace::TraceError>(())
/// ```
pub fn stream_csv<R: Read>(reader: R, config: StoreConfig) -> Result<TraceStore> {
    let mut store = TraceStore::new(config);
    for_each_row(reader, |user, record| {
        store.append(user, record);
    })?;
    store.finish();
    Ok(store)
}

/// Streams a CSV file into a compressed [`TraceStore`].
///
/// # Errors
///
/// See [`stream_csv`]; additionally fails when the file cannot be
/// opened.
pub fn stream_csv_file<P: AsRef<Path>>(path: P, config: StoreConfig) -> Result<TraceStore> {
    stream_csv(std::fs::File::open(path)?, config)
}

/// Writes `dataset` as CSV (records of each user in time order, users in
/// ascending ID order), with a header line.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on write failure.
pub fn write_csv<W: Write>(dataset: &Dataset, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{CSV_HEADER}")?;
    for trace in dataset.iter() {
        let uid = trace.user().as_u64();
        for r in trace.records() {
            // default f64 formatting is shortest-roundtrip: reading the
            // CSV back reproduces the exact coordinates
            writeln!(
                w,
                "{uid},{},{},{}",
                r.point().lat(),
                r.point().lng(),
                r.time().as_unix()
            )?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads a CSV dataset from a file path.
///
/// # Errors
///
/// See [`read_csv`]; additionally fails when the file cannot be opened.
pub fn read_csv_file<P: AsRef<Path>>(path: P) -> Result<Dataset> {
    read_csv(std::fs::File::open(path)?)
}

/// Writes a dataset to a CSV file, creating or truncating it.
///
/// # Errors
///
/// See [`write_csv`]; additionally fails when the file cannot be created.
pub fn write_csv_file<P: AsRef<Path>>(dataset: &Dataset, path: P) -> Result<()> {
    write_csv(dataset, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        let csv = "\
user_id,lat,lng,timestamp
1,46.20,6.14,0
1,46.21,6.15,600
2,45.76,4.83,100
2,45.77,4.84,700
";
        read_csv(csv.as_bytes()).unwrap()
    }

    #[test]
    fn read_basic_csv() {
        let ds = sample_dataset();
        assert_eq!(ds.user_count(), 2);
        assert_eq!(ds.record_count(), 4);
        let t1 = ds.get(UserId::new(1)).unwrap();
        assert_eq!(t1.start_time().as_unix(), 0);
    }

    #[test]
    fn read_without_header() {
        let csv = "1,46.20,6.14,0\n1,46.21,6.15,600\n";
        let ds = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(ds.record_count(), 2);
    }

    #[test]
    fn read_skips_blank_lines() {
        let csv = "1,46.20,6.14,0\n\n1,46.21,6.15,600\n\n";
        let ds = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(ds.record_count(), 2);
    }

    #[test]
    fn read_handles_crlf_lines() {
        let csv = "user_id,lat,lng,timestamp\r\n1,46.20,6.14,0\r\n1,46.21,6.15,600\r\n";
        let ds = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(ds.record_count(), 2);
    }

    #[test]
    fn read_handles_missing_final_newline() {
        let csv = "1,46.20,6.14,0\n1,46.21,6.15,600";
        let ds = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(ds.record_count(), 2);
    }

    #[test]
    fn read_sorts_out_of_order_rows() {
        let csv = "1,46.21,6.15,600\n1,46.20,6.14,0\n";
        let ds = read_csv(csv.as_bytes()).unwrap();
        let t = ds.get(UserId::new(1)).unwrap();
        assert_eq!(t.start_time().as_unix(), 0);
    }

    #[test]
    fn read_reports_line_numbers() {
        let csv = "1,46.20,6.14,0\n1,not_a_number,6.15,600\n";
        match read_csv(csv.as_bytes()) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn read_rejects_wrong_field_count() {
        let csv = "1,46.20,6.14\n";
        assert!(matches!(
            read_csv(csv.as_bytes()),
            Err(TraceError::Parse { line: 1, .. })
        ));
        let csv = "1,46.20,6.14,0,extra\n";
        assert!(matches!(
            read_csv(csv.as_bytes()),
            Err(TraceError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn read_rejects_excess_fields_with_count() {
        // The >4-field arm reports how many fields the row actually had.
        let csv = "1,46.20,6.14,0,extra,more,stuff\n";
        match read_csv(csv.as_bytes()) {
            Err(TraceError::Parse { line, message }) => {
                assert_eq!(line, 1);
                assert!(message.contains("got 7"), "message: {message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn read_rejects_invalid_coordinates() {
        let csv = "1,95.0,6.14,0\n";
        assert!(matches!(
            read_csv(csv.as_bytes()),
            Err(TraceError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn stream_csv_equals_read_csv() {
        let csv = "\
user_id,lat,lng,timestamp
1,46.20,6.14,600
1,46.21,6.15,0
2,45.76,4.83,100
1,46.22,6.16,600
2,45.77,4.84,700
";
        let ds = read_csv(csv.as_bytes()).unwrap();
        let config = StoreConfig::default().with_seal_records(2);
        let store = stream_csv(csv.as_bytes(), config).unwrap();
        assert_eq!(store.to_dataset(), ds);
    }

    #[test]
    fn stream_csv_reports_identical_errors() {
        for csv in [
            "1,46.20,6.14,0\n1,not_a_number,6.15,600\n",
            "1,46.20,6.14\n",
            "1,46.20,6.14,0,extra,more\n",
            "1,95.0,6.14,0\n",
        ] {
            let read_err = read_csv(csv.as_bytes()).unwrap_err();
            let stream_err = stream_csv(csv.as_bytes(), StoreConfig::default()).unwrap_err();
            assert_eq!(format!("{read_err:?}"), format!("{stream_err:?}"));
        }
    }

    #[test]
    fn csv_roundtrip() {
        let ds = sample_dataset();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn csv_file_roundtrip() {
        let ds = sample_dataset();
        let dir = std::env::temp_dir().join("mood_trace_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.csv");
        write_csv_file(&ds, &path).unwrap();
        let back = read_csv_file(&path).unwrap();
        assert_eq!(ds, back);
        let streamed = stream_csv_file(&path, StoreConfig::default()).unwrap();
        assert_eq!(streamed.to_dataset(), ds);
        std::fs::remove_file(&path).ok();
    }

    /// The row loop before the one-pass scanner, kept as the oracle: one
    /// `read_line` per line, then `trim` and [`parse_row`].
    fn for_each_row_by_line<R, F>(reader: R, mut sink: F) -> Result<()>
    where
        R: Read,
        F: FnMut(UserId, Record),
    {
        let mut buf = BufReader::new(reader);
        let mut line = String::new();
        let mut line_no = 0usize;
        loop {
            line.clear();
            if buf.read_line(&mut line)? == 0 {
                return Ok(());
            }
            line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || (line_no == 1 && trimmed.eq_ignore_ascii_case(CSV_HEADER)) {
                continue;
            }
            let (user, record) = parse_row(trimmed, line_no)?;
            sink(user, record);
        }
    }

    /// `read_csv` on the oracle loop, one map lookup per row.
    fn read_csv_by_line(bytes: &[u8]) -> Result<Dataset> {
        let mut by_user: BTreeMap<UserId, Vec<Record>> = BTreeMap::new();
        for_each_row_by_line(bytes, |user, record| {
            by_user.entry(user).or_default().push(record);
        })?;
        let mut ds = Dataset::new();
        for (user, records) in by_user {
            ds.insert(Trace::new(user, records)?)?;
        }
        Ok(ds)
    }

    /// A reader that hands out a few bytes per `read`, cycling through
    /// `sizes`, so rows straddle the row loop's blocks.
    struct Trickle<'a> {
        bytes: &'a [u8],
        sizes: Vec<usize>,
        reads: usize,
    }

    impl<'a> Trickle<'a> {
        fn new(bytes: &'a [u8], sizes: &[usize]) -> Self {
            Trickle {
                bytes,
                sizes: sizes.to_vec(),
                reads: 0,
            }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.sizes[self.reads % self.sizes.len()]
                .min(buf.len())
                .min(self.bytes.len());
            self.reads += 1;
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Equal outcomes: datasets with coordinates compared by bits,
    /// `Parse` errors by their `Debug` text and `Io` errors by kind and
    /// message.
    fn assert_same(got: &Result<Dataset>, want: &Result<Dataset>, what: &str) {
        match (got, want) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.user_count(), b.user_count(), "{what}");
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.user(), y.user(), "{what}");
                    assert_eq!(x.len(), y.len(), "{what}");
                    for (r, s) in x.records().iter().zip(y.records()) {
                        assert_eq!(r.time(), s.time(), "{what}");
                        let (p, q) = (r.point(), s.point());
                        assert_eq!(p.lat().to_bits(), q.lat().to_bits(), "{what}");
                        assert_eq!(p.lng().to_bits(), q.lng().to_bits(), "{what}");
                    }
                }
            }
            (Err(TraceError::Io(a)), Err(TraceError::Io(b))) => {
                assert_eq!(a.kind(), b.kind(), "{what}");
                assert_eq!(a.to_string(), b.to_string(), "{what}");
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}"),
            _ => panic!("{what}: got {got:?}, want {want:?}"),
        }
    }

    /// Both readers, whole and trickled, against the oracle; the streamed
    /// store at seal sizes 7 and 512 must decode to the same dataset.
    /// Returns whether the oracle read the corpus.
    fn assert_readers_match_oracle(bytes: &[u8], sizes: &[usize]) -> bool {
        let what = String::from_utf8_lossy(bytes);
        let want = read_csv_by_line(bytes);
        assert_same(&read_csv(bytes), &want, &what);
        assert_same(&read_csv(Trickle::new(bytes, sizes)), &want, &what);
        for seal in [7, 512] {
            let config = StoreConfig::default().with_seal_records(seal);
            let streamed = stream_csv(Trickle::new(bytes, sizes), config).map(|s| s.to_dataset());
            assert_same(&streamed, &want, &what);
        }
        want.is_ok()
    }

    #[test]
    fn readers_match_the_line_loop_on_fixed_corpora() {
        for csv in [
            &b"user_id,lat,lng,timestamp\n1,46.2,6.1,0\n1,-0,-0.0,-0\n2,0.1,0.2,-7"[..],
            b"USER_ID,LAT,LNG,TIMESTAMP\r\n1,46.2,6.1,0\r\n\r\n  \n1,46.3,6.2,60\r\n",
            b"\nuser_id,lat,lng,timestamp\n1,46.2,6.1,0\n",
            b"1,46.2,6.1,0\nuser_id,lat,lng,timestamp\n",
            b" 1 ,\t46.2, +6.1 ,+600\n\xc2\xa01,46.,.5,0\xe3\x80\x80\n",
            b"+1,4.62e1,6.1E0,0\n00000000000000000001,46.20000000000000000000001,6,1\n",
            b"18446744073709551615,0.0000000000000000001,-0.1000000000000000000,1\n",
            b"18446744073709551616,46.2,6.1,0\n",
            b"1,46.2,6.1,0\n1,,6.1,0\n",
            b"1,46.2,6.1\n",
            b"1,46.2,6.1,0,5,6\n",
            b"1,95.5,6.1,0\n",
            b"1,46.2,-180.000000001,0\n",
            b"1,NaN,6.1,0\n",
            b"1,46.2,inf,0\n",
            b"1,46.2,6.1,0\n1,46\xff.2,6.1,0\n1,x,6.1,0\n",
            b"1,46.2,6.1,0\n1,x,6.1,0\n1,46\xff.2,6.1,0\n",
            b"1,46.2,6.1,0\r\r\n",
            b"1,46.2,6.1,0\r",
            b"-1,46.2,6.1,0\n",
            b"1,46.2,6.1,1234567890123456789\n",
            b"1,46.2,6.1,9999999999999999999\n",
            b"1,46.2,6.1,-9223372036854775809\n",
            b"9999999999999999999,46.2,6.1,-000000000000000000000001\n",
            b"",
            b"\n\n",
        ] {
            for sizes in [&[1][..], &[3, 1, 7], &[5, 2]] {
                assert_readers_match_oracle(csv, sizes);
            }
        }
    }

    /// Uniform draws below a bound from the shim's seeded RNG.
    fn draws(case: u64) -> impl FnMut(u64) -> u64 {
        use proptest::Strategy;
        let mut rng = proptest::deterministic_rng("csv_corpus", case);
        move |below| (0..below).generate(&mut rng)
    }

    /// A coordinate as CSV exports carry it: a shortest round-trip
    /// print, six decimals or an integer.
    fn coordinate(draw: &mut impl FnMut(u64) -> u64, bound: f64) -> String {
        let x = (draw(1 << 53) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * bound;
        match draw(4) {
            0 => format!("{x:.6}"),
            1 => format!("{}", x.trunc()),
            _ => format!("{x}"),
        }
    }

    /// A seeded corpus: canonical rows of a few users in runs, an
    /// optional (mis-cased, padded) header, and per-row mutations that
    /// the general path accepts, plus, in half the corpora, ones that
    /// it rejects.
    fn corpus(draw: &mut impl FnMut(u64) -> u64) -> Vec<u8> {
        const PADS: [&str; 4] = [" ", "\t", "\u{a0}", "\u{3000}"];
        let mut out = Vec::new();
        match draw(4) {
            0 => out.extend_from_slice(b"user_id,lat,lng,timestamp\n"),
            1 => out.extend_from_slice(b"USER_ID,Lat,LNG,TimeStamp\r\n"),
            2 => out.extend_from_slice(b" user_id,lat,lng,timestamp\t\n"),
            _ => {}
        }
        let faulty = draw(2) == 0;
        let mut user = draw(6);
        for _ in 0..draw(40) {
            if draw(3) == 0 {
                user = draw(6);
            }
            let ts = draw(4_000_000_000) as i64 - 2_000_000_000;
            let mut fields = vec![
                user.to_string(),
                coordinate(draw, 90.0),
                coordinate(draw, 180.0),
                ts.to_string(),
            ];
            let f = draw(4) as usize;
            let coord = 1 + draw(2) as usize;
            let mut end = "\n";
            if faulty && draw(10) == 0 {
                match draw(8) {
                    0 => fields[f].clear(),
                    1 => drop(fields.pop()),
                    2 => fields.extend((0..=draw(3)).map(|i| i.to_string())),
                    3 => {
                        fields[coord] = ["95.5", "-90.01", "180.5", "-181"][draw(4) as usize].into()
                    }
                    4 => {
                        fields[coord] = ["NaN", "inf", "-infinity", "nan"][draw(4) as usize].into()
                    }
                    5 => {
                        let (field, text) = [
                            (0, "99999999999999999999"),
                            (0, "-5"),
                            (0, "1.0"),
                            (3, "9223372036854775808"),
                            (3, "-9999999999999999999"),
                        ][draw(5) as usize];
                        fields[field] = text.into();
                    }
                    6 => fields[f] = "x7".into(),
                    _ => fields = CSV_HEADER.split(',').map(String::from).collect(),
                }
            } else if draw(3) == 0 {
                match draw(10) {
                    0 => {
                        let pad = PADS[draw(4) as usize];
                        fields[f] = match draw(3) {
                            0 => format!("{pad}{}", fields[f]),
                            1 => format!("{}{pad}", fields[f]),
                            _ => format!("{pad}{}{pad}", fields[f]),
                        };
                    }
                    1 if !fields[f].starts_with('-') => fields[f].insert(0, '+'),
                    2 => fields[coord] = format!("{:e}", fields[coord].parse::<f64>().unwrap()),
                    3 => {
                        fields[coord] = format!("{}.", fields[coord].parse::<f64>().unwrap() as i64)
                    }
                    4 => fields[coord] = format!(".{}", draw(1_000_000)),
                    5 if fields[coord].contains('.') => {
                        fields[coord].push_str("000000000000000000001")
                    }
                    6 => fields[0] = format!("{user:020}"),
                    7 => {
                        let at = usize::from(fields[coord].starts_with('-'));
                        fields[coord].insert_str(at, "00");
                    }
                    8 => end = "\r\n",
                    _ => out.extend_from_slice(
                        ["\n", "  \r\n", "\u{3000}\n"][draw(3) as usize].as_bytes(),
                    ),
                }
            }
            let mut line = fields.join(",").into_bytes();
            if faulty && draw(40) == 0 {
                let at = draw(line.len() as u64 + 1) as usize;
                line.insert(at, [0xff, 0xc3, 0x80][draw(3) as usize]);
            }
            out.extend_from_slice(&line);
            out.extend_from_slice(end.as_bytes());
        }
        if draw(4) == 0 {
            while out.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                out.pop();
            }
        }
        out
    }

    #[test]
    fn readers_match_the_line_loop_on_seeded_corpora() {
        let (mut ok, mut failed) = (0, 0);
        for case in 0..256 {
            let mut draw = draws(case);
            let bytes = corpus(&mut draw);
            let sizes: Vec<usize> = (0..=draw(6)).map(|_| 1 + draw(7) as usize).collect();
            if assert_readers_match_oracle(&bytes, &sizes) {
                ok += 1;
            } else {
                failed += 1;
            }
        }
        // Both paths of the oracle are well represented.
        assert!(ok >= 64 && failed >= 64, "{ok} ok, {failed} failed");
    }

    #[test]
    fn megabyte_rows_without_newline_read_in_linear_time() {
        // A scanner that rescanned its carried prefix at every 1-byte
        // read would make about 5·10^11 byte visits here.
        for fill in [b'7', b','] {
            let bytes = vec![fill; 1 << 20];
            let want = read_csv_by_line(&bytes);
            assert!(matches!(want, Err(TraceError::Parse { line: 1, .. })));
            assert_same(&read_csv(Trickle::new(&bytes, &[1])), &want, "megabyte row");
            let streamed = stream_csv(Trickle::new(&bytes, &[1]), StoreConfig::default());
            assert_same(&streamed.map(|s| s.to_dataset()), &want, "megabyte row");
        }
    }
}
