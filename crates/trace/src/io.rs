//! CSV and JSON input/output for mobility datasets.
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
//! Two readers share one row parser (so they agree on every error and
//! line number): [`read_csv`] decodes the whole file into an in-memory
//! [`Dataset`], while [`stream_csv`] feeds rows straight into a
//! compressed [`TraceStore`](crate::store::TraceStore) without ever
//! materializing the corpus — the path for files whose decoded form
//! exceeds RAM.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use mood_geo::GeoPoint;

use crate::store::{StoreConfig, TraceStore};
use crate::{Dataset, Record, Result, Timestamp, Trace, TraceError, UserId};

/// Header written by [`write_csv`] and recognized (and skipped) by
/// [`read_csv`].
pub const CSV_HEADER: &str = "user_id,lat,lng,timestamp";

/// Parses one non-empty CSV row into a user id and record. `line_no` is
/// 1-based and only used for error messages. Shared by [`read_csv`] and
/// [`stream_csv`] so both report identical errors.
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

/// Drives the shared line loop: reads lines into one reused buffer (no
/// per-line `String` allocation), skips blanks and an optional header,
/// and hands each parsed row to `sink`.
fn for_each_row<R, F>(reader: R, mut sink: F) -> Result<()>
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
    let mut by_user: BTreeMap<UserId, Vec<Record>> = BTreeMap::new();
    for_each_row(reader, |user, record| {
        by_user.entry(user).or_default().push(record);
    })?;
    let mut ds = Dataset::new();
    for (user, records) in by_user {
        ds.insert(Trace::new(user, records)?)?;
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
/// line numbers (both readers share one row parser).
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

/// Serializes a dataset to pretty JSON.
///
/// # Errors
///
/// Returns [`TraceError::Io`] if serialization fails (it cannot for valid
/// datasets).
pub fn to_json(dataset: &Dataset) -> Result<String> {
    serde_json::to_string_pretty(dataset).map_err(|e| TraceError::Io(std::io::Error::other(e)))
}

/// Deserializes a dataset from JSON produced by [`to_json`].
///
/// # Errors
///
/// Returns [`TraceError::Parse`] (line 0) when the JSON is malformed or
/// violates dataset invariants.
pub fn from_json(json: &str) -> Result<Dataset> {
    serde_json::from_str(json).map_err(|e| TraceError::Parse {
        line: 0,
        message: e.to_string(),
    })
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

    #[test]
    fn json_roundtrip() {
        let ds = sample_dataset();
        let json = to_json(&ds).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(matches!(
            from_json("{not json"),
            Err(TraceError::Parse { .. })
        ));
    }
}
