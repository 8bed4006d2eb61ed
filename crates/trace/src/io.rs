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
//! compressed [`TraceStore`] without ever materializing the corpus —
//! the path for files whose decoded form exceeds RAM.
//!
//! The loop parses blocks of whole lines on every core. The calling
//! thread reads blocks of about 64 KiB and cuts each after its last
//! `\n`; the partial line behind the cut opens the next block. Helper
//! threads, one per core up to a small cap, parse whole blocks, and the
//! calling thread hands their rows to the reader's sink strictly in file
//! order, so the dataset, every store chunk and the first error with its
//! line number are the same at any core count. A few blocks are in
//! flight at a time, each in a buffer the calling thread allocated and
//! recycles, so memory stays bounded however long the input is. On one
//! core, or when the input fits one block, the calling thread parses
//! every block itself and starts no thread.
//!
//! Within a block each line is read once. A row in the canonical shape
//! (plain digit runs and decimals, as [`write_csv`] and most exports
//! write them) is scanned and converted in that one pass, its
//! coordinates exactly as `str::parse::<f64>` rounds them. Every other
//! line, from the header and blank lines to every malformed row, takes
//! the general path: UTF-8 check, `trim`, split at `,` and `str::parse`
//! per field. That path owns every error message.

use std::any::Any;
use std::collections::BTreeMap;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Mutex;
use std::thread;

use mood_geo::GeoPoint;

use crate::store::{StoreConfig, TraceStore};
use crate::{Dataset, Record, Result, Timestamp, Trace, TraceError, UserId};

mod scan;

/// Header written by [`write_csv`] and recognized (and skipped) by
/// [`read_csv`].
pub const CSV_HEADER: &str = "user_id,lat,lng,timestamp";

/// Bytes the row loop reads into a block before cutting it after its
/// last `\n`.
const BLOCK_BYTES: usize = 64 * 1024;

/// Most helper threads the row loop parses blocks on.
const MAX_HELPERS: usize = 4;

/// Why sending to the helpers cannot fail: their receiving end lives
/// until the scope that runs them has joined them.
const QUEUE_OPEN: &str = "the helpers' queue outlives the loop";

/// How the row loop spreads its input: the bytes it reads per block and
/// the helper threads that parse blocks. Only tests choose other values
/// than [`Spread::host`].
#[derive(Clone, Copy, Debug)]
struct Spread {
    block_bytes: usize,
    helpers: usize,
}

impl Spread {
    /// 64 KiB blocks and one helper per core, up to [`MAX_HELPERS`]; on
    /// one core no helper, and the calling thread parses every block.
    fn host() -> Spread {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        Spread {
            block_bytes: BLOCK_BYTES,
            helpers: if cores > 1 { cores.min(MAX_HELPERS) } else { 0 },
        }
    }
}

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

/// The general path for one whole line, with its `\n` if it has one:
/// the line the scanner stopped on. It owns every error: a UTF-8 check
/// that fails as `read_line` fails, `trim`, blank lines skipped and the
/// header skipped on the input's first line (`first`), then
/// [`parse_row`].
fn parse_line<F>(line: &[u8], line_no: usize, first: bool, sink: &mut F) -> Result<()>
where
    F: FnMut(UserId, Record),
{
    let text = std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    let trimmed = text.trim();
    if trimmed.is_empty() || (first && trimmed.eq_ignore_ascii_case(CSV_HEADER)) {
        return Ok(());
    }
    let (user, record) = parse_row(trimmed, line_no)?;
    sink(user, record);
    Ok(())
}

fn newline(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'\n')
}

/// Parses the lines of `block` in order, hands each row to `sink` and
/// returns how many lines the block held. Canonical rows are scanned in
/// place, one after the other; a line the scanner stops on goes whole
/// to [`parse_line`]. Only the input's last line may lack its `\n`.
/// `first` marks the block the input starts with, the only one whose
/// line 1 may be the header. A [`TraceError::Parse`] numbers its line
/// within the block.
fn parse_block<F>(block: &[u8], first: bool, sink: &mut F) -> Result<usize>
where
    F: FnMut(UserId, Record),
{
    let (mut at, mut lines) = (0, 0);
    while at < block.len() {
        let rest = &block[at..];
        lines += 1;
        match scan::row(rest) {
            Ok((user, record, used)) => {
                sink(user, record);
                at += used;
            }
            Err(stop) => {
                let end = newline(&rest[stop..]).map_or(rest.len(), |nl| stop + nl + 1);
                parse_line(&rest[..end], lines, first && lines == 1, sink)?;
                at += end;
            }
        }
    }
    Ok(lines)
}

/// Numbers a block's parse error within the input, whose first
/// `before` lines precede the block.
fn renumber(e: TraceError, before: usize) -> TraceError {
    match e {
        TraceError::Parse { line, message } => TraceError::Parse {
            line: before + line,
            message,
        },
        other => other,
    }
}

/// How the input stands after a block.
enum Next {
    /// More input may follow.
    More,
    /// The input ended with the block.
    End,
    /// The reader failed after the block, which holds the whole lines
    /// read before the failure.
    Failed(std::io::Error),
}

/// The reading side of the row loop, on the calling thread: fills
/// blocks from `reader` and cuts each after its last `\n`.
struct Blocks<R> {
    reader: R,
    block_bytes: usize,
    /// The partial line behind the last cut, which opens the next block;
    /// it holds no `\n`.
    carry: Vec<u8>,
}

impl<R: Read> Blocks<R> {
    /// Fills `block` with whole lines: the carried partial line, then
    /// input until the block holds `block_bytes` bytes and a `\n` past
    /// the carry, or the input ends. A block without a `\n` doubles
    /// until one arrives, and the search for it visits each byte once,
    /// so time stays linear in the input however the reader splits it.
    fn fill(&mut self, block: &mut Vec<u8>) -> Next {
        block.clear();
        block.append(&mut self.carry);
        // `block[..searched]` holds no `\n`; `block[..filled]` is input.
        let (mut searched, mut filled) = (block.len(), block.len());
        block.resize(self.block_bytes.max(filled + 1), 0);
        loop {
            if filled == block.len() {
                if let Some(nl) = block[searched..].iter().rposition(|&b| b == b'\n') {
                    let cut = searched + nl + 1;
                    self.carry.extend_from_slice(&block[cut..]);
                    block.truncate(cut);
                    return Next::More;
                }
                searched = filled;
                block.resize(2 * filled, 0);
            }
            match self.reader.read(&mut block[filled..]) {
                Ok(0) => {
                    block.truncate(filled);
                    return Next::End;
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    // The partial line behind the last `\n` is lost, as
                    // it is to `read_line`.
                    let cut = block[searched..filled]
                        .iter()
                        .rposition(|&b| b == b'\n')
                        .map_or(0, |nl| searched + nl + 1);
                    block.truncate(cut);
                    return Next::Failed(e);
                }
            }
        }
    }
}

/// A block on its way to a helper and back: its place in the input, its
/// bytes, the row buffer the helper fills and what the helper made of
/// it.
#[derive(Default)]
struct Job {
    seq: usize,
    block: Vec<u8>,
    rows: Vec<(UserId, Record)>,
    parsed: Option<Parsed>,
}

/// What a helper made of a block.
enum Parsed {
    /// The row buffer had room for fewer rows than the block holds, and
    /// this many: the calling thread grows the buffer and sends the
    /// block again. A buffer is short at its first use in a read, and
    /// after that only for a block with more rows than any before it.
    Short(usize),
    /// The block's line count, or its first error.
    Lines(Result<usize>),
    /// The helper's panic, which resumes on the calling thread.
    Panicked(Box<dyn Any + Send>),
}

/// The shared row loop: hands each row of `reader` to `sink` in file
/// order. The calling thread reads and cuts blocks ([`Blocks`]). When
/// the input outgrows one block and `spread` has helpers, they parse
/// the blocks ([`on_helpers`]); otherwise the calling thread parses
/// each block itself. Either way a block's rows reach the sink after
/// every earlier block's, and the error returned is the first in file
/// order: a parse error comes before an I/O error the reader met after
/// the erroneous line.
fn for_each_row<R, F>(reader: R, spread: Spread, mut sink: F) -> Result<()>
where
    R: Read,
    F: FnMut(UserId, Record),
{
    let mut blocks = Blocks {
        reader,
        block_bytes: spread.block_bytes,
        carry: Vec::new(),
    };
    let mut block = Vec::new();
    let mut next = blocks.fill(&mut block);
    if spread.helpers > 0 && matches!(next, Next::More) {
        return on_helpers(&mut blocks, block, spread.helpers, &mut sink);
    }
    let (mut lines, mut first) = (0, true);
    loop {
        let n = parse_block(&block, first, &mut sink).map_err(|e| renumber(e, lines))?;
        (lines, first) = (lines + n, false);
        match next {
            Next::More => next = blocks.fill(&mut block),
            Next::End => return Ok(()),
            Next::Failed(e) => return Err(e.into()),
        }
    }
}

/// The row loop on `helpers` scoped threads, from the filled `first`
/// block on. The calling thread reads each block, hands it out with a
/// recycled row buffer, and sinks the parsed rows in block order. At
/// most two blocks per helper are in flight, and the calling thread
/// allocates every buffer (a helper sends a block back when its rows do
/// not fit, see [`Parsed::Short`]), so the helpers allocate nothing and
/// memory stays bounded.
fn on_helpers<R, F>(
    blocks: &mut Blocks<R>,
    first: Vec<u8>,
    helpers: usize,
    sink: &mut F,
) -> Result<()>
where
    R: Read,
    F: FnMut(UserId, Record),
{
    let window = 2 * helpers;
    let (to_helpers, jobs) = mpsc::sync_channel::<Job>(window);
    let (to_caller, parsed) = mpsc::sync_channel::<Job>(window);
    let jobs = Mutex::new(jobs);
    thread::scope(|scope| {
        for _ in 0..helpers {
            let to_caller = to_caller.clone();
            thread::Builder::new().spawn_scoped(scope, || help(&jobs, to_caller))?;
        }
        drop(to_caller);
        // Owned here, so every return closes the queue and the helpers
        // stop before the scope joins them.
        let (to_helpers, parsed) = (to_helpers, parsed);
        let mut spare = Vec::with_capacity(window);
        let mut early = BTreeMap::new();
        let (mut job, mut next) = (
            Job {
                block: first,
                ..Job::default()
            },
            Next::More,
        );
        let (mut sent, mut sunk, mut lines) = (0, 0, 0);
        loop {
            job.seq = sent;
            to_helpers.send(job).expect(QUEUE_OPEN);
            sent += 1;
            // Sink in block order until the window has room, or at the
            // end of the input until every block is sunk.
            let more = matches!(next, Next::More);
            while sent - sunk == window || (!more && sunk < sent) {
                let mut done = match early.remove(&sunk) {
                    Some(done) => done,
                    None => loop {
                        let mut done: Job = parsed.recv().expect("a helper returns every block");
                        if let Some(Parsed::Short(rows)) = done.parsed {
                            done.rows.clear();
                            done.rows.reserve(rows);
                            to_helpers.send(done).expect(QUEUE_OPEN);
                        } else if done.seq == sunk {
                            break done;
                        } else {
                            early.insert(done.seq, done);
                        }
                    },
                };
                match done.parsed.take().expect("a helper parses every block") {
                    Parsed::Lines(Ok(n)) => lines += n,
                    Parsed::Lines(Err(e)) => return Err(renumber(e, lines)),
                    Parsed::Panicked(panic) => panic::resume_unwind(panic),
                    Parsed::Short(_) => unreachable!("short blocks are sent again"),
                }
                for &(user, record) in &done.rows {
                    sink(user, record);
                }
                sunk += 1;
                spare.push(done);
            }
            match next {
                Next::More => {}
                Next::End => return Ok(()),
                Next::Failed(e) => return Err(e.into()),
            }
            job = spare.pop().unwrap_or_default();
            next = blocks.fill(&mut job.block);
        }
    })
}

/// A helper's loop: parses each block it takes into the block's row
/// buffer, until the calling thread stops sending or listening. Rows
/// that do not fit the buffer are only counted, and the block goes back
/// short, so the helper never grows the buffer itself.
fn help(jobs: &Mutex<Receiver<Job>>, to_caller: SyncSender<Job>) {
    loop {
        let job = jobs
            .lock()
            .expect("no helper panics holding the queue")
            .recv();
        let Ok(mut job) = job else { return };
        let Job {
            seq,
            block,
            rows,
            parsed,
        } = &mut job;
        rows.clear();
        let mut left_out = 0;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            parse_block(block, *seq == 0, &mut |user, record| {
                if rows.len() < rows.capacity() {
                    rows.push((user, record));
                } else {
                    left_out += 1;
                }
            })
        }));
        *parsed = Some(match outcome {
            Ok(Ok(_)) if left_out > 0 => Parsed::Short(rows.len() + left_out),
            Ok(lines) => Parsed::Lines(lines),
            Err(panic) => Parsed::Panicked(panic),
        });
        if to_caller.send(job).is_err() {
            return;
        }
    }
}

/// Reads a dataset from CSV text (see module docs for the format).
///
/// The row loop parses blocks of the input on every core and hands the
/// rows on strictly in file order, so the dataset, and any error with
/// its line number, are the same at any core count. A few 64 KiB blocks
/// are in flight at a time; on one core, or for input that fits one
/// block, the calling thread parses every block itself.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] with a 1-based line number for malformed
/// rows, invalid coordinates or non-integer timestamps, and
/// [`TraceError::Io`] for underlying read failures and when a helper
/// thread cannot be started. The first error in file order wins: a
/// malformed line that ends before the reader fails is reported, not
/// the failure.
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
    read_csv_with(reader, Spread::host())
}

/// [`read_csv`] with the row loop spread as `spread`.
fn read_csv_with<R: Read>(reader: R, spread: Spread) -> Result<Dataset> {
    // Each user's records in arrival order. Consecutive rows of one user
    // form a run, and a run costs one map lookup.
    let mut slots: BTreeMap<UserId, usize> = BTreeMap::new();
    let mut by_slot: Vec<Vec<Record>> = Vec::new();
    let mut run: Option<(UserId, usize)> = None;
    for_each_row(reader, spread, |user, record| {
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
/// The rows come from [`read_csv`]'s row loop: blocks parsed on every
/// core, rows appended strictly in file order, so every chunk is the
/// same at any core count, and only a few 64 KiB blocks of text are in
/// memory at a time.
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
    stream_csv_with(reader, config, Spread::host())
}

/// [`stream_csv`] with the row loop spread as `spread`.
fn stream_csv_with<R: Read>(reader: R, config: StoreConfig, spread: Spread) -> Result<TraceStore> {
    let mut store = TraceStore::new(config);
    for_each_row(reader, spread, |user, record| {
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
    use std::io::{BufRead, BufReader};

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
        read_by_line(bytes)
    }

    /// [`read_csv_by_line`] from any reader.
    fn read_by_line<R: Read>(reader: R) -> Result<Dataset> {
        let mut by_user: BTreeMap<UserId, Vec<Record>> = BTreeMap::new();
        for_each_row_by_line(reader, |user, record| {
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

    /// Both readers on the row loop spread as `spread`, each fed a fresh
    /// `reader()`, against the oracle's outcome `want`; the streamed
    /// store at seal sizes 7 and 512 must decode to it too.
    fn assert_spread_matches<R: Read>(
        reader: impl Fn() -> R,
        spread: Spread,
        want: &Result<Dataset>,
        what: &str,
    ) {
        let what = format!("{what} at {spread:?}");
        assert_same(&read_csv_with(reader(), spread), want, &what);
        for seal in [7, 512] {
            let config = StoreConfig::default().with_seal_records(seal);
            let streamed = stream_csv_with(reader(), config, spread).map(|s| s.to_dataset());
            assert_same(&streamed, want, &what);
        }
    }

    #[test]
    fn blocks_cut_anywhere_match_the_line_loop() {
        for csv in [
            &b"user_id,lat,lng,timestamp\n1,46.2,6.1,0\nuser_id,lat,lng,timestamp\n"[..],
            b"user_id,lat,lng,timestamp\r\n1,46.2,6.1,0\r\n2,46.3,6.2,60\r\n",
            b"1,46.2,6.1,0\n\n \n1,46.3,6.2,60\n2,45.7,4.8,7",
            b"1,46.2,6.1,0\n1,46.3,6.2,60\r",
            b"1,46.2,6.1,0\n1,x,6.2,60\n1,46\xff.2,6.1,0\n",
            b"1,46.2,6.1,0\n1,46\xff.2,6.1,0\n1,x,6.2,60\n",
        ] {
            let want = read_csv_by_line(csv);
            for block_bytes in 1..=csv.len() + 1 {
                for helpers in 0..=3 {
                    let spread = Spread {
                        block_bytes,
                        helpers,
                    };
                    for sizes in [&[1][..], &[3, 1, 7], &[64]] {
                        let what = String::from_utf8_lossy(csv);
                        assert_spread_matches(|| Trickle::new(csv, sizes), spread, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_corpora_match_the_line_loop_at_every_spread() {
        for case in 0..256 {
            let mut draw = draws(case);
            let bytes = corpus(&mut draw);
            let sizes: Vec<usize> = (0..=draw(6)).map(|_| 1 + draw(7) as usize).collect();
            let want = read_csv_by_line(&bytes);
            let what = String::from_utf8_lossy(&bytes);
            for helpers in 0..=3 {
                // One byte, and up to about three rows.
                for block_bytes in [1, 1 + draw(120) as usize] {
                    let spread = Spread {
                        block_bytes,
                        helpers,
                    };
                    assert_spread_matches(|| Trickle::new(&bytes, &sizes), spread, &want, &what);
                }
            }
        }
    }

    /// A reader that hands out `bytes` five at a time and fails once it
    /// has handed out `fail_at` of them.
    struct Failing<'a> {
        bytes: &'a [u8],
        fail_at: usize,
    }

    impl Read for Failing<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.fail_at == 0 {
                return Err(std::io::Error::other("device gone"));
            }
            let n = buf.len().min(self.fail_at).min(5);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.fail_at -= n;
            Ok(n)
        }
    }

    #[test]
    fn a_failing_reader_reports_what_the_line_loop_reports() {
        let mut csv = b"user_id,lat,lng,timestamp\n".to_vec();
        let mut malformed_end = 0;
        for i in 0..24 {
            let row = match i {
                9 => "3, 46.2 ,6.1,540\n".to_string(),
                13 => "3,46.2,x,780\n".to_string(),
                _ => format!("{},46.{i},6.1,{}\n", i % 3, 60 * i),
            };
            csv.extend_from_slice(row.as_bytes());
            if i == 13 {
                malformed_end = csv.len();
            }
        }
        let (mut parse_errors, mut io_errors) = (0, 0);
        for fail_at in 0..=csv.len() {
            let failing = || Failing {
                bytes: &csv,
                fail_at,
            };
            let want = read_by_line(failing());
            match &want {
                Err(TraceError::Parse { line: 15, .. }) => parse_errors += 1,
                Err(TraceError::Io(e)) if e.to_string() == "device gone" => io_errors += 1,
                other => panic!("oracle at {fail_at}: {other:?}"),
            }
            for block_bytes in [1, 16, BLOCK_BYTES] {
                for helpers in [0, 1, 3] {
                    let spread = Spread {
                        block_bytes,
                        helpers,
                    };
                    let what = format!("failing after {fail_at} bytes");
                    assert_spread_matches(failing, spread, &want, &what);
                }
            }
        }
        // The parse error wins once the malformed line's `\n` is read.
        let cases = csv.len() + 1;
        assert_eq!(
            (parse_errors, io_errors),
            (cases - malformed_end, malformed_end)
        );
    }

    #[test]
    fn megabyte_rows_straddle_blocks_in_linear_time() {
        // Two rows first send the long one through later blocks, and
        // through the helpers when there are some; its block doubles
        // until the input ends.
        for fill in [b'7', b','] {
            let mut bytes = b"1,46.2,6.1,0\n2,45.7,4.8,60\n".to_vec();
            bytes.resize(bytes.len() + (1 << 20), fill);
            let want = read_csv_by_line(&bytes);
            assert!(matches!(want, Err(TraceError::Parse { line: 3, .. })));
            for helpers in [0, 2] {
                let spread = Spread {
                    block_bytes: 16,
                    helpers,
                };
                assert_spread_matches(|| Trickle::new(&bytes, &[1]), spread, &want, "megabyte row");
            }
        }
    }
}
