//! Append-only checkpoint journal: length-prefixed, checksummed records
//! of completed work items, with truncated-tail recovery on resume.
//!
//! ## On-disk format
//!
//! ```text
//! header:  8 bytes        magic b"LVJR0001"
//! record:  u32 LE         payload length
//!          u64 LE         item index (journal index space)
//!          n bytes        payload (opaque to the journal)
//!          u64 LE         FNV-1a 64 over everything above, per record
//! ```
//!
//! Records are appended and flushed one completed item at a time, so a
//! killed process loses at most the record it was writing. On resume the
//! file is scanned front to back; the first record that is truncated or
//! fails its checksum ends the valid prefix — everything after it is
//! discarded with a warning diagnostic (never a panic) and the file is
//! cut back so new appends extend the valid prefix.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use lowvolt_obs::{names, Recorder};

use crate::fault::{parallel_map_isolated, CancelToken, ExecError, FaultPolicy, ItemStatus};
use crate::{fnv64, ExecPolicy};

const MAGIC: &[u8; 8] = b"LVJR0001";
/// Fixed bytes per record besides the payload: length, index, checksum.
const RECORD_OVERHEAD: usize = 4 + 8 + 8;
/// Upper bound on a single record payload; longer prefixes are treated
/// as corruption rather than trusted as allocation sizes.
const MAX_PAYLOAD: usize = 1 << 26;

/// A checkpoint-journal failure. Journal errors never abort a campaign
/// — callers degrade to running uncheckpointed with a warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file exists but does not start with the journal magic — it
    /// is some other file and is left untouched.
    NotAJournal {
        /// Path of the offending file.
        path: String,
    },
    /// An I/O operation on the journal failed.
    Io {
        /// Path of the journal file.
        path: String,
        /// Rendered OS error.
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::NotAJournal { path } => {
                write!(f, "{path}: not a checkpoint journal (bad magic)")
            }
            JournalError::Io { path, detail } => write!(f, "{path}: journal I/O error: {detail}"),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(path: &Path, e: &std::io::Error) -> JournalError {
    JournalError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// The valid records recovered from an existing journal, in file order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct JournalReplay {
    /// `(item index, payload)` for every record in the valid prefix.
    pub entries: Vec<(u64, Vec<u8>)>,
    /// Diagnostic set when a truncated or corrupt tail was discarded.
    pub warning: Option<String>,
}

impl JournalReplay {
    /// Latest payload per item index (later records win, matching an
    /// append-only log's natural semantics).
    #[must_use]
    pub fn completed(&self) -> HashMap<u64, Vec<u8>> {
        self.entries.iter().map(|(i, p)| (*i, p.clone())).collect()
    }
}

/// An open, append-only checkpoint journal.
#[derive(Debug)]
pub struct CheckpointJournal {
    file: std::fs::File,
    path: PathBuf,
    records: u64,
}

impl CheckpointJournal {
    /// Creates (or truncates) the journal at `path`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be created or the header
    /// written.
    pub fn create(path: impl AsRef<Path>) -> Result<CheckpointJournal, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        file.write_all(MAGIC).map_err(|e| io_err(&path, &e))?;
        file.flush().map_err(|e| io_err(&path, &e))?;
        Ok(CheckpointJournal {
            file,
            path,
            records: 0,
        })
    }

    /// Opens the journal at `path` for resuming: scans the valid record
    /// prefix, discards any truncated or corrupt tail (with a warning in
    /// the returned [`JournalReplay`], never a panic), and positions the
    /// journal so new appends extend the valid prefix. A missing file is
    /// created empty.
    ///
    /// # Errors
    ///
    /// [`JournalError::NotAJournal`] when the file exists but lacks the
    /// magic header (it is left untouched); [`JournalError::Io`] on
    /// filesystem failures.
    pub fn resume(
        path: impl AsRef<Path>,
    ) -> Result<(CheckpointJournal, JournalReplay), JournalError> {
        let path = path.as_ref().to_path_buf();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((CheckpointJournal::create(&path)?, JournalReplay::default()));
            }
            Err(e) => return Err(io_err(&path, &e)),
        };
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(JournalError::NotAJournal {
                path: path.display().to_string(),
            });
        }
        let mut entries = Vec::new();
        let mut offset = MAGIC.len();
        let mut warning = None;
        while offset < bytes.len() {
            match parse_record(&bytes[offset..]) {
                Some((index, payload, consumed)) => {
                    entries.push((index, payload));
                    offset += consumed;
                }
                None => {
                    warning = Some(format!(
                        "checkpoint journal {}: discarding truncated or corrupt tail \
                         at byte {offset} ({} valid record(s) retained)",
                        path.display(),
                        entries.len()
                    ));
                    break;
                }
            }
        }
        let mut file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        // Cut off the corrupt tail (a no-op for a clean journal) so
        // appends continue from the end of the valid prefix.
        file.set_len(offset as u64).map_err(|e| io_err(&path, &e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(&path, &e))?;
        let records = entries.len() as u64;
        Ok((
            CheckpointJournal {
                file,
                path,
                records,
            },
            JournalReplay { entries, warning },
        ))
    }

    /// Appends one completed-item record and flushes it to the OS, so a
    /// kill after `append` returns can lose nothing earlier.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write failure or an oversized payload.
    pub fn append(
        &mut self,
        index: u64,
        payload: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(), JournalError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(JournalError::Io {
                path: self.path.display().to_string(),
                detail: format!("record payload of {} bytes exceeds limit", payload.len()),
            });
        }
        let mut record = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&index.to_le_bytes());
        record.extend_from_slice(payload);
        let sum = fnv64(&record);
        record.extend_from_slice(&sum.to_le_bytes());
        self.file
            .write_all(&record)
            .map_err(|e| io_err(&self.path, &e))?;
        self.file.flush().map_err(|e| io_err(&self.path, &e))?;
        self.records += 1;
        if rec.is_enabled() {
            rec.add(names::CHECKPOINT_RECORDS, 1);
        }
        Ok(())
    }

    /// Records appended so far (replayed records included after
    /// [`CheckpointJournal::resume`]).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parses one record at the front of `buf`, returning
/// `(index, payload, bytes consumed)`; `None` means truncated or
/// corrupt — by construction the *rest* of the file is unrecoverable,
/// because record boundaries are only known by walking valid records.
fn parse_record(buf: &[u8]) -> Option<(u64, Vec<u8>, usize)> {
    if buf.len() < RECORD_OVERHEAD {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().ok()?) as usize;
    if len > MAX_PAYLOAD {
        return None;
    }
    let total = RECORD_OVERHEAD + len;
    if buf.len() < total {
        return None;
    }
    let index = u64::from_le_bytes(buf[4..12].try_into().ok()?);
    let stored = u64::from_le_bytes(buf[12 + len..total].try_into().ok()?);
    if stored != fnv64(&buf[..12 + len]) {
        return None;
    }
    Some((index, buf[12..12 + len].to_vec(), total))
}

/// A resumable parallel region's bookkeeping: the journal new
/// completions go to, the completed-record map replayed from it, where
/// this region's item 0 sits in the journal's index space (so several
/// regions can share one journal), and an optional cap on new work —
/// the deterministic interruption hook the resume property tests and
/// the CI resume-gate use.
#[derive(Debug)]
pub struct CheckpointSpec<'a> {
    /// Journal that new completions are appended to.
    pub journal: &'a mut CheckpointJournal,
    /// Index → payload replayed from the journal
    /// (see [`JournalReplay::completed`]).
    pub completed: &'a HashMap<u64, Vec<u8>>,
    /// Journal index of this region's item 0.
    pub index_base: u64,
    /// Run at most this many not-yet-completed items, skipping the rest
    /// (`None` = run everything).
    pub max_new_items: Option<usize>,
}

/// Outcome of [`run_checkpointed`]. `results[i]` is `None` only when
/// item `i` was skipped by the `max_new_items` cap (an interrupted
/// run); otherwise it holds the item's replayed or computed result.
#[derive(Debug)]
pub struct CheckpointOutcome<R> {
    /// One slot per input item, in input order.
    pub results: Vec<Option<Result<R, ExecError>>>,
    /// Items restored from the journal without recomputation.
    pub replayed: usize,
    /// Items actually executed this run.
    pub computed: usize,
    /// Items left unexecuted by the `max_new_items` cap.
    pub skipped: usize,
    /// Non-fatal diagnostics (undecodable records, journal write
    /// failures downgraded to running uncheckpointed).
    pub warnings: Vec<String>,
}

impl<R> CheckpointOutcome<R> {
    /// Whether the run stopped early and needs another resume pass.
    #[must_use]
    pub fn interrupted(&self) -> bool {
        self.skipped > 0
    }
}

/// A callback [`run_checkpointed`] runs after each record it appends,
/// while it still holds the journal lock: calls never overlap and come
/// in journal order, from whichever worker appended the record.
pub struct OnAppend<'a>(pub &'a mut (dyn FnMut() + Send));

impl std::fmt::Debug for OnAppend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OnAppend")
    }
}

struct JournalSink<'a> {
    journal: &'a mut CheckpointJournal,
    failed: Option<String>,
    on_append: Option<OnAppend<'a>>,
}

/// [`parallel_map_isolated`] with an incremental checkpoint journal:
/// items whose index (offset by `spec.index_base`) already has a
/// decodable record in `spec.completed` are replayed without running;
/// the rest execute under the fault layer, and each successful result
/// is encoded and appended to the journal as soon as it completes.
/// `decode` sees the item a record belongs to, so it can refuse a
/// record whose shape does not fit that item; the item is then
/// recomputed with a warning. `on_append`, if given, runs after every
/// record appended.
///
/// Because replay keys on the input index and results always land at
/// their input slots, an interrupted run resumed to completion yields
/// results byte-identical to an uninterrupted run — whatever the
/// thread count on either side. Journal write failures never abort the
/// region; they downgrade to a warning and the run continues
/// uncheckpointed.
#[allow(clippy::too_many_arguments)]
pub fn run_checkpointed<'a, T, R, F, Enc, Dec>(
    policy: &ExecPolicy,
    fault: &FaultPolicy,
    rec: &dyn Recorder,
    items: &[T],
    spec: CheckpointSpec<'a>,
    on_append: Option<OnAppend<'a>>,
    encode: Enc,
    decode: Dec,
    f: F,
) -> CheckpointOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &CancelToken) -> ItemStatus<R> + Sync,
    Enc: Fn(&R) -> Vec<u8> + Sync,
    Dec: Fn(&T, &[u8]) -> Option<R>,
{
    let mut results: Vec<Option<Result<R, ExecError>>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let mut warnings = Vec::new();
    let mut replayed = 0usize;
    let mut pending: Vec<usize> = Vec::new();
    for (i, slot) in results.iter_mut().enumerate() {
        let key = spec.index_base + i as u64;
        match spec.completed.get(&key).map(|p| decode(&items[i], p)) {
            Some(Some(r)) => {
                *slot = Some(Ok(r));
                replayed += 1;
            }
            Some(None) => {
                warnings.push(format!(
                    "checkpoint record {key} could not be decoded; recomputing item"
                ));
                pending.push(i);
            }
            None => pending.push(i),
        }
    }
    let budget = spec
        .max_new_items
        .unwrap_or(pending.len())
        .min(pending.len());
    let skipped = pending.len() - budget;
    pending.truncate(budget);
    let index_base = spec.index_base;
    let sink = Mutex::new(JournalSink {
        journal: spec.journal,
        failed: None,
        on_append,
    });
    let computed = parallel_map_isolated(policy, fault, rec, &pending, |_, &orig, token| {
        match f(orig, &items[orig], token) {
            ItemStatus::Done(r) => {
                let payload = encode(&r);
                if let Ok(mut guard) = sink.lock() {
                    if guard.failed.is_none() {
                        match guard
                            .journal
                            .append(index_base + orig as u64, &payload, rec)
                        {
                            Ok(()) => {
                                if let Some(OnAppend(hook)) = &mut guard.on_append {
                                    hook();
                                }
                            }
                            Err(e) => guard.failed = Some(e.to_string()),
                        }
                    }
                }
                ItemStatus::Done(r)
            }
            ItemStatus::TimedOut => ItemStatus::TimedOut,
        }
    });
    let computed_count = computed.len();
    for (k, r) in computed.into_iter().enumerate() {
        results[pending[k]] = Some(r);
    }
    let sink = match sink.into_inner() {
        Ok(s) => s,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(detail) = sink.failed {
        warnings.push(format!(
            "checkpoint journal write failed; continuing without checkpointing: {detail}"
        ));
    }
    CheckpointOutcome {
        results,
        replayed,
        computed: computed_count,
        skipped,
        warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lowvolt-journal-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_create_append_resume() {
        let path = tmp_path("roundtrip");
        let mut j = CheckpointJournal::create(&path).expect("create");
        j.append(3, b"three", lowvolt_obs::noop()).expect("append");
        j.append(1, b"", lowvolt_obs::noop()).expect("append empty");
        j.append(40, &[0xFFu8; 300], lowvolt_obs::noop())
            .expect("append large");
        assert_eq!(j.records(), 3);
        drop(j);
        let (j, replay) = CheckpointJournal::resume(&path).expect("resume");
        assert_eq!(j.records(), 3);
        assert!(replay.warning.is_none());
        assert_eq!(replay.entries.len(), 3);
        assert_eq!(replay.entries[0], (3, b"three".to_vec()));
        assert_eq!(replay.entries[1], (1, Vec::new()));
        assert_eq!(replay.entries[2].0, 40);
        let map = replay.completed();
        assert_eq!(map.get(&3).map(Vec::as_slice), Some(b"three".as_slice()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_of_missing_file_creates_empty_journal() {
        let path = tmp_path("fresh");
        let _ = std::fs::remove_file(&path);
        let (j, replay) = CheckpointJournal::resume(&path).expect("resume fresh");
        assert_eq!(j.records(), 0);
        assert_eq!(replay, JournalReplay::default());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_is_discarded_with_warning() {
        let path = tmp_path("truncated");
        let mut j = CheckpointJournal::create(&path).expect("create");
        j.append(0, b"alpha", lowvolt_obs::noop()).expect("a");
        j.append(1, b"beta", lowvolt_obs::noop()).expect("b");
        drop(j);
        // Chop the last record mid-payload.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate");
        let (mut j, replay) = CheckpointJournal::resume(&path).expect("resume");
        assert_eq!(replay.entries, vec![(0, b"alpha".to_vec())]);
        let warning = replay.warning.expect("warning emitted");
        assert!(warning.contains("truncated or corrupt tail"), "{warning}");
        assert!(warning.contains("1 valid record"), "{warning}");
        // Appends extend the valid prefix cleanly.
        j.append(1, b"beta2", lowvolt_obs::noop())
            .expect("re-append");
        drop(j);
        let (_, replay) = CheckpointJournal::resume(&path).expect("second resume");
        assert!(replay.warning.is_none());
        assert_eq!(
            replay.entries,
            vec![(0, b"alpha".to_vec()), (1, b"beta2".to_vec())]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_record_body_fails_its_checksum() {
        let path = tmp_path("bitflip");
        let mut j = CheckpointJournal::create(&path).expect("create");
        j.append(0, b"aaaa", lowvolt_obs::noop()).expect("a");
        j.append(1, b"bbbb", lowvolt_obs::noop()).expect("b");
        drop(j);
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip one payload bit of the *second* record.
        let second_payload = MAGIC.len() + RECORD_OVERHEAD + 4 + 4 + 8 + 1;
        bytes[second_payload] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write corrupt");
        let (_, replay) = CheckpointJournal::resume(&path).expect("resume");
        assert_eq!(replay.entries, vec![(0, b"aaaa".to_vec())]);
        assert!(replay.warning.is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_journal_file_is_rejected_untouched() {
        let path = tmp_path("notajournal");
        std::fs::write(&path, b"hello world, not a journal").expect("write");
        let err = CheckpointJournal::resume(&path).expect_err("must refuse");
        assert!(matches!(err, JournalError::NotAJournal { .. }));
        assert_eq!(
            std::fs::read(&path).expect("still there"),
            b"hello world, not a journal"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpointed_region_replays_and_resumes_identically() {
        let path = tmp_path("region");
        let items: Vec<u64> = (0..40).collect();
        let run = |journal: &mut CheckpointJournal,
                   completed: &HashMap<u64, Vec<u8>>,
                   cap: Option<usize>,
                   threads: usize| {
            run_checkpointed(
                &ExecPolicy::with_threads(threads),
                &FaultPolicy::default(),
                lowvolt_obs::noop(),
                &items,
                CheckpointSpec {
                    journal,
                    completed,
                    index_base: 100,
                    max_new_items: cap,
                },
                None,
                |r: &u64| r.to_le_bytes().to_vec(),
                |_: &u64, b: &[u8]| Some(u64::from_le_bytes(b.try_into().ok()?)),
                |_, &x, _| ItemStatus::Done(x * x),
            )
        };
        // Uninterrupted reference (its journal is thrown away).
        let ref_path = tmp_path("region-ref");
        let mut ref_journal = CheckpointJournal::create(&ref_path).expect("ref journal");
        let reference = run(&mut ref_journal, &HashMap::new(), None, 1);
        assert!(!reference.interrupted());
        let _ = std::fs::remove_file(&ref_path);

        // Interrupt after 13 items, then resume with a different thread
        // count: final results must match the reference exactly.
        let mut j = CheckpointJournal::create(&path).expect("create");
        let mut appended = 0;
        let partial = run_checkpointed(
            &ExecPolicy::with_threads(2),
            &FaultPolicy::default(),
            lowvolt_obs::noop(),
            &items,
            CheckpointSpec {
                journal: &mut j,
                completed: &HashMap::new(),
                index_base: 100,
                max_new_items: Some(13),
            },
            Some(OnAppend(&mut || appended += 1)),
            |r: &u64| r.to_le_bytes().to_vec(),
            |_: &u64, b: &[u8]| Some(u64::from_le_bytes(b.try_into().ok()?)),
            |_, &x, _| ItemStatus::Done(x * x),
        );
        assert_eq!(appended, 13, "one hook call per appended record");
        assert!(partial.interrupted());
        assert_eq!(partial.computed, 13);
        assert_eq!(partial.skipped, 27);
        drop(j);
        let (mut j, replay) = CheckpointJournal::resume(&path).expect("resume");
        assert!(replay.warning.is_none());
        let completed = replay.completed();
        assert_eq!(completed.len(), 13);
        let resumed = run(&mut j, &completed, None, 8);
        assert!(!resumed.interrupted());
        assert_eq!(resumed.replayed, 13);
        assert_eq!(resumed.computed, 27);
        assert_eq!(resumed.results, reference.results);
        let _ = std::fs::remove_file(&path);
    }
}
