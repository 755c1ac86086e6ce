//! The one JSONL engine under the record log, the schedule store and the
//! job WAL — the only code that knows the torn-tail rule and the
//! tmp+fsync+rename dance. The typed stores own the line codecs and the
//! transition functions; this module owns the bytes:
//!
//! - a line counts only if it is newline-terminated, valid UTF-8 and
//!   parses as JSON — an unterminated tail is the torn remains of an
//!   interrupted append and is dropped, a corrupt middle line is skipped;
//! - an append is one `write_all` on an unbuffered `O_APPEND` handle: it is
//!   in the OS when the call returns (survives a crash of this process),
//!   and a *failed* append leaves nothing in user space to land later;
//! - the unterminated fragment an interrupted or failed append leaves in
//!   the *file* is fenced off by the next append (see [`FENCE`]);
//! - a rewrite goes to a sibling `.tmp`, is fsynced and renamed over the
//!   target, so a reader or a crash sees the old file or the new one.

use crate::Json;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// What an append onto a dirty tail starts with, in the same `write_all`
/// as its line. The newline ends the fragment's line, so the new record
/// starts on one of its own; the byte before it keeps the fragment from
/// parsing even when it was a whole document short of its terminator —
/// every reader up to now dropped it as torn, and state folded from the log
/// must not see it come back.
const FENCE: &str = "#\n";

/// An append handle on one JSONL file plus the count of intact lines this
/// handle knows the file to hold.
#[derive(Debug)]
pub(crate) struct Log {
    path: PathBuf,
    file: File,
    lines: usize,
    /// The file may end in something other than a newline: it did when it
    /// was opened, or an append has failed since (a short write can leave
    /// any prefix of the line behind).
    dirty_tail: bool,
}

fn open_append(path: &Path) -> std::io::Result<File> {
    OpenOptions::new().create(true).append(true).open(path)
}

/// Whether a non-empty file ends in a byte other than a newline. Anything
/// without a length (a FIFO, a device) reads as clean.
fn ends_mid_line(file: &File, path: &Path) -> std::io::Result<bool> {
    if file.metadata()?.len() == 0 {
        return Ok(false);
    }
    let mut last = [0u8];
    let mut reader = File::open(path)?;
    reader.seek(SeekFrom::End(-1))?;
    reader.read_exact(&mut last)?;
    Ok(last[0] != b'\n')
}

fn write_line(out: &mut impl Write, doc: &Json) -> std::io::Result<()> {
    let mut line = doc.write();
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Fills a sibling temporary file, fsyncs it and renames it over `path`.
fn replace_atomic(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut out = BufWriter::new(File::create(&tmp)?);
    fill(&mut out)?;
    out.into_inner().map_err(std::io::IntoInnerError::into_error)?.sync_all()?;
    std::fs::rename(&tmp, path)
}

impl Log {
    /// Opens (creating if needed) the file for appending without reading
    /// it; [`Log::lines`] then counts only what this handle writes.
    pub(crate) fn open(path: &Path) -> std::io::Result<Log> {
        let file = open_append(path)?;
        let dirty_tail = ends_mid_line(&file, path)?;
        Ok(Log { path: path.to_path_buf(), file, lines: 0, dirty_tail })
    }

    /// Feeds every intact line of the file to `visit` in append order (see
    /// [`read`]), then opens it for appending.
    pub(crate) fn replay(path: &Path, visit: impl FnMut(&Json)) -> std::io::Result<Log> {
        let lines = read(path, visit)?;
        Ok(Log { lines, ..Log::open(path)? })
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Intact lines in the file: replayed at open, plus appended since,
    /// reset by [`Log::rewrite`].
    pub(crate) fn lines(&self) -> usize {
        self.lines
    }

    /// Appends one line. On `Ok` a crash of this process can no longer
    /// lose it; on `Err` the caller must not apply the change it encodes.
    pub(crate) fn append(&mut self, doc: &Json) -> std::io::Result<()> {
        let mut line = doc.write();
        line.push('\n');
        if self.dirty_tail {
            line.insert_str(0, FENCE);
        }
        let written = self.file.write_all(line.as_bytes());
        self.dirty_tail = written.is_err();
        written?;
        self.lines += 1;
        Ok(())
    }

    /// Atomically replaces the file with exactly `docs`, one per line, and
    /// moves the append handle to the new file (the old handle points at
    /// the pre-rename inode). Returns the number of lines written.
    pub(crate) fn rewrite(&mut self, docs: impl Iterator<Item = Json>) -> std::io::Result<usize> {
        let mut lines = 0;
        replace_atomic(&self.path, |out| {
            docs.inspect(|_| lines += 1).try_for_each(|doc| write_line(out, &doc))
        })?;
        self.file = open_append(&self.path)?;
        self.lines = lines;
        self.dirty_tail = false;
        Ok(lines)
    }

    /// Points the append handle at another file — how the tests make
    /// appends fail (`/dev/full`).
    #[cfg(test)]
    pub(crate) fn redirect_appends(&mut self, to: &str) {
        self.file = open_append(Path::new(to)).expect("open redirect target");
    }
}

/// Feeds every intact line of the JSONL file at `path` to `visit`, in
/// append order, and returns how many there were. A missing file reads as
/// empty; other I/O errors are returned.
pub(crate) fn read(path: &Path, mut visit: impl FnMut(&Json)) -> std::io::Result<usize> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut lines = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        // A line missing its terminator is by definition the torn tail of
        // an interrupted append.
        let Some(line) = line.strip_suffix(b"\n") else { break };
        let Ok(text) = std::str::from_utf8(line) else { continue };
        if text.trim().is_empty() {
            continue;
        }
        let Ok(doc) = Json::parse(text) else { continue };
        visit(&doc);
        lines += 1;
    }
    Ok(lines)
}

/// Atomically persists `bytes` at `path`: written to a sibling temporary
/// file, fsynced, and renamed over the target, so a concurrent or
/// post-crash reader sees either the old content or the new — never a torn
/// mix.
///
/// # Errors
///
/// Returns any I/O error from writing, syncing, or renaming.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    replace_atomic(path.as_ref(), |out| out.write_all(bytes))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A fresh path under the system temp dir, unique per call.
    pub(crate) fn tmp_path(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("felix-records-{tag}-{}-{n}.jsonl", std::process::id()))
    }

    /// The torn-tail property, written once for all three line codecs.
    /// `append(path, i)` opens the store under test and appends record `i`;
    /// records `0..n` fill a fresh log, and at **every** byte offset the
    /// file is then cut to — from empty through "complete except the
    /// newline" — `read` must return `expected` of the `k` records that
    /// survived complete. Record `n`, appended through the store onto that
    /// cut, must then be read back right after them: an interrupted append
    /// never costs more than the record being written, whichever store
    /// wrote it, and never the one written next.
    pub(crate) fn every_truncation_recovers_the_intact_prefix<T: PartialEq + std::fmt::Debug>(
        n: usize,
        append: impl Fn(&Path, usize),
        read: impl Fn(&Path) -> Vec<T>,
        expected: impl Fn(&[usize]) -> Vec<T>,
    ) {
        let path = tmp_path("truncation");
        (0..n).for_each(|i| append(&path, i));
        let full = std::fs::read(&path).expect("read log bytes");
        assert_eq!(full.last(), Some(&b'\n'));
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncate");
            // JSON strings escape newlines, so every 0x0A byte ends a line.
            let intact = full[..cut].iter().filter(|&&b| b == b'\n').count();
            let mut survivors: Vec<usize> = (0..intact).collect();
            assert_eq!(read(&path), expected(&survivors), "cut at byte {cut}/{}", full.len());
            append(&path, n);
            survivors.push(n);
            assert_eq!(read(&path), expected(&survivors), "append after cut {cut}/{}", full.len());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_counts_intact_lines_and_skips_corrupt_blank_and_torn_ones() {
        let path = tmp_path("engine-skip");
        let doc = |i: usize| Json::obj(vec![("i", Json::Num(i as f64))]);
        let mut bytes = Vec::new();
        write_line(&mut bytes, &doc(0)).expect("write");
        bytes.extend_from_slice(b"\n   \n{not json}\n\xff\xfe\n");
        write_line(&mut bytes, &doc(1)).expect("write");
        bytes.extend_from_slice(b"{\"torn\":");
        std::fs::write(&path, &bytes).expect("write");
        let mut seen = Vec::new();
        let log = Log::replay(&path, |d| seen.push(d.clone())).expect("replay");
        assert_eq!(seen, vec![doc(0), doc(1)]);
        assert_eq!(log.lines(), 2);
        std::fs::remove_file(&path).ok();
    }
}
