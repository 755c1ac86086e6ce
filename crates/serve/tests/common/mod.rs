//! Fixtures shared by the integration tests in this directory.

use std::io::ErrorKind;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A data directory this call created, so no earlier run's files can be in
/// it: `create_dir` fails on an existing name, and the next counter value
/// is tried instead. Removed on drop unless the test is panicking, so a
/// failed test leaves its files behind to read.
pub struct TmpDir(PathBuf);

impl Deref for TmpDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TmpDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }
}

pub fn tmp_dir(tag: &str) -> TmpDir {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    loop {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("felix-serve-test-{}-{n}-{tag}", std::process::id()));
        match std::fs::create_dir(&dir) {
            Ok(()) => return TmpDir(dir),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {}
            Err(e) => panic!("create scratch dir {}: {e}", dir.display()),
        }
    }
}
