//! Fixtures shared by the integration tests in this directory.

// Each test binary compiles this module and uses a different subset of it.
#![allow(dead_code)]

use felix_serve::Client;
use std::io::{BufRead, BufReader, ErrorKind};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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

/// A `felix-served` child process. Dropping it kills and reaps the child if
/// it is still running, so a failed assertion cannot leave a daemon behind
/// (holding a piped `cargo test`'s output open).
pub struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `felix-served` on `data_dir` with one shard plus the given
    /// extra flags, and parses the listening banner for the port.
    pub fn spawn(data_dir: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_felix-served"))
            .args(["--data-dir"])
            .arg(data_dir)
            .args(["--addr", "127.0.0.1:0", "--shards", "1"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn felix-served");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("listening line");
        let addr = line
            .trim()
            .strip_prefix("felix-served listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    pub fn client(&self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(&self.addr) {
                Ok(c) => return c,
                Err(e) if Instant::now() < deadline => {
                    eprintln!("connect retry: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("daemon never came up: {e}"),
            }
        }
    }

    /// SIGKILL — the process gets no chance to flush or clean up.
    pub fn kill(mut self) {
        self.child.kill().expect("kill daemon");
        self.child.wait().expect("reap daemon");
    }

    /// SIGTERM, then the exit status once the drain finishes.
    pub fn sigterm_and_wait(mut self) -> ExitStatus {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("run kill -TERM");
        assert!(sent.success(), "kill -TERM failed");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait daemon") {
                return status;
            }
            assert!(Instant::now() < deadline, "daemon ignored SIGTERM for 30s");
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    pub fn shutdown(mut self) {
        self.client().shutdown().expect("shutdown");
        self.child.wait().expect("reap daemon");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}
