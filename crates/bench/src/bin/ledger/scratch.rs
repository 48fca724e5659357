//! Scratch directories for stores, replicas and trace files.
//!
//! The benchmark contract allows writes only inside the checkout, so scratch
//! space lives beside the running executable — inside the build directory,
//! which `.gitignore` names — and not under the system temp directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Directory beside the executable that holds everything the ledger writes.
pub fn root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("ledger-scratch")
}

/// A directory removed when the guard drops: on success, on failure, and on
/// panic (unwinding runs `Drop`).
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<root>/ksp-ledger-<pid>-<label>-<n>`, empty.
    pub fn create(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root().join(format!("ksp-ledger-{}-{label}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// A path inside the directory; nothing is created there.
    pub fn child(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removed_on_drop_and_on_panic() {
        let kept = {
            let dir = ScratchDir::create("selftest").unwrap();
            std::fs::write(dir.child("f"), b"x").unwrap();
            assert!(dir.child("").starts_with(root()));
            dir.child("")
        };
        assert!(!kept.exists());
        let seen = std::sync::Mutex::new(PathBuf::new());
        let outcome = std::panic::catch_unwind(|| {
            let dir = ScratchDir::create("selftest-panic").unwrap();
            *seen.lock().unwrap() = dir.child("");
            panic!("boom");
        });
        assert!(outcome.is_err());
        let path = seen.into_inner().unwrap_or_else(|e| e.into_inner());
        assert!(!path.as_os_str().is_empty() && !path.exists());
    }
}
