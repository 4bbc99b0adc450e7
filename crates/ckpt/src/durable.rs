//! The one way the toolkit puts an artifact on disk.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tells apart the temp files of concurrent writes in one process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Replace `path` with `bytes`, atomically and durably.
///
/// The parent directory is created. The bytes go to a sibling temp file,
/// `.{name}.{pid}-{seq}.tmp` — no artifact suffix (`.mckpt`, `.mshard`,
/// `manifest.json`), so nothing scanning the directory takes it for an
/// artifact — which is fsynced and renamed over `path`; on unix the
/// directory is then fsynced, so the rename itself survives a crash.
///
/// A crash therefore leaves the old file or the new one under `path`,
/// never a torn one, and a reader that has the old file open or mapped
/// keeps its bytes (the rename unlinks the old inode, it does not
/// truncate it). On error the temp file is removed and `path` is left as
/// it was.
pub fn write_durable(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )
    })?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::create_dir_all(dir)?;
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(
        ".{}.{}-{seq}.tmp",
        name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut file = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        #[cfg(unix)]
        fs::File::open(dir)?.sync_all()?;
        Ok(())
    })();
    if result.is_err() {
        // Best effort: once the rename has happened the name is gone.
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh, absent directory for one test.
    fn fresh_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("matsciml-durable-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The sorted entry names of `dir`.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn replaces_an_existing_file_and_leaves_no_temp() {
        let dir = fresh_dir("replace");
        let path = dir.join("nested").join("step2.mckpt");
        write_durable(&path, b"first, longer contents").unwrap();
        write_durable(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(names(&dir.join("nested")), ["step2.mckpt"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_rename_leaves_the_target_and_removes_the_temp() {
        // A directory cannot be replaced by a file: the rename fails.
        let dir = fresh_dir("failed-rename");
        let target = dir.join("manifest.json");
        fs::create_dir_all(&target).unwrap();
        fs::write(target.join("inside"), b"kept").unwrap();
        assert!(write_durable(&target, b"new bytes").is_err());
        assert_eq!(fs::read(target.join("inside")).unwrap(), b"kept");
        assert_eq!(names(&dir), ["manifest.json"]);
        fs::remove_dir_all(&dir).ok();
    }
}
