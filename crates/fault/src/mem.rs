//! A deterministic in-memory filesystem.
//!
//! The crash-consistency battery's "disk": shared through an `Arc`, it
//! outlives any [`crate::FaultVfs`] accessor wrapped around it, so a
//! simulated crash (drop the poisoned accessor) leaves exactly the bytes
//! the partial operations wrote — reopening with a clean accessor is the
//! reboot.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::Vfs;

/// An in-memory [`Vfs`]: a path → bytes map plus an explicit directory
/// set, with the same existence rules a real filesystem enforces (writes
/// need an existing parent directory, `create_new` is exclusive, renames
/// replace).
#[derive(Debug, Default)]
pub struct MemVfs {
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
}

impl MemVfs {
    /// An empty filesystem.
    pub fn new() -> Self {
        MemVfs::default()
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("memvfs: no such file or directory: {}", path.display()),
    )
}

impl State {
    fn parent_exists(&self, path: &Path) -> bool {
        match path.parent() {
            None => true,
            Some(p) if p.as_os_str().is_empty() => true,
            Some(p) => self.dirs.contains(p),
        }
    }

    fn require_parent(&self, path: &Path) -> io::Result<()> {
        if self.parent_exists(path) {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }
}

impl Vfs for MemVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let state = self.state.lock().expect("memvfs lock");
        state
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let state = self.state.lock().expect("memvfs lock");
        state
            .files
            .get(path)
            .map(|b| b.len() as u64)
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock().expect("memvfs lock");
        state.require_parent(path)?;
        state.files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock().expect("memvfs lock");
        state.require_parent(path)?;
        state
            .files
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.state.lock().expect("memvfs lock");
        state.require_parent(to)?;
        let bytes = state.files.remove(from).ok_or_else(|| not_found(from))?;
        state.files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut state = self.state.lock().expect("memvfs lock");
        state
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut state = self.state.lock().expect("memvfs lock");
        let mut ancestors: Vec<PathBuf> = path
            .ancestors()
            .filter(|p| !p.as_os_str().is_empty())
            .map(Path::to_path_buf)
            .collect();
        ancestors.reverse();
        state.dirs.extend(ancestors);
        Ok(())
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock().expect("memvfs lock");
        state.require_parent(path)?;
        if state.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("memvfs: file exists: {}", path.display()),
            ));
        }
        state.files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut state = self.state.lock().expect("memvfs lock");
        let file = state.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.resize(usize::try_from(len).expect("memvfs file fits usize"), 0);
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let state = self.state.lock().expect("memvfs lock");
        if state.files.contains_key(path) || state.dirs.contains(path) {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let state = self.state.lock().expect("memvfs lock");
        if !state.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        let mut entries: Vec<PathBuf> = state
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect();
        entries.extend(
            state
                .dirs
                .iter()
                .filter(|p| p.parent() == Some(dir))
                .cloned(),
        );
        entries.sort();
        Ok(entries)
    }

    fn exists(&self, path: &Path) -> bool {
        let state = self.state.lock().expect("memvfs lock");
        state.files.contains_key(path) || state.dirs.contains(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_filesystem() {
        let vfs = MemVfs::new();
        let dir = Path::new("/db");
        assert!(vfs.write(&dir.join("x"), b"no parent yet").is_err());
        vfs.create_dir_all(dir).unwrap();
        assert!(vfs.exists(dir));
        assert!(vfs.exists(Path::new("/")));

        let a = dir.join("a.bin");
        assert!(vfs.len(&a).is_err());
        vfs.write(&a, b"abc").unwrap();
        vfs.append(&a, b"def").unwrap();
        assert_eq!(vfs.read(&a).unwrap(), b"abcdef");
        assert_eq!(vfs.len(&a).unwrap(), 6);
        vfs.truncate(&a, 2).unwrap();
        assert_eq!(vfs.read(&a).unwrap(), b"ab");
        vfs.truncate(&a, 4).unwrap();
        assert_eq!(vfs.read(&a).unwrap(), b"ab\0\0", "truncate zero-extends");
        vfs.sync(&a).unwrap();
        assert!(vfs.sync(&dir.join("ghost")).is_err());

        vfs.create_new(&dir.join("lock"), b"1").unwrap();
        let err = vfs.create_new(&dir.join("lock"), b"2").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);

        let b = dir.join("b.bin");
        vfs.rename(&a, &b).unwrap();
        assert!(!vfs.exists(&a));
        assert_eq!(
            vfs.read_dir(dir).unwrap(),
            vec![b.clone(), dir.join("lock")]
        );

        vfs.remove_file(&b).unwrap();
        assert!(vfs.remove_file(&b).is_err());
        assert!(vfs.read_dir(Path::new("/nope")).is_err());
    }

    #[test]
    fn append_creates_and_read_missing_errors() {
        let vfs = MemVfs::new();
        vfs.create_dir_all(Path::new("/d")).unwrap();
        let f = Path::new("/d/log");
        assert!(vfs.read(f).is_err());
        vfs.append(f, b"x").unwrap();
        assert_eq!(vfs.read(f).unwrap(), b"x");
    }
}
