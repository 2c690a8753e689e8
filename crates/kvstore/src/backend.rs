//! Storage backends: real files or in-memory buffers.
//!
//! The paper's Experiment 3 compares SSD-backed against RAM-disk-backed
//! peers. Abstracting the byte storage behind [`Backend`] lets the same
//! store, WAL, and block-store code run against both, and makes the
//! comparison a one-line configuration change.
//!
//! Files expose two read paths: the historical `read_at(&mut self)` used
//! by single-owner appenders, and [`BackendFile::read_at_shared`], a
//! positioned read through `&self` (`pread` on the filesystem backend) so
//! concurrent block fetches never serialize on one file lock.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::StoreError;

/// A named, append-oriented byte file within a backend.
///
/// `Sync` is required so block-store readers can share one handle across
/// threads through the `&self` positioned-read path.
pub trait BackendFile: Send + Sync {
    /// Appends bytes at the end, returning the offset they were written at.
    fn append(&mut self, data: &[u8]) -> Result<u64, StoreError>;
    /// Reads `len` bytes at `offset`; short reads are errors.
    ///
    /// Default: delegates to the shared positioned read.
    fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        self.read_at_shared(offset, len)
    }
    /// Positioned read through a shared reference: safe to call from many
    /// threads at once without external locking.
    fn read_at_shared(&self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError>;
    /// Current length in bytes.
    fn len(&mut self) -> Result<u64, StoreError>;
    /// Returns `true` if the file is empty.
    fn is_empty(&mut self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }
    /// Truncates to `len` bytes.
    fn truncate(&mut self, len: u64) -> Result<(), StoreError>;
    /// Flushes buffered writes to stable storage.
    fn sync(&mut self) -> Result<(), StoreError>;
}

/// A factory for named files: a directory on disk or an in-memory map.
pub trait Backend: Send + Sync {
    /// Opens (creating if missing) the named file.
    fn open(&self, name: &str) -> Result<Box<dyn BackendFile>, StoreError>;
    /// Returns `true` if the named file exists (with any content).
    fn exists(&self, name: &str) -> Result<bool, StoreError>;
    /// Deletes the named file if present.
    fn remove(&self, name: &str) -> Result<(), StoreError>;
    /// Atomically replaces `dst` with `src` (rename semantics).
    fn rename(&self, src: &str, dst: &str) -> Result<(), StoreError>;
}

/// File-system backend rooted at a directory.
pub struct FsBackend {
    dir: PathBuf,
}

impl FsBackend {
    /// Creates the backend, creating the directory if needed.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(StoreError::io)?;
        Ok(FsBackend { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

struct FsFile {
    file: File,
}

impl BackendFile for FsFile {
    fn append(&mut self, data: &[u8]) -> Result<u64, StoreError> {
        let offset = self.file.seek(SeekFrom::End(0)).map_err(StoreError::io)?;
        self.file.write_all(data).map_err(StoreError::io)?;
        Ok(offset)
    }

    fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        self.file
            .seek(SeekFrom::Start(offset))
            .map_err(StoreError::io)?;
        let mut buf = vec![0u8; len];
        self.file.read_exact(&mut buf).map_err(StoreError::io)?;
        Ok(buf)
    }

    #[cfg(unix)]
    fn read_at_shared(&self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        use std::os::unix::fs::FileExt;
        let mut buf = vec![0u8; len];
        self.file
            .read_exact_at(&mut buf, offset)
            .map_err(StoreError::io)?;
        Ok(buf)
    }

    #[cfg(not(unix))]
    fn read_at_shared(&self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        // `Read`/`Seek` are implemented for `&File`: the OS serializes the
        // cursor, so guard the seek+read pair with a fresh handle instead.
        let mut file = self.file.try_clone().map_err(StoreError::io)?;
        file.seek(SeekFrom::Start(offset)).map_err(StoreError::io)?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf).map_err(StoreError::io)?;
        Ok(buf)
    }

    fn len(&mut self) -> Result<u64, StoreError> {
        Ok(self.file.metadata().map_err(StoreError::io)?.len())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.file.set_len(len).map_err(StoreError::io)
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data().map_err(StoreError::io)
    }
}

impl Backend for FsBackend {
    fn open(&self, name: &str) -> Result<Box<dyn BackendFile>, StoreError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.path(name))
            .map_err(StoreError::io)?;
        Ok(Box::new(FsFile { file }))
    }

    fn exists(&self, name: &str) -> Result<bool, StoreError> {
        Ok(self.path(name).exists())
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::io(e)),
        }
    }

    fn rename(&self, src: &str, dst: &str) -> Result<(), StoreError> {
        fs::rename(self.path(src), self.path(dst)).map_err(StoreError::io)
    }
}

/// One shared in-memory file: bytes behind a read-write lock, so shared
/// positioned reads proceed in parallel.
type MemFileData = Arc<RwLock<Vec<u8>>>;

/// In-memory backend (the "RAM disk" of paper Experiment 3).
#[derive(Default, Clone)]
pub struct MemBackend {
    files: Arc<RwLock<HashMap<String, MemFileData>>>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deep-copies every file into an independent backend — the crash
    /// batteries use this to photograph "disk" state at a point in time.
    pub fn deep_clone(&self) -> MemBackend {
        let files = self.files.read();
        let copied: HashMap<String, MemFileData> = files
            .iter()
            .map(|(name, data)| (name.clone(), Arc::new(RwLock::new(data.read().clone()))))
            .collect();
        MemBackend {
            files: Arc::new(RwLock::new(copied)),
        }
    }
}

struct MemFile {
    data: MemFileData,
}

impl BackendFile for MemFile {
    fn append(&mut self, data: &[u8]) -> Result<u64, StoreError> {
        let mut buf = self.data.write();
        let offset = buf.len() as u64;
        buf.extend_from_slice(data);
        Ok(offset)
    }

    fn read_at_shared(&self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        let buf = self.data.read();
        let start = offset as usize;
        let end = start.checked_add(len).ok_or(StoreError::Corrupt)?;
        if end > buf.len() {
            return Err(StoreError::Corrupt);
        }
        Ok(buf[start..end].to_vec())
    }

    fn len(&mut self) -> Result<u64, StoreError> {
        Ok(self.data.read().len() as u64)
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        let mut buf = self.data.write();
        buf.truncate(len as usize);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}

impl Backend for MemBackend {
    fn open(&self, name: &str) -> Result<Box<dyn BackendFile>, StoreError> {
        let mut files = self.files.write();
        let data = files
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(RwLock::new(Vec::new())))
            .clone();
        Ok(Box::new(MemFile { data }))
    }

    fn exists(&self, name: &str) -> Result<bool, StoreError> {
        Ok(self.files.read().contains_key(name))
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        self.files.write().remove(name);
        Ok(())
    }

    fn rename(&self, src: &str, dst: &str) -> Result<(), StoreError> {
        let mut files = self.files.write();
        let data = files.remove(src).ok_or(StoreError::Corrupt)?;
        files.insert(dst.to_string(), data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn Backend) {
        let mut f = backend.open("test.bin").unwrap();
        assert!(f.is_empty().unwrap());
        let off0 = f.append(b"hello").unwrap();
        let off1 = f.append(b"world").unwrap();
        assert_eq!(off0, 0);
        assert_eq!(off1, 5);
        assert_eq!(f.read_at(0, 5).unwrap(), b"hello");
        assert_eq!(f.read_at(5, 5).unwrap(), b"world");
        assert_eq!(f.read_at_shared(0, 5).unwrap(), b"hello");
        assert_eq!(f.read_at_shared(5, 5).unwrap(), b"world");
        assert_eq!(f.len().unwrap(), 10);
        assert!(f.read_at(6, 10).is_err());
        assert!(f.read_at_shared(6, 10).is_err());
        f.truncate(5).unwrap();
        assert_eq!(f.len().unwrap(), 5);
        f.sync().unwrap();
        assert!(backend.exists("test.bin").unwrap());
        backend.rename("test.bin", "renamed.bin").unwrap();
        assert!(!backend.exists("test.bin").unwrap());
        assert!(backend.exists("renamed.bin").unwrap());
        backend.remove("renamed.bin").unwrap();
        backend.remove("renamed.bin").unwrap(); // idempotent
        assert!(!backend.exists("renamed.bin").unwrap());
    }

    #[test]
    fn mem_backend() {
        exercise(&MemBackend::new());
    }

    #[test]
    fn fs_backend() {
        let dir = std::env::temp_dir().join(format!("fabric-kv-test-{}", std::process::id()));
        let backend = FsBackend::new(&dir).unwrap();
        exercise(&backend);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_backend_shares_file_state() {
        let b = MemBackend::new();
        let mut f1 = b.open("f").unwrap();
        f1.append(b"abc").unwrap();
        let mut f2 = b.open("f").unwrap();
        assert_eq!(f2.len().unwrap(), 3);
    }

    #[test]
    fn deep_clone_is_independent() {
        let b = MemBackend::new();
        let mut f = b.open("f").unwrap();
        f.append(b"before").unwrap();
        let copy = b.deep_clone();
        f.append(b"-after").unwrap();
        let mut orig = b.open("f").unwrap();
        let mut copied = copy.open("f").unwrap();
        assert_eq!(orig.len().unwrap(), 12);
        assert_eq!(copied.len().unwrap(), 6);
        assert_eq!(copied.read_at(0, 6).unwrap(), b"before");
    }

    #[test]
    fn shared_reads_race_free() {
        let b = MemBackend::new();
        let mut f = b.open("f").unwrap();
        for i in 0..256u32 {
            f.append(&i.to_le_bytes()).unwrap();
        }
        let f: Arc<dyn BackendFile> = Arc::from(b.open("f").unwrap());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                for i in (t..256).step_by(4) {
                    let bytes = f.read_at_shared(u64::from(i) * 4, 4).unwrap();
                    assert_eq!(u32::from_le_bytes(bytes.try_into().unwrap()), i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn fs_backend_persists_across_open() {
        let dir = std::env::temp_dir().join(format!("fabric-kv-test2-{}", std::process::id()));
        {
            let backend = FsBackend::new(&dir).unwrap();
            let mut f = backend.open("data").unwrap();
            f.append(b"persist").unwrap();
            f.sync().unwrap();
        }
        {
            let backend = FsBackend::new(&dir).unwrap();
            let mut f = backend.open("data").unwrap();
            assert_eq!(f.read_at(0, 7).unwrap(), b"persist");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
