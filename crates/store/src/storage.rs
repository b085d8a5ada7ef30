//! The storage backend abstraction the WAL and checkpoints write through:
//! a tiny named-object store with append, atomic replace, truncate, and
//! removal.
//!
//! Two implementations ship:
//!
//! * [`MemStorage`] — deterministic in-memory "disk" for the simulator.
//!   A site's [`MemStorage`] lives *outside* the volatile service state, so
//!   a simulated crash wipes the services but the storage — like a real
//!   disk — survives for replay.
//! * [`FileStorage`] — one file per object under a root directory, with
//!   `replace` done as write-to-temp + rename so checkpoint slots are never
//!   observable half-written.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;

/// Storage-layer failure (I/O errors for [`FileStorage`]; [`MemStorage`]
/// only reports missing objects).
#[derive(Debug)]
pub enum StorageError {
    /// The named object does not exist.
    NotFound(String),
    /// An underlying I/O failure (file backend).
    Io {
        /// Object the operation targeted.
        name: String,
        /// Source error.
        source: std::io::Error,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(name) => write!(f, "object {name:?} not found"),
            StorageError::Io { name, source } => write!(f, "i/o on {name:?}: {source}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// A named-object store. Object names are flat strings (the WAL uses
/// `wal-NNNNNNNN.log`, checkpoints use `ckpt-a` / `ckpt-b`).
pub trait Storage: fmt::Debug {
    /// All object names, sorted.
    fn list(&self) -> Vec<String>;
    /// Size of `name` in bytes, or `None` if absent.
    fn len(&self, name: &str) -> Option<u64>;
    /// Full contents of `name`.
    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError>;
    /// Append `bytes` to `name`, creating it if absent.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;
    /// Atomically replace the contents of `name` with `bytes`.
    fn replace(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;
    /// Shrink `name` to `len` bytes (no-op if already shorter).
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StorageError>;
    /// Delete `name` (no error if absent).
    fn remove(&mut self, name: &str) -> Result<(), StorageError>;
}

/// Deterministic in-memory storage backend.
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    objects: BTreeMap<String, Vec<u8>>,
}

impl MemStorage {
    /// Empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct access to an object's bytes — test hook for injecting damage
    /// (bit flips, truncation) between a write and a replay.
    pub fn object_mut(&mut self, name: &str) -> Option<&mut Vec<u8>> {
        self.objects.get_mut(name)
    }
}

impl Storage for MemStorage {
    fn list(&self) -> Vec<String> {
        self.objects.keys().cloned().collect()
    }

    fn len(&self, name: &str) -> Option<u64> {
        self.objects.get(name).map(|b| b.len() as u64)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.objects
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(name.to_string()))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        // Looked up first: an append to an existing object allocates no key.
        if let Some(obj) = self.objects.get_mut(name) {
            obj.extend_from_slice(bytes);
        } else {
            self.objects.insert(name.to_string(), bytes.to_vec());
        }
        Ok(())
    }

    fn replace(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.objects.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StorageError> {
        if let Some(obj) = self.objects.get_mut(name) {
            obj.truncate(len as usize);
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.objects.remove(name);
        Ok(())
    }
}

/// File-per-object storage under a root directory. `replace` writes a
/// `.tmp` sibling and renames it into place, so a crash mid-replace leaves
/// either the old or the new contents, never a torn mix.
#[derive(Debug)]
pub struct FileStorage {
    root: PathBuf,
}

impl FileStorage {
    /// Open (creating if needed) the directory `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|source| StorageError::Io {
            name: root.display().to_string(),
            source,
        })?;
        Ok(Self { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn io(name: &str, source: std::io::Error) -> StorageError {
        StorageError::Io {
            name: name.to_string(),
            source,
        }
    }
}

impl Storage for FileStorage {
    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.root)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                (!name.ends_with(".tmp")).then_some(name)
            })
            .collect();
        names.sort();
        names
    }

    fn len(&self, name: &str) -> Option<u64> {
        std::fs::metadata(self.path(name)).ok().map(|m| m.len())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StorageError::NotFound(name.to_string()))
            }
            Err(e) => Err(Self::io(name, e)),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(|e| Self::io(name, e))?;
        f.write_all(bytes).map_err(|e| Self::io(name, e))
    }

    fn replace(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let tmp = self.path(&format!("{name}.tmp"));
        std::fs::write(&tmp, bytes).map_err(|e| Self::io(name, e))?;
        std::fs::rename(&tmp, self.path(name)).map_err(|e| Self::io(name, e))
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StorageError> {
        match std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
        {
            Ok(f) => {
                // `set_len` would *extend* a shorter file with zeros;
                // truncate is shrink-only by contract.
                let cur = f.metadata().map_err(|e| Self::io(name, e))?.len();
                if len < cur {
                    f.set_len(len).map_err(|e| Self::io(name, e))?;
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io(name, e)),
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io(name, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(storage: &mut dyn Storage) {
        assert!(storage.list().is_empty());
        storage.append("a", b"hello ").unwrap();
        storage.append("a", b"world").unwrap();
        assert_eq!(storage.read("a").unwrap(), b"hello world");
        assert_eq!(storage.len("a"), Some(11));

        storage.replace("a", b"short").unwrap();
        assert_eq!(storage.read("a").unwrap(), b"short");

        storage.truncate("a", 2).unwrap();
        assert_eq!(storage.read("a").unwrap(), b"sh");
        storage.truncate("a", 100).unwrap(); // longer than current: no-op
        assert_eq!(storage.read("a").unwrap(), b"sh");

        storage.append("b", b"x").unwrap();
        assert_eq!(storage.list(), vec!["a".to_string(), "b".to_string()]);

        storage.remove("a").unwrap();
        storage.remove("a").unwrap(); // idempotent
        assert!(matches!(storage.read("a"), Err(StorageError::NotFound(_))));
        assert_eq!(storage.len("a"), None);
    }

    #[test]
    fn mem_storage_contract() {
        exercise(&mut MemStorage::new());
    }

    #[test]
    fn file_storage_contract() {
        let dir = std::env::temp_dir().join(format!(
            "aequus-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut storage = FileStorage::open(&dir).unwrap();
        exercise(&mut storage);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
