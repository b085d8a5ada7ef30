//! The disk the WAL and checkpoints write to: [`MemStorage`], a tiny
//! deterministic in-memory named-object store with append, replace,
//! truncate and removal. None of its operations can fail.
//!
//! A site's [`MemStorage`] lives *outside* the volatile service state, so a
//! simulated crash wipes the services but the storage — like a real disk —
//! survives for replay.

use std::collections::BTreeMap;

/// Deterministic in-memory storage. Object names are flat strings (the WAL
/// uses `wal-NNNNNNNN.log`, checkpoints use `ckpt-a` / `ckpt-b`).
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    objects: BTreeMap<String, Vec<u8>>,
}

impl MemStorage {
    /// Empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// All object names, sorted.
    pub fn list(&self) -> Vec<String> {
        self.objects.keys().cloned().collect()
    }

    /// Size of `name` in bytes, or `None` if absent.
    pub fn len(&self, name: &str) -> Option<u64> {
        self.objects.get(name).map(|b| b.len() as u64)
    }

    /// Full contents of `name`, or `None` if absent.
    pub fn read(&self, name: &str) -> Option<&[u8]> {
        self.objects.get(name).map(Vec::as_slice)
    }

    /// Append `bytes` to `name`, creating it if absent.
    pub fn append(&mut self, name: &str, bytes: &[u8]) {
        // Looked up first: an append to an existing object allocates no key.
        if let Some(obj) = self.objects.get_mut(name) {
            obj.extend_from_slice(bytes);
        } else {
            self.objects.insert(name.to_string(), bytes.to_vec());
        }
    }

    /// Replace the contents of `name` with `bytes`.
    pub fn replace(&mut self, name: &str, bytes: &[u8]) {
        self.objects.insert(name.to_string(), bytes.to_vec());
    }

    /// Shrink `name` to `len` bytes (no-op if already shorter or absent).
    pub fn truncate(&mut self, name: &str, len: u64) {
        if let Some(obj) = self.objects.get_mut(name) {
            obj.truncate(len as usize);
        }
    }

    /// Delete `name` (no-op if absent).
    pub fn remove(&mut self, name: &str) {
        self.objects.remove(name);
    }

    /// Direct access to an object's bytes — test hook for injecting damage
    /// (bit flips, truncation) between a write and a replay.
    pub fn object_mut(&mut self, name: &str) -> Option<&mut Vec<u8>> {
        self.objects.get_mut(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(storage: &mut MemStorage) {
        assert!(storage.list().is_empty());
        storage.append("a", b"hello ");
        storage.append("a", b"world");
        assert_eq!(storage.read("a"), Some(&b"hello world"[..]));
        assert_eq!(storage.len("a"), Some(11));

        storage.replace("a", b"short");
        assert_eq!(storage.read("a"), Some(&b"short"[..]));

        storage.truncate("a", 2);
        assert_eq!(storage.read("a"), Some(&b"sh"[..]));
        storage.truncate("a", 100); // longer than current: no-op
        assert_eq!(storage.read("a"), Some(&b"sh"[..]));

        storage.append("b", b"x");
        assert_eq!(storage.list(), vec!["a".to_string(), "b".to_string()]);

        storage.remove("a");
        storage.remove("a"); // idempotent
        assert_eq!(storage.read("a"), None);
        assert_eq!(storage.len("a"), None);
    }

    #[test]
    fn mem_storage_contract() {
        exercise(&mut MemStorage::new());
        // An object never written reads as absent.
        assert_eq!(MemStorage::new().read("never-written"), None);
    }
}
