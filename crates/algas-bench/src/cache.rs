//! On-disk caching of built indexes and ground truth.
//!
//! Graph construction dominates experiment wall-clock, so the harness
//! builds each (dataset, builder) pair once and caches it under
//! `target/algas-cache/`. Blobs use the canonical binary encodings of
//! `algas_vector::binary` / `algas_graph::binary`; keys bake in every
//! generation parameter plus a version, so stale entries can't be read
//! back.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

pub use algas_graph::binary::{decode_graph, encode_graph};
pub use algas_vector::binary::{decode_store, encode_store};

/// A directory-backed cache.
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (creating) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The workspace-default cache under `target/algas-cache`.
    pub fn default_location() -> io::Result<Self> {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        Self::open(target.join("algas-cache"))
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.bin"))
    }

    /// Fetches a blob, or computes, stores, and returns it.
    pub fn get_or_put(&self, key: &str, compute: impl FnOnce() -> Vec<u8>) -> io::Result<Vec<u8>> {
        let path = self.path(key);
        if let Ok(mut f) = std::fs::File::open(&path) {
            let mut buf = Vec::new();
            f.read_to_end(&mut buf)?;
            return Ok(buf);
        }
        let blob = compute();
        // Write-then-rename for crash atomicity.
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&blob)?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(blob)
    }

    /// Path of the cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_blobs_rejected() {
        use algas_vector::VectorStore;
        assert!(decode_graph(&encode_store(&VectorStore::from_flat(1, vec![1.0]))).is_err());
    }

    #[test]
    fn disk_cache_computes_once() {
        let dir = std::env::temp_dir().join(format!("algas-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open(&dir).unwrap();
        let mut computed = 0;
        for _ in 0..3 {
            let blob = cache
                .get_or_put("k1", || {
                    computed += 1;
                    b"hello".to_vec()
                })
                .unwrap();
            assert_eq!(&blob[..], b"hello");
        }
        assert_eq!(computed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
