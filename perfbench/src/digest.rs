//! Chunking-independent byte digests for the untimed output checks.
//!
//! The check compares streams that arrive in different chunkings (work
//! packages, file reads, socket frames), so the digest is a byte-serial
//! FNV-1a: the same bytes give the same digest however they are split.

use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

use pdgf_output::{Sink, SinkFactory};

/// Running FNV-1a (64-bit) digest plus byte count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    bytes: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self {
            hash: 0xCBF2_9CE4_8422_2325,
            bytes: 0,
        }
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.hash;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        self.hash = h;
        self.bytes += bytes.len() as u64;
    }

    /// Digest of one buffer.
    pub fn of(bytes: &[u8]) -> Self {
        let mut d = Self::default();
        d.update(bytes);
        d
    }

    /// Digest of a whole file, read in 1 MiB chunks.
    pub fn of_file(path: &std::path::Path) -> io::Result<Self> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)?;
        let mut buf = vec![0u8; 1 << 20];
        let mut d = Self::default();
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                return Ok(d);
            }
            d.update(&buf[..n]);
        }
    }

    /// Bytes folded in so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Factory of per-table sinks that keep only a digest of their bytes;
/// each sink publishes its table's digest when it is finished.
#[derive(Debug, Clone, Default)]
pub struct DigestSinkFactory {
    digests: Arc<Mutex<BTreeMap<String, Digest>>>,
}

struct DigestSink {
    table: String,
    digest: Digest,
    digests: Arc<Mutex<BTreeMap<String, Digest>>>,
}

impl Sink for DigestSink {
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.digest.update(bytes);
        Ok(())
    }

    fn finish(&mut self) -> io::Result<u64> {
        self.digests
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(self.table.clone(), self.digest);
        Ok(self.digest.bytes)
    }

    fn bytes_written(&self) -> u64 {
        self.digest.bytes
    }
}

impl SinkFactory for DigestSinkFactory {
    fn make_sink(&mut self, table: &str) -> io::Result<Box<dyn Sink>> {
        Ok(Box::new(DigestSink {
            table: table.to_string(),
            digest: Digest::default(),
            digests: Arc::clone(&self.digests),
        }))
    }
}

impl DigestSinkFactory {
    /// Digest of `table`'s stream, once its sink has been finished.
    pub fn digest(&self, table: &str) -> Option<Digest> {
        self.digests
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(table)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_chunking() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = Digest::of(&data);
        let mut pieces = Digest::default();
        for chunk in data.chunks(97) {
            pieces.update(chunk);
        }
        assert_eq!(whole, pieces);
        assert_eq!(whole.bytes(), 10_000);
        assert_ne!(whole, Digest::of(&data[1..]));
    }
}
