//! A [`Storage`] decorator that times and counts every call.
//!
//! It sits between the durable service of the traced replay and a real
//! [`sit_server::DirStorage`]: each call runs under a `storage.*` span of
//! the benchmark's tracer (nested under the `service.handle_line` span
//! that caused it) and adds to byte and call counters. Results pass
//! through untouched; the self-check in `checks` holds it to that.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use sit_obs::trace::Tracer;
use sit_server::Storage;

/// Timing, counting pass-through over any [`Storage`].
pub struct TimedStorage<S> {
    inner: S,
    tracer: Tracer,
    /// Bytes handed to `append` and `write_atomic`.
    pub bytes_written: AtomicU64,
    /// `sync` calls.
    pub syncs: AtomicU64,
}

impl<S: Storage> TimedStorage<S> {
    /// Wrap `inner`, recording spans on `tracer`.
    pub fn new(inner: S, tracer: Tracer) -> TimedStorage<S> {
        TimedStorage {
            inner,
            tracer,
            bytes_written: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        }
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let _span = self.tracer.span("storage.append");
        self.inner.append(name, data)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        let _span = self.tracer.span("storage.sync");
        self.inner.sync(name)
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let _span = self.tracer.span("storage.write_atomic");
        self.inner.write_atomic(name, data)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let _span = self.tracer.span("storage.read");
        self.inner.read(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let _span = self.tracer.span("storage.remove");
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let _span = self.tracer.span("storage.list");
        self.inner.list()
    }
}
