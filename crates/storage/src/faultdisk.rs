//! A journaling, fault-injecting [`DiskManager`] wrapper for crash
//! enumeration.
//!
//! [`JournalDisk`] sits between the buffer pool and a real disk and records
//! every durability boundary the engine crosses: each completed
//! [`DiskManager::write_page`] (with the full page image and the WAL
//! durability watermark at the moment of the write) and each
//! [`DiskManager::sync`]. A crash-consistency checker can then *materialize*
//! the exact on-disk state "as of" any journal position — the base snapshot
//! plus a prefix of the recorded writes — and run real recovery against it.
//!
//! Journal prefixes are the valid crash states of this engine's durability
//! model: the pool issues page writes synchronously and sequences
//! careful-writing prerequisites *before* their dependents, so any prefix of
//! the write journal respects both the WAL rule (a page's LSN is durable
//! before the page is written) and the §5.1 write-order dependencies.
//!
//! The wrapper can also inject write and read faults
//! ([`JournalDisk::fail_after_writes`], [`JournalDisk::fail_after_reads`])
//! so tests can drive the engine's error paths through the same trait
//! boundary the checker observes.

use obr_sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use obr_sync::Mutex;

use crate::disk::{DiskManager, DiskStats, InMemoryDisk};
use crate::error::{StorageError, StorageResult};
use crate::page::{Lsn, Page, PageId};

/// Where the current WAL durability watermark can be read from. Implemented
/// by the log manager; the journal stamps every write with it so crash
/// enumeration knows which log prefixes each write is consistent with.
pub trait DurabilityWitness: Send + Sync {
    /// The highest durable LSN right now.
    fn durability_mark(&self) -> Lsn;
}

/// One recorded durability event.
enum Entry {
    /// A completed page write: id, full image, watermark at write time.
    Write {
        id: PageId,
        image: Box<Page>,
        mark: Lsn,
    },
    /// A `sync()` call, with the watermark at sync time.
    Sync { mark: Lsn },
    /// The disk grew to `pages` pages.
    Grow { pages: u32 },
}

/// Metadata of one journal entry, in recording order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEventInfo {
    /// Position in the journal (0-based).
    pub index: usize,
    /// WAL durability watermark when the event happened.
    pub mark: Lsn,
    /// The page written, for write events.
    pub write: Option<PageId>,
    /// True for `sync()` events.
    pub is_sync: bool,
}

struct JournalState {
    recording: bool,
    /// `(id, image)` of every non-zero page at `begin_journal` time.
    base: Vec<(PageId, Box<Page>)>,
    base_pages: u32,
    entries: Vec<Entry>,
}

/// A [`DiskManager`] that forwards to an inner disk while journaling every
/// durability boundary. See the module docs.
pub struct JournalDisk {
    inner: Arc<dyn DiskManager>,
    witness: Mutex<Option<Arc<dyn DurabilityWitness>>>,
    state: Mutex<JournalState>,
    /// Writes remaining until an injected failure; negative = disarmed.
    fail_in: AtomicI64,
    /// Reads remaining until an injected failure; negative = disarmed.
    read_fail_in: AtomicI64,
}

/// One step of a one-shot fault countdown: true when this call is the one
/// that fails.
fn countdown_fires(counter: &AtomicI64) -> bool {
    counter.load(Ordering::SeqCst) >= 0 && counter.fetch_sub(1, Ordering::SeqCst) == 0
}

impl JournalDisk {
    /// Wrap `inner`. Journaling starts disabled; call
    /// [`Self::begin_journal`] once the baseline state is in place.
    pub fn new(inner: Arc<dyn DiskManager>) -> JournalDisk {
        JournalDisk {
            inner,
            witness: Mutex::named(None, "disk.witness"),
            state: Mutex::named(
                JournalState {
                    recording: false,
                    base: Vec::new(),
                    base_pages: 0,
                    entries: Vec::new(),
                },
                "disk.journal",
            ),
            fail_in: AtomicI64::new(-1),
            read_fail_in: AtomicI64::new(-1),
        }
    }

    /// Install the watermark source (normally the WAL's log manager).
    pub fn set_witness(&self, w: Arc<dyn DurabilityWitness>) {
        *self.witness.lock() = Some(w);
    }

    /// Snapshot the inner disk as the journal's base state and start
    /// recording. Any previous journal is discarded.
    pub fn begin_journal(&self) -> StorageResult<()> {
        let pages = self.inner.num_pages();
        let mut base = Vec::new();
        for i in 0..pages {
            let p = self.inner.read_page(PageId(i))?;
            if p.bytes().iter().any(|&b| b != 0) {
                base.push((PageId(i), Box::new(p)));
            }
        }
        let mut st = self.state.lock();
        st.base = base;
        st.base_pages = pages;
        st.entries = Vec::new();
        st.recording = true;
        Ok(())
    }

    /// Inject a write fault: the `n+1`-th write from now returns an I/O
    /// error (and is neither journaled nor forwarded). One-shot.
    pub fn fail_after_writes(&self, n: u64) {
        self.fail_in.store(n as i64, Ordering::SeqCst);
    }

    /// Inject a read fault: the `n+1`-th read from now returns an I/O
    /// error. One-shot.
    pub fn fail_after_reads(&self, n: u64) {
        self.read_fail_in.store(n as i64, Ordering::SeqCst);
    }

    /// Metadata of every recorded event, in order.
    pub fn events(&self) -> Vec<JournalEventInfo> {
        let st = self.state.lock();
        st.entries
            .iter()
            .enumerate()
            .map(|(index, e)| match e {
                Entry::Write { id, mark, .. } => JournalEventInfo {
                    index,
                    mark: *mark,
                    write: Some(*id),
                    is_sync: false,
                },
                Entry::Sync { mark } => JournalEventInfo {
                    index,
                    mark: *mark,
                    write: None,
                    is_sync: true,
                },
                Entry::Grow { .. } => JournalEventInfo {
                    index,
                    mark: Lsn::ZERO,
                    write: None,
                    is_sync: false,
                },
            })
            .collect()
    }

    /// Number of journal entries recorded so far.
    pub fn journal_len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Build a fresh in-memory disk holding the state "as of" journal
    /// position `upto`: the base snapshot plus `entries[..upto]` replayed.
    pub fn materialize(&self, upto: usize) -> StorageResult<Arc<InMemoryDisk>> {
        let st = self.state.lock();
        let upto = upto.min(st.entries.len());
        let mut pages = st.base_pages;
        for e in &st.entries[..upto] {
            if let Entry::Grow { pages: p } = e {
                pages = pages.max(*p);
            }
        }
        let disk = Arc::new(InMemoryDisk::new(pages));
        for (id, image) in &st.base {
            disk.write_page(*id, image)?;
        }
        for e in &st.entries[..upto] {
            if let Entry::Write { id, image, .. } = e {
                disk.write_page(*id, image)?;
            }
        }
        disk.reset_stats();
        Ok(disk)
    }

    fn mark(&self) -> Lsn {
        self.witness
            .lock()
            .as_ref()
            .map(|w| w.durability_mark())
            .unwrap_or(Lsn::ZERO)
    }
}

impl DiskManager for JournalDisk {
    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        if countdown_fires(&self.read_fail_in) {
            return Err(StorageError::Io(std::io::Error::other(
                "injected read fault",
            )));
        }
        self.inner.read_page(id)
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        if countdown_fires(&self.fail_in) {
            return Err(StorageError::Io(std::io::Error::other(
                "injected write fault",
            )));
        }
        self.inner.write_page(id, page)?;
        let mut st = self.state.lock();
        if st.recording {
            let mark = self.mark();
            debug_assert!(
                st.entries
                    .iter()
                    .rev()
                    .find_map(|e| match e {
                        Entry::Write { mark: m, .. } | Entry::Sync { mark: m } => Some(*m),
                        Entry::Grow { .. } => None,
                    })
                    .map(|m| m <= mark)
                    .unwrap_or(true),
                "durability watermark moved backwards"
            );
            st.entries.push(Entry::Write {
                id,
                image: Box::new(page.clone()),
                mark,
            });
        }
        Ok(())
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn ensure_capacity(&self, pages: u32) -> StorageResult<()> {
        self.inner.ensure_capacity(pages)?;
        let mut st = self.state.lock();
        if st.recording {
            st.entries.push(Entry::Grow { pages });
        }
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        self.inner.sync()?;
        let mut st = self.state.lock();
        if st.recording {
            let mark = self.mark();
            st.entries.push(Entry::Sync { mark });
        }
        Ok(())
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;

    struct FixedMark(Lsn);
    impl DurabilityWitness for FixedMark {
        fn durability_mark(&self) -> Lsn {
            self.0
        }
    }

    fn page_with_lsn(l: Lsn) -> Page {
        let mut p = Page::new();
        p.format(PageType::Leaf, 0);
        p.set_lsn(l);
        p
    }

    #[test]
    fn journal_records_writes_and_materializes_prefixes() {
        let inner = Arc::new(InMemoryDisk::new(8));
        let jd = JournalDisk::new(Arc::clone(&inner) as Arc<dyn DiskManager>);
        jd.write_page(PageId(1), &page_with_lsn(Lsn(5))).unwrap();
        jd.begin_journal().unwrap();
        jd.set_witness(Arc::new(FixedMark(Lsn(10))));
        jd.write_page(PageId(2), &page_with_lsn(Lsn(9))).unwrap();
        jd.sync().unwrap();
        jd.write_page(PageId(3), &page_with_lsn(Lsn(10))).unwrap();
        let ev = jd.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].write, Some(PageId(2)));
        assert_eq!(ev[0].mark, Lsn(10));
        assert!(ev[1].is_sync);
        // Prefix 0: only the base (page 1) is present.
        let d0 = jd.materialize(0).unwrap();
        assert_eq!(d0.read_page(PageId(1)).unwrap().lsn(), Lsn(5));
        assert_eq!(
            d0.read_page(PageId(3)).unwrap().page_type(),
            Some(PageType::Free)
        );
        // Prefix 3: everything.
        let d3 = jd.materialize(3).unwrap();
        assert_eq!(d3.read_page(PageId(3)).unwrap().lsn(), Lsn(10));
        // The journal disk itself saw every write.
        assert_eq!(inner.read_page(PageId(3)).unwrap().lsn(), Lsn(10));
    }

    #[test]
    fn injected_write_fault_fires_once() {
        let inner = Arc::new(InMemoryDisk::new(4));
        let jd = JournalDisk::new(inner as Arc<dyn DiskManager>);
        jd.fail_after_writes(1);
        jd.write_page(PageId(0), &Page::new()).unwrap();
        assert!(jd.write_page(PageId(1), &Page::new()).is_err());
        jd.write_page(PageId(2), &Page::new()).unwrap();
    }

    #[test]
    fn materialize_honours_growth() {
        let inner = Arc::new(InMemoryDisk::new(4));
        let jd = JournalDisk::new(inner as Arc<dyn DiskManager>);
        jd.begin_journal().unwrap();
        jd.ensure_capacity(16).unwrap();
        jd.write_page(PageId(12), &page_with_lsn(Lsn(1))).unwrap();
        let d = jd.materialize(2).unwrap();
        assert_eq!(d.num_pages(), 16);
        assert_eq!(d.read_page(PageId(12)).unwrap().lsn(), Lsn(1));
        // A prefix before the growth stays small.
        assert_eq!(jd.materialize(0).unwrap().num_pages(), 4);
    }
}
