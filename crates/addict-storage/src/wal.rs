//! The write-ahead log: monotone LSNs, the log-tail byte offset, and flush
//! accounting.
//!
//! The log tail is one of the few *written* shared data structures in the
//! system — every transaction appends to it, which is why log-buffer blocks
//! show up among the commonly accessed data of Section 2.2.2. The engine
//! maps each append's byte offset to a log-buffer block via
//! `addict_trace::layout::log_block`, so only the record kinds and their
//! sizes are kept, not the records themselves.

/// What a log record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogPayload {
    /// Transaction begin.
    XctBegin,
    /// Transaction commit.
    XctCommit,
    /// Transaction abort.
    XctAbort,
    /// Record update (before/after images elided; size accounted).
    Update,
    /// Record insertion.
    Insert,
    /// Record deletion.
    Delete,
    /// Heap/index page allocation.
    PageAlloc,
    /// B+-tree structural modification (split/merge/root change).
    Smo,
}

impl LogPayload {
    /// Approximate serialized size in bytes (drives log-tail advancement).
    pub fn size(&self) -> u64 {
        match self {
            LogPayload::XctBegin | LogPayload::XctCommit | LogPayload::XctAbort => 24,
            LogPayload::Update => 120,
            LogPayload::Insert => 140,
            LogPayload::Delete => 96,
            LogPayload::PageAlloc => 48,
            LogPayload::Smo => 160,
        }
    }
}

/// The log manager.
#[derive(Debug)]
pub struct LogManager {
    next_lsn: u64,
    tail_bytes: u64,
    durable_lsn: u64,
}

impl LogManager {
    /// Append a record; returns `(lsn, byte offset of the record)`.
    pub fn append(&mut self, payload: LogPayload) -> (u64, u64) {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let offset = self.tail_bytes;
        self.tail_bytes += payload.size();
        (lsn, offset)
    }

    /// Force the log: everything appended so far becomes durable.
    pub fn flush(&mut self) -> u64 {
        self.durable_lsn = self.next_lsn - 1;
        self.durable_lsn
    }

    /// Highest durable LSN.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// Next LSN to be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }
}

impl Default for LogManager {
    fn default() -> Self {
        LogManager {
            next_lsn: 1,
            tail_bytes: 0,
            durable_lsn: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsns_are_monotone_and_dense() {
        let mut log = LogManager::default();
        let (l1, o1) = log.append(LogPayload::XctBegin);
        let (l2, o2) = log.append(LogPayload::Update);
        let (l3, o3) = log.append(LogPayload::XctBegin);
        assert_eq!((l1, l2, l3), (1, 2, 3));
        assert_eq!(o1, 0);
        assert_eq!(o2, LogPayload::XctBegin.size());
        assert_eq!(o3, o2 + LogPayload::Update.size());
        assert_eq!(log.next_lsn(), 4);
    }

    #[test]
    fn flush_advances_durable_lsn() {
        let mut log = LogManager::default();
        log.append(LogPayload::XctBegin);
        log.append(LogPayload::XctCommit);
        assert_eq!(log.durable_lsn(), 0);
        assert_eq!(log.flush(), 2);
        assert_eq!(log.durable_lsn(), 2);
    }

    /// The sizes fix every append's byte offset, and through
    /// `layout::log_block` the traced log-buffer addresses: pin them.
    #[test]
    fn payload_sizes_positive() {
        use LogPayload::*;
        let sizes = [
            (XctBegin, 24),
            (XctCommit, 24),
            (XctAbort, 24),
            (Update, 120),
            (Insert, 140),
            (Delete, 96),
            (PageAlloc, 48),
            (Smo, 160),
        ];
        for (p, bytes) in sizes {
            assert_eq!(p.size(), bytes, "{p:?}");
        }
    }
}
