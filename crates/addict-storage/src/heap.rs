//! Heap files: an append-friendly collection of slotted pages per table,
//! with first-fit placement sped up by per-length free-space hints, and
//! explicit page allocation (the `allocate page` path of Figure 1 — taken
//! only when no existing page fits the record).

use std::collections::HashMap;

use crate::error::{StorageError, StorageResult};
use crate::page::SlottedPage;
use crate::rid::Rid;

/// Global page-id allocator shared by heaps and indexes so every page in
/// the database has a unique id (and therefore a unique data-block range).
#[derive(Debug, Clone, Default)]
pub struct PageAllocator {
    next: u64,
}

impl PageAllocator {
    /// Fresh allocator starting at page 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next page id.
    pub fn alloc(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Number of pages allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

/// Result of a heap insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapInsert {
    /// Where the record landed.
    pub rid: Rid,
    /// Whether a new page had to be allocated (drives the `allocate page`
    /// instrumentation).
    pub allocated_page: bool,
}

/// A table's record storage.
#[derive(Debug, Clone, Default)]
pub struct HeapFile {
    /// Pages in allocation order.
    pages: Vec<(u64, SlottedPage)>,
    /// page id -> index in `pages`.
    by_id: HashMap<u64, usize>,
    /// `(record length, page index)`: no page before the index fits a
    /// record of that length, so an insert's first-fit scan starts there.
    /// Placement is exactly a first-fit scan from page 0.
    hints: Vec<(usize, usize)>,
}

impl HeapFile {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// Approximate heap bytes: every page's buffer, the page list, the
    /// page-id table and the placement hints.
    pub fn resident_bytes(&self) -> usize {
        self.pages.len() * crate::page::PAGE_BYTES
            + crate::vec_bytes(&self.pages)
            + crate::table_bytes(&self.by_id)
            + crate::vec_bytes(&self.hints)
    }

    /// Total live records.
    pub fn n_records(&self) -> usize {
        self.pages.iter().map(|(_, p)| p.n_records()).sum()
    }

    /// Insert a record, allocating a page if no existing page fits.
    pub fn insert(
        &mut self,
        alloc: &mut PageAllocator,
        record: &[u8],
    ) -> StorageResult<HeapInsert> {
        if record.len() > crate::page::PAGE_BYTES - 64 {
            return Err(StorageError::RecordTooLarge { size: record.len() });
        }
        let len = record.len();
        let h = match self.hints.iter().position(|&(l, _)| l == len) {
            Some(h) => h,
            None => {
                self.hints.push((len, 0));
                self.hints.len() - 1
            }
        };
        let found = (self.hints[h].1..self.pages.len()).find(|&i| self.pages[i].1.fits(len));
        let allocated_page = found.is_none();
        let idx = found.unwrap_or_else(|| {
            let pid = alloc.alloc();
            self.by_id.insert(pid, self.pages.len());
            self.pages.push((pid, SlottedPage::new()));
            self.pages.len() - 1
        });
        self.hints[h].1 = idx;
        let (pid, page) = &mut self.pages[idx];
        let slot = page
            .insert(record)
            .expect("fits() checked, and a fresh page fits any legal record");
        Ok(HeapInsert {
            rid: Rid::new(*pid, slot),
            allocated_page,
        })
    }

    /// Space was freed on page `idx`: no hint may stay past it.
    fn freed(&mut self, idx: usize) {
        for (_, first) in &mut self.hints {
            *first = (*first).min(idx);
        }
    }

    /// Read a record.
    pub fn get(&self, rid: Rid) -> StorageResult<&[u8]> {
        self.page(rid.page)
            .and_then(|p| p.get(rid.slot))
            .ok_or(StorageError::InvalidRid(rid))
    }

    /// Byte offset of a record within its page (for address mapping).
    pub fn record_offset(&self, rid: Rid) -> StorageResult<usize> {
        self.page(rid.page)
            .and_then(|p| p.record_offset(rid.slot))
            .ok_or(StorageError::InvalidRid(rid))
    }

    /// Overwrite a record in place (may relocate within its page).
    pub fn update(&mut self, rid: Rid, record: &[u8]) -> StorageResult<()> {
        let idx = *self
            .by_id
            .get(&rid.page)
            .ok_or(StorageError::InvalidRid(rid))?;
        let page = &mut self.pages[idx].1;
        let old_len = page.get(rid.slot).map_or(0, <[u8]>::len);
        page.update(rid.slot, record)
            .map_err(|_| StorageError::RecordTooLarge { size: record.len() })?;
        if record.len() < old_len {
            self.freed(idx);
        }
        Ok(())
    }

    /// Delete a record.
    pub fn delete(&mut self, rid: Rid) -> StorageResult<()> {
        let idx = *self
            .by_id
            .get(&rid.page)
            .ok_or(StorageError::InvalidRid(rid))?;
        if self.pages[idx].1.delete(rid.slot) {
            self.freed(idx);
            Ok(())
        } else {
            Err(StorageError::InvalidRid(rid))
        }
    }

    /// Borrow a page by id.
    pub fn page(&self, page_id: u64) -> Option<&SlottedPage> {
        self.by_id.get(&page_id).map(|&i| &self.pages[i].1)
    }

    /// Mutably borrow a page by id. Space freed through it stays invisible
    /// to placement: delete and shrink records through the heap.
    pub fn page_mut(&mut self, page_id: u64) -> Option<&mut SlottedPage> {
        let i = *self.by_id.get(&page_id)?;
        Some(&mut self.pages[i].1)
    }

    /// Iterate `(rid, record)` over all live records.
    pub fn iter(&self) -> impl Iterator<Item = (Rid, &[u8])> {
        self.pages
            .iter()
            .flat_map(|(pid, page)| page.iter().map(move |(slot, r)| (Rid::new(*pid, slot), r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let ins = h.insert(&mut alloc, b"record-1").unwrap();
        assert!(ins.allocated_page, "first insert allocates");
        assert_eq!(h.get(ins.rid).unwrap(), b"record-1");
        let ins2 = h.insert(&mut alloc, b"record-2").unwrap();
        assert!(!ins2.allocated_page, "second insert reuses the page");
        assert_eq!(h.n_pages(), 1);
        assert_eq!(h.n_records(), 2);
    }

    #[test]
    fn allocates_new_pages_as_needed() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let rec = [9u8; 2000];
        let mut allocations = 0;
        for _ in 0..20 {
            if h.insert(&mut alloc, &rec).unwrap().allocated_page {
                allocations += 1;
            }
        }
        // 8 KB page holds 4 x 2 KB records -> 5 pages for 20 records.
        assert_eq!(h.n_pages(), 5);
        assert_eq!(allocations, 5);
        assert_eq!(alloc.allocated(), 5);
    }

    #[test]
    fn update_and_delete() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let rid = h.insert(&mut alloc, b"before").unwrap().rid;
        h.update(rid, b"after!").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"after!");
        h.delete(rid).unwrap();
        assert_eq!(h.get(rid), Err(StorageError::InvalidRid(rid)));
        assert_eq!(h.delete(rid), Err(StorageError::InvalidRid(rid)));
    }

    #[test]
    fn deleted_space_is_reused() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let rec = [1u8; 2000];
        let mut rids = Vec::new();
        for _ in 0..8 {
            rids.push(h.insert(&mut alloc, &rec).unwrap().rid);
        }
        let pages_before = h.n_pages();
        h.delete(rids[0]).unwrap();
        let ins = h.insert(&mut alloc, &rec).unwrap();
        assert!(!ins.allocated_page, "freed slot should be reused");
        assert_eq!(h.n_pages(), pages_before);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let huge = vec![0u8; 9000];
        assert!(matches!(
            h.insert(&mut alloc, &huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn iter_covers_all_records() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        for i in 0..100u8 {
            h.insert(&mut alloc, &[i; 300]).unwrap();
        }
        assert_eq!(h.iter().count(), 100);
        let mut seen: Vec<u8> = h.iter().map(|(_, r)| r[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn record_offset_within_page() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let rid = h.insert(&mut alloc, b"xyz").unwrap().rid;
        let off = h.record_offset(rid).unwrap();
        assert!(off < crate::page::PAGE_BYTES);
    }
}
