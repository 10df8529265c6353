//! The catalog: tables, their heap files, and their indexes.
//!
//! Catalog entries are the "metadata information" Section 2.2.2 lists among
//! the few data blocks shared by nearly all transactions; the engine emits
//! a metadata-block read whenever an operation resolves a table or index.

use crate::btree::BTree;
use crate::error::{StorageError, StorageResult};
use crate::heap::{HeapFile, PageAllocator};

/// Identifier of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifier of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

/// A table: name, heap storage, and the ids of its indexes.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table id.
    pub id: TableId,
    /// Human-readable name.
    pub name: String,
    /// Record storage.
    pub heap: HeapFile,
    /// Indexes over this table, in creation order.
    pub indexes: Vec<IndexId>,
}

/// An index: name, owning table, and the B+-tree.
#[derive(Debug, Clone)]
pub struct IndexDef {
    /// Index id.
    pub id: IndexId,
    /// Human-readable name.
    pub name: String,
    /// Indexed table.
    pub table: TableId,
    /// The tree (key -> packed rid).
    pub btree: BTree,
}

/// The catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableDef>,
    indexes: Vec<IndexDef>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Approximate heap bytes of every table's heap and every index's
    /// tree (names and definitions are a rounding error).
    pub fn resident_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.heap.resident_bytes())
            .sum::<usize>()
            + self
                .indexes
                .iter()
                .map(|i| i.btree.resident_bytes())
                .sum::<usize>()
    }

    /// Create a table.
    pub fn create_table(&mut self, name: &str) -> TableId {
        let id = TableId(self.tables.len() as u32);
        self.tables.push(TableDef {
            id,
            name: name.to_owned(),
            heap: HeapFile::new(),
            indexes: Vec::new(),
        });
        id
    }

    /// Create an index on `table`.
    ///
    /// # Errors
    /// [`StorageError::NoSuchTable`] for unknown tables.
    pub fn create_index(
        &mut self,
        alloc: &mut PageAllocator,
        table: TableId,
        name: &str,
        max_keys: usize,
    ) -> StorageResult<IndexId> {
        if table.0 as usize >= self.tables.len() {
            return Err(StorageError::NoSuchTable(table.0));
        }
        let id = IndexId(self.indexes.len() as u32);
        self.indexes.push(IndexDef {
            id,
            name: name.to_owned(),
            table,
            btree: BTree::with_max_keys(alloc, max_keys),
        });
        self.tables[table.0 as usize].indexes.push(id);
        Ok(id)
    }

    /// Borrow a table.
    pub fn table(&self, id: TableId) -> StorageResult<&TableDef> {
        self.tables
            .get(id.0 as usize)
            .ok_or(StorageError::NoSuchTable(id.0))
    }

    /// Mutably borrow a table.
    pub fn table_mut(&mut self, id: TableId) -> StorageResult<&mut TableDef> {
        self.tables
            .get_mut(id.0 as usize)
            .ok_or(StorageError::NoSuchTable(id.0))
    }

    /// Borrow an index.
    pub fn index(&self, id: IndexId) -> StorageResult<&IndexDef> {
        self.indexes
            .get(id.0 as usize)
            .ok_or(StorageError::NoSuchIndex(id.0))
    }

    /// Mutably borrow an index.
    pub fn index_mut(&mut self, id: IndexId) -> StorageResult<&mut IndexDef> {
        self.indexes
            .get_mut(id.0 as usize)
            .ok_or(StorageError::NoSuchIndex(id.0))
    }

    /// Mutably borrow a table and one of its indexes at the same time
    /// (insert/delete maintain both).
    pub fn table_and_index_mut(
        &mut self,
        table: TableId,
        index: IndexId,
    ) -> StorageResult<(&mut TableDef, &mut IndexDef)> {
        if table.0 as usize >= self.tables.len() {
            return Err(StorageError::NoSuchTable(table.0));
        }
        if index.0 as usize >= self.indexes.len() {
            return Err(StorageError::NoSuchIndex(index.0));
        }
        Ok((
            &mut self.tables[table.0 as usize],
            &mut self.indexes[index.0 as usize],
        ))
    }

    /// Look up a table by name (tests, examples).
    pub fn table_by_name(&self, name: &str) -> Option<&TableDef> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Number of tables.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of indexes.
    pub fn n_indexes(&self) -> usize {
        self.indexes.len()
    }

    /// All tables.
    pub fn tables(&self) -> &[TableDef] {
        &self.tables
    }

    /// All indexes.
    pub fn indexes(&self) -> &[IndexDef] {
        &self.indexes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_resolve() {
        let mut alloc = PageAllocator::new();
        let mut c = Catalog::new();
        let t = c.create_table("warehouse");
        let i = c.create_index(&mut alloc, t, "warehouse_pk", 64).unwrap();
        assert_eq!(c.table(t).unwrap().name, "warehouse");
        assert_eq!(c.index(i).unwrap().table, t);
        assert_eq!(c.table(t).unwrap().indexes, vec![i]);
        assert_eq!(c.n_tables(), 1);
        assert_eq!(c.n_indexes(), 1);
        assert!(c.table_by_name("warehouse").is_some());
        assert!(c.table_by_name("nope").is_none());
    }

    #[test]
    fn unknown_ids_error() {
        let mut alloc = PageAllocator::new();
        let mut c = Catalog::new();
        assert!(matches!(
            c.table(TableId(0)),
            Err(StorageError::NoSuchTable(0))
        ));
        assert!(matches!(
            c.index(IndexId(3)),
            Err(StorageError::NoSuchIndex(3))
        ));
        assert!(matches!(
            c.create_index(&mut alloc, TableId(9), "x", 64),
            Err(StorageError::NoSuchTable(9))
        ));
    }

    #[test]
    fn multiple_indexes_per_table() {
        let mut alloc = PageAllocator::new();
        let mut c = Catalog::new();
        let t = c.create_table("customer");
        let i1 = c.create_index(&mut alloc, t, "customer_pk", 64).unwrap();
        let i2 = c.create_index(&mut alloc, t, "customer_name", 64).unwrap();
        assert_eq!(c.table(t).unwrap().indexes, vec![i1, i2]);
        let (tbl, idx) = c.table_and_index_mut(t, i2).unwrap();
        assert_eq!(tbl.id, t);
        assert_eq!(idx.id, i2);
    }
}
