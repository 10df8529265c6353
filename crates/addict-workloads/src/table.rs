//! One table and its primary index: the handles every workload holds, and
//! the three operations they all repeat.

use addict_storage::{Engine, IndexId, StorageResult, TableId, XctId};

use crate::rows::{get_field_i64, set_field_i64};

/// A table with a primary index named `{name}_pk`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table {
    pub(crate) id: TableId,
    pub(crate) pk: IndexId,
}

impl Table {
    /// Create the table, then its `{name}_pk` index.
    pub(crate) fn create(e: &mut Engine, name: &str) -> Table {
        let id = e.create_table(name);
        let pk = e
            .create_index(id, &format!("{name}_pk"))
            .expect("table just created");
        Table { id, pk }
    }

    /// Insert a population row at primary key `key`.
    ///
    /// # Panics
    /// Panics if the insert fails: population runs on a fresh engine, so a
    /// failure is a bug.
    pub(crate) fn populate(&self, e: &mut Engine, x: XctId, key: u64, row: &[u8]) {
        e.insert_tuple(x, self.id, &[(self.pk, key)], row)
            .unwrap_or_else(|err| panic!("populate {:?} key {key:#x}: {err}", self.id));
    }

    /// Probe the row at `key`, add `delta` to its i64 `field`, and write it
    /// back: the probe/update pair most transactions are built from.
    /// Returns `false`, updating nothing, if `key` is missing.
    pub(crate) fn add_to_field(
        &self,
        e: &mut Engine,
        x: XctId,
        key: u64,
        field: usize,
        delta: i64,
    ) -> StorageResult<bool> {
        let Some(rid) = e.index_probe_rid(x, self.pk, key)? else {
            return Ok(false);
        };
        let mut row = e.peek(self.id, rid)?;
        let value = get_field_i64(&row, field) + delta;
        set_field_i64(&mut row, field, value);
        e.update_tuple(x, self.id, rid, &row)?;
        Ok(true)
    }
}
