//! Content digests of tables, for the benchmark's output checks.
//!
//! A table's digest covers its column names in order and the multiset of
//! its rows, so two tables with the same rows in a different order digest
//! equally — the equality `Table::same_content` defines — without sorting
//! a possibly million-row outer join.

use std::hash::{DefaultHasher, Hash, Hasher};

use dialite_table::Table;

/// The 64-bit hash of one value.
pub fn of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Order-independent content digest of one table (name excluded).
pub fn table(t: &Table) -> u64 {
    let names: Vec<&str> = t.schema().names().collect();
    let mut rows = 0u64;
    for row in t.rows() {
        // Wrapping sum: commutative, so row order does not matter, while
        // duplicated rows still count with their multiplicity.
        rows = rows.wrapping_add(of(&row).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    }
    of(&(names, rows, t.row_count()))
}

/// Order-dependent digest of a sequence of tables, names included — the
/// fingerprint of a generated workload input.
pub fn tables<'a>(ts: impl IntoIterator<Item = &'a Table>) -> u64 {
    let mut h = DefaultHasher::new();
    for t in ts {
        t.name().hash(&mut h);
        table(t).hash(&mut h);
    }
    h.finish()
}

/// Fold one more value into a running digest.
pub fn fold(acc: u64, v: u64) -> u64 {
    of(&(acc, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialite_datagen::HeterogeneousLakeWorkload;
    use dialite_table::Value;

    #[test]
    fn row_order_is_ignored_but_content_is_not() {
        let rows = vec![
            vec![Value::Text("a".into()), Value::Int(1)],
            vec![Value::Text("b".into()), Value::Int(2)],
        ];
        let mut swapped = rows.clone();
        swapped.reverse();
        let a = Table::from_rows("x", &["k", "v"], rows.clone()).unwrap();
        let b = Table::from_rows("y", &["k", "v"], swapped).unwrap();
        assert_eq!(table(&a), table(&b));
        let mut dup = rows.clone();
        dup.push(rows[0].clone());
        let c = Table::from_rows("x", &["k", "v"], dup).unwrap();
        assert_ne!(table(&a), table(&c));
        let d = Table::from_rows("x", &["k", "w"], rows).unwrap();
        assert_ne!(table(&a), table(&d));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = |seed| HeterogeneousLakeWorkload {
            tables: 60,
            queries: 4,
            seed,
            ..HeterogeneousLakeWorkload::default()
        };
        let digest = |s: &HeterogeneousLakeWorkload| {
            let lake: Vec<Table> = s.stream().collect();
            let (pool, _) = s.serving_ops(40, 0.5);
            (tables(&lake), tables(&s.header_queries()), tables(&pool))
        };
        assert_eq!(digest(&spec(5)), digest(&spec(5)));
        let (a, _, c) = digest(&spec(5));
        let (b, _, d) = digest(&spec(6));
        assert_ne!(a, b);
        assert_ne!(c, d);
    }
}
