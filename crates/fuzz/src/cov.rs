//! Edge-coverage accounting.
//!
//! The VM reports every traversed control-flow edge to a
//! [`trace_vm::Observer`]; the fuzzer keys each edge by a hash of
//! the program it came from, so coverage accumulated over many distinct
//! corpus entries lives in one global set. Ordered collections keep every
//! derived number deterministic.

use std::collections::BTreeSet;

use trace_ir::FuncId;
use trace_vm::Observer;

/// One program-qualified control-flow edge.
pub type Edge = (u64, u32, u32, u32);

/// The global, ordered edge set.
#[derive(Clone, Debug, Default)]
pub struct CovMap {
    edges: BTreeSet<Edge>,
}

impl CovMap {
    /// An empty map.
    pub fn new() -> Self {
        CovMap::default()
    }

    /// Number of distinct edges seen.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Inserts every edge; returns how many were new.
    pub fn merge(&mut self, edges: &[Edge]) -> usize {
        let mut fresh = 0;
        for &e in edges {
            if self.edges.insert(e) {
                fresh += 1;
            }
        }
        fresh
    }

    /// True if any of `edges` is not yet in the map.
    pub fn any_new(&self, edges: &[Edge]) -> bool {
        edges.iter().any(|e| !self.edges.contains(e))
    }
}

/// An [`Observer`] that collects one run's distinct edges, qualified by
/// the hash of the program under execution. Deduplicating on insert bounds
/// it by the program's edge count, however long the run.
#[derive(Debug)]
pub struct Collector {
    case_hash: u64,
    edges: BTreeSet<Edge>,
}

impl Collector {
    /// A collector for a program identified by `case_hash`.
    pub fn new(case_hash: u64) -> Self {
        Collector {
            case_hash,
            edges: BTreeSet::new(),
        }
    }

    /// The distinct edges, sorted.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges.into_iter().collect()
    }
}

impl Observer for Collector {
    fn edge(&mut self, func: FuncId, from: u32, to: u32) {
        self.edges.insert((self.case_hash, func.0, from, to));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_counts_new_edges_once() {
        let mut map = CovMap::new();
        let edges = vec![(1, 0, u32::MAX, 0), (1, 0, 0, 1), (1, 0, 0, 1)];
        assert!(map.any_new(&edges));
        assert_eq!(map.merge(&edges), 2);
        assert_eq!(map.len(), 2);
        assert!(!map.any_new(&edges));
        assert_eq!(map.merge(&edges), 0);
    }

    #[test]
    fn collector_dedups_and_sorts() {
        let mut c = Collector::new(9);
        c.edge(FuncId(0), u32::MAX, 0);
        c.edge(FuncId(0), 0, 1);
        c.edge(FuncId(0), 0, 1);
        let edges = c.into_edges();
        assert_eq!(edges, vec![(9, 0, 0, 1), (9, 0, u32::MAX, 0)]);
    }
}
