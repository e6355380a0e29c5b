//! The whole-response cache: a compiled sweep's encoded response, stored
//! once and streamed again to every later request for its [`SweepKey`].
//!
//! A `compiled: true` request asks for stored results, and a completed
//! sweep's response is a pure function of its key — the batch payloads,
//! the totals, and every Chapter 7 table. So the sweeper keeps them: a
//! repeat skips preparation, simulation, assembly, and encoding, and
//! only writes new frame heads around the stored payloads (see
//! `server::replay`). Only the sweeper thread touches the cache, so it
//! needs no lock. Retained bytes are bounded by [`RESPONSE_CACHE_BYTES`];
//! the oldest entry is evicted first, and a response larger than the
//! whole bound is not stored.

use std::collections::VecDeque;

use javaflow_core::Evaluation;
use javaflow_fabric::MetricsRegistry;

use crate::protocol::{done_frame_with, escaped_table};
use crate::server::SweepKey;

/// Most payload and table bytes the response cache retains.
pub(crate) const RESPONSE_CACHE_BYTES: usize = 64 << 20;

/// One completed sweep's response, encoded.
#[derive(Debug)]
pub(crate) struct StoredResponse {
    /// `(first_record, records payload)` per batch, in stream order.
    pub(crate) batches: Vec<(usize, String)>,
    records: usize,
    samples: usize,
    /// Tables 1–30 at index `t - 1`, rendered and JSON-escaped.
    tables: Vec<String>,
    /// The sweep's simulation metrics, merged into the server registry
    /// on every replay as the sweep itself would be.
    pub(crate) metrics: MetricsRegistry,
}

impl StoredResponse {
    /// Stores a finished sweep: its streamed batch payloads, its totals,
    /// and all thirty tables.
    pub(crate) fn new(
        batches: Vec<(usize, String)>,
        eval: &Evaluation,
        metrics: MetricsRegistry,
    ) -> StoredResponse {
        StoredResponse {
            batches,
            records: eval.records.len(),
            samples: eval.samples.len(),
            tables: (1..=30).map(|t| escaped_table(eval, t)).collect(),
            metrics,
        }
    }

    /// The `done` frame for request `id`, from the stored tables.
    pub(crate) fn done_frame(&self, id: u64, coalesced: bool, tables: &[u32]) -> String {
        done_frame_with(id, self.records, self.samples, coalesced, tables, |t| {
            self.tables[t as usize - 1].as_str()
        })
    }

    /// Payload and table bytes held.
    pub(crate) fn bytes(&self) -> usize {
        self.batches.iter().map(|(_, p)| p.len()).sum::<usize>()
            + self.tables.iter().map(String::len).sum::<usize>()
    }
}

/// Stored responses by key, oldest first, within a byte bound.
#[derive(Debug)]
pub(crate) struct ResponseCache {
    entries: VecDeque<(SweepKey, StoredResponse)>,
    bytes: usize,
    cap: usize,
}

impl ResponseCache {
    pub(crate) fn new(cap: usize) -> ResponseCache {
        ResponseCache { entries: VecDeque::new(), bytes: 0, cap }
    }

    pub(crate) fn get(&self, key: &SweepKey) -> Option<&StoredResponse> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, r)| r)
    }

    /// Bytes currently retained.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Stores `resp` under `key`, evicting the oldest entries until it
    /// fits; returns how many were evicted. A response larger than the
    /// whole bound is dropped and evicts nothing.
    pub(crate) fn insert(&mut self, key: SweepKey, resp: StoredResponse) -> u64 {
        let size = resp.bytes();
        if size > self.cap {
            return 0;
        }
        let mut evicted = 0;
        while self.bytes + size > self.cap {
            let (_, old) = self.entries.pop_front().expect("retained bytes imply an entry");
            self.bytes -= old.bytes();
            evicted += 1;
        }
        self.bytes += size;
        self.entries.push_back((key, resp));
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(synthetic: usize) -> SweepKey {
        SweepKey {
            synthetic,
            max_mesh_cycles: 1,
            net_contended: false,
            fast_forward: true,
            compiled: true,
        }
    }

    fn resp(payload_bytes: usize) -> StoredResponse {
        StoredResponse {
            batches: vec![(0, "x".repeat(payload_bytes))],
            records: 1,
            samples: 1,
            tables: vec![String::new(); 30],
            metrics: MetricsRegistry::new(),
        }
    }

    #[test]
    fn the_oldest_entry_is_evicted_first() {
        let mut cache = ResponseCache::new(100);
        assert_eq!(cache.insert(key(1), resp(40)), 0);
        assert_eq!(cache.insert(key(2), resp(40)), 0);
        assert_eq!(cache.bytes(), 80);
        assert_eq!(cache.insert(key(3), resp(40)), 1, "key 1 makes room");
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(2)).is_some() && cache.get(&key(3)).is_some());
        assert_eq!(cache.bytes(), 80);
        assert_eq!(cache.insert(key(4), resp(100)), 2, "a full-size entry empties the cache");
        assert_eq!(cache.bytes(), 100);
    }

    #[test]
    fn a_response_above_the_bound_is_not_stored() {
        let mut cache = ResponseCache::new(100);
        cache.insert(key(1), resp(60));
        assert_eq!(cache.insert(key(2), resp(101)), 0);
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some(), "an oversized response evicts nothing");
        assert_eq!(cache.bytes(), 60);
    }

    #[test]
    fn done_frames_index_tables_from_one() {
        let mut r = resp(0);
        r.tables[0] = "one".into();
        r.tables[29] = "thirty".into();
        assert_eq!(
            r.done_frame(5, true, &[30, 1]),
            "{\"type\": \"done\", \"id\": 5, \"records\": 1, \"samples\": 1, \
             \"coalesced\": true, \"tables\": {\"30\": \"thirty\", \"1\": \"one\"}}"
        );
    }
}
