//! The independent oracle: a hash-indexed reference join with the
//! standing queries applied directly, compared through order-independent
//! multiset digests.
//!
//! `joinsw::baseline::reference_join` scans the whole opposite window per
//! input, O(n·W), which is too slow at W = 2^16. Here each stream keeps
//! its FIFO window plus, per key, the payloads of that key's window
//! tuples in arrival order, so a probe costs O(matches).

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use streamcore::{MatchPair, StreamTag, Tuple};

use crate::gen::{mix64, Inputs};
use crate::queries;

/// Order-independent digest of a row multiset: the count and the
/// wrapping sum of per-row hashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

pub fn row_hash(row: &[u64]) -> u64 {
    let mut h = mix64(row.len() as u64 ^ 0x5bd1_e995);
    for &v in row {
        h = mix64(h ^ v).wrapping_add(0x9e37_79b9_7f4a_7c15);
    }
    h
}

impl Digest {
    pub fn add(&mut self, row: &[u64]) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(row_hash(row));
    }

    /// A join result as the row `[r.key, r.payload, s.key, s.payload]`,
    /// the same row the all-pairs query emits.
    pub fn add_pair(&mut self, m: MatchPair) {
        self.add(&pair_row(m));
    }

    /// Rows missing or extra relative to `want`: the count difference,
    /// or 1 when the counts agree but the rows do not.
    pub fn mismatch(&self, want: &Digest) -> u64 {
        let diff = self.count.abs_diff(want.count);
        if diff == 0 && self.sum != want.sum {
            1
        } else {
            diff
        }
    }
}

pub fn pair_row(m: MatchPair) -> [u64; 4] {
    [
        u64::from(m.r.key()),
        u64::from(m.r.payload()),
        u64::from(m.s.key()),
        u64::from(m.s.payload()),
    ]
}

/// Digests of everything a system delivered: the raw join pairs, and
/// one digest per standing query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digests {
    pub pairs: Digest,
    pub queries: [Digest; queries::IDS.len()],
}

#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = mix64(u64::from(v));
    }
}

type KeyMap<V> = HashMap<u32, V, BuildHasherDefault<KeyHasher>>;

#[derive(Default)]
struct Side {
    fifo: VecDeque<Tuple>,
    by_key: KeyMap<VecDeque<u32>>,
}

impl Side {
    fn insert(&mut self, t: Tuple, window: usize) {
        self.fifo.push_back(t);
        self.by_key
            .entry(t.key())
            .or_default()
            .push_back(t.payload());
        if self.fifo.len() > window {
            let old = self.fifo.pop_front().expect("window is non-empty");
            let chain = self
                .by_key
                .get_mut(&old.key())
                .expect("evicted key is indexed");
            let payload = chain.pop_front();
            debug_assert_eq!(payload, Some(old.payload()));
            if chain.is_empty() {
                self.by_key.remove(&old.key());
            }
        }
    }
}

/// Count-based sliding-window equi-join with the reference semantics:
/// an arrival probes the whole opposite window, then enters its own.
pub struct RefJoin {
    window: usize,
    r: Side,
    s: Side,
}

impl RefJoin {
    pub fn new(window: usize) -> Self {
        Self {
            window,
            r: Side::default(),
            s: Side::default(),
        }
    }

    pub fn process(&mut self, tag: StreamTag, t: Tuple, mut emit: impl FnMut(MatchPair)) {
        let (own, opp) = match tag {
            StreamTag::R => (&mut self.r, &self.s),
            StreamTag::S => (&mut self.s, &self.r),
        };
        if let Some(chain) = opp.by_key.get(&t.key()) {
            for &p in chain {
                emit(MatchPair::oriented(tag, t, Tuple::new(t.key(), p)));
            }
        }
        own.insert(t, self.window);
    }
}

/// The whole expected output of a run, raw pairs and standing queries.
pub struct Model {
    join: RefJoin,
    sum: (u64, usize),
    digests: Digests,
}

impl Model {
    pub fn new(window: usize) -> Self {
        Self {
            join: RefJoin::new(window),
            sum: (0, 0),
            digests: Digests::default(),
        }
    }

    pub fn feed(&mut self, tag: StreamTag, t: Tuple) {
        let d = &mut self.digests;
        self.join.process(tag, t, |m| {
            d.pairs.add_pair(m);
            queries::joined_rows(
                u64::from(m.r.key()),
                u64::from(m.r.payload()),
                u64::from(m.s.payload()),
                |q, row| d.queries[q].add(row),
            );
        });
        if tag == StreamTag::R {
            // Tumbling SUM(qty) over trades.
            self.sum.0 += u64::from(t.payload());
            self.sum.1 += 1;
            if self.sum.1 == queries::SUM_WINDOW {
                self.digests.queries[4].add(&[self.sum.0]);
                self.sum = (0, 0);
            }
        }
    }

    pub fn digests(&self) -> Digests {
        self.digests
    }
}

/// Expected digests after each of `checkpoints` inputs (any order).
pub fn expected(inputs: &Inputs, window: usize, checkpoints: &[u64]) -> Vec<Digests> {
    let mut order: Vec<usize> = (0..checkpoints.len()).collect();
    order.sort_by_key(|&i| checkpoints[i]);
    let mut out = vec![Digests::default(); checkpoints.len()];
    let mut model = Model::new(window);
    let mut i = 0;
    for k in order {
        while i < checkpoints[k] {
            model.feed(Inputs::tag(i), inputs.tuple(i));
            i += 1;
        }
        out[k] = model.digests();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use joinsw::baseline::reference_join;
    use streamcore::JoinPredicate;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let rows: Vec<Vec<u64>> = (0..100u64).map(|i| vec![i % 7, i, i * 3]).collect();
        let mut a = Digest::default();
        for r in &rows {
            a.add(r);
        }
        let mut b = Digest::default();
        for r in rows.iter().rev() {
            b.add(r);
        }
        assert_eq!(a, b);
        // A changed row, an extra row, and swapped fields all show.
        let mut c = Digest::default();
        for r in &rows[1..] {
            c.add(r);
        }
        c.add(&[0, 0, 1]);
        assert_eq!(c.count, a.count);
        assert_ne!(c, a);
        assert_eq!(c.mismatch(&a), 1);
        let mut d = a;
        d.add(&rows[5]);
        assert_eq!(d.mismatch(&a), 1);
        let mut e = Digest::default();
        e.add(&[1, 2]);
        let mut f = Digest::default();
        f.add(&[2, 1]);
        assert_ne!(e, f);
    }

    /// The oracle against the per-pair reference join on scaled-down
    /// versions of every workload: same pairs, and the standing queries
    /// applied to the reference pairs give the same digests.
    #[test]
    fn oracle_matches_reference_join_on_every_workload_scaled_down() {
        for w in Workload::ALL {
            let spec = w.spec().scaled_down();
            for seed in [1, 2] {
                let inputs = Inputs::new(spec.keys, spec.pool, seed, spec.tagged());
                let n = 6 * spec.window as u64 + 37;
                let seq: Vec<(StreamTag, Tuple)> =
                    (0..n).map(|i| (Inputs::tag(i), inputs.tuple(i))).collect();
                let reference = reference_join(&seq, spec.window, JoinPredicate::Equi);
                assert!(!reference.is_empty(), "{w:?} produces matches");

                let mut want = Digests::default();
                for &m in &reference {
                    want.pairs.add_pair(m);
                    queries::joined_rows(
                        u64::from(m.r.key()),
                        u64::from(m.r.payload()),
                        u64::from(m.s.payload()),
                        |q, row| want.queries[q].add(row),
                    );
                }
                let trades: Vec<u64> = seq
                    .iter()
                    .filter(|(tag, _)| *tag == StreamTag::R)
                    .map(|(_, t)| u64::from(t.payload()))
                    .collect();
                for chunk in trades.chunks_exact(queries::SUM_WINDOW) {
                    want.queries[4].add(&[chunk.iter().sum()]);
                }

                let got = expected(&inputs, spec.window, &[n / 3, n]);
                assert_eq!(got[1], want, "{w:?} seed {seed}");
                let prefix =
                    reference_join(&seq[..(n / 3) as usize], spec.window, JoinPredicate::Equi);
                assert_eq!(got[0].pairs.count, prefix.len() as u64);
            }
        }
    }

    #[test]
    fn refjoin_evicts_by_count_per_stream() {
        let mut j = RefJoin::new(2);
        let mut out = Vec::new();
        for (tag, k, p) in [
            (StreamTag::R, 1, 0),
            (StreamTag::R, 1, 1),
            (StreamTag::R, 1, 2), // evicts (1, 0)
            (StreamTag::S, 1, 9),
        ] {
            j.process(tag, Tuple::new(k, p), |m| out.push(m));
        }
        let payloads: Vec<u32> = out.iter().map(|m| m.r.payload()).collect();
        assert_eq!(payloads, vec![1, 2]);
    }
}
