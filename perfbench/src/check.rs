//! The reference check: every reply the program gave is compared with
//! an answer recomputed on a freshly built graph.
//!
//! For each distinct (query, epoch) a reply was recorded for, the graph
//! of that epoch is rebuilt from the generated edge list plus the
//! updates the writer had sent by then (the epoch's version counts
//! them), frozen into a plain snapshot, and queried through a fresh
//! canonical session: no compute mirror, no component memo, no cache,
//! no store. Epochs with the same edge set share one rebuild, since the
//! answer is a function of the graph. Replies are compared byte for byte
//! after dropping `seconds`, the one field a cache hit replays from an
//! earlier computation.

use crate::gen::{Inputs, Op};
use dmcs::engine::output::{response_json, PROTOCOL_VERSION, SERVER_ID};
use dmcs::engine::registry::AlgoSpec;
use dmcs::engine::{QueryRequest, Session};
use dmcs::graph::{GraphBuilder, Snapshot};
use std::collections::{BTreeMap, HashMap};

/// Replies recorded for one (query, epoch): byte-identical repeats are
/// counted, not stored.
#[derive(Debug, Default)]
pub struct Bucket {
    pub first: String,
    pub first_count: u64,
    pub others: Vec<String>,
}

impl Bucket {
    pub fn add(&mut self, reply: &str) {
        if self.first_count == 0 {
            self.first = reply.to_string();
            self.first_count = 1;
        } else if self.first == reply {
            self.first_count += 1;
        } else {
            self.others.push(reply.to_string());
        }
    }

    pub fn total(&self) -> u64 {
        self.first_count + self.others.len() as u64
    }
}

/// What one connection saw, as the checker needs it.
#[derive(Debug, Default)]
pub struct Transcript {
    /// Query replies by (query id, pinned version).
    pub queries: HashMap<(u32, u64), Bucket>,
    /// Update and repin replies in send order, with the version the
    /// connection was pinned to before the op.
    pub control: Vec<(Op, u64, String)>,
}

/// `reply` without its `"seconds"` member.
pub fn strip_seconds(reply: &str) -> String {
    const KEY: &str = ",\"seconds\":";
    match reply.find(KEY) {
        Some(i) => {
            let rest = &reply[i + KEY.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            format!("{}{}", &reply[..i], &rest[end..])
        }
        None => reply.to_string(),
    }
}

/// The value of integer member `key` in a flat reply line.
pub fn uint_member(reply: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = reply.find(&pat)? + pat.len();
    let digits: String = reply[i..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A float member of a flat reply line.
pub fn number_member(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let end = line[i..].find([',', '}']).map_or(line.len(), |e| i + e);
    line[i..end].parse().ok()
}

/// Edge-set difference from the generated graph: edge-table index ->
/// present.
type StateKey = Vec<(u32, bool)>;

pub struct Reference<'a> {
    inputs: &'a Inputs,
    index: HashMap<u64, u32>,
    /// The writer's updates in send order (version k = first k applied).
    updates: Vec<Op>,
    /// State after each version, built on demand.
    states: Vec<StateKey>,
    answers: HashMap<(u32, StateKey), String>,
}

impl<'a> Reference<'a> {
    pub fn new(inputs: &'a Inputs) -> Reference<'a> {
        let index = inputs
            .original
            .iter()
            .enumerate()
            .map(|(d, &o)| (o, d as u32))
            .collect();
        let updates = inputs
            .clients
            .iter()
            .flatten()
            .copied()
            .filter(|op| matches!(op, Op::Del(_) | Op::Add(_)))
            .collect();
        Reference {
            inputs,
            index,
            updates,
            states: vec![Vec::new()],
            answers: HashMap::new(),
        }
    }

    fn state(&mut self, version: u64) -> Option<StateKey> {
        let v = usize::try_from(version).ok()?;
        if v > self.updates.len() {
            return None;
        }
        while self.states.len() <= v {
            let mut map: BTreeMap<u32, bool> = self.states.last()?.iter().copied().collect();
            match self.updates[self.states.len() - 1] {
                Op::Del(e) => map.insert(e, false),
                Op::Add(e) => map.remove(&e),
                _ => None,
            };
            self.states.push(map.into_iter().collect());
        }
        Some(self.states[v].clone())
    }

    /// Edge count of the graph at `state`.
    fn edges(&self, state: &StateKey) -> u64 {
        let removed = state.iter().filter(|(_, present)| !present).count();
        (self.inputs.dense_edges.len() - removed) as u64
    }

    fn dense_edge(&self, e: u32) -> (u32, u32) {
        let (u, v) = self.inputs.edge_pool[e as usize];
        let (a, b) = (self.index[&u], self.index[&v]);
        (a.min(b), a.max(b))
    }

    /// Answer every (query, version) in `wanted` that is not cached yet,
    /// rebuilding each distinct graph once and splitting its queries
    /// over `threads` fresh canonical sessions.
    pub fn prepare(&mut self, wanted: &[(u32, u64)], threads: usize) {
        let mut by_state: BTreeMap<StateKey, Vec<u32>> = BTreeMap::new();
        for &(q, version) in wanted {
            let Some(state) = self.state(version) else {
                continue;
            };
            if !self.answers.contains_key(&(q, state.clone())) {
                by_state.entry(state).or_default().push(q);
            }
        }
        for (state, mut qs) in by_state {
            qs.sort_unstable();
            qs.dedup();
            let removed: Vec<(u32, u32)> = state
                .iter()
                .filter(|(_, present)| !present)
                .map(|&(e, _)| self.dense_edge(e))
                .collect();
            let edges: Vec<(u32, u32)> = self
                .inputs
                .dense_edges
                .iter()
                .copied()
                .filter(|e| !removed.contains(e))
                .collect();
            let snap =
                Snapshot::freeze(GraphBuilder::from_edges(self.inputs.original.len(), &edges));
            let chunk = qs.len().div_ceil(threads.max(1));
            let inputs = self.inputs;
            let index = &self.index;
            let results: Vec<(u32, String)> = std::thread::scope(|scope| {
                let workers: Vec<_> = qs
                    .chunks(chunk)
                    .map(|part| {
                        let snap = snap.clone();
                        scope.spawn(move || answer_all(inputs, index, snap, part))
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("reference worker panicked"))
                    .collect()
            });
            for (q, answer) in results {
                self.answers.insert((q, state.clone()), answer);
            }
        }
    }

    /// Failed replies among `t`'s (every reply is one op).
    pub fn failures(&mut self, t: &Transcript, writer_updates_sent: u64) -> u64 {
        let wanted: Vec<(u32, u64)> = t.queries.keys().copied().collect();
        self.prepare(&wanted, 2);
        let mut failed = 0;
        for (&(q, version), bucket) in &t.queries {
            let expected = self
                .state(version)
                .and_then(|s| self.answers.get(&(q, s)).cloned());
            let Some(expected) = expected else {
                failed += bucket.total();
                continue;
            };
            if strip_seconds(&bucket.first) != expected {
                failed += bucket.first_count;
            }
            failed += bucket
                .others
                .iter()
                .filter(|r| strip_seconds(r) != expected)
                .count() as u64;
        }
        let mut update_no = 0u64;
        for (op, pinned, reply) in &t.control {
            let ok = match *op {
                Op::Del(e) | Op::Add(e) => {
                    update_no += 1;
                    let (u, v) = self.inputs.edge_pool[e as usize];
                    let action = if matches!(op, Op::Del(_)) {
                        "del"
                    } else {
                        "add"
                    };
                    let edges = self.state(update_no).map(|s| self.edges(&s));
                    edges.is_some_and(|m| {
                        *reply
                            == format!(
                                "{{\"type\":\"update\",\"protocol_version\":{PROTOCOL_VERSION},\
                                 \"server\":\"{SERVER_ID}\",\"action\":\"{action}\",\"u\":{u},\
                                 \"v\":{v},\"version\":{update_no},\"nodes\":{},\"edges\":{m}}}",
                                self.inputs.original.len()
                            )
                    })
                }
                _ => {
                    // A repin sees some epoch no older than the one it
                    // left and no newer than the updates sent so far.
                    let version = uint_member(reply, "version").unwrap_or(u64::MAX);
                    let edges = self.state(version).map(|s| self.edges(&s));
                    version >= *pinned
                        && version <= writer_updates_sent
                        && edges.is_some_and(|m| {
                            *reply
                                == format!(
                                    "{{\"type\":\"repin\",\"protocol_version\":{PROTOCOL_VERSION},\
                                     \"server\":\"{SERVER_ID}\",\"version\":{version},\
                                     \"nodes\":{},\"edges\":{m}}}",
                                    self.inputs.original.len()
                                )
                        })
                }
            };
            failed += u64::from(!ok);
        }
        failed
    }

    /// The expected `response` line (without `seconds`) for query `q`
    /// on the generated graph, for checkers that have no epochs.
    pub fn expected_base(&mut self, q: u32) -> Option<String> {
        self.answers.get(&(q, Vec::new())).cloned()
    }
}

fn answer_all(
    inputs: &Inputs,
    index: &HashMap<u64, u32>,
    snap: Snapshot,
    qs: &[u32],
) -> Vec<(u32, String)> {
    let mut session = Session::new(snap, &AlgoSpec::new("fpa"))
        .expect("fpa is registered")
        .without_mirror()
        .without_memo();
    qs.iter()
        .map(|&q| {
            let nodes = inputs.queries[q as usize]
                .iter()
                .map(|id| index[id])
                .collect();
            let resp = session
                .query(&QueryRequest::new(nodes))
                .expect("no per-request algorithm override");
            let line = response_json(&resp, Some(&inputs.original)).render();
            (q, strip_seconds(&line))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Workload};

    #[test]
    fn strip_drops_only_seconds() {
        let line =
            r#"{"type":"response","ok":true,"iterations":3,"seconds":0.0012,"community":[1,2]}"#;
        assert_eq!(
            strip_seconds(line),
            r#"{"type":"response","ok":true,"iterations":3,"community":[1,2]}"#
        );
        assert_eq!(uint_member(line, "iterations"), Some(3));
    }

    /// A transcript made of the reference's own answers passes; a
    /// replayed `seconds` is ignored; corrupting one recorded reply is
    /// caught, and so is a wrong epoch on an update reply.
    #[test]
    fn corrupting_one_reply_is_caught() {
        let inputs = generate(Workload::ServeChurn, 3);
        let mut reference = Reference::new(&inputs);
        let wanted: Vec<(u32, u64)> = (0..4).map(|q| (q, 0)).chain([(0, 1)]).collect();
        reference.prepare(&wanted, 2);
        let answer = |r: &mut Reference, q: u32, version: u64| {
            let s = r.state(version).unwrap();
            let a = r.answers[&(q, s)].clone();
            a.replace(",\"community\"", ",\"seconds\":0.25,\"community\"")
        };
        let mut t = Transcript::default();
        for &(q, version) in &wanted {
            let line = answer(&mut reference, q, version);
            let bucket = t.queries.entry((q, version)).or_default();
            bucket.add(&line);
            bucket.add(&line.replace("0.25", "0.5"));
        }
        let first_update = inputs.clients[0][0];
        let Op::Del(e) = first_update else {
            panic!("the writer opens with a del");
        };
        let (u, v) = inputs.edge_pool[e as usize];
        let update = format!(
            "{{\"type\":\"update\",\"protocol_version\":{PROTOCOL_VERSION},\"server\":\"{SERVER_ID}\",\
             \"action\":\"del\",\"u\":{u},\"v\":{v},\"version\":1,\"nodes\":{},\"edges\":{}}}",
            inputs.original.len(),
            inputs.dense_edges.len() - 1
        );
        t.control.push((first_update, 0, update.clone()));
        assert_eq!(reference.failures(&t, 1), 0);

        // One community member changed in one recorded reply.
        let good = t.queries[&(2, 0)].first.clone();
        let bad = good.replacen("\"community\":[", "\"community\":[999999999,", 1);
        t.queries.get_mut(&(2, 0)).unwrap().others.push(bad);
        assert_eq!(reference.failures(&t, 1), 1);

        // A reply from the wrong epoch: the deleted edge changes the
        // graph's edge count, so every density-modularity score differs.
        t.queries.get_mut(&(2, 0)).unwrap().others.clear();
        let base = t.queries[&(0, 0)].first.clone();
        t.queries.get_mut(&(0, 1)).unwrap().others.push(base);
        assert_eq!(reference.failures(&t, 1), 1);
        t.queries.get_mut(&(0, 1)).unwrap().others.clear();

        // An update reply claiming the wrong version.
        t.control[0].2 = update.replace("\"version\":1", "\"version\":2");
        assert_eq!(reference.failures(&t, 1), 1);
    }
}
