//! Benchmark-side spans: one per call into the `Tc` API, one per
//! transaction around them. Recorded from outside the program (its own
//! `obs` spans stay off), kept in memory, written out after the run.

use crate::spec::SPAN_FILE_CAP;
use std::io::Write;
use std::time::Instant;

/// What a span covers. `Txn` is the parent of the calls inside it;
/// `Checkpoint` has no parent (it runs between transactions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    Txn,
    Begin,
    Read,
    Update,
    Insert,
    Scan,
    Commit,
    CommitRo,
    Checkpoint,
}

impl Name {
    /// Number of variants (the length of per-name tables).
    pub const COUNT: usize = 9;

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Txn => "bench.txn",
            Name::Begin => "tc.begin",
            Name::Read => "tc.read",
            Name::Update => "tc.update",
            Name::Insert => "tc.insert",
            Name::Scan => "tc.scan",
            Name::Commit => "tc.commit",
            Name::CommitRo => "tc.commit_ro",
            Name::Checkpoint => "tc.checkpoint",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent.
    pub parent: u64,
    /// The client's transaction ordinal; spans of one transaction share it.
    pub txn: u64,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Duration of `parent` minus the part of it its children cover.
/// Children may overlap each other or stick out of the parent; covered
/// time is counted once and only inside the parent.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (parent.1 - parent.0) - covered
}

/// One client's recorder. Every span feeds the per-name duration
/// samples; the first `SPAN_FILE_CAP / clients` are also kept raw.
pub struct Tracer {
    epoch: Instant,
    client: u64,
    raw_cap: usize,
    /// Toggled per transaction by the runner (traced vs untraced slice).
    pub on: bool,
    next_id: u64,
    txn_no: u64,
    txn_id: u64,
    children: Vec<(u64, u64)>,
    pub raw: Vec<Span>,
    /// Durations per `Name as usize`, ns.
    pub durations: [Vec<u32>; Name::COUNT],
    pub txn_self_ns: u64,
    pub txn_total_ns: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, client: usize, clients: usize) -> Self {
        Tracer {
            epoch,
            client: client as u64,
            raw_cap: SPAN_FILE_CAP / clients,
            on: false,
            next_id: 0,
            txn_no: 0,
            txn_id: 0,
            children: Vec::new(),
            raw: Vec::new(),
            durations: Default::default(),
            txn_self_ns: 0,
            txn_total_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        // Unique across clients without coordination.
        (self.client << 48) | self.next_id
    }

    fn push(&mut self, id: u64, parent: u64, name: Name, start_ns: u64, end_ns: u64) {
        self.durations[name as usize].push((end_ns - start_ns).min(u32::MAX as u64) as u32);
        if self.raw.len() < self.raw_cap {
            self.raw.push(Span {
                id,
                parent,
                txn: self.txn_no,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Call before a transaction's first `Tc` call.
    pub fn open_txn(&mut self) {
        if self.on {
            self.txn_no += 1;
            self.txn_id = self.fresh_id();
            self.children.clear();
        }
    }

    /// Run one `Tc` call, recording it as a child of the open transaction
    /// (or as a root span when `name` is `Checkpoint`).
    pub fn call<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        let id = self.fresh_id();
        if name == Name::Checkpoint {
            self.push(id, 0, name, start, end);
        } else {
            self.children.push((start, end));
            self.push(id, self.txn_id, name, start, end);
        }
        r
    }

    /// Close the transaction span the runner timed from `start` to `end`
    /// (offsets from the run epoch).
    pub fn close_txn(&mut self, start_ns: u64, end_ns: u64) {
        if self.on {
            self.txn_self_ns += self_time_ns((start_ns, end_ns), &self.children);
            self.txn_total_ns += end_ns - start_ns;
            self.push(self.txn_id, 0, Name::Txn, start_ns, end_ns);
        }
    }
}

/// One JSON object per line: `{id,parent,txn,name,start_ns,end_ns}`.
pub fn write_jsonl(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in tracers.iter().flat_map(|t| &t.raw) {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"txn\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            s.txn,
            s.name.as_str(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_time_once() {
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        assert_eq!(self_time_ns((100, 200), &[(110, 120), (150, 190)]), 50);
        // Overlapping children count once; parts outside the parent do not count.
        assert_eq!(self_time_ns((100, 200), &[(110, 150), (140, 160)]), 50);
        assert_eq!(self_time_ns((100, 200), &[(50, 120), (190, 300)]), 70);
        assert_eq!(self_time_ns((100, 200), &[(0, 50), (250, 300)]), 100);
        assert_eq!(self_time_ns((100, 200), &[(90, 210)]), 0);
        // A child nested inside another adds nothing.
        assert_eq!(self_time_ns((0, 100), &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn tracer_records_only_when_on_and_parents_children() {
        let mut t = Tracer::new(Instant::now(), 1, 2);
        t.open_txn();
        assert_eq!(t.call(Name::Begin, || 5), 5);
        t.close_txn(0, 10);
        assert!(t.raw.is_empty());

        t.on = true;
        t.open_txn();
        t.call(Name::Begin, || ());
        t.call(Name::Commit, || ());
        let end = t.now_ns();
        t.close_txn(0, end);
        t.call(Name::Checkpoint, || ());
        let txn = t.raw.iter().find(|s| s.name == Name::Txn).unwrap();
        let kids: Vec<_> = t.raw.iter().filter(|s| s.parent == txn.id).collect();
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|s| s.txn == txn.txn && s.id >> 48 == 1));
        let ckpt = t.raw.iter().find(|s| s.name == Name::Checkpoint).unwrap();
        assert_eq!(ckpt.parent, 0);
        assert!(t.txn_self_ns <= t.txn_total_ns);
        assert_eq!(t.durations[Name::Begin as usize].len(), 1);
    }
}
