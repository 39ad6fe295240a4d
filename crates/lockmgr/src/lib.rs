//! # unbundled-lockmgr
//!
//! The lock manager used by the Transactional Component (and by the
//! monolithic baseline engine — it is one of the four "deeply
//! intertwined" components the paper unbundles).
//!
//! In the unbundled kernel the TC performs **all** transactional
//! concurrency control *before* sending a request to the DC (paper
//! Section 3.1), because the DC logs nothing about operation order: the
//! TC must never have two conflicting operations outstanding at a DC.
//! Locks therefore name *logical* resources only — tables, key-space
//! ranges and records — never pages.
//!
//! Features:
//! * modes `IS`, `IX`, `S`, `X` with the standard compatibility matrix;
//! * resources at table / range-partition / record granularity
//!   ([`LockName`]);
//! * FIFO queuing with granted-group semantics and in-place upgrades
//!   (`S`→`X`), upgrades jumping the queue to avoid trivial deadlocks;
//! * wait-for-graph deadlock detection at block time (the requester is
//!   the victim), plus optional timeouts;
//! * counters ([`LockStats`]) for the Section 3.1 experiments: locks
//!   acquired, waits, deadlocks.

#![warn(missing_docs)]

use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use unbundled_core::{Key, TableId};
use unbundled_obs as obs;
use unbundled_obs::stripe::StripedU64;

/// A lock owner: one transaction (possibly from any TC — tokens are
/// namespaced by the caller).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LockToken(pub u64);

impl fmt::Display for LockToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Lock modes with the standard multi-granularity compatibility matrix.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockMode {
    /// Intention shared (on a table, before S on contained resources).
    IS,
    /// Intention exclusive (on a table, before X on contained resources).
    IX,
    /// Shared.
    S,
    /// Exclusive.
    X,
}

impl LockMode {
    /// The standard compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        !matches!(
            (self, other),
            (IS, X) | (X, IS) | (IX, S) | (S, IX) | (IX, X) | (X, IX) | (S, X) | (X, S) | (X, X)
        )
    }

    /// True if `self` already covers a request for `other`
    /// (e.g. holding `X` covers a request for `S`).
    pub fn covers(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (a, b) if a == b => true,
            (X, _) => true,
            (S, IS) => true,
            (IX, IS) => true,
            _ => false,
        }
    }

    /// The weakest mode at least as strong as both (lock conversion).
    pub fn supremum(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (X, _) | (_, X) => X,
            (S, IX) | (IX, S) => X, // SIX collapsed to X (no SIX mode here)
            (S, _) | (_, S) => S,
            (IX, _) | (_, IX) => IX,
            _ => IS,
        }
    }
}

/// A lockable logical resource. No page names exist here by construction.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LockName {
    /// A whole table.
    Table(TableId),
    /// One partition of a table's key space (the static range-lock
    /// protocol of Section 3.1).
    Range(TableId, u32),
    /// A single record (also used for key-range edge keys in the
    /// fetch-ahead protocol).
    Record(TableId, Key),
}

impl fmt::Display for LockName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockName::Table(t) => write!(f, "{t}"),
            LockName::Range(t, r) => write!(f, "{t}:R{r}"),
            LockName::Record(t, k) => write!(f, "{t}:{k}"),
        }
    }
}

/// Failure modes of a lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockError {
    /// Granting would create a wait-for cycle; the requester is chosen as
    /// the victim and should abort.
    Deadlock,
    /// The request waited longer than the supplied timeout.
    Timeout,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Deadlock => write!(f, "deadlock victim"),
            LockError::Timeout => write!(f, "lock wait timeout"),
        }
    }
}

impl std::error::Error for LockError {}

/// Lock-manager counters for the concurrency-control experiments.
#[derive(Default, Debug)]
pub struct LockStats {
    /// Lock requests granted (including re-grants and upgrades).
    pub acquired: StripedU64,
    /// Requests that had to wait at least once.
    pub waits: StripedU64,
    /// Requests aborted as deadlock victims.
    pub deadlocks: StripedU64,
    /// Requests that timed out.
    pub timeouts: StripedU64,
}

impl LockStats {
    /// Snapshot (acquired, waits, deadlocks, timeouts).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.acquired.get(),
            self.waits.get(),
            self.deadlocks.get(),
            self.timeouts.get(),
        )
    }
}

#[derive(Clone, Debug)]
struct Granted {
    owner: LockToken,
    mode: LockMode,
    count: u32,
}

#[derive(Debug)]
struct Waiter {
    owner: LockToken,
    mode: LockMode,
    /// True once granted; the sleeper checks this on wakeup.
    granted: bool,
    /// Set if the waiter was killed (deadlock victim elsewhere).
    cancelled: bool,
    /// Upgrade of an existing grant (queue-jumps).
    upgrade: bool,
}

#[derive(Default)]
struct LockEntry {
    granted: Vec<Granted>,
    waiting: VecDeque<Arc<Mutex<Waiter>>>,
}

impl LockEntry {
    fn grant_compatible(&self, owner: LockToken, mode: LockMode) -> bool {
        self.granted
            .iter()
            .all(|g| g.owner == owner || g.mode.compatible(mode))
    }

    /// After any change, promote waiters from the front of the queue.
    /// Returns true if anything was granted (callers then notify).
    fn promote(&mut self) -> bool {
        let mut any = false;
        // Upgrades first (they are placed at the front on insert).
        let mut i = 0;
        while i < self.waiting.len() {
            let w = self.waiting[i].clone();
            let mut wg = w.lock();
            if wg.cancelled {
                drop(wg);
                self.waiting.remove(i);
                continue;
            }
            if self.grant_compatible(wg.owner, wg.mode) {
                let owner = wg.owner;
                let mode = wg.mode;
                wg.granted = true;
                drop(wg);
                self.waiting.remove(i);
                self.add_grant(owner, mode);
                any = true;
                // Restart the scan: the new grant may unblock or block others.
                i = 0;
            } else {
                // FIFO: a blocked non-upgrade waiter blocks everyone behind it
                // (prevents starvation). Upgrades ahead were already handled.
                if !wg.upgrade {
                    break;
                }
                i += 1;
            }
        }
        any
    }

    fn add_grant(&mut self, owner: LockToken, mode: LockMode) {
        if let Some(g) = self.granted.iter_mut().find(|g| g.owner == owner) {
            g.mode = g.mode.supremum(mode);
            g.count += 1;
        } else {
            self.granted.push(Granted {
                owner,
                mode,
                count: 1,
            });
        }
    }

    fn is_empty(&self) -> bool {
        self.granted.is_empty() && self.waiting.is_empty()
    }
}

struct Shard {
    entries: HashMap<LockName, LockEntry>,
}

/// The lock manager. Shared via [`Arc`] between all threads of a
/// component.
pub struct LockManager {
    shards: Vec<(Mutex<Shard>, Condvar)>,
    /// owner → set of owners it waits for (for cycle detection).
    waits_for: Mutex<HashMap<LockToken, HashSet<LockToken>>>,
    /// owner → resources it holds (for unlock_all).
    held: Mutex<HashMap<LockToken, Vec<LockName>>>,
    stats: LockStats,
    registry: Arc<obs::Registry>,
    /// Nanoseconds waited before each successful (blocked) grant.
    wait_hist: obs::Histogram,
}

const SHARDS: usize = 32;

fn shard_of(name: &LockName) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

impl LockManager {
    /// A fresh lock manager.
    pub fn new() -> Self {
        let registry = obs::Registry::new();
        LockManager {
            shards: (0..SHARDS)
                .map(|_| {
                    (
                        Mutex::new(Shard {
                            entries: HashMap::new(),
                        }),
                        Condvar::new(),
                    )
                })
                .collect(),
            waits_for: Mutex::new(HashMap::new()),
            held: Mutex::new(HashMap::new()),
            stats: LockStats::default(),
            wait_hist: registry.histogram(
                "lockmgr.wait_ns",
                "ns",
                "time blocked before a successful lock grant",
            ),
            registry: Arc::new(registry),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// This instance's metrics registry.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// Acquire `name` in `mode` for `owner`, blocking if necessary.
    ///
    /// `timeout = None` waits indefinitely (deadlock detection still
    /// applies). On `Err`, the caller should abort the transaction and
    /// call [`LockManager::unlock_all`].
    pub fn lock(
        &self,
        owner: LockToken,
        name: LockName,
        mode: LockMode,
        timeout: Option<Duration>,
    ) -> Result<(), LockError> {
        self.lock_waited(owner, name, mode, timeout).map(|_| ())
    }

    /// Like [`LockManager::lock`], but reports how many nanoseconds
    /// the caller was blocked before the grant (0 for an uncontended
    /// fast-path grant). Actual waits are recorded in the
    /// `lockmgr.wait_ns` histogram and emit a `lockmgr.lock_wait` span.
    pub fn lock_waited(
        &self,
        owner: LockToken,
        name: LockName,
        mode: LockMode,
        timeout: Option<Duration>,
    ) -> Result<u64, LockError> {
        let sid = shard_of(&name);
        let (shard_mtx, cv) = &self.shards[sid];
        let waiter: Arc<Mutex<Waiter>>;
        {
            let mut shard = shard_mtx.lock();
            let entry = shard.entries.entry(name.clone()).or_default();

            // Re-entrant / covered request.
            if let Some(g) = entry.granted.iter_mut().find(|g| g.owner == owner) {
                if g.mode.covers(mode) {
                    g.count += 1;
                    self.stats.acquired.add(1);
                    self.note_held(owner, &name);
                    return Ok(0);
                }
                // Upgrade: allowed immediately if no *other* holder conflicts.
                let others_ok = entry
                    .granted
                    .iter()
                    .all(|h| h.owner == owner || h.mode.compatible(mode));
                if others_ok && entry.waiting.iter().all(|w| !w.lock().upgrade) {
                    let g = entry.granted.iter_mut().find(|g| g.owner == owner).unwrap();
                    g.mode = g.mode.supremum(mode);
                    g.count += 1;
                    self.stats.acquired.add(1);
                    self.note_held(owner, &name);
                    return Ok(0);
                }
                // Must wait for the upgrade: queue-jump to the front.
                waiter = Arc::new(Mutex::new(Waiter {
                    owner,
                    mode,
                    granted: false,
                    cancelled: false,
                    upgrade: true,
                }));
                let blockers: Vec<LockToken> = entry
                    .granted
                    .iter()
                    .filter(|h| h.owner != owner && !h.mode.compatible(mode))
                    .map(|h| h.owner)
                    .collect();
                if self.would_deadlock(owner, &blockers) {
                    self.stats.deadlocks.add(1);
                    return Err(LockError::Deadlock);
                }
                entry.waiting.push_front(waiter.clone());
            } else {
                // Fresh request: FIFO — must also queue behind existing waiters.
                if entry.waiting.is_empty() && entry.grant_compatible(owner, mode) {
                    entry.add_grant(owner, mode);
                    self.stats.acquired.add(1);
                    self.note_held(owner, &name);
                    return Ok(0);
                }
                waiter = Arc::new(Mutex::new(Waiter {
                    owner,
                    mode,
                    granted: false,
                    cancelled: false,
                    upgrade: false,
                }));
                let mut blockers: Vec<LockToken> = entry
                    .granted
                    .iter()
                    .filter(|h| h.owner != owner && !h.mode.compatible(mode))
                    .map(|h| h.owner)
                    .collect();
                blockers.extend(
                    entry
                        .waiting
                        .iter()
                        .map(|w| w.lock().owner)
                        .filter(|&o| o != owner),
                );
                if self.would_deadlock(owner, &blockers) {
                    self.stats.deadlocks.add(1);
                    return Err(LockError::Deadlock);
                }
                entry.waiting.push_back(waiter.clone());
            }
            self.stats.waits.add(1);
            // Give promotion a chance (e.g. our waiter may be grantable if
            // the only conflict was a queue entry that got cancelled).
            if shard.entries.get_mut(&name).unwrap().promote() {
                cv.notify_all();
            }
        }

        // Sleep until granted, cancelled or timed out.
        let wait_start = std::time::Instant::now();
        let deadline = timeout.map(|d| wait_start + d);
        let mut shard = shard_mtx.lock();
        loop {
            {
                let wg = waiter.lock();
                if wg.granted {
                    self.stats.acquired.add(1);
                    drop(wg);
                    self.clear_waits(owner);
                    self.note_held(owner, &name);
                    let waited = wait_start.elapsed();
                    self.wait_hist.record(waited);
                    let waited_ns = waited.as_nanos().min(u64::MAX as u128) as u64;
                    obs::span_interval_ago("lockmgr.lock_wait", waited_ns, 0);
                    return Ok(waited_ns);
                }
                if wg.cancelled {
                    drop(wg);
                    self.clear_waits(owner);
                    self.stats.deadlocks.add(1);
                    return Err(LockError::Deadlock);
                }
            }
            let timed_out = match deadline {
                Some(dl) => cv.wait_until(&mut shard, dl).timed_out(),
                None => {
                    cv.wait(&mut shard);
                    false
                }
            };
            if timed_out {
                let already_granted = waiter.lock().granted;
                if already_granted {
                    continue; // granted at the last moment
                }
                // Remove ourselves from the queue.
                if let Some(entry) = shard.entries.get_mut(&name) {
                    entry.waiting.retain(|w| !Arc::ptr_eq(w, &waiter));
                    if entry.promote() {
                        cv.notify_all();
                    }
                }
                self.clear_waits(owner);
                self.stats.timeouts.add(1);
                return Err(LockError::Timeout);
            }
        }
    }

    /// Non-blocking acquire.
    pub fn try_lock(&self, owner: LockToken, name: LockName, mode: LockMode) -> bool {
        let sid = shard_of(&name);
        let (shard_mtx, _cv) = &self.shards[sid];
        let mut shard = shard_mtx.lock();
        let entry = shard.entries.entry(name.clone()).or_default();
        if let Some(g) = entry.granted.iter_mut().find(|g| g.owner == owner) {
            if g.mode.covers(mode) {
                g.count += 1;
                self.stats.acquired.add(1);
                self.note_held(owner, &name);
                return true;
            }
            let others_ok = entry
                .granted
                .iter()
                .all(|h| h.owner == owner || h.mode.compatible(mode));
            if others_ok {
                let g = entry.granted.iter_mut().find(|g| g.owner == owner).unwrap();
                g.mode = g.mode.supremum(mode);
                g.count += 1;
                self.stats.acquired.add(1);
                self.note_held(owner, &name);
                return true;
            }
            return false;
        }
        if entry.waiting.is_empty() && entry.grant_compatible(owner, mode) {
            entry.add_grant(owner, mode);
            self.stats.acquired.add(1);
            self.note_held(owner, &name);
            return true;
        }
        false
    }

    /// Release one hold on `name` (instant-duration locks). A lock held
    /// `n` times needs `n` releases (or one [`LockManager::unlock_all`]).
    pub fn unlock(&self, owner: LockToken, name: &LockName) {
        let sid = shard_of(name);
        let (shard_mtx, cv) = &self.shards[sid];
        let mut shard = shard_mtx.lock();
        if let Some(entry) = shard.entries.get_mut(name) {
            if let Some(pos) = entry.granted.iter().position(|g| g.owner == owner) {
                entry.granted[pos].count -= 1;
                if entry.granted[pos].count == 0 {
                    entry.granted.remove(pos);
                }
            }
            let promoted = entry.promote();
            if entry.is_empty() {
                shard.entries.remove(name);
            }
            if promoted {
                cv.notify_all();
            }
        }
    }

    /// Release every lock `owner` holds (strict two-phase locking:
    /// called at commit/abort).
    pub fn unlock_all(&self, owner: LockToken) {
        let names = self.held.lock().remove(&owner).unwrap_or_default();
        let mut seen: HashSet<LockName> = HashSet::new();
        for name in names {
            if !seen.insert(name.clone()) {
                continue;
            }
            let sid = shard_of(&name);
            let (shard_mtx, cv) = &self.shards[sid];
            let mut shard = shard_mtx.lock();
            if let Some(entry) = shard.entries.get_mut(&name) {
                entry.granted.retain(|g| g.owner != owner);
                let promoted = entry.promote();
                if entry.is_empty() {
                    shard.entries.remove(&name);
                }
                if promoted {
                    cv.notify_all();
                }
            }
        }
        self.clear_waits(owner);
    }

    /// Drop every lock and waiter (a crash loses the volatile lock
    /// table; waiters are woken and re-request against the fresh state).
    pub fn clear_all(&self) {
        for (shard_mtx, cv) in &self.shards {
            let mut shard = shard_mtx.lock();
            for (_, entry) in shard.entries.iter_mut() {
                entry.granted.clear();
                for w in entry.waiting.drain(..) {
                    w.lock().cancelled = true;
                }
            }
            shard.entries.clear();
            cv.notify_all();
        }
        self.waits_for.lock().clear();
        self.held.lock().clear();
    }

    /// Modes currently granted to `owner` on `name` (diagnostics/tests).
    pub fn held_mode(&self, owner: LockToken, name: &LockName) -> Option<LockMode> {
        let sid = shard_of(name);
        let (shard_mtx, _) = &self.shards[sid];
        let shard = shard_mtx.lock();
        shard
            .entries
            .get(name)
            .and_then(|e| e.granted.iter().find(|g| g.owner == owner).map(|g| g.mode))
    }

    fn note_held(&self, owner: LockToken, name: &LockName) {
        self.held
            .lock()
            .entry(owner)
            .or_default()
            .push(name.clone());
    }

    fn clear_waits(&self, owner: LockToken) {
        self.waits_for.lock().remove(&owner);
    }

    /// Would adding edges `owner → blockers` close a cycle?
    fn would_deadlock(&self, owner: LockToken, blockers: &[LockToken]) -> bool {
        let mut g = self.waits_for.lock();
        let entry = g.entry(owner).or_default();
        for &b in blockers {
            entry.insert(b);
        }
        // DFS from each blocker looking for `owner`.
        let mut stack: Vec<LockToken> = blockers.to_vec();
        let mut seen: HashSet<LockToken> = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == owner {
                if let Some(e) = g.get_mut(&owner) {
                    for b in blockers {
                        e.remove(b);
                    }
                }
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = g.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn rec(k: u64) -> LockName {
        LockName::Record(TableId(1), Key::from_u64(k))
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(IS.compatible(IS) && IS.compatible(IX) && IS.compatible(S));
        assert!(!IS.compatible(X));
        assert!(IX.compatible(IX) && !IX.compatible(S) && !IX.compatible(X));
        assert!(S.compatible(S) && !S.compatible(X));
        assert!(!X.compatible(X));
    }

    #[test]
    fn covers_and_supremum() {
        use LockMode::*;
        assert!(X.covers(S) && X.covers(IX));
        assert!(S.covers(IS) && !S.covers(X));
        assert_eq!(S.supremum(IX), X);
        assert_eq!(IS.supremum(IX), IX);
        assert_eq!(S.supremum(S), S);
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.lock(LockToken(1), rec(1), LockMode::S, None).unwrap();
        lm.lock(LockToken(2), rec(1), LockMode::S, None).unwrap();
        assert_eq!(lm.held_mode(LockToken(1), &rec(1)), Some(LockMode::S));
        assert_eq!(lm.held_mode(LockToken(2), &rec(1)), Some(LockMode::S));
    }

    #[test]
    fn exclusive_blocks_until_release() {
        let lm = Arc::new(LockManager::new());
        lm.lock(LockToken(1), rec(1), LockMode::X, None).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            lm2.lock(LockToken(2), rec(1), LockMode::X, None).unwrap();
            lm2.held_mode(LockToken(2), &rec(1))
        });
        thread::sleep(Duration::from_millis(30));
        lm.unlock_all(LockToken(1));
        assert_eq!(h.join().unwrap(), Some(LockMode::X));
    }

    #[test]
    fn reentrant_and_covered_grants() {
        let lm = LockManager::new();
        lm.lock(LockToken(1), rec(1), LockMode::X, None).unwrap();
        lm.lock(LockToken(1), rec(1), LockMode::S, None).unwrap();
        lm.lock(LockToken(1), rec(1), LockMode::X, None).unwrap();
        assert_eq!(lm.held_mode(LockToken(1), &rec(1)), Some(LockMode::X));
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let lm = LockManager::new();
        lm.lock(LockToken(1), rec(1), LockMode::S, None).unwrap();
        lm.lock(LockToken(1), rec(1), LockMode::X, None).unwrap();
        assert_eq!(lm.held_mode(LockToken(1), &rec(1)), Some(LockMode::X));
    }

    #[test]
    fn upgrade_waits_for_other_reader() {
        let lm = Arc::new(LockManager::new());
        lm.lock(LockToken(1), rec(1), LockMode::S, None).unwrap();
        lm.lock(LockToken(2), rec(1), LockMode::S, None).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || lm2.lock(LockToken(1), rec(1), LockMode::X, None));
        thread::sleep(Duration::from_millis(30));
        lm.unlock_all(LockToken(2));
        h.join().unwrap().unwrap();
        assert_eq!(lm.held_mode(LockToken(1), &rec(1)), Some(LockMode::X));
    }

    #[test]
    fn deadlock_detected() {
        let lm = Arc::new(LockManager::new());
        lm.lock(LockToken(1), rec(1), LockMode::X, None).unwrap();
        lm.lock(LockToken(2), rec(2), LockMode::X, None).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            // T2 waits for rec(1) held by T1.
            lm2.lock(LockToken(2), rec(1), LockMode::X, None)
        });
        thread::sleep(Duration::from_millis(30));
        // T1 → rec(2) held by T2 would close the cycle.
        let r = lm.lock(LockToken(1), rec(2), LockMode::X, None);
        assert_eq!(r, Err(LockError::Deadlock));
        lm.unlock_all(LockToken(1));
        h.join().unwrap().unwrap();
        lm.unlock_all(LockToken(2));
        assert!(lm.stats().snapshot().2 >= 1);
    }

    #[test]
    fn timeout_fires() {
        let lm = LockManager::new();
        lm.lock(LockToken(1), rec(1), LockMode::X, None).unwrap();
        let r = lm.lock(
            LockToken(2),
            rec(1),
            LockMode::S,
            Some(Duration::from_millis(20)),
        );
        assert_eq!(r, Err(LockError::Timeout));
    }

    #[test]
    fn fifo_prevents_starvation() {
        // T1 holds S; T2 waits for X; T3's S request must queue behind T2.
        let lm = Arc::new(LockManager::new());
        lm.lock(LockToken(1), rec(1), LockMode::S, None).unwrap();
        let lm2 = lm.clone();
        let t2 = thread::spawn(move || {
            lm2.lock(LockToken(2), rec(1), LockMode::X, None).unwrap();
            thread::sleep(Duration::from_millis(20));
            lm2.unlock_all(LockToken(2));
        });
        thread::sleep(Duration::from_millis(20));
        let granted_behind = lm.try_lock(LockToken(3), rec(1), LockMode::S);
        assert!(
            !granted_behind,
            "S must not jump the queue past a waiting X"
        );
        lm.unlock_all(LockToken(1));
        t2.join().unwrap();
        // Now T3 can get it.
        assert!(lm.try_lock(LockToken(3), rec(1), LockMode::S));
    }

    #[test]
    fn unlock_all_releases_everything() {
        let lm = LockManager::new();
        for k in 0..10 {
            lm.lock(LockToken(1), rec(k), LockMode::X, None).unwrap();
        }
        lm.unlock_all(LockToken(1));
        for k in 0..10 {
            assert!(lm.try_lock(LockToken(2), rec(k), LockMode::X));
        }
    }

    #[test]
    fn instant_duration_unlock() {
        let lm = LockManager::new();
        lm.lock(LockToken(1), rec(1), LockMode::X, None).unwrap();
        lm.unlock(LockToken(1), &rec(1));
        assert!(lm.try_lock(LockToken(2), rec(1), LockMode::X));
    }

    #[test]
    fn intention_locks_on_table() {
        let lm = LockManager::new();
        let t = LockName::Table(TableId(1));
        lm.lock(LockToken(1), t.clone(), LockMode::IX, None)
            .unwrap();
        lm.lock(LockToken(2), t.clone(), LockMode::IS, None)
            .unwrap();
        assert!(!lm.try_lock(LockToken(3), t.clone(), LockMode::X));
        assert!(!lm.try_lock(LockToken(2), t.clone(), LockMode::S)); // IX blocks S
    }

    #[test]
    fn concurrent_disjoint_throughput_smoke() {
        let lm = Arc::new(LockManager::new());
        let mut hs = Vec::new();
        for t in 0..8u64 {
            let lm = lm.clone();
            hs.push(thread::spawn(move || {
                for i in 0..500u64 {
                    let name = rec(t * 1000 + i);
                    lm.lock(LockToken(t), name.clone(), LockMode::X, None)
                        .unwrap();
                }
                lm.unlock_all(LockToken(t));
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(lm.stats().snapshot().0, 8 * 500);
    }

    #[test]
    fn range_and_record_names_are_distinct() {
        let lm = LockManager::new();
        lm.lock(
            LockToken(1),
            LockName::Range(TableId(1), 0),
            LockMode::X,
            None,
        )
        .unwrap();
        assert!(lm.try_lock(LockToken(2), rec(0), LockMode::X));
    }
}
