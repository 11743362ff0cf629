//! Per-router circuit tables and the reservation conflict rules (§4.2, §4.7).

use super::handle::CircuitKey;
use super::timing::TimeWindow;
use crate::config::CircuitMode;
use crate::types::{Cycle, NodeId};
use crate::PORTS;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One reserved circuit at one router input port.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircuitEntry {
    /// Circuit identity (requestor + cache-line address).
    pub key: CircuitKey,
    /// The reply sender this circuit belongs to. All complete circuits
    /// sharing an input port must share this (§4.2).
    pub source: NodeId,
    /// Output port index the reply will take through the crossbar
    /// (`0..PORTS`; 4 is the local/ejection port).
    pub out_port: usize,
    /// Reserved time slot (`None` for untimed circuits).
    pub window: Option<TimeWindow>,
    /// Output circuit-VC index (only meaningful for fragmented circuits,
    /// which have several buffered circuit VCs).
    pub vc: u8,
    /// Set while a reply is actively streaming through this circuit; such
    /// entries are never expired.
    pub in_use: bool,
    /// An undo arrived while the circuit was in use (a borrowed-circuit
    /// race): the entry is removed, and the undo forwarded, when the
    /// borrowing tail passes.
    pub undo_pending: bool,
    /// Cycle the reservation was written (per the table's internal clock,
    /// see [`RouterCircuits::note_now`]); drives leak detection.
    #[serde(default)]
    pub reserved_at: Cycle,
}

/// A reservation attempt, as derived from a request's VC-allocation stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReserveRequest {
    /// Circuit identity.
    pub key: CircuitKey,
    /// The reply sender.
    pub source: NodeId,
    /// Input port index the reply will arrive on (a local port at the
    /// reply source's own router).
    pub in_port: usize,
    /// Output port index the reply will leave through (a local port at
    /// the reply destination's router).
    pub out_port: usize,
    /// Desired time window at the current shift (`None` when untimed).
    pub window: Option<TimeWindow>,
    /// How many cycles later the window may slide to dodge an occupied
    /// slot (the *delay* variant; 0 otherwise).
    pub max_extra_shift: u32,
}

/// Why a reservation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReserveError {
    /// No free circuit-information entry at the input port.
    NoStorage,
    /// An existing circuit at the same input port has a different source.
    SourceConflict,
    /// An existing circuit at a different input port uses the same output
    /// port (untimed complete mode), or no free circuit VC at the output
    /// (fragmented mode).
    OutputConflict,
    /// Every allowed shift of the requested window overlaps a conflicting
    /// reservation (timed modes).
    WindowConflict,
}

impl fmt::Display for ReserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReserveError::NoStorage => "no circuit storage at input port",
            ReserveError::SourceConflict => "input port already serves another source",
            ReserveError::OutputConflict => "output port already reserved by another input",
            ReserveError::WindowConflict => "no non-conflicting time slot available",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ReserveError {}

/// A successful reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReserveOutcome {
    /// Which entry of the input port's table was used (0-based); feeds the
    /// Table 5 occupancy statistics.
    pub index_in_port: usize,
    /// Extra shift applied to dodge occupied slots (delay variant).
    pub extra_shift: u32,
    /// Output circuit-VC assigned (fragmented mode; 0 otherwise).
    pub vc: u8,
}

/// Counters for Table 5 and the failure breakdown of Figure 6.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableStats {
    /// `reserved_at_index[k]` counts reservations that were the (k+1)-th
    /// simultaneous circuit at their input port (k ≥ 7 clamps into the
    /// last bin).
    pub reserved_at_index: [u64; 8],
    /// Failures due to full tables.
    pub failed_storage: u64,
    /// Failures due to the same-source rule.
    pub failed_source: u64,
    /// Failures due to output-port conflicts.
    pub failed_output: u64,
    /// Failures due to time-slot conflicts.
    pub failed_window: u64,
}

impl TableStats {
    /// Total successful reservations.
    pub fn total_reserved(&self) -> u64 {
        self.reserved_at_index.iter().sum()
    }

    /// Total failed reservation attempts.
    pub fn total_failed(&self) -> u64 {
        self.failed_storage + self.failed_source + self.failed_output + self.failed_window
    }

    /// Accumulates another router's counters.
    pub fn merge(&mut self, other: &TableStats) {
        for (a, b) in self
            .reserved_at_index
            .iter_mut()
            .zip(&other.reserved_at_index)
        {
            *a += b;
        }
        self.failed_storage += other.failed_storage;
        self.failed_source += other.failed_source;
        self.failed_output += other.failed_output;
        self.failed_window += other.failed_window;
    }
}

/// The circuit state of one router: one entry table per input port plus the
/// conflict rules of the configured [`CircuitMode`].
///
/// # Examples
///
/// ```
/// use rcsim_core::circuit::{CircuitKey, ReserveRequest, RouterCircuits};
/// use rcsim_core::config::CircuitMode;
/// use rcsim_core::topology::{PORT_EAST, PORT_WEST};
/// use rcsim_core::types::NodeId;
///
/// let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
/// let req = ReserveRequest {
///     key: CircuitKey { requestor: NodeId(0), block: 0x80 },
///     source: NodeId(9),
///     in_port: PORT_EAST,
///     out_port: PORT_WEST,
///     window: None,
///     max_extra_shift: 0,
/// };
/// rc.try_reserve(&req)?;
/// assert!(rc.lookup(PORT_EAST, req.key).is_some());
/// # Ok::<(), rcsim_core::circuit::ReserveError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterCircuits {
    mode: CircuitMode,
    capacity: usize,
    circuit_vcs: usize,
    ports: Vec<Vec<CircuitEntry>>,
    stats: TableStats,
    /// Internal clock, advanced by the owner via [`Self::note_now`]; used
    /// only to stamp entries for leak detection, so callers that never
    /// advance it (unit tests, standalone use) see identical behaviour.
    #[serde(default)]
    now: Cycle,
}

impl RouterCircuits {
    /// Creates the circuit state for one router.
    ///
    /// `capacity` is the number of simultaneous circuits per input port
    /// (ignored in `Ideal` mode) and `circuit_vcs` the number of
    /// circuit-class VCs (used by fragmented output accounting). The
    /// router has the paper's 5 ports (4 network + 1 local).
    pub fn new(mode: CircuitMode, capacity: u8, circuit_vcs: usize) -> Self {
        Self {
            mode,
            capacity: capacity as usize,
            circuit_vcs: circuit_vcs.max(1),
            ports: vec![Vec::new(); PORTS],
            stats: TableStats::default(),
            now: 0,
        }
    }

    /// Advances the table's internal clock. Reservation entries written
    /// afterwards are stamped with this cycle, which is what
    /// [`Self::stale_entries`] measures ages against. Purely observational:
    /// no reservation decision depends on it.
    pub fn note_now(&mut self, now: Cycle) {
        self.now = self.now.max(now);
    }

    /// Every entry with its input port, in table order: by input port,
    /// then as the port's list holds them.
    pub fn entries(&self) -> impl Iterator<Item = (usize, CircuitEntry)> + '_ {
        (self.ports.iter().enumerate()).flat_map(|(p, es)| es.iter().map(move |&e| (p, e)))
    }

    /// Entries older than `min_age` cycles as of the caller-supplied
    /// absolute cycle `now` that are not actively streaming a reply.
    /// Timed entries expire on their own; long-lived untimed entries with
    /// no in-flight owner are the signature of a leaked reservation (e.g.
    /// a reply lost to a fault after `begin_use`). Ages are measured
    /// against the caller's clock, not the internal one, so routers whose
    /// internal clock lags (an event-driven kernel skips idle routers)
    /// report the same ages as under a dense tick loop. Returns
    /// `(in_port, entry, age)` triples.
    pub fn stale_entries(&self, now: Cycle, min_age: Cycle) -> Vec<(usize, CircuitEntry, Cycle)> {
        let mut stale = Vec::new();
        for (p, entries) in self.ports.iter().enumerate() {
            for e in entries {
                let age = now.saturating_sub(e.reserved_at);
                if age >= min_age {
                    stale.push((p, *e, age));
                }
            }
        }
        stale
    }

    /// The configured mode.
    pub fn mode(&self) -> CircuitMode {
        self.mode
    }

    /// Number of circuits currently reserved at an input port.
    pub fn occupancy(&self, in_port: usize) -> usize {
        self.ports[in_port].len()
    }

    /// Reservation / failure counters.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Zeroes the counters (e.g. after a warm-up phase), keeping the
    /// reserved circuits themselves.
    pub fn reset_stats(&mut self) {
        self.stats = TableStats::default();
    }

    /// Attempts to reserve a circuit, applying the mode's conflict rules.
    ///
    /// # Errors
    ///
    /// Returns the applicable [`ReserveError`]; the table is unchanged on
    /// failure. In fragmented mode a failure at this router does not undo
    /// reservations elsewhere; in complete mode the caller must undo the
    /// built prefix.
    pub fn try_reserve(&mut self, req: &ReserveRequest) -> Result<ReserveOutcome, ReserveError> {
        let result = self.check(req);
        match &result {
            Ok(outcome) => {
                let idx = self.ports[req.in_port].len().min(7);
                self.stats.reserved_at_index[idx] += 1;
                let window = req.window.map(|w| w.shifted(outcome.extra_shift as Cycle));
                self.ports[req.in_port].push(CircuitEntry {
                    key: req.key,
                    source: req.source,
                    out_port: req.out_port,
                    window,
                    vc: outcome.vc,
                    in_use: false,
                    undo_pending: false,
                    reserved_at: self.now,
                });
            }
            Err(e) => match e {
                ReserveError::NoStorage => self.stats.failed_storage += 1,
                ReserveError::SourceConflict => self.stats.failed_source += 1,
                ReserveError::OutputConflict => self.stats.failed_output += 1,
                ReserveError::WindowConflict => self.stats.failed_window += 1,
            },
        }
        result
    }

    fn check(&self, req: &ReserveRequest) -> Result<ReserveOutcome, ReserveError> {
        match self.mode {
            CircuitMode::None => Err(ReserveError::NoStorage),
            CircuitMode::Ideal => Ok(ReserveOutcome {
                index_in_port: self.ports[req.in_port].len(),
                extra_shift: 0,
                vc: 0,
            }),
            CircuitMode::Fragmented => self.check_fragmented(req),
            CircuitMode::Complete => match req.window {
                None => self.check_complete_untimed(req),
                Some(w) => self.check_complete_timed(req, w),
            },
        }
    }

    fn check_fragmented(&self, req: &ReserveRequest) -> Result<ReserveOutcome, ReserveError> {
        let port = &self.ports[req.in_port];
        if port.len() >= self.capacity {
            return Err(ReserveError::NoStorage);
        }
        // Each circuit occupies one circuit-class VC at its output port.
        let mut used = vec![false; self.circuit_vcs];
        for entries in &self.ports {
            for e in entries {
                if e.out_port == req.out_port {
                    if let Some(slot) = used.get_mut(e.vc as usize) {
                        *slot = true;
                    }
                }
            }
        }
        match used.iter().position(|u| !u) {
            Some(vc) => Ok(ReserveOutcome {
                index_in_port: port.len(),
                extra_shift: 0,
                vc: vc as u8,
            }),
            None => Err(ReserveError::OutputConflict),
        }
    }

    fn check_complete_untimed(&self, req: &ReserveRequest) -> Result<ReserveOutcome, ReserveError> {
        let port = &self.ports[req.in_port];
        if port.len() >= self.capacity {
            return Err(ReserveError::NoStorage);
        }
        if port.iter().any(|e| e.source != req.source) {
            return Err(ReserveError::SourceConflict);
        }
        for (p, entries) in self.ports.iter().enumerate() {
            if p == req.in_port {
                continue;
            }
            if entries.iter().any(|e| e.out_port == req.out_port) {
                return Err(ReserveError::OutputConflict);
            }
        }
        Ok(ReserveOutcome {
            index_in_port: port.len(),
            extra_shift: 0,
            vc: 0,
        })
    }

    /// Timed rules (§4.7): entries whose windows are disjoint never
    /// conflict; overlapping entries must satisfy the untimed rules. When
    /// the slot is occupied and `max_extra_shift > 0` (delay variant), the
    /// window slides right to the first free slot within budget.
    fn check_complete_timed(
        &self,
        req: &ReserveRequest,
        window: TimeWindow,
    ) -> Result<ReserveOutcome, ReserveError> {
        let port = &self.ports[req.in_port];
        if port.len() >= self.capacity {
            return Err(ReserveError::NoStorage);
        }
        let conflicts_with = |w: &TimeWindow, extra: Cycle| -> Option<Cycle> {
            // Returns the latest `end` among entries conflicting with the
            // shifted window, i.e. the earliest start that could clear them.
            let shifted = window.shifted(extra);
            let mut latest_end: Option<Cycle> = None;
            for (p, entries) in self.ports.iter().enumerate() {
                for e in entries {
                    let Some(ew) = e.window else { continue };
                    if !ew.overlaps(&shifted) {
                        continue;
                    }
                    let clashes = if p == req.in_port {
                        e.source != req.source
                    } else {
                        e.out_port == req.out_port
                    };
                    if clashes {
                        latest_end = Some(latest_end.map_or(ew.end, |le: Cycle| le.max(ew.end)));
                    }
                }
            }
            let _ = w;
            latest_end
        };

        let mut extra: Cycle = 0;
        // Sliding can cascade into later reservations; bound the loop by the
        // number of entries that could possibly conflict.
        let max_iters = self.ports.iter().map(Vec::len).sum::<usize>() + 1;
        for _ in 0..max_iters {
            match conflicts_with(&window, extra) {
                None => {
                    return Ok(ReserveOutcome {
                        index_in_port: port.len(),
                        extra_shift: extra as u32,
                        vc: 0,
                    });
                }
                Some(latest_end) => {
                    let needed = latest_end.saturating_sub(window.start);
                    if needed > req.max_extra_shift as Cycle {
                        return Err(ReserveError::WindowConflict);
                    }
                    extra = needed;
                }
            }
        }
        Err(ReserveError::WindowConflict)
    }

    /// Finds the circuit for `key` arriving on `in_port`.
    #[inline]
    pub fn lookup(&self, in_port: usize, key: CircuitKey) -> Option<&CircuitEntry> {
        self.ports[in_port].iter().find(|e| e.key == key)
    }

    /// Marks the circuit as actively streaming (reply head arrived), so it
    /// cannot expire mid-message.
    #[inline]
    pub fn begin_use(&mut self, in_port: usize, key: CircuitKey) -> bool {
        match self.ports[in_port].iter_mut().find(|e| e.key == key) {
            Some(e) => {
                e.in_use = true;
                true
            }
            None => false,
        }
    }

    /// Releases the circuit after the reply's tail flit leaves (§4.3: the
    /// tail clears the built-circuit bit). Returns the removed entry.
    #[inline]
    pub fn release(&mut self, in_port: usize, key: CircuitKey) -> Option<CircuitEntry> {
        let port = &mut self.ports[in_port];
        let idx = port.iter().position(|e| e.key == key)?;
        Some(port.remove(idx))
    }

    /// Undoes a circuit before use (§4.4), searching every input port.
    /// Returns the removed entry so the caller can forward the undo towards
    /// the circuit destination through `entry.out_port`. An entry that is
    /// actively streaming (a borrowed circuit) is marked instead; it is
    /// removed — and the undo resumed — when its tail passes ([`Self::end_use`]).
    pub fn undo(&mut self, key: CircuitKey) -> Option<CircuitEntry> {
        for port in &mut self.ports {
            if let Some(idx) = port.iter().position(|e| e.key == key) {
                if port[idx].in_use {
                    port[idx].undo_pending = true;
                    return None;
                }
                return Some(port.remove(idx));
            }
        }
        None
    }

    /// Ends a borrowing reply's streaming without releasing the circuit
    /// (scrounger borrow mode). If an undo arrived mid-stream the entry is
    /// removed and returned so the undo can resume its propagation.
    pub fn end_use(&mut self, in_port: usize, key: CircuitKey) -> Option<CircuitEntry> {
        let port = &mut self.ports[in_port];
        let idx = port.iter().position(|e| e.key == key)?;
        if port[idx].undo_pending {
            return Some(port.remove(idx));
        }
        port[idx].in_use = false;
        None
    }

    /// Drops timed entries whose window has passed (frees table capacity —
    /// one reason timed circuits can build more). Entries in use survive.
    /// Returns how many entries expired.
    pub fn expire(&mut self, now: Cycle) -> usize {
        let mut expired = 0;
        for port in &mut self.ports {
            port.retain(|e| {
                let dead = !e.in_use && e.window.is_some_and(|w| w.end <= now);
                expired += dead as usize;
                !dead
            });
        }
        expired
    }

    /// The earliest `window.end` among entries not actively in use — the
    /// next cycle at which [`Self::expire`] could remove something.
    /// `None` when no expirable entry exists. Lets an event-driven kernel
    /// schedule the wake-up for a sleeping router's timed expiries.
    pub fn next_expiry(&self) -> Option<Cycle> {
        self.ports
            .iter()
            .flatten()
            .filter(|e| !e.in_use)
            .filter_map(|e| e.window.map(|w| w.end))
            .min()
    }

    /// Total number of reserved circuits at this router.
    pub fn total_entries(&self) -> usize {
        self.ports.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_WEST};

    fn key(requestor: u16, block: u64) -> CircuitKey {
        CircuitKey {
            requestor: NodeId(requestor),
            block,
        }
    }

    fn req(k: CircuitKey, source: u16, in_port: usize, out_port: usize) -> ReserveRequest {
        ReserveRequest {
            key: k,
            source: NodeId(source),
            in_port,
            out_port,
            window: None,
            max_extra_shift: 0,
        }
    }

    fn timed_req(
        k: CircuitKey,
        source: u16,
        in_port: usize,
        out_port: usize,
        window: TimeWindow,
        max_extra_shift: u32,
    ) -> ReserveRequest {
        ReserveRequest {
            window: Some(window),
            max_extra_shift,
            ..req(k, source, in_port, out_port)
        }
    }

    #[test]
    fn complete_reserve_and_lookup() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        let k = key(1, 0x40);
        rc.try_reserve(&req(k, 9, PORT_EAST, PORT_WEST)).unwrap();
        assert!(rc.lookup(PORT_EAST, k).is_some());
        assert!(rc.lookup(PORT_WEST, k).is_none());
        assert_eq!(rc.occupancy(PORT_EAST), 1);
    }

    #[test]
    fn complete_same_source_shares_input_port() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        for b in 0..5u64 {
            rc.try_reserve(&req(key(b as u16, b * 64), 9, PORT_EAST, PORT_WEST))
                .unwrap();
        }
        assert_eq!(rc.occupancy(PORT_EAST), 5);
        // Sixth fails: storage.
        let e = rc
            .try_reserve(&req(key(7, 999), 9, PORT_EAST, PORT_WEST))
            .unwrap_err();
        assert_eq!(e, ReserveError::NoStorage);
        assert_eq!(rc.stats().failed_storage, 1);
    }

    #[test]
    fn complete_different_source_same_input_rejected() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        rc.try_reserve(&req(key(1, 0), 9, PORT_EAST, PORT_WEST))
            .unwrap();
        let e = rc
            .try_reserve(&req(key(2, 64), 10, PORT_EAST, PORT_NORTH))
            .unwrap_err();
        assert_eq!(e, ReserveError::SourceConflict);
    }

    #[test]
    fn complete_output_conflict_across_inputs() {
        // The Figure 4b situation: two circuits with different inputs and
        // the same output cannot coexist.
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        rc.try_reserve(&req(key(1, 0), 9, PORT_EAST, PORT_WEST))
            .unwrap();
        let e = rc
            .try_reserve(&req(key(2, 64), 10, PORT_SOUTH, PORT_WEST))
            .unwrap_err();
        assert_eq!(e, ReserveError::OutputConflict);
        // A different output from another input is fine.
        rc.try_reserve(&req(key(3, 128), 10, PORT_SOUTH, PORT_NORTH))
            .unwrap();
    }

    #[test]
    fn table5_occupancy_indices() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        for b in 0..3u64 {
            rc.try_reserve(&req(key(b as u16, b), 9, PORT_EAST, PORT_WEST))
                .unwrap();
        }
        assert_eq!(rc.stats().reserved_at_index[..3], [1, 1, 1]);
        assert_eq!(rc.stats().total_reserved(), 3);
    }

    #[test]
    fn release_frees_entry() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 1, 1);
        let k = key(1, 0);
        rc.try_reserve(&req(k, 9, PORT_EAST, PORT_WEST)).unwrap();
        assert!(rc.release(PORT_EAST, k).is_some());
        assert!(rc.release(PORT_EAST, k).is_none());
        // Capacity freed.
        rc.try_reserve(&req(key(2, 64), 9, PORT_EAST, PORT_WEST))
            .unwrap();
    }

    #[test]
    fn undo_searches_all_ports_and_returns_route() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        let k = key(1, 0);
        rc.try_reserve(&req(k, 9, PORT_SOUTH, PORT_NORTH)).unwrap();
        let e = rc.undo(k).expect("undo finds the entry");
        assert_eq!(e.out_port, PORT_NORTH);
        assert_eq!(rc.total_entries(), 0);
        assert!(rc.undo(k).is_none());
    }

    #[test]
    fn in_use_entries_resist_undo_and_expiry() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        let k = key(1, 0);
        let w = TimeWindow::new(10, 20);
        rc.try_reserve(&timed_req(k, 9, PORT_EAST, PORT_WEST, w, 0))
            .unwrap();
        assert!(rc.begin_use(PORT_EAST, k));
        assert!(rc.undo(k).is_none(), "in-use circuits cannot be undone");
        assert_eq!(rc.expire(100), 0, "in-use circuits cannot expire");
        assert!(rc.release(PORT_EAST, k).is_some());
    }

    #[test]
    fn fragmented_output_vcs_limit_circuits() {
        let mut rc = RouterCircuits::new(CircuitMode::Fragmented, 2, 2);
        // Two circuits to the same output from different inputs: occupy the
        // two circuit VCs.
        let a = rc
            .try_reserve(&req(key(1, 0), 9, PORT_EAST, PORT_WEST))
            .unwrap();
        let b = rc
            .try_reserve(&req(key(2, 64), 10, PORT_SOUTH, PORT_WEST))
            .unwrap();
        assert_ne!(a.vc, b.vc);
        // Third to the same output fails even from a third input.
        let e = rc
            .try_reserve(&req(key(3, 128), 11, PORT_NORTH, PORT_WEST))
            .unwrap_err();
        assert_eq!(e, ReserveError::OutputConflict);
        // But a different output is fine.
        rc.try_reserve(&req(key(4, 192), 11, PORT_NORTH, PORT_SOUTH))
            .unwrap();
    }

    #[test]
    fn fragmented_per_input_capacity() {
        let mut rc = RouterCircuits::new(CircuitMode::Fragmented, 2, 2);
        rc.try_reserve(&req(key(1, 0), 9, PORT_EAST, PORT_WEST))
            .unwrap();
        rc.try_reserve(&req(key(2, 64), 10, PORT_EAST, PORT_NORTH))
            .unwrap();
        let e = rc
            .try_reserve(&req(key(3, 128), 11, PORT_EAST, PORT_SOUTH))
            .unwrap_err();
        assert_eq!(e, ReserveError::NoStorage);
    }

    #[test]
    fn fragmented_ignores_source_rule() {
        let mut rc = RouterCircuits::new(CircuitMode::Fragmented, 2, 2);
        rc.try_reserve(&req(key(1, 0), 9, PORT_EAST, PORT_WEST))
            .unwrap();
        // Different source, same input: fine for fragmented (buffers exist).
        rc.try_reserve(&req(key(2, 64), 10, PORT_EAST, PORT_NORTH))
            .unwrap();
    }

    #[test]
    fn ideal_never_fails() {
        let mut rc = RouterCircuits::new(CircuitMode::Ideal, 1, 1);
        for b in 0..100u64 {
            rc.try_reserve(&req(key(b as u16, b), (b % 7) as u16, PORT_EAST, PORT_WEST))
                .unwrap();
        }
        assert_eq!(rc.total_entries(), 100);
        assert_eq!(rc.stats().total_failed(), 0);
    }

    #[test]
    fn none_mode_rejects_everything() {
        let mut rc = RouterCircuits::new(CircuitMode::None, 0, 0);
        assert!(rc
            .try_reserve(&req(key(1, 0), 9, PORT_EAST, PORT_WEST))
            .is_err());
    }

    #[test]
    fn timed_disjoint_windows_share_output() {
        // The whole point of timed circuits: different inputs, same output,
        // non-conflicting slots.
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        let w1 = TimeWindow::new(10, 20);
        let w2 = TimeWindow::new(20, 30);
        rc.try_reserve(&timed_req(key(1, 0), 9, PORT_EAST, PORT_WEST, w1, 0))
            .unwrap();
        rc.try_reserve(&timed_req(key(2, 64), 10, PORT_SOUTH, PORT_WEST, w2, 0))
            .unwrap();
        assert_eq!(rc.total_entries(), 2);
    }

    #[test]
    fn timed_overlapping_windows_conflict() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        let w1 = TimeWindow::new(10, 20);
        let w2 = TimeWindow::new(15, 25);
        rc.try_reserve(&timed_req(key(1, 0), 9, PORT_EAST, PORT_WEST, w1, 0))
            .unwrap();
        let e = rc
            .try_reserve(&timed_req(key(2, 64), 10, PORT_SOUTH, PORT_WEST, w2, 0))
            .unwrap_err();
        assert_eq!(e, ReserveError::WindowConflict);
    }

    #[test]
    fn timed_same_input_different_source_overlap_conflicts() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        let w = TimeWindow::new(10, 20);
        rc.try_reserve(&timed_req(key(1, 0), 9, PORT_EAST, PORT_WEST, w, 0))
            .unwrap();
        let e = rc
            .try_reserve(&timed_req(key(2, 64), 10, PORT_EAST, PORT_NORTH, w, 0))
            .unwrap_err();
        assert_eq!(e, ReserveError::WindowConflict);
        // Disjoint windows make it legal.
        rc.try_reserve(&timed_req(
            key(3, 128),
            10,
            PORT_EAST,
            PORT_NORTH,
            TimeWindow::new(30, 40),
            0,
        ))
        .unwrap();
    }

    #[test]
    fn delay_variant_slides_window() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        rc.try_reserve(&timed_req(
            key(1, 0),
            9,
            PORT_EAST,
            PORT_WEST,
            TimeWindow::new(10, 20),
            0,
        ))
        .unwrap();
        // Conflicting slot, but allowed to slide by up to 15 cycles.
        let out = rc
            .try_reserve(&timed_req(
                key(2, 64),
                10,
                PORT_SOUTH,
                PORT_WEST,
                TimeWindow::new(12, 22),
                15,
            ))
            .unwrap();
        assert_eq!(out.extra_shift, 8); // slides to start at 20
        let e = rc.lookup(PORT_SOUTH, key(2, 64)).unwrap();
        assert_eq!(e.window, Some(TimeWindow::new(20, 30)));
    }

    #[test]
    fn delay_variant_respects_budget() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        rc.try_reserve(&timed_req(
            key(1, 0),
            9,
            PORT_EAST,
            PORT_WEST,
            TimeWindow::new(10, 30),
            0,
        ))
        .unwrap();
        let e = rc
            .try_reserve(&timed_req(
                key(2, 64),
                10,
                PORT_SOUTH,
                PORT_WEST,
                TimeWindow::new(12, 22),
                5, // needs 18, only 5 allowed
            ))
            .unwrap_err();
        assert_eq!(e, ReserveError::WindowConflict);
    }

    #[test]
    fn delay_slides_across_consecutive_reservations() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        rc.try_reserve(&timed_req(
            key(1, 0),
            9,
            PORT_EAST,
            PORT_WEST,
            TimeWindow::new(10, 20),
            0,
        ))
        .unwrap();
        rc.try_reserve(&timed_req(
            key(2, 64),
            10,
            PORT_SOUTH,
            PORT_WEST,
            TimeWindow::new(20, 30),
            0,
        ))
        .unwrap();
        // Must cascade past both reservations.
        let out = rc
            .try_reserve(&timed_req(
                key(3, 128),
                11,
                PORT_NORTH,
                PORT_WEST,
                TimeWindow::new(11, 21),
                30,
            ))
            .unwrap();
        assert_eq!(out.extra_shift, 19); // starts at 30
    }

    #[test]
    fn expire_frees_capacity() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 1, 1);
        rc.try_reserve(&timed_req(
            key(1, 0),
            9,
            PORT_EAST,
            PORT_WEST,
            TimeWindow::new(10, 20),
            0,
        ))
        .unwrap();
        assert_eq!(rc.expire(15), 0, "window not yet over");
        assert_eq!(rc.expire(20), 1);
        assert_eq!(rc.total_entries(), 0);
        // Capacity is free again.
        rc.try_reserve(&timed_req(
            key(2, 64),
            9,
            PORT_EAST,
            PORT_WEST,
            TimeWindow::new(30, 40),
            0,
        ))
        .unwrap();
    }

    #[test]
    fn stale_entries_report_age_and_skip_young() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        rc.note_now(100);
        rc.try_reserve(&req(key(1, 0), 9, PORT_EAST, PORT_WEST))
            .unwrap();
        rc.note_now(150);
        rc.try_reserve(&req(key(2, 64), 9, PORT_EAST, PORT_NORTH))
            .unwrap();
        // Ages are measured against the caller's absolute clock, so a
        // table whose internal clock stopped advancing (idle router under
        // the event kernel) reports the same ages.
        let stale = rc.stale_entries(400, 280);
        assert_eq!(stale.len(), 1, "only the 300-cycle-old entry is stale");
        let (port, entry, age) = stale[0];
        assert_eq!(port, PORT_EAST);
        assert_eq!(entry.key, key(1, 0));
        assert_eq!(age, 300);
        assert_eq!(rc.entries().count(), 2);
    }

    #[test]
    fn next_expiry_tracks_earliest_idle_window() {
        let mut rc = RouterCircuits::new(CircuitMode::Complete, 5, 1);
        assert_eq!(rc.next_expiry(), None, "empty table never expires");
        rc.try_reserve(&timed_req(
            key(1, 0),
            9,
            PORT_EAST,
            PORT_WEST,
            TimeWindow::new(10, 20),
            0,
        ))
        .unwrap();
        rc.try_reserve(&timed_req(
            key(2, 64),
            9,
            PORT_EAST,
            PORT_NORTH,
            TimeWindow::new(30, 44),
            0,
        ))
        .unwrap();
        assert_eq!(rc.next_expiry(), Some(20));
        // An entry streaming a reply is never expired, so it must not
        // drive the wake-up either.
        rc.begin_use(PORT_EAST, key(1, 0));
        assert_eq!(rc.next_expiry(), Some(44));
        rc.end_use(PORT_EAST, key(1, 0));
        assert_eq!(rc.expire(20), 1);
        assert_eq!(rc.next_expiry(), Some(44));
    }

    #[test]
    fn stats_merge() {
        let mut a = TableStats::default();
        a.reserved_at_index[0] = 3;
        a.failed_output = 1;
        let mut b = TableStats::default();
        b.reserved_at_index[0] = 2;
        b.reserved_at_index[1] = 4;
        b.failed_storage = 5;
        a.merge(&b);
        assert_eq!(a.reserved_at_index[0], 5);
        assert_eq!(a.reserved_at_index[1], 4);
        assert_eq!(a.total_failed(), 6);
    }
}
