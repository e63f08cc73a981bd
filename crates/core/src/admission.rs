//! Admission control for the network frontend: bounded sessions and a
//! bounded in-flight request queue, both shedding with a typed *busy*
//! outcome instead of queueing unboundedly or blocking.
//!
//! The gate is two permit counters over plain atomics (no locks, no
//! waiting — an admission decision is a single CAS loop):
//!
//! * **Session permits** bound how many client connections may be live at
//!   once ([`EngineConfig::max_sessions`](crate::EngineConfig)). A
//!   connection that cannot get one is told `BUSY` at handshake time and
//!   closed — it never consumes a server thread.
//! * **Request permits** bound how many data-plane requests may be in
//!   flight across all sessions
//!   ([`EngineConfig::admission_queue`](crate::EngineConfig)). This is the
//!   server's bounded work queue: with thread-per-session execution a
//!   permit is held exactly for the duration of one request, so the knob
//!   caps the engine-side concurrency the frontend can generate. A request
//!   that cannot get a permit is answered `BUSY` immediately — shed, not
//!   enqueued — which keeps tail latency bounded under overload (the
//!   client retries with backoff; see PROTOCOL.md §6).
//!
//! Permits are RAII guards, so an early return or a panicking handler can
//! never leak capacity.

use obr_sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use obr_obs::{Counter, Gauge, Registry};

/// Why admission was refused. The server maps both to the wire-level
/// `BUSY` error code, with the variant in the message for operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Busy {
    /// Every session slot is taken (`max_sessions`).
    Sessions,
    /// Every in-flight request slot is taken (`admission_queue`).
    Requests,
}

impl std::fmt::Display for Busy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Busy::Sessions => write!(f, "session limit reached"),
            Busy::Requests => write!(f, "admission queue full"),
        }
    }
}

#[derive(Debug, Default)]
struct GateMetrics {
    sessions: Gauge,
    sessions_total: Counter,
    sessions_shed: Counter,
    inflight: Gauge,
    requests_shed: Counter,
}

#[derive(Debug)]
struct GateInner {
    max_sessions: usize,
    queue_slots: usize,
    sessions: AtomicUsize,
    inflight: AtomicUsize,
    metrics: GateMetrics,
}

/// The admission gate shared by the listener and every session thread.
#[derive(Clone, Debug)]
pub struct AdmissionGate {
    inner: Arc<GateInner>,
}

impl AdmissionGate {
    /// A gate admitting at most `max_sessions` concurrent sessions and
    /// `queue_slots` concurrent in-flight requests. Zero `queue_slots` is
    /// legal and sheds every data-plane request (useful for tests and for
    /// draining a server administratively).
    pub fn new(max_sessions: usize, queue_slots: usize) -> AdmissionGate {
        AdmissionGate {
            inner: Arc::new(GateInner {
                max_sessions,
                queue_slots,
                sessions: AtomicUsize::new(0),
                inflight: AtomicUsize::new(0),
                metrics: GateMetrics::default(),
            }),
        }
    }

    /// Publish the gate's live handles into a metrics registry
    /// (`server_sessions`, `server_sessions_total`, `server_sessions_shed`,
    /// `server_inflight`, `server_requests_shed`).
    pub fn register_metrics(&self, reg: &Registry) {
        let m = &self.inner.metrics;
        reg.register_gauge("server_sessions", &m.sessions);
        reg.register_counter("server_sessions_total", &m.sessions_total);
        reg.register_counter("server_sessions_shed", &m.sessions_shed);
        reg.register_gauge("server_inflight", &m.inflight);
        reg.register_counter("server_requests_shed", &m.requests_shed);
    }

    /// Session-slot ceiling this gate enforces.
    pub fn max_sessions(&self) -> usize {
        self.inner.max_sessions
    }

    /// In-flight request ceiling this gate enforces.
    pub fn queue_slots(&self) -> usize {
        self.inner.queue_slots
    }

    /// Live sessions right now.
    pub fn sessions(&self) -> usize {
        // protocol: relaxed monotonic-ish observability read; admission itself uses
        // the CAS loop below, never this value.
        self.inner.sessions.load(Ordering::Relaxed)
    }

    /// In-flight requests right now.
    pub fn inflight(&self) -> usize {
        // protocol: relaxed observability read only.
        self.inner.inflight.load(Ordering::Relaxed)
    }

    fn try_take(slot: &AtomicUsize, limit: usize) -> bool {
        // protocol: relaxed the counter guards capacity only — no data is published
        // through it, so the CAS needs atomicity, not ordering.
        slot.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < limit).then_some(n + 1)
        })
        .is_ok()
    }

    /// Try to admit one session. `Err(Busy::Sessions)` means the caller
    /// should answer `BUSY` and close; `Ok` returns an RAII permit that
    /// frees the slot on drop.
    pub fn admit_session(&self) -> Result<SessionPermit, Busy> {
        if !Self::try_take(&self.inner.sessions, self.inner.max_sessions) {
            self.inner.metrics.sessions_shed.inc();
            return Err(Busy::Sessions);
        }
        self.inner.metrics.sessions.inc();
        self.inner.metrics.sessions_total.inc();
        Ok(SessionPermit { gate: self.clone() })
    }

    /// Try to start one request. `Err(Busy::Requests)` means shed (answer
    /// `BUSY` now); `Ok` returns an RAII permit held for the request's
    /// duration.
    pub fn start_request(&self) -> Result<RequestPermit, Busy> {
        if !Self::try_take(&self.inner.inflight, self.inner.queue_slots) {
            self.inner.metrics.requests_shed.inc();
            return Err(Busy::Requests);
        }
        self.inner.metrics.inflight.inc();
        Ok(RequestPermit { gate: self.clone() })
    }
}

/// RAII session slot; dropping it re-opens the slot.
#[derive(Debug)]
pub struct SessionPermit {
    gate: AdmissionGate,
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        // protocol: relaxed capacity release; the next admission CAS observes it.
        self.gate.inner.sessions.fetch_sub(1, Ordering::Relaxed);
        self.gate.inner.metrics.sessions.dec();
    }
}

/// RAII in-flight request slot; dropping it re-opens the slot.
#[derive(Debug)]
pub struct RequestPermit {
    gate: AdmissionGate,
}

impl Drop for RequestPermit {
    fn drop(&mut self) {
        // protocol: relaxed capacity release; the next admission CAS observes it.
        self.gate.inner.inflight.fetch_sub(1, Ordering::Relaxed);
        self.gate.inner.metrics.inflight.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_slots_are_bounded_and_refundable() {
        let gate = AdmissionGate::new(2, 8);
        let a = gate.admit_session().unwrap();
        let b = gate.admit_session().unwrap();
        assert_eq!(gate.admit_session().unwrap_err(), Busy::Sessions);
        drop(a);
        let c = gate.admit_session().unwrap();
        drop(b);
        drop(c);
        assert_eq!(gate.sessions(), 0);
    }

    #[test]
    fn zero_queue_sheds_every_request() {
        let gate = AdmissionGate::new(4, 0);
        assert_eq!(gate.start_request().unwrap_err(), Busy::Requests);
    }

    #[test]
    fn request_permits_bound_concurrency_under_contention() {
        let gate = AdmissionGate::new(64, 3);
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let gate = gate.clone();
                let peak = std::sync::Arc::clone(&peak);
                s.spawn(move || {
                    for _ in 0..200 {
                        match gate.start_request() {
                            Ok(_p) => {
                                let now = gate.inflight();
                                // protocol: relaxed test-only max tracking.
                                peak.fetch_max(now, Ordering::Relaxed);
                            }
                            Err(Busy::Requests) => {}
                            Err(other) => panic!("unexpected {other:?}"),
                        }
                    }
                });
            }
        });
        // protocol: relaxed test-only read after joins.
        assert!(peak.load(Ordering::Relaxed) <= 3);
        assert_eq!(gate.inflight(), 0);
    }

    #[test]
    fn metrics_register_and_count_sheds() {
        let gate = AdmissionGate::new(1, 1);
        let reg = Registry::new();
        gate.register_metrics(&reg);
        let _s = gate.admit_session().unwrap();
        let _ = gate.admit_session();
        let _r = gate.start_request().unwrap();
        let _ = gate.start_request();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("server_sessions_shed"), 1);
        assert_eq!(snap.counter("server_requests_shed"), 1);
        assert_eq!(snap.gauge("server_sessions"), 1);
        assert_eq!(snap.gauge("server_inflight"), 1);
    }
}
