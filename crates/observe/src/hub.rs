//! Live metrics hub: a bounded broadcast channel over which engines,
//! serve sessions and parallel ranks publish typed samples.
//!
//! Design constraints, in order:
//!
//! 1. **Free when nobody listens.** The hot path (one publish per engine
//!    step / serve slice) must cost one relaxed atomic load when no
//!    subscriber exists — no lock, no allocation. This is the same
//!    contract `apr-telemetry` makes for disabled recording, and the
//!    `no_alloc` test pins it the same way.
//! 2. **Bounded.** A slow subscriber never blocks a publisher and never
//!    grows memory: each subscription owns a fixed-capacity deque and
//!    drops its *oldest* sample on overflow, counting what it lost.
//! 3. **Broadcast.** Every live subscriber sees every sample published
//!    after it subscribed (subject to its own bound).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::Duration;

use crate::ledger::LedgerSample;

/// Default per-subscription queue bound.
pub const DEFAULT_SUBSCRIPTION_CAPACITY: usize = 1024;

/// Per-slice progress of one serve session, published by the scheduler
/// worker after each slice it grants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSample {
    /// Process-unique id of the publishing service. Session ids restart
    /// at 1 in every service and the hub is process-global, so a consumer
    /// needs both to tell two services' sessions apart.
    pub service: u64,
    /// Session id, unique within its service.
    pub session: u64,
    /// Steps completed so far.
    pub steps_done: u64,
    /// Target step count.
    pub target_steps: u64,
    /// Slices granted so far (this sample reports the latest one).
    pub slice: u64,
    /// Stepping throughput of the slice just finished (steps per second
    /// of pure stepping time, excluding resume/suspend overhead).
    pub steps_per_sec: f64,
    /// Whether the session's cold build was served from the warm-state
    /// cache (`None` until known, i.e. for resumed slices it carries the
    /// admission-time answer).
    pub cache_hit: Option<bool>,
    /// True on the sample announcing session completion.
    pub completed: bool,
}

/// Service-level aggregate counters, published occasionally by the
/// scheduler (queue depth and in-flight counts move with every grant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSample {
    /// Sessions admitted since service start.
    pub admitted: u64,
    /// Sessions completed (successfully or failed).
    pub completed: u64,
    /// Sessions currently queued.
    pub queued: u64,
    /// Sessions currently running or parked mid-flight.
    pub inflight: u64,
}

/// Anything publishable on the hub. All variants are `Copy`: publishing
/// never allocates, so the nobody-listening fast path stays free and the
/// somebody-listening path is a couple of deque writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sample {
    /// A conservation-ledger record.
    Ledger(LedgerSample),
    /// Serve session progress.
    Progress(ProgressSample),
    /// Service-level aggregates.
    Service(ServiceSample),
}

#[derive(Debug)]
struct SubscriberInner {
    queue: Mutex<VecDeque<Sample>>,
    ready: Condvar,
    capacity: usize,
    dropped: AtomicU64,
}

/// The broadcast hub. Most code uses the process-global instance via
/// [`hub`]; tests construct their own for isolation.
#[derive(Debug, Default)]
pub struct MetricsHub {
    subscribers: Mutex<Vec<Weak<SubscriberInner>>>,
    active: AtomicUsize,
    published: AtomicU64,
}

impl MetricsHub {
    /// New hub with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a sample to every live subscriber. With no subscribers
    /// this is one relaxed atomic load — safe to call from hot paths.
    #[inline]
    pub fn publish(&self, sample: Sample) {
        if self.active.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.publish_slow(sample);
    }

    fn publish_slow(&self, sample: Sample) {
        let mut subs = self.subscribers.lock().unwrap();
        subs.retain(|weak| {
            let Some(sub) = weak.upgrade() else {
                return false;
            };
            let mut queue = sub.queue.lock().unwrap();
            if queue.len() == sub.capacity {
                queue.pop_front();
                sub.dropped.fetch_add(1, Ordering::Relaxed);
            }
            queue.push_back(sample);
            drop(queue);
            sub.ready.notify_all();
            true
        });
        self.active.store(subs.len(), Ordering::Relaxed);
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// Subscribe with the default queue bound.
    pub fn subscribe(&self) -> Subscription {
        self.subscribe_with_capacity(DEFAULT_SUBSCRIPTION_CAPACITY)
    }

    /// Subscribe with an explicit queue bound (min 1). The subscription
    /// sees every sample published after this call, oldest dropped first
    /// if the consumer lags past `capacity`.
    pub fn subscribe_with_capacity(&self, capacity: usize) -> Subscription {
        let inner = Arc::new(SubscriberInner {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        });
        let mut subs = self.subscribers.lock().unwrap();
        subs.retain(|w| w.strong_count() > 0);
        subs.push(Arc::downgrade(&inner));
        self.active.store(subs.len(), Ordering::Relaxed);
        Subscription { inner }
    }

    /// Samples published while at least one subscriber was live.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Live subscriptions right now.
    pub fn subscriber_count(&self) -> usize {
        let mut subs = self.subscribers.lock().unwrap();
        subs.retain(|w| w.strong_count() > 0);
        let n = subs.len();
        self.active.store(n, Ordering::Relaxed);
        n
    }
}

/// A bounded receive handle returned by [`MetricsHub::subscribe`].
/// Dropping it unsubscribes (publishers notice lazily, on their next
/// publish).
#[derive(Debug)]
pub struct Subscription {
    inner: Arc<SubscriberInner>,
}

impl Subscription {
    /// Pop the oldest queued sample, if any, without blocking.
    pub fn try_recv(&self) -> Option<Sample> {
        self.inner.queue.lock().unwrap().pop_front()
    }

    /// Pop the oldest queued sample, waiting up to `timeout` for one to
    /// arrive.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Sample> {
        let mut queue = self.inner.queue.lock().unwrap();
        if let Some(s) = queue.pop_front() {
            return Some(s);
        }
        let (mut queue, _) = self
            .inner
            .ready
            .wait_timeout_while(queue, timeout, |q| q.is_empty())
            .unwrap();
        queue.pop_front()
    }

    /// Drain everything currently queued, oldest first.
    pub fn drain(&self) -> Vec<Sample> {
        self.inner.queue.lock().unwrap().drain(..).collect()
    }

    /// Samples this subscription lost to its bound.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Samples currently queued.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().unwrap().len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

static GLOBAL: OnceLock<MetricsHub> = OnceLock::new();

/// The process-global hub every instrumented crate publishes to.
pub fn hub() -> &'static MetricsHub {
    GLOBAL.get_or_init(MetricsHub::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(session: u64, steps_done: u64) -> Sample {
        Sample::Progress(ProgressSample {
            service: 0,
            session,
            steps_done,
            target_steps: 100,
            slice: 1,
            steps_per_sec: 0.0,
            cache_hit: None,
            completed: false,
        })
    }

    #[test]
    fn broadcast_reaches_every_subscriber() {
        let hub = MetricsHub::new();
        let a = hub.subscribe();
        let b = hub.subscribe();
        hub.publish(progress(1, 10));
        hub.publish(progress(2, 20));
        assert_eq!(a.drain().len(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(hub.published(), 2);
    }

    #[test]
    fn publish_without_subscribers_is_dropped() {
        let hub = MetricsHub::new();
        hub.publish(progress(1, 1));
        assert_eq!(hub.published(), 0, "fast path does not even count");
        let sub = hub.subscribe();
        assert!(sub.try_recv().is_none(), "no retroactive delivery");
    }

    #[test]
    fn bound_drops_oldest_and_counts() {
        let hub = MetricsHub::new();
        let sub = hub.subscribe_with_capacity(2);
        for i in 0..5 {
            hub.publish(progress(1, i));
        }
        assert_eq!(sub.dropped(), 3);
        let got = sub.drain();
        assert_eq!(got.len(), 2);
        match got[0] {
            Sample::Progress(p) => assert_eq!(p.steps_done, 3, "oldest were dropped"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dropped_subscription_unregisters() {
        let hub = MetricsHub::new();
        let sub = hub.subscribe();
        assert_eq!(hub.subscriber_count(), 1);
        drop(sub);
        assert_eq!(hub.subscriber_count(), 0);
        hub.publish(progress(1, 1));
        assert_eq!(hub.published(), 0, "publish sees zero active again");
    }

    #[test]
    fn recv_timeout_wakes_on_publish() {
        let hub = Arc::new(MetricsHub::new());
        let sub = hub.subscribe();
        let publisher = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                hub.publish(progress(7, 42));
            })
        };
        let got = sub.recv_timeout(Duration::from_secs(5));
        publisher.join().unwrap();
        match got {
            Some(Sample::Progress(p)) => assert_eq!(p.session, 7),
            other => panic!("{other:?}"),
        }
        assert!(sub.recv_timeout(Duration::from_millis(5)).is_none());
    }
}
