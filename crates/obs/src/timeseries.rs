//! A bounded time-series ring: periodic snapshots of the registry.
//!
//! `/stats` answers "what are the totals *now*"; this module answers
//! "how did they move over the last N seconds" — the view ROADMAP item 2
//! (p99 *during* recovery, time-to-first-ack) is judged against. Each
//! [`Sample`] freezes every counter plus a compact percentile digest of
//! every histogram at one instant; the ring keeps the most recent
//! [`DEFAULT_WINDOW`] samples and drops the oldest beyond that, so a
//! long-running server's introspection memory stays bounded no matter
//! how often it is sampled.
//!
//! Two kinds of samples share the ring: *cadence* samples taken by the
//! background [`Sampler`] thread (one per second by default), and
//! *marks* — samples taken at a named moment (recovery pass boundaries,
//! drain start) so the timeline shows exactly where a phase transition
//! fell between two cadence ticks.

use crate::clock::Stopwatch;
use crate::json::JsonValue;
use crate::registry::RegistrySnapshot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default ring window (samples). At the default one-second cadence this
/// is ten minutes of history.
pub const DEFAULT_WINDOW: usize = 600;

/// Default sampling cadence for [`Sampler::spawn_every`].
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(1000);

/// A histogram's state compressed to what a time-series consumer plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistPoint {
    /// Observations so far (cumulative).
    pub count: u64,
    /// Sum of observations so far (cumulative).
    pub sum: u64,
    /// p50 bucket bound at sample time.
    pub p50: u64,
    /// p99 bucket bound at sample time.
    pub p99: u64,
}

/// One frozen instant: every counter and histogram digest, plus an
/// optional mark label.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Microseconds since the ring was created.
    pub at_us: u64,
    /// `Some(label)` when this sample is a named mark.
    pub mark: Option<String>,
    /// Counter values by name (absolute, not deltas).
    pub counters: Vec<(String, u64)>,
    /// Histogram digests by name.
    pub histograms: Vec<(String, HistPoint)>,
}

impl Sample {
    /// Renders `{at_us, mark?, counters: {...}, histograms: {...}}`.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![("at_us", JsonValue::U64(self.at_us))];
        if let Some(m) = &self.mark {
            fields.push(("mark", JsonValue::Str(m.clone())));
        }
        fields.push((
            "counters",
            JsonValue::Obj(
                self.counters.iter().map(|(k, v)| (k.clone(), JsonValue::U64(*v))).collect(),
            ),
        ));
        fields.push((
            "histograms",
            JsonValue::Obj(
                self.histograms
                    .iter()
                    .map(|(k, h)| {
                        (
                            k.clone(),
                            JsonValue::obj(vec![
                                ("count", JsonValue::U64(h.count)),
                                ("sum", JsonValue::U64(h.sum)),
                                ("p50_le", JsonValue::U64(h.p50)),
                                ("p99_le", JsonValue::U64(h.p99)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
        JsonValue::obj(fields)
    }
}

/// The bounded ring of [`Sample`]s. Shareable behind the owning
/// [`crate::Obs`]; all methods take `&self`.
#[derive(Debug)]
pub struct TimeSeries {
    epoch: Stopwatch,
    window: usize,
    ring: Mutex<VecDeque<Sample>>,
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }
}

impl TimeSeries {
    /// A ring retaining at most `window` samples.
    pub fn with_window(window: usize) -> Self {
        TimeSeries {
            epoch: Stopwatch::start(),
            window: window.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The configured window (samples).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Takes one cadence sample of `snap`.
    pub fn sample(&self, snap: &RegistrySnapshot) {
        self.record(None, snap);
    }

    /// Takes one *marked* sample — a snapshot pinned to a named moment.
    pub fn mark(&self, label: &str, snap: &RegistrySnapshot) {
        self.record(Some(label.to_string()), snap);
    }

    fn record(&self, mark: Option<String>, snap: &RegistrySnapshot) {
        let sample = Sample {
            at_us: 0, // stamped inside the lock, like the tracer ring
            mark,
            counters: snap.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: snap
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistPoint {
                            count: h.count,
                            sum: h.sum,
                            p50: h.quantile_bound(0.50),
                            p99: h.quantile_bound(0.99),
                        },
                    )
                })
                .collect(),
        };
        let mut ring = self.ring.lock().expect("timeseries ring poisoned");
        let mut sample = sample;
        sample.at_us = self.epoch.elapsed_micros();
        if ring.len() == self.window {
            ring.pop_front();
        }
        ring.push_back(sample);
    }

    /// Retained samples, oldest first.
    pub fn snapshot(&self) -> Vec<Sample> {
        self.ring.lock().expect("timeseries ring poisoned").iter().cloned().collect()
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("timeseries ring poisoned").len()
    }

    /// Whether no samples have been taken yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders `{window, samples: [...]}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("window", JsonValue::U64(self.window as u64)),
            ("samples", JsonValue::Arr(self.snapshot().iter().map(Sample::to_json).collect())),
        ])
    }
}

/// A background thread invoking a tick closure on a fixed cadence —
/// the continuous sampler behind `/timeseries`, and the flight
/// recorder's black-box cadence. Stopping (or dropping) joins the
/// thread.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Spawns the cadence thread. `tick` runs once immediately, so even
    /// a short-lived process leaves at least one sample behind, then
    /// once per `interval` until the sampler is stopped or dropped.
    pub fn spawn_every(interval: Duration, tick: Box<dyn Fn() + Send>) -> Self {
        Self::spawn(interval, true, tick)
    }

    /// [`Sampler::spawn_every`] whose first tick comes one `interval`
    /// after the spawn, not at it.
    pub fn spawn_after(interval: Duration, tick: Box<dyn Fn() + Send>) -> Self {
        Self::spawn(interval, false, tick)
    }

    fn spawn(interval: Duration, tick_now: bool, tick: Box<dyn Fn() + Send>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("rh-obs-sampler".into())
            .spawn(move || {
                // Sleep in short slices so stop() returns promptly even
                // with a long cadence.
                let slice = Duration::from_millis(25).min(interval);
                if tick_now {
                    tick();
                }
                loop {
                    let waited = Stopwatch::start();
                    while waited.elapsed() < interval {
                        if stop_flag.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(slice);
                    }
                    tick();
                }
            })
            .expect("spawn sampler thread");
        Sampler { stop, handle: Some(handle) }
    }

    /// Stops the cadence thread and waits for it. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn samples_freeze_counters_and_histogram_digests() {
        let r = Registry::new();
        r.add("x", 3);
        r.observe("h", 100);
        let ts = TimeSeries::default();
        ts.sample(&r.snapshot());
        r.add("x", 2);
        ts.sample(&r.snapshot());
        let samples = ts.snapshot();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].counters, vec![("x".to_string(), 3)]);
        assert_eq!(samples[1].counters, vec![("x".to_string(), 5)]);
        let (name, h) = &samples[0].histograms[0];
        assert_eq!(name, "h");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 100);
        assert_eq!(h.p99, 128); // 100 lands in [64, 128)
        assert!(samples[0].at_us <= samples[1].at_us);
    }

    #[test]
    fn window_is_bounded_oldest_dropped() {
        let r = Registry::new();
        let ts = TimeSeries::with_window(3);
        for i in 0..10u64 {
            r.set("i", i);
            ts.sample(&r.snapshot());
        }
        let samples = ts.snapshot();
        assert_eq!(samples.len(), 3);
        // The survivors are the newest three.
        assert_eq!(samples[0].counters[0].1, 7);
        assert_eq!(samples[2].counters[0].1, 9);
    }

    #[test]
    fn marks_carry_their_label() {
        let r = Registry::new();
        let ts = TimeSeries::default();
        ts.sample(&r.snapshot());
        ts.mark("recovery.start", &r.snapshot());
        let samples = ts.snapshot();
        assert_eq!(samples[0].mark, None);
        assert_eq!(samples[1].mark.as_deref(), Some("recovery.start"));
        let json = ts.to_json();
        let arr = json.get("samples").and_then(JsonValue::as_arr).unwrap();
        assert!(arr[0].get("mark").is_none());
        assert_eq!(arr[1].get("mark").and_then(JsonValue::as_str), Some("recovery.start"));
    }

    #[test]
    fn default_window_wraps_past_600_samples() {
        let r = Registry::new();
        let ts = TimeSeries::default();
        assert_eq!(ts.window(), DEFAULT_WINDOW);
        let extra = 50u64;
        for i in 0..(DEFAULT_WINDOW as u64 + extra) {
            r.set("i", i);
            ts.sample(&r.snapshot());
        }
        // The ring stays bounded and keeps exactly the newest window.
        assert_eq!(ts.len(), DEFAULT_WINDOW);
        let samples = ts.snapshot();
        assert_eq!(samples[0].counters[0].1, extra);
        assert_eq!(samples[DEFAULT_WINDOW - 1].counters[0].1, DEFAULT_WINDOW as u64 + extra - 1);
        // Wraparound preserves time order.
        assert!(samples.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn dropping_the_sampler_joins_its_thread_and_stops_ticking() {
        let r = Arc::new(Registry::new());
        let ts = Arc::new(TimeSeries::default());
        let (r2, ts2) = (Arc::clone(&r), Arc::clone(&ts));
        let sampler = Sampler::spawn_every(
            Duration::from_millis(5),
            Box::new(move || ts2.sample(&r2.snapshot())),
        );
        let sw = Stopwatch::start();
        while ts.is_empty() && sw.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!ts.is_empty(), "sampler never ticked");
        // Drop (not stop) must join the thread; afterwards the tick
        // closure's Arcs are released and no further samples land.
        drop(sampler);
        assert_eq!(Arc::strong_count(&ts), 1, "drop did not release the tick closure");
        let frozen = ts.len();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(ts.len(), frozen, "sampler kept ticking after drop");
    }

    #[test]
    fn sampler_ticks_and_stops() {
        let r = Arc::new(Registry::new());
        let ts = Arc::new(TimeSeries::default());
        let (r2, ts2) = (Arc::clone(&r), Arc::clone(&ts));
        let mut sampler = Sampler::spawn_every(
            Duration::from_millis(5),
            Box::new(move || ts2.sample(&r2.snapshot())),
        );
        // The first tick is immediate; wait for at least one more.
        let sw = Stopwatch::start();
        while ts.len() < 2 && sw.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(ts.len() >= 2, "sampler never ticked twice");
        sampler.stop();
        sampler.stop(); // idempotent
        let frozen = ts.len();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(ts.len(), frozen, "sampler kept ticking after stop");
    }
}
