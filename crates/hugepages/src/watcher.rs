//! Background `/proc/meminfo` monitoring.
//!
//! The paper's test protocol (§III): "Our tests consisted of running the
//! instrumented code with and without huge pages, while monitoring the
//! values of the variables in /proc/meminfo to ensure that huge pages were
//! in use when expected." This watcher samples the huge-page fields on a
//! background thread for the duration of a run and reports the observed
//! envelope.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::meminfo::MemInfo;

/// Summary of the sampled huge-page counters over a watch window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchSummary {
    pub samples: u64,
    /// Lowest and peak anonymous-THP bytes observed.
    pub min_anon_huge: u64,
    pub max_anon_huge: u64,
    /// Peak hugetlb pages in use (total − free).
    pub max_hugetlb_in_use: u64,
    /// First and last snapshots for delta reporting.
    pub first: MemInfo,
    pub last: MemInfo,
}

impl WatchSummary {
    /// Were huge pages observed in use at any point during the window?
    pub fn saw_huge_pages(&self) -> bool {
        self.max_anon_huge > 0 || self.max_hugetlb_in_use > 0
    }
}

impl std::fmt::Display for WatchSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "meminfo watch: {} samples, AnonHugePages min {} MiB / max {} MiB, \
             peak hugetlb pages in use {}",
            self.samples,
            self.min_anon_huge >> 20,
            self.max_anon_huge >> 20,
            self.max_hugetlb_in_use,
        )
    }
}

/// A running watcher; call [`MemInfoWatch::stop`] to join and summarize.
pub struct MemInfoWatch {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<WatchSummary>,
}

impl MemInfoWatch {
    /// Start sampling every `interval`.
    pub fn start(interval: Duration) -> MemInfoWatch {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut summary = WatchSummary::default();
            loop {
                if let Ok(info) = MemInfo::read() {
                    if summary.samples == 0 {
                        summary.first = info;
                        summary.min_anon_huge = info.anon_huge_pages;
                    }
                    summary.last = info;
                    summary.samples += 1;
                    summary.min_anon_huge = summary.min_anon_huge.min(info.anon_huge_pages);
                    summary.max_anon_huge = summary.max_anon_huge.max(info.anon_huge_pages);
                    summary.max_hugetlb_in_use =
                        summary.max_hugetlb_in_use.max(info.huge_pages_in_use());
                }
                if stop2.load(Ordering::Relaxed) {
                    return summary;
                }
                std::thread::sleep(interval);
            }
        });
        MemInfoWatch { stop, handle }
    }

    /// Stop sampling and return the summary (always includes at least the
    /// final sample taken on the way out).
    pub fn stop(self) -> WatchSummary {
        self.stop.store(true, Ordering::Relaxed);
        // A watcher that died mid-run yields an empty summary rather than
        // taking the simulation down with it — sampling is best-effort.
        self.handle.join().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EffectiveBacking, PageBuffer, PageSize, Policy};

    #[test]
    fn watcher_samples_and_stops() {
        let watch = MemInfoWatch::start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(30));
        let summary = watch.stop();
        assert!(summary.samples >= 2, "got {} samples", summary.samples);
        let _ = summary.to_string();
    }

    #[test]
    fn watcher_sees_hugetlb_allocations_when_granted() {
        let watch = MemInfoWatch::start(Duration::from_millis(2));
        let mut buf =
            PageBuffer::<u8>::zeroed(16 << 20, Policy::HugeTlbFs(PageSize::Huge2M)).unwrap();
        // Reserved pages only count as in use once touched.
        buf.as_mut_slice()
            .iter_mut()
            .step_by(2 << 20)
            .for_each(|b| *b = 1);
        // A THP fallback is huge-backed too, but not from the hugetlb pool.
        let granted = matches!(buf.effective_backing(), EffectiveBacking::HugeTlb(_));
        std::thread::sleep(Duration::from_millis(20));
        let summary = watch.stop();
        if granted {
            assert!(
                summary.max_hugetlb_in_use >= 8,
                "expected ≥8 pages in use, saw {}",
                summary.max_hugetlb_in_use
            );
            assert!(summary.saw_huge_pages());
        }
        drop(buf);
    }
}
