//! Peak resident memory from `/proc`: `VmHWM` of this process, and of the
//! `ftbb-noded` children a launch spawns, sampled while they run (a reaped
//! child's `/proc` entry is gone, so its peak must be read before it exits).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `VmHWM` in KiB from the text of a `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// `(ppid, comm)` from the text of a `/proc/<pid>/stat` file. The command
/// name sits in parentheses and may itself contain spaces or parentheses,
/// so the fields after it are located from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<(u32, String)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let comm = stat.get(open + 1..close)?.to_string();
    let mut rest = stat.get(close + 1..)?.split_whitespace();
    let _state = rest.next()?;
    let ppid = rest.next()?.parse().ok()?;
    Some((ppid, comm))
}

/// `VmHWM` of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// `VmHWM` of this process, in KiB.
pub fn own_vm_hwm_kb() -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Live children of `parent` whose command name is `comm`.
pub fn children_named(parent: u32, comm: &str) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| parse_stat(&s))
                .is_some_and(|(ppid, c)| ppid == parent && c == comm)
        })
        .collect()
}

/// Samples the peak `VmHWM` of this process's children named `comm` on a
/// background thread until [`ChildPeakSampler::finish`].
pub struct ChildPeakSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<HashMap<u32, u64>>,
}

impl ChildPeakSampler {
    /// Start sampling every `every`.
    pub fn start(comm: &'static str, every: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let me = std::process::id();
        let handle = std::thread::spawn(move || {
            let mut peaks: HashMap<u32, u64> = HashMap::new();
            loop {
                // Read once more after the stop flag, so a child that is
                // still alive at the end is sampled as late as possible.
                let last = flag.load(Ordering::Relaxed);
                for pid in children_named(me, comm) {
                    if let Some(kb) = vm_hwm_kb(pid) {
                        let peak = peaks.entry(pid).or_insert(0);
                        *peak = (*peak).max(kb);
                    }
                }
                if last {
                    return peaks;
                }
                std::thread::sleep(every);
            }
        });
        ChildPeakSampler { stop, handle }
    }

    /// Stop sampling; the largest peak any single child reached, in KiB
    /// (`None` if no child was ever seen).
    pub fn finish(self) -> Option<u64> {
        self.stop.store(true, Ordering::Relaxed);
        let peaks = self.handle.join().expect("sampler thread panicked");
        peaks.values().copied().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat() {
        let status =
            "Name:\tftbb-noded\nVmPeak:\t  20000 kB\nVmHWM:\t    4321 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4321));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        let stat = "4242 (odd) name) S 17 4242 4242 0 -1";
        assert_eq!(parse_stat(stat), Some((17, "odd) name".to_string())));
    }

    #[test]
    fn own_peak_is_positive() {
        assert!(own_vm_hwm_kb().unwrap() > 0);
    }

    #[test]
    fn samples_a_live_child() {
        let sampler = ChildPeakSampler::start("sleep", Duration::from_millis(5));
        let mut child = std::process::Command::new("sleep")
            .arg("0.3")
            .spawn()
            .expect("spawn sleep");
        child.wait().expect("wait for sleep");
        let peak = sampler.finish();
        assert!(peak.is_some_and(|kb| kb > 0), "{peak:?}");
    }

    #[test]
    fn no_children_no_peak() {
        let sampler = ChildPeakSampler::start("no-such-child", Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(sampler.finish(), None);
    }
}
