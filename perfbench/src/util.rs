//! Small shared helpers: sample statistics, output digests, process
//! memory and the host stamp.

use capsacc_capsnet::{QuantOutput, QuantTrace};
use capsacc_tensor::Tensor;

/// Median of a sample set (mean of the middle pair on even counts).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolation quantile `q` in `[0, 1]` of a sample set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a, the digest every output check compares.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(v.to_le_bytes());
    }

    pub fn tensor(&mut self, t: &Tensor<i8>) {
        self.u64(t.shape().len() as u64);
        for &d in t.shape() {
            self.u64(d as u64);
        }
        self.bytes(t.data().iter().map(|&x| x as u8));
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_output(h: &mut Fnv, o: &QuantOutput) {
    h.u64(o.class_norms.len() as u64);
    h.bytes(o.class_norms.iter().copied());
    h.u64(o.predicted as u64);
    h.tensor(&o.class_caps);
    h.tensor(&o.couplings);
    h.u64(o.stats.macs);
    h.u64(o.stats.saturations);
}

/// Digest of an inference's final outputs.
pub fn output_digest(o: &QuantOutput) -> u64 {
    let mut h = Fnv::new();
    hash_output(&mut h, o);
    h.finish()
}

/// Digest of a whole inference trace: every intermediate tensor, every
/// routing-iteration snapshot and the final outputs.
pub fn trace_digest(t: &QuantTrace) -> u64 {
    let mut h = Fnv::new();
    for x in [&t.input_q, &t.conv1_out, &t.pc_out, &t.capsules, &t.u_hat] {
        h.tensor(x);
    }
    h.u64(t.iterations.len() as u64);
    for it in &t.iterations {
        h.tensor(&it.couplings);
        h.tensor(&it.s);
        h.tensor(&it.v);
        h.u64(it.norms.len() as u64);
        h.bytes(it.norms.iter().copied());
        match &it.logits_after_update {
            Some(l) => {
                h.u64(1);
                h.tensor(l);
            }
            None => h.u64(0),
        }
    }
    hash_output(&mut h, &t.output);
    h.finish()
}

/// This process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The SIMD path the functional engine's kernel dispatches to on this
/// host (the engine makes the same runtime feature checks).
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vnni")
        {
            return "avx512-vnni";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string())
}

/// One line naming the host and build a result came from.
pub fn stamp(workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} cpu=\"{}\" simd={} rustc=\"{}\" commit={} source={} \
         workload={workload} seed={seed}",
        cpu_model(),
        simd_path(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_SOURCE_DIGEST"),
    )
}
