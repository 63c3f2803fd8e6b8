//! Output checks. Every op (one kernel run) is checked; a
//! failed check is counted against the op, never raised as a panic.

use std::collections::BTreeMap;
use std::path::Path;

/// Simulated cycles of the seed-independent kernels, regenerated with
/// `--regen-pinned` (see README.md).
const PINNED: &str = include_str!("../pinned_cycles.txt");

/// What a kernel's output must be.
#[derive(Clone, Debug)]
pub enum Expect {
    /// `C` of a GEMM, from `kernels::reference::gemm`.
    Matrix(Vec<f32>),
    /// `y` of an SpMV, from the CPU product of the seeded CSR matrix.
    Vector(Vec<f32>),
    /// The π estimate (result element times the step width).
    Pi { step: f32 },
}

/// Parse `label cycles` lines (blank lines and `#` comments skipped).
pub fn parse_pinned(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(label), Some(cycles), None) = (it.next(), it.next(), it.next()) else {
            return Err(format!(
                "pinned cycles line {}: expected `label cycles`",
                n + 1
            ));
        };
        let cycles = cycles
            .parse()
            .map_err(|_| format!("pinned cycles line {}: bad count {cycles:?}", n + 1))?;
        out.insert(label.to_string(), cycles);
    }
    Ok(out)
}

/// The pinned cycles shipped with the benchmark.
pub fn pinned() -> BTreeMap<String, u64> {
    parse_pinned(PINNED).expect("pinned_cycles.txt is well formed")
}

/// Counts attempted and failed ops and keeps what a later pass must
/// reproduce (simulated cycles and bundle digests of each label).
pub struct Checker {
    pub pinned: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    seen_cycles: BTreeMap<String, u64>,
    seen_predictions: BTreeMap<String, u64>,
    seen_digests: BTreeMap<String, u64>,
}

impl Checker {
    pub fn new(pinned: BTreeMap<String, u64>) -> Self {
        Checker {
            pinned,
            attempted: 0,
            failed: 0,
            seen_cycles: BTreeMap::new(),
            seen_predictions: BTreeMap::new(),
            seen_digests: BTreeMap::new(),
        }
    }

    /// Record one op: `Ok` when every check passed, `Err` with the reason
    /// otherwise (printed to stderr and counted).
    pub fn op(&mut self, label: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("layerbench: op `{label}` failed: {why}");
        }
    }

    /// Simulated cycles must equal the pinned value (when pinned) and the
    /// value any earlier pass of this run produced for the same label.
    pub fn cycles(&mut self, label: &str, cycles: u64) -> Result<(), String> {
        if let Some(&want) = self.pinned.get(label) {
            if want != cycles {
                return Err(format!("{cycles} simulated cycles, pinned {want}"));
            }
        }
        same_as_before(&mut self.seen_cycles, label, cycles, "simulated cycles")
    }

    /// A predicted cycle count must match every earlier pass of this run.
    pub fn prediction(&mut self, label: &str, cycles: u64) -> Result<(), String> {
        same_as_before(&mut self.seen_predictions, label, cycles, "predicted cycles")
    }

    /// A bundle's digest must match every earlier pass of this run.
    pub fn digest(&mut self, label: &str, digest: u64) -> Result<(), String> {
        same_as_before(&mut self.seen_digests, label, digest, "bundle digest")
    }
}

fn same_as_before(
    seen: &mut BTreeMap<String, u64>,
    label: &str,
    v: u64,
    what: &str,
) -> Result<(), String> {
    match seen.insert(label.to_string(), v) {
        Some(before) if before != v => Err(format!("{what} {v:#x} differs from {before:#x}")),
        _ => Ok(()),
    }
}

/// Check a kernel's output buffer against its expectation.
pub fn output(expect: &Expect, got: &[f32]) -> Result<(), String> {
    match expect {
        Expect::Matrix(want) | Expect::Vector(want) => {
            if got.len() != want.len() {
                return Err(format!("{} outputs, expected {}", got.len(), want.len()));
            }
            match got
                .iter()
                .zip(want)
                .position(|(g, w)| (g - w).abs() > 1e-3 * w.abs().max(1.0))
            {
                Some(i) => Err(format!("element {i} is {}, expected {}", got[i], want[i])),
                None => Ok(()),
            }
        }
        Expect::Pi { step } => {
            let est = got.first().copied().unwrap_or(f32::NAN) * step;
            if (est - std::f32::consts::PI).abs() < 1e-3 {
                Ok(())
            } else {
                Err(format!("π estimate {est}"))
            }
        }
    }
}

/// FNV-1a over a bundle's `.prv`, `.pcf` and `.row` files; also returns
/// their total size in bytes.
pub fn bundle_digest(stem: &Path) -> Result<(u64, u64), String> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut bytes = 0u64;
    for ext in ["prv", "pcf", "row"] {
        let mut path = stem.as_os_str().to_owned();
        path.push(format!(".{ext}"));
        let path = std::path::PathBuf::from(path);
        let data = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        bytes += data.len() as u64;
        for b in data {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok((h, bytes))
}
