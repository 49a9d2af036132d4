//! End-to-end golden: a 300-step tiny co-search must land on exactly the
//! recorded bits — final agent weights and state, α-entropy curve and score
//! curve — at one and two pool lanes. Kernel rewrites (tiling, batching,
//! row splits) must keep every accumulation chain intact, so this
//! fingerprint never moves unless the numerics are changed on purpose.
//!
//! The bits of libm's `exp`/`ln`/`tanh` differ between platforms, so the
//! pinned value is only checked on x86_64 Linux.

use a3cs::core::{CoSearch, CoSearchConfig};
use a3cs::drl::fnv1a64;
use a3cs::envs::{Breakout, Environment};

/// FNV-1a 64 of the 300-step tiny search below, recorded before the
/// register-tiled GEMM and batch-lowered conv2d kernels landed.
const GOLDEN: u64 = 0x2a4b_1986_72ea_67ba;

fn factory(seed: u64) -> Box<dyn Environment> {
    Box::new(Breakout::new(seed))
}

fn tiny_config() -> CoSearchConfig {
    let mut cfg = CoSearchConfig::tiny(3, 12, 12, 3);
    cfg.total_steps = 300;
    cfg.eval_every = 100;
    cfg.eval_episodes = 2;
    cfg.eval_max_steps = 40;
    cfg.das_final_iters = 50;
    cfg
}

fn fingerprint() -> u64 {
    let mut search = CoSearch::try_new(tiny_config(), 13).expect("tiny config passes pre-flight");
    let result = search.run(&factory, None);
    let mut bytes = Vec::new();
    let agent = search.agent();
    for p in agent.params().iter().chain(agent.state().iter()) {
        bytes.extend_from_slice(p.name().as_bytes());
        for v in p.value().data() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    for curve in [&result.alpha_entropy_curve, &result.score_curve] {
        for &(step, v) in curve.iter() {
            bytes.extend_from_slice(&step.to_le_bytes());
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn tiny_search_fingerprint_matches_golden_at_one_and_two_lanes() {
    for threads in [1usize, 2] {
        let got = threadpool::with_threads(threads, fingerprint);
        assert_eq!(got, GOLDEN, "threads={threads}: got {got:#018x}");
    }
}
