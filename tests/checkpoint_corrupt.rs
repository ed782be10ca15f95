//! Golden corpus of corrupt checkpoint files.
//!
//! Every damaged artifact a crash or bit-rot can produce must surface as a
//! *typed* [`CheckpointError`] — never a panic, never a silently wrong
//! restore. The corpus is generated from one good file so it always tracks
//! the current container format.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rflash::core::checkpoint::{
    read_checkpoint, verify_checkpoint, CheckpointError, CHECKPOINT_FORMAT,
};
use rflash::core::RuntimeParams;
use rflash::hugepages::Policy;
use rflash::mesh::{Domain, MeshConfig};

/// A scratch path no other call returns: tests run on parallel threads of
/// one process and several of them ask for the same `name` (every test
/// regenerates the `golden` file), so the pid alone does not separate them.
fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rflash-ckpt-corpus-{}-{n}-{name}",
        std::process::id()
    ))
}

/// A small good checkpoint to corrupt, plus its raw bytes and header span.
fn golden() -> (Vec<u8>, usize) {
    let cfg = MeshConfig::test_2d();
    let mut domain = Domain::new(cfg, Policy::None);
    let root = domain.tree.leaves()[0];
    domain.tree.refine_block(root, &mut domain.unk);
    for id in domain.tree.leaves() {
        for (i, v) in domain.unk.block_slab_mut(id.idx()).iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
    }
    let params = RuntimeParams {
        use_hw: false,
        ..RuntimeParams::with_mesh(cfg)
    };
    let path = scratch("golden");
    rflash::core::checkpoint::write_checkpoint(&path, &domain, &params, 1.0, 4, 0.0).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let header_len = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
    (bytes, header_len)
}

fn read_bytes(name: &str, bytes: &[u8]) -> Result<(), CheckpointError> {
    let path = scratch(name);
    std::fs::write(&path, bytes).unwrap();
    let out = read_checkpoint(&path).map(|_| ());
    std::fs::remove_file(&path).unwrap();
    out
}

#[test]
fn golden_file_itself_restores() {
    let (bytes, _) = golden();
    read_bytes("good", &bytes).expect("the uncorrupted golden file must restore");
}

#[test]
fn empty_and_tiny_files_are_truncation_errors() {
    for (name, bytes) in [
        ("empty", &b""[..]),
        ("three-bytes", &b"\x01\x02\x03"[..]),
        ("just-length", &42u64.to_le_bytes()[..]),
    ] {
        match read_bytes(name, bytes) {
            Err(CheckpointError::Truncated { .. }) => {}
            Err(other) => panic!("{name}: expected Truncated, got {other}"),
            Ok(()) => panic!("{name}: expected Truncated, got Ok"),
        }
    }
}

#[test]
fn truncated_header_is_typed() {
    let (bytes, header_len) = golden();
    // Cut inside the header JSON.
    match read_bytes("trunc-header", &bytes[..8 + header_len / 2]) {
        Err(CheckpointError::Truncated { what }) => assert!(what.contains("header"), "{what}"),
        Err(other) => panic!("expected Truncated, got {other}"),
        Ok(()) => panic!("expected Truncated, got Ok"),
    }
}

#[test]
fn truncated_slab_is_typed() {
    let (bytes, _) = golden();
    // Cut inside the last slab: the declared-payload-vs-file-size bound
    // catches the tear before any slab read trusts the declared sizes.
    match read_bytes("trunc-slab", &bytes[..bytes.len() - 17]) {
        Err(CheckpointError::PayloadBeyondEof { declared, actual }) => {
            assert_eq!(declared as usize, bytes.len());
            assert_eq!(actual as usize, bytes.len() - 17);
        }
        Err(other) => panic!("expected PayloadBeyondEof, got {other}"),
        Ok(()) => panic!("expected PayloadBeyondEof, got Ok"),
    }
}

#[test]
fn corrupt_header_bytes_fail_the_header_crc() {
    let (mut bytes, header_len) = golden();
    // Flip one byte inside the JSON (keep it printable to be sneaky).
    bytes[8 + header_len / 2] ^= 0x01;
    match read_bytes("bad-header-crc", &bytes) {
        Err(CheckpointError::HeaderCrc { stored, computed }) => assert_ne!(stored, computed),
        Err(other) => panic!("expected HeaderCrc, got {other}"),
        Ok(()) => panic!("expected HeaderCrc, got Ok"),
    }
}

#[test]
fn corrupt_slab_bytes_fail_that_slab_crc() {
    let (mut bytes, _) = golden();
    let n = bytes.len();
    bytes[n - 9] ^= 0x80;
    match read_bytes("bad-slab-crc", &bytes) {
        Err(CheckpointError::SlabCrc { index, .. }) => {
            assert!(index > 0, "the flipped byte sits in a later slab")
        }
        Err(other) => panic!("expected SlabCrc, got {other}"),
        Ok(()) => panic!("expected SlabCrc, got Ok"),
    }
}

/// Pull `per_block` (doubles per slab) out of the golden header JSON.
fn golden_per_block(bytes: &[u8], header_len: usize) -> usize {
    let header: serde_json::Value = serde_json::from_slice(&bytes[8..8 + header_len]).unwrap();
    let serde_json::Value::Object(fields) = header else {
        panic!("header must be a JSON object");
    };
    let (_, per_block) = fields.iter().find(|(k, _)| k == "per_block").unwrap();
    let serde_json::Value::U64(per_block) = per_block else {
        panic!("per_block must be an integer");
    };
    *per_block as usize
}

#[test]
fn torn_write_at_a_slab_boundary_is_payload_beyond_eof() {
    // A crash can tear the write at *exactly* a slab boundary: every byte
    // on disk is internally consistent (the header parses, every present
    // slab passes its CRC) and only the declared-payload-vs-file-size
    // bound can tell the file is short. Both the full restore path and the
    // cheap `verify_checkpoint` scan the fleet supervisor uses to pick a
    // rollback target must reject it — typed, never a panic.
    let (bytes, header_len) = golden();
    let per_slab = golden_per_block(&bytes, header_len) * 8;
    let payload_start = 8 + header_len + 4;
    let nslabs = (bytes.len() - payload_start) / per_slab;
    assert!(nslabs >= 2, "the golden file must hold at least two slabs");
    for keep in 0..nslabs {
        let cut = payload_start + keep * per_slab;
        let name = format!("torn-at-slab-{keep}");
        match read_bytes(&name, &bytes[..cut]) {
            Err(CheckpointError::PayloadBeyondEof { declared, actual }) => {
                assert_eq!(declared as usize, bytes.len());
                assert_eq!(actual as usize, cut);
            }
            Err(other) => panic!("{name}: expected PayloadBeyondEof, got {other}"),
            Ok(()) => panic!("{name}: expected PayloadBeyondEof, got Ok"),
        }
        // verify_checkpoint must agree — it is the rollback-target gate.
        let path = scratch(&name);
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match verify_checkpoint(&path) {
            Err(CheckpointError::PayloadBeyondEof { .. }) => {}
            other => panic!("{name}: verify must reject the torn file, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn header_declaring_phantom_slabs_is_payload_beyond_eof() {
    // The dual corruption: the file is whole, but the header claims more
    // payload than the file holds (a torn rewrite that preserved a longer
    // header, or bit-rot in the leaf list). Caught by the same bound,
    // before any slab allocation trusts the declared sizes.
    let bytes = with_doctored_header(|fields| {
        let slot = fields.iter_mut().find(|(k, _)| k == "leaves").unwrap();
        let serde_json::Value::Array(ref mut leaves) = slot.1 else {
            panic!("leaves must be an array");
        };
        let last = leaves.last().unwrap().clone();
        leaves.push(last);
        let slot = fields.iter_mut().find(|(k, _)| k == "slab_crcs").unwrap();
        let serde_json::Value::Array(ref mut crcs) = slot.1 else {
            panic!("slab_crcs must be an array");
        };
        let last = crcs.last().unwrap().clone();
        crcs.push(last);
    });
    match read_bytes("phantom-slab", &bytes) {
        Err(CheckpointError::PayloadBeyondEof { declared, actual }) => {
            assert!(declared > actual, "declared {declared} vs actual {actual}")
        }
        Err(other) => panic!("expected PayloadBeyondEof, got {other}"),
        Ok(()) => panic!("expected PayloadBeyondEof, got Ok"),
    }
}

/// Re-serialize the golden header with one JSON field doctored, fixing up
/// the length prefix and header CRC so only the *semantic* corruption
/// remains.
fn with_doctored_header(doctor: impl Fn(&mut Vec<(String, serde_json::Value)>)) -> Vec<u8> {
    let (bytes, header_len) = golden();
    let mut header: serde_json::Value = serde_json::from_slice(&bytes[8..8 + header_len]).unwrap();
    let serde_json::Value::Object(ref mut fields) = header else {
        panic!("header must be a JSON object");
    };
    doctor(fields);
    let new_json = serde_json::to_string(&header).unwrap();
    let mut out = Vec::new();
    out.extend_from_slice(&(new_json.len() as u64).to_le_bytes());
    out.extend_from_slice(new_json.as_bytes());
    out.extend_from_slice(&rflash::core::crc32::crc32(new_json.as_bytes()).to_le_bytes());
    out.extend_from_slice(&bytes[8 + header_len + 4..]);
    out
}

#[test]
fn wrong_per_block_is_a_size_mismatch() {
    // A *small* per_block keeps the declared payload inside the file (the
    // EOF bound stays quiet) so the mesh-geometry check must catch it.
    let bytes = with_doctored_header(|fields| {
        let slot = fields.iter_mut().find(|(k, _)| k == "per_block").unwrap();
        slot.1 = serde_json::Value::U64(16);
    });
    match read_bytes("wrong-per-block", &bytes) {
        Err(CheckpointError::SlabSizeMismatch { file, .. }) => assert_eq!(file, 16),
        Err(other) => panic!("expected SlabSizeMismatch, got {other}"),
        Ok(()) => panic!("expected SlabSizeMismatch, got Ok"),
    }

    // An *oversized* per_block pushes the declared payload past EOF and
    // must be caught by the size bound before any allocation trusts it.
    let bytes = with_doctored_header(|fields| {
        let slot = fields.iter_mut().find(|(k, _)| k == "per_block").unwrap();
        slot.1 = serde_json::Value::U64(12345);
    });
    match read_bytes("huge-per-block", &bytes) {
        Err(CheckpointError::PayloadBeyondEof { declared, actual }) => {
            assert!(declared > actual)
        }
        Err(other) => panic!("expected PayloadBeyondEof, got {other}"),
        Ok(()) => panic!("expected PayloadBeyondEof, got Ok"),
    }
}

#[test]
fn stale_format_magic_is_unsupported() {
    let bytes = with_doctored_header(|fields| {
        let slot = fields.iter_mut().find(|(k, _)| k == "format").unwrap();
        slot.1 = serde_json::Value::Str("rflash-checkpoint-v1".into());
    });
    match read_bytes("stale-format", &bytes) {
        Err(CheckpointError::UnsupportedFormat { found }) => {
            assert_eq!(found, "rflash-checkpoint-v1");
            assert_ne!(found, CHECKPOINT_FORMAT);
        }
        Err(other) => panic!("expected UnsupportedFormat, got {other}"),
        Ok(()) => panic!("expected UnsupportedFormat, got Ok"),
    }
}

/// A file written when `unk` could also be stored structure-of-arrays names
/// that order in its mesh parameters. Its slabs must not be read as FLASH
/// order: the header is refused, with a CRC that matches.
#[test]
fn retired_soa_layout_is_a_format_error() {
    let set_layout = |layout: &'static str| {
        with_doctored_header(move |fields| {
            let (_, params) = fields.iter_mut().find(|(k, _)| k == "params").unwrap();
            let serde_json::Value::Object(params) = params else {
                panic!("params must be a JSON object");
            };
            let (_, mesh) = params.iter_mut().find(|(k, _)| k == "mesh").unwrap();
            let serde_json::Value::Object(mesh) = mesh else {
                panic!("params.mesh must be a JSON object");
            };
            mesh.push(("layout".into(), serde_json::Value::Str(layout.into())));
        })
    };
    let soa = set_layout("VarLast");
    match read_bytes("soa-layout", &soa) {
        Err(CheckpointError::Format(m)) => assert!(m.contains("VarLast"), "{m}"),
        Err(other) => panic!("expected Format, got {other}"),
        Ok(()) => panic!("expected Format, got Ok"),
    }
    let path = scratch("soa-layout-verify");
    std::fs::write(&path, &soa).unwrap();
    let verified = verify_checkpoint(&path);
    std::fs::remove_file(&path).unwrap();
    assert!(
        matches!(verified, Err(CheckpointError::Format(_))),
        "{verified:?}"
    );

    // Files that name the FLASH order (every file written before the SoA
    // layout was retired) still load.
    read_bytes("flash-layout", &set_layout("VarFirst")).expect("the FLASH order must restore");
}

#[test]
fn mismatched_slab_crc_count_is_a_format_error() {
    let bytes = with_doctored_header(|fields| {
        let slot = fields.iter_mut().find(|(k, _)| k == "slab_crcs").unwrap();
        let serde_json::Value::Array(ref mut crcs) = slot.1 else {
            panic!("slab_crcs must be an array");
        };
        crcs.pop();
    });
    match read_bytes("crc-count", &bytes) {
        Err(CheckpointError::Format(m)) => assert!(m.contains("slab CRCs"), "{m}"),
        Err(other) => panic!("expected Format, got {other}"),
        Ok(()) => panic!("expected Format, got Ok"),
    }
}

#[test]
fn absurd_header_length_is_rejected_without_allocation() {
    let mut bytes = vec![0u8; 64];
    bytes[..8].copy_from_slice(&(u64::MAX).to_le_bytes());
    match read_bytes("absurd-length", &bytes) {
        Err(CheckpointError::Format(m)) => assert!(m.contains("header length"), "{m}"),
        Err(other) => panic!("expected Format, got {other}"),
        Ok(()) => panic!("expected Format, got Ok"),
    }
}

#[test]
fn seeded_random_mutations_never_panic() {
    // Fuzz-lite: flip random bytes across the whole container; any result
    // is acceptable except a panic or a silent wrong restore of the header
    // fields we check.
    let (golden_bytes, _) = golden();
    let mut state = 0x5EEDu64;
    let mut rng = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for round in 0..32 {
        let mut bytes = golden_bytes.clone();
        for _ in 0..1 + rng() % 8 {
            let pos = (rng() % bytes.len() as u64) as usize;
            bytes[pos] ^= (rng() % 255 + 1) as u8;
        }
        // Typed error or a restore that passed every CRC — both fine.
        let _ = read_bytes(&format!("fuzz-{round}"), &bytes);
    }
}

/// Regression for the `<path>.tmp` collision: eight threads checkpoint to
/// the *same* path at once. With one shared temp file a writer could
/// rename another's half-written container into place, or find its own
/// temp renamed away (`ENOENT`). Every write must succeed, the published
/// file must be one writer's whole container, and no temp file may remain.
#[test]
fn concurrent_writers_of_one_path_each_publish_a_whole_file() {
    const WRITERS: usize = 8;
    let dir = scratch("concurrent");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shared.ckpt");
    let cfg = MeshConfig::test_2d();
    let params = RuntimeParams {
        use_hw: false,
        ..RuntimeParams::with_mesh(cfg)
    };
    let start = std::sync::Barrier::new(WRITERS);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (path, params, start) = (&path, &params, &start);
            scope.spawn(move || {
                // Each writer's state is recognisable by its step number
                // and constant slab fill.
                let mut domain = Domain::new(cfg, Policy::None);
                let root = domain.tree.leaves()[0];
                domain.tree.refine_block(root, &mut domain.unk);
                for id in domain.tree.leaves() {
                    domain.unk.block_slab_mut(id.idx()).fill(w as f64 + 0.5);
                }
                start.wait();
                for round in 0..4 {
                    rflash::core::checkpoint::write_checkpoint(
                        path, &domain, params, 1.0, w as u64, 0.0,
                    )
                    .unwrap_or_else(|e| panic!("writer {w} round {round}: {e}"));
                    // Whatever is published right now is a whole container.
                    verify_checkpoint(path)
                        .unwrap_or_else(|e| panic!("writer {w} round {round} read back: {e}"));
                }
            });
        }
    });

    let restored = read_checkpoint(&path).expect("the surviving file restores");
    let winner = restored.step as usize;
    assert!(winner < WRITERS, "step {winner} is no writer's");
    for id in restored.domain.tree.leaves() {
        let slab = restored.domain.unk.block_slab(id.idx());
        assert!(
            slab.iter().all(|&v| v == winner as f64 + 0.5),
            "the surviving file mixes writers"
        );
    }
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(
        left,
        vec![std::ffi::OsString::from("shared.ckpt")],
        "temp files left behind"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
