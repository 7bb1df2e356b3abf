//! Atomic engine checkpoints.
//!
//! A checkpoint file pairs a log position with the serialized engine
//! state(s) at that position: "replaying records `>= replay_from_seq`
//! through these engines resumes the stream exactly". Sharded deployments
//! store one snapshot per shard in a single file, so the set is atomic.
//!
//! ## File layout (big-endian)
//!
//! ```text
//! magic            u32 (SACK)
//! version          u16 (3)
//! replay_from_seq  u64
//! engines          u32 · engines × { len u32 · engine snapshot frame }
//! crc              u32 over everything above
//! ```
//!
//! An engine snapshot frame (version 3) writes events, not layout (see
//! [`sase_core::snapshot`]):
//!
//! ```text
//! events           u32 · events × { type str · ts u64 · attrs u32 · attrs × value }
//! queries          u32 · queries × {
//!                    name str · stats (u32 10 · 10 × u64) · last_ts (u8 0 | u8 1 · u64)
//!                    · events_since_sweep u64
//!                    · entries u32 · entries × { event u32 · place (u8 0 stack | 1 negation) · index u32 } }
//! stream_clocks    u32 · × { stream (u8 0 | u8 1 · str) · ts u64 }
//! derived_streams  u32 · × { type str · attrs u32 · × { name str · type u8 } · engine_registered u8 · reusable u8 }
//! ```
//!
//! Version 2 is the same frame with 9 counters: it kept no `eval_errors`,
//! which reads as 0. Version 1 wrote each query's layout instead: AIS
//! stacks with pruning bases and RIPs under partition keys, keyed negation
//! buckets, and 11 counters. Files of both older versions are converted as
//! they are read ([`load_latest_checkpoint`] takes all three); nothing
//! writes them.
//!
//! Files are written to a temporary name, fsynced, then renamed into
//! place (`ckpt-<seq>.ckpt`) and the directory fsynced — a crash leaves
//! either the old set of checkpoints or the old set plus a complete new
//! one, never a half-written file under a live name.
//! [`load_latest_checkpoint`] walks checkpoints newest-first and skips
//! corrupt ones, so recovery degrades to an older checkpoint (plus a
//! longer replay) instead of failing.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use sase_core::snapshot::EngineSnapshot;

use crate::codec::{
    crc32, get_engine_snapshot, get_engine_snapshot_v1, get_engine_snapshot_v2,
    put_engine_snapshot, ByteReader, ByteWriter,
};
use crate::error::{Result, StoreError};

/// Checkpoint file magic ("SACK": SASE checkpoint).
pub const CKPT_MAGIC: u32 = 0x5341_434B;
/// Checkpoint format version this build writes.
pub const CKPT_VERSION: u16 = 3;

/// A loaded (or to-be-written) checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// First log record sequence number NOT reflected in the snapshots:
    /// recovery replays the log from here.
    pub replay_from_seq: u64,
    /// One snapshot per engine (one for a plain engine, one per shard for
    /// a sharded deployment, in shard order).
    pub engines: Vec<EngineSnapshot>,
}

fn checkpoint_file_name(seq: u64) -> String {
    format!("ckpt-{seq:016x}.ckpt")
}

fn encode(ckpt: &Checkpoint) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(CKPT_MAGIC);
    w.u16(CKPT_VERSION);
    w.u64(ckpt.replay_from_seq);
    w.u32(ckpt.engines.len() as u32);
    for e in &ckpt.engines {
        w.len_prefixed(|blob| put_engine_snapshot(blob, e));
    }
    w.u32(crc32(w.as_slice()));
    w.into_bytes()
}

fn decode(path: &Path, bytes: &[u8]) -> Result<Checkpoint> {
    let corrupt = |detail: String| StoreError::corrupt(path, 0, detail);
    if bytes.len() < 4 {
        return Err(corrupt("file shorter than its CRC trailer".into()));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_be_bytes(crc_bytes.try_into().expect("length checked"));
    if crc32(body) != stored {
        return Err(corrupt("checkpoint CRC mismatch".into()));
    }
    let mut r = ByteReader::new(body);
    let inner = (|| -> Result<Checkpoint> {
        let magic = r.u32()?;
        if magic != CKPT_MAGIC {
            return Err(StoreError::Decode(format!(
                "bad checkpoint magic {magic:#010x}"
            )));
        }
        let get = match r.u16()? {
            1 => get_engine_snapshot_v1,
            2 => get_engine_snapshot_v2,
            CKPT_VERSION => get_engine_snapshot,
            version => {
                return Err(StoreError::Decode(format!(
                    "unsupported checkpoint version {version}"
                )))
            }
        };
        let replay_from_seq = r.u64()?;
        let n = r.count()?;
        let mut engines = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.u32()? as usize;
            if r.remaining() < len {
                return Err(StoreError::Decode("snapshot blob cut short".into()));
            }
            let start = r.position();
            let e = get(&mut r)?;
            if r.position() - start != len {
                return Err(StoreError::Decode(
                    "snapshot blob length does not match its frame".into(),
                ));
            }
            engines.push(e);
        }
        r.expect_end()?;
        Ok(Checkpoint {
            replay_from_seq,
            engines,
        })
    })();
    inner.map_err(|e| match e {
        StoreError::Decode(d) => corrupt(d),
        other => other,
    })
}

/// Write a checkpoint atomically. Returns the file path.
///
/// Re-checkpointing at the same sequence number replaces the previous file
/// (the rename is atomic either way).
pub fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> Result<PathBuf> {
    std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, "create dir", e))?;
    let final_path = dir.join(checkpoint_file_name(ckpt.replay_from_seq));
    let tmp_path = dir.join(format!(
        "{}.tmp",
        checkpoint_file_name(ckpt.replay_from_seq)
    ));
    let bytes = encode(ckpt);
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp_path)
        .map_err(|e| StoreError::io(&tmp_path, "create", e))?;
    f.write_all(&bytes)
        .map_err(|e| StoreError::io(&tmp_path, "write", e))?;
    f.sync_all()
        .map_err(|e| StoreError::io(&tmp_path, "fsync", e))?;
    drop(f);
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| StoreError::io(&final_path, "rename", e))?;
    let d = File::open(dir).map_err(|e| StoreError::io(dir, "open dir", e))?;
    d.sync_all()
        .map_err(|e| StoreError::io(dir, "fsync dir", e))?;
    Ok(final_path)
}

/// Paths of all checkpoint files in `dir`, newest (highest sequence)
/// first. Leftover `.tmp` files from interrupted writes are ignored.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(StoreError::io(dir, "read dir", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, "read dir", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(hex) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".ckpt"))
        {
            if let Ok(seq) = u64::from_str_radix(hex, 16) {
                found.push((seq, entry.path()));
            }
        }
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

/// Load the newest valid checkpoint, skipping (and reporting) corrupt
/// ones. Returns `(checkpoint, corrupt file paths)`; the checkpoint is
/// `None` when no valid one exists (recover by replaying the whole log).
pub fn load_latest_checkpoint(dir: &Path) -> Result<(Option<Checkpoint>, Vec<PathBuf>)> {
    let mut corrupt = Vec::new();
    for (_, path) in list_checkpoints(dir)? {
        let bytes = std::fs::read(&path).map_err(|e| StoreError::io(&path, "read", e))?;
        match decode(&path, &bytes) {
            Ok(ckpt) => return Ok((Some(ckpt), corrupt)),
            Err(StoreError::Corrupt { .. }) => corrupt.push(path),
            Err(e) => return Err(e),
        }
    }
    Ok((None, corrupt))
}

/// Delete all but the newest `keep` checkpoints.
pub fn prune_checkpoints(dir: &Path, keep: usize) -> Result<()> {
    for (_, path) in list_checkpoints(dir)?.into_iter().skip(keep.max(1)) {
        std::fs::remove_file(&path).map_err(|e| StoreError::io(&path, "remove", e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sase_core::engine::Engine;
    use sase_core::event::retail_registry;
    use sase_core::value::Value;

    fn tmp_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sase-store-ckpt-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_snapshot(events: u64) -> EngineSnapshot {
        let reg = retail_registry();
        let mut engine = Engine::new(reg.clone());
        engine
            .register(
                "q",
                "EVENT SEQ(SHELF_READING x, EXIT_READING z) \
                 WHERE x.TagId = z.TagId WITHIN 100 RETURN x.TagId AS tag",
            )
            .unwrap();
        for ts in 1..=events {
            let e = reg
                .build_event(
                    "SHELF_READING",
                    ts,
                    vec![Value::Int(1), Value::str("p"), Value::Int(1)],
                )
                .unwrap();
            engine.process_batch(&[e]).unwrap();
        }
        engine.snapshot()
    }

    #[test]
    fn write_load_round_trip() {
        let dir = tmp_dir("roundtrip");
        let ckpt = Checkpoint {
            replay_from_seq: 42,
            engines: vec![sample_snapshot(5), sample_snapshot(2)],
        };
        let path = write_checkpoint(&dir, &ckpt).unwrap();
        assert!(path.to_string_lossy().contains("ckpt-"));
        let (loaded, corrupt) = load_latest_checkpoint(&dir).unwrap();
        assert!(corrupt.is_empty());
        assert_eq!(loaded.unwrap(), ckpt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_wins_and_corrupt_falls_back() {
        let dir = tmp_dir("fallback");
        let old = Checkpoint {
            replay_from_seq: 10,
            engines: vec![sample_snapshot(3)],
        };
        let new = Checkpoint {
            replay_from_seq: 20,
            engines: vec![sample_snapshot(6)],
        };
        write_checkpoint(&dir, &old).unwrap();
        let new_path = write_checkpoint(&dir, &new).unwrap();

        let (loaded, _) = load_latest_checkpoint(&dir).unwrap();
        assert_eq!(loaded.unwrap().replay_from_seq, 20);

        // Corrupt the newest: recovery falls back to the older one.
        let mut bytes = std::fs::read(&new_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&new_path, &bytes).unwrap();
        let (loaded, corrupt) = load_latest_checkpoint(&dir).unwrap();
        assert_eq!(loaded.unwrap().replay_from_seq, 10);
        assert_eq!(corrupt, vec![new_path]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_checkpoints_never_panic() {
        let dir = tmp_dir("trunc");
        let ckpt = Checkpoint {
            replay_from_seq: 7,
            engines: vec![sample_snapshot(4)],
        };
        let path = write_checkpoint(&dir, &ckpt).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (loaded, corrupt) = load_latest_checkpoint(&dir).unwrap();
            assert!(loaded.is_none(), "cut at {cut} must not validate");
            assert_eq!(corrupt.len(), 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_no_checkpoint() {
        let dir = tmp_dir("missing");
        let (loaded, corrupt) = load_latest_checkpoint(&dir).unwrap();
        assert!(loaded.is_none());
        assert!(corrupt.is_empty());
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmp_dir("prune");
        for seq in [5u64, 10, 15, 20] {
            write_checkpoint(
                &dir,
                &Checkpoint {
                    replay_from_seq: seq,
                    engines: vec![sample_snapshot(1)],
                },
            )
            .unwrap();
        }
        prune_checkpoints(&dir, 2).unwrap();
        let left = list_checkpoints(&dir).unwrap();
        let seqs: Vec<u64> = left.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![20, 15]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
